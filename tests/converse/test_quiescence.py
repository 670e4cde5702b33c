"""Tests for quiescence detection."""

import pytest

from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.converse.quiescence import QuiescenceDetector
from repro.sim import Environment


def build(nnodes=2, workers=2):
    env = Environment()
    rt = ConverseRuntime(env, RunConfig(nnodes=nnodes, workers_per_process=workers))
    return env, rt


def test_quiescence_after_message_storm():
    env, rt = build()
    received = []

    def sink(pe, msg):
        received.append(msg.payload)

    hid = rt.register_handler(sink)

    def kick(pe, msg):
        for r in range(len(rt.pes)):
            for i in range(5):
                yield from pe.send(r, hid, 64, (r, i))

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt)
    done = qd.start()
    rt.start()
    t = env.run(until=done)
    rt.stop()
    # Quiescence fired only after everything was delivered.
    assert len(received) == len(rt.pes) * 5
    assert t > 0
    assert qd.rounds >= 2


def test_quiescence_waits_for_chains():
    """A message chain keeps the system non-quiescent until it ends."""
    env, rt = build(nnodes=1, workers=2)
    chain_len = 10
    log = []

    def relay(pe, msg):
        hops = msg.payload
        log.append((env.now, hops))
        if hops > 0:
            yield from pe.send((pe.rank + 1) % 2, hid, 64, hops - 1)

    hid = rt.register_handler(relay)
    rt.pes[0].local_q.append(ConverseMessage(hid, 0, chain_len, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=2.0)
    done = qd.start()
    rt.start()
    t_q = env.run(until=done)
    rt.stop()
    t_last_hop = log[-1][0]
    assert len(log) == chain_len + 1
    assert t_q > t_last_hop  # declared only after the chain finished


def test_quiescence_on_idle_system_is_fast():
    env, rt = build(nnodes=1, workers=1)
    qd = QuiescenceDetector(rt, poll_interval_us=1.0)
    done = qd.start()
    rt.start()
    t = env.run(until=done)
    rt.stop()
    assert t < 10_000  # a few polls of an idle system


def test_start_is_idempotent_while_armed():
    env, rt = build(nnodes=1, workers=1)
    qd = QuiescenceDetector(rt)
    e1 = qd.start()
    e2 = qd.start()
    assert e1 is e2


# -- protocol cost (the reduction/broadcast each round stands for) ----------


def test_qd_rounds_charge_protocol_messages_and_latency():
    env, rt = build(nnodes=2, workers=2)  # P = 4
    qd = QuiescenceDetector(rt, poll_interval_us=5.0)
    assert qd.msgs_per_round == 2 * (4 - 1)
    assert qd.round_cost > 0.0
    done = qd.start()
    rt.start()
    t = env.run(until=done)
    rt.stop()
    # An idle system needs three samples: the first primes `prev`, then
    # two consecutive unchanged drained rounds declare quiescence.
    assert qd.rounds == 3
    assert t == pytest.approx(qd.rounds * (qd.poll_interval + qd.round_cost))
    assert qd.protocol_msgs == qd.rounds * qd.msgs_per_round
    # Charges are mirrored into the runtime's ledger (qd.* counters).
    assert rt.qd_rounds == qd.rounds
    assert rt.qd_protocol_msgs == qd.protocol_msgs


def test_qd_single_pe_rounds_are_free():
    """P = 1 needs no reduction: zero messages, zero extra latency."""
    env, rt = build(nnodes=1, workers=1)
    qd = QuiescenceDetector(rt, poll_interval_us=1.0)
    assert qd.msgs_per_round == 0
    assert qd.round_cost == 0.0
    done = qd.start()
    rt.start()
    t = env.run(until=done)
    rt.stop()
    assert qd.protocol_msgs == 0
    assert rt.qd_protocol_msgs == 0
    assert t == pytest.approx(qd.rounds * qd.poll_interval)


# -- retransmit-pending packets are in flight (message-race regression) -----


def test_qd_waits_for_retransmit_pending_packets():
    """QD must not fire while a dropped send awaits retransmission.

    The send goes through the PAMI layer directly (the many-to-many
    pattern), so the Converse created/processed counters never see it;
    while the outage window holds, no FIFO or queue holds a packet for
    it either — the *only* evidence it is still in flight is the
    reliability layer's pending table.  A detector that ignores
    ``rel.in_flight`` declares quiescence during the outage, before the
    message ever arrives.
    """
    from repro.faults import FaultPlan, LinkDownWindow

    env = Environment()
    window_end = 320_000.0  # 200 us outage from t=0
    plan = FaultPlan(
        seed=0,
        down=(LinkDownWindow(None, None, 0.0, window_end),),
        retry_timeout_us=50.0,  # retransmits at 80k, 240k, 560k cycles
        retry_max=12,
    )
    rt = ConverseRuntime(
        env, RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan)
    )
    ctx0 = rt.processes[0].contexts[0]
    ctx1 = rt.processes[1].contexts[0]
    arrivals = []
    ctx1.register_dispatch(0x51, lambda c, t, payload: arrivals.append(env.now))
    qd = QuiescenceDetector(rt, poll_interval_us=5.0)
    quiesced = qd.start()
    rt.start()
    ctx0._post(ctx1.endpoint, 0x51, 32, "retry me")
    env.run(until=env.any_of([quiesced, env.timeout(100_000_000.0)]))
    rt.stop()
    assert quiesced.triggered
    # Delivered exactly once, necessarily after the outage lifted...
    assert len(arrivals) == 1
    assert arrivals[0] > window_end
    # ...and quiescence was declared only after that delivery.
    assert env.now > arrivals[0]
    assert ctx0.reliability.retries > 0
    assert ctx0.reliability.in_flight == 0


def test_qd_credits_gave_up_sends_as_processed():
    """A permanently partitioned reliable send is eventually abandoned
    by the retransmit layer; the give-up must credit the `processed`
    axis, or created > processed forever and QD hangs."""
    from repro.faults import FaultPlan, LinkDownWindow

    env = Environment()
    plan = FaultPlan(
        seed=0,
        down=(LinkDownWindow(None, None, 0.0, 1.0e15),),  # never lifts
        retry_timeout_us=20.0,
        retry_max=2,
    )
    rt = ConverseRuntime(
        env, RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan)
    )
    received = []
    hid = rt.register_handler(lambda pe, msg: received.append(msg.payload))

    def kick(pe, msg):
        yield from pe.send(rt.config.pes_per_node, hid, 64, "doomed")

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=10.0)
    quiesced = qd.start()
    rt.start()
    env.run(until=env.any_of([quiesced, env.timeout(100_000_000.0)]))
    rt.stop()
    assert quiesced.triggered  # the give-up unblocked the detector
    assert received == []
    rels = [
        c.reliability
        for p in rt.processes
        for c in p.client.contexts
        if c.reliability is not None
    ]
    assert sum(r.gave_up for r in rels) == 1
    assert sum(r.in_flight for r in rels) == 0
    # created counted the send; processed was made whole by the give-up.
    assert rt.messages_sent == 1


def test_qd_ignores_best_effort_sends_on_created_axis():
    """Dropped best-effort traffic is invisible to QD: `created` never
    includes it, so a 100%-loss link cannot wedge the detector."""
    from repro.faults import FaultPlan, FaultRates, QOS_BEST_EFFORT

    env = Environment()
    plan = FaultPlan(
        seed=0, per_link={(0, 1): FaultRates(drop=1.0)}
    )
    rt = ConverseRuntime(
        env, RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan)
    )
    received = []
    hid = rt.register_handler(lambda pe, msg: received.append(msg.payload))

    def kick(pe, msg):
        for i in range(6):
            yield from pe.send(
                rt.config.pes_per_node, hid, 64, i, qos=QOS_BEST_EFFORT
            )

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=10.0)
    quiesced = qd.start()
    rt.start()
    env.run(until=env.any_of([quiesced, env.timeout(100_000_000.0)]))
    rt.stop()
    assert quiesced.triggered
    assert received == []  # every packet was dropped on the wire
    assert rt.messages_sent == 0  # created axis: only reliable sends
    assert rt.best_effort_sends == 6
    rels = [
        c.reliability
        for p in rt.processes
        for c in p.client.contexts
        if c.reliability is not None
    ]
    # No retransmit machinery ever engaged for the lost packets.
    assert sum(r.retries for r in rels) == 0
    assert sum(r.gave_up for r in rels) == 0
