"""Tests for the reliability layer: stamp/ACK/retransmit/dedup end-to-end.

These run the real Converse runtime over the simulated torus with
crafted fault plans — certain-duplicate links, lossy links, permanent
partitions — and assert the transport's exactly-once delivery and its
graceful-degradation counters.
"""

import pytest

from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.converse.quiescence import QuiescenceDetector
from repro.faults import FaultPlan, FaultRates, LinkDownWindow
from repro.sim import Environment

HORIZON = 400_000_000.0


def run_reliable(plan, n_msgs=10):
    """Send ``n_msgs`` Converse messages node 0 -> node 1 under ``plan``."""
    env = Environment()
    cfg = RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan)
    rt = ConverseRuntime(env, cfg)
    received = []

    def sink(pe, msg):
        received.append(msg.payload)

    hid = rt.register_handler(sink)

    def kick(pe, msg):
        for i in range(n_msgs):
            yield from pe.send(cfg.pes_per_node, hid, 64, ("m", i))

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=20.0)
    quiesced = qd.start()
    rt.start()
    env.run(until=env.any_of([quiesced, env.timeout(HORIZON)]))
    rt.stop()
    rels = [
        c.reliability
        for p in rt.processes
        for c in p.client.contexts
        if c.reliability is not None
    ]
    return rt, received, rels, quiesced


def rel_total(rels, counter):
    return sum(getattr(r, counter) for r in rels)


# -- wiring ------------------------------------------------------------------


def test_no_plan_means_no_injector_and_no_transport():
    rt = ConverseRuntime(Environment(), RunConfig(nnodes=2, workers_per_process=1))
    assert rt.fault_injector is None
    for proc in rt.processes:
        for ctx in proc.client.contexts:
            assert ctx.reliability is None


def test_null_plan_installs_nothing():
    cfg = RunConfig(nnodes=1, workers_per_process=1, fault_plan=FaultPlan.profile("none"))
    rt = ConverseRuntime(Environment(), cfg)
    assert rt.fault_injector is None
    assert all(
        ctx.reliability is None
        for proc in rt.processes
        for ctx in proc.client.contexts
    )


def test_plan_installs_injector_and_transport():
    plan = FaultPlan.profile("drop5", seed=3)
    rt = ConverseRuntime(Environment(), RunConfig(nnodes=2, workers_per_process=1,
                                                  fault_plan=plan))
    assert rt.fault_injector is not None
    assert rt.fault_plan.name == "drop5" and rt.fault_plan.seed == 3
    assert all(
        ctx.reliability is not None
        for proc in rt.processes
        for ctx in proc.client.contexts
    )


def test_reliable_override_without_faults():
    cfg = RunConfig(nnodes=2, workers_per_process=1, reliable=True)
    rt = ConverseRuntime(Environment(), cfg)
    assert rt.fault_injector is None
    assert all(
        ctx.reliability is not None
        for proc in rt.processes
        for ctx in proc.client.contexts
    )


# -- recovery properties -----------------------------------------------------


def test_reliable_delivery_without_faults_is_exact():
    # A rate-free plan is null (no transport at all — see the wiring
    # tests), so exercise the transport itself via the reliable override.
    env = Environment()
    cfg = RunConfig(nnodes=2, workers_per_process=1, reliable=True)
    rt = ConverseRuntime(env, cfg)
    received = []
    hid = rt.register_handler(lambda pe, msg: received.append(msg.payload))

    def kick(pe, msg):
        for i in range(5):
            yield from pe.send(cfg.pes_per_node, hid, 64, i)

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=20.0)
    quiesced = qd.start()
    rt.start()
    env.run(until=env.any_of([quiesced, env.timeout(HORIZON)]))
    rt.stop()
    rels = [
        c.reliability for p in rt.processes for c in p.client.contexts if c.reliability
    ]
    assert received == list(range(5))
    assert quiesced.triggered
    assert rel_total(rels, "retries") == 0
    assert rel_total(rels, "dup_suppressed") == 0
    assert rel_total(rels, "in_flight") == 0


def test_drop_recovery_delivers_every_message():
    plan = FaultPlan(seed=0, name="lossy", link=FaultRates(drop=0.4))
    _, received, rels, quiesced = run_reliable(plan, n_msgs=10)
    assert sorted(received) == [("m", i) for i in range(10)]
    assert quiesced.triggered
    assert rel_total(rels, "retries") > 0
    assert rel_total(rels, "gave_up") == 0
    assert rel_total(rels, "in_flight") == 0


def test_duplicate_links_suppressed_to_exactly_once():
    plan = FaultPlan(seed=0, name="dup", link=FaultRates(duplicate=1.0))
    _, received, rels, quiesced = run_reliable(plan, n_msgs=10)
    assert sorted(received) == [("m", i) for i in range(10)]
    assert quiesced.triggered
    assert rel_total(rels, "dup_suppressed") > 0


def test_corrupt_links_never_dispatch_damaged_payloads():
    plan = FaultPlan(seed=0, name="bitrot", link=FaultRates(corrupt=0.5))
    _, received, rels, quiesced = run_reliable(plan, n_msgs=10)
    assert sorted(received) == [("m", i) for i in range(10)]
    assert quiesced.triggered
    assert rel_total(rels, "corrupt_dropped") > 0
    assert rel_total(rels, "retries") > 0


def test_gave_up_send_drains_pending_on_partitioned_network():
    """A permanently severed link must not pin in-flight accounting.

    The send bypasses the Converse counters (PAMI-level post, the m2m
    pattern), so quiescence hinges on the transport: after the backoff
    ladder is exhausted the record leaves ``pending`` and the detector
    may declare quiescence on the partitioned machine.
    """
    env = Environment()
    plan = FaultPlan(
        seed=0,
        down=(LinkDownWindow(None, None, 0.0, 1e18),),
        retry_timeout_us=5.0,
        retry_max=2,
    )
    rt = ConverseRuntime(env, RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan))
    ctx0 = rt.processes[0].contexts[0]
    ctx1 = rt.processes[1].contexts[0]
    delivered = []
    ctx1.register_dispatch(0x50, lambda c, t, payload: delivered.append(payload.data))
    qd = QuiescenceDetector(rt, poll_interval_us=5.0)
    quiesced = qd.start()
    rt.start()
    ctx0._post(ctx1.endpoint, 0x50, 32, "doomed")
    rel = ctx0.reliability
    assert rel.in_flight == 1
    env.run(until=env.any_of([quiesced, env.timeout(HORIZON)]))
    rt.stop()
    assert delivered == []
    assert rel.gave_up == 1
    assert rel.in_flight == 0
    assert quiesced.triggered


def test_acks_are_never_user_dispatched():
    """The transport consumes its own ACK dispatch id before user code."""
    from repro.faults.recovery import RELIABLE_ACK_DISPATCH

    plan = FaultPlan(seed=1, name="lossy", link=FaultRates(drop=0.3))
    rt, received, rels, quiesced = run_reliable(plan, n_msgs=8)
    assert quiesced.triggered
    assert rel_total(rels, "acks_sent") >= 8
    # No context ever registered (or needed) a user handler for the id.
    for proc in rt.processes:
        for ctx in proc.client.contexts:
            assert RELIABLE_ACK_DISPATCH not in ctx.dispatch


def test_fault_schedule_is_deterministic_per_seed():
    plan = FaultPlan(seed=4, name="lossy", link=FaultRates(drop=0.3, duplicate=0.1))

    def fingerprint():
        rt, received, rels, quiesced = run_reliable(plan, n_msgs=10)
        return (
            received,
            quiesced.triggered,
            rt.env.now,
            rt.fault_injector.stats.as_dict(),
            rel_total(rels, "retries"),
            rel_total(rels, "dup_suppressed"),
        )

    assert fingerprint() == fingerprint()


# -- bugfix sweep: dedup-window bound + timer lifecycle ----------------------


def test_recv_flow_dedup_window_bounded_after_sender_give_up():
    """A gap abandoned by a given-up sender must not grow `early` forever.

    Pre-fix, seq 0 never arriving meant every later seq parked in the
    early-set permanently: an unbounded leak, and `is_dup` costs grew
    with it.  The bounded window skips the hole once EARLY_WINDOW
    out-of-order arrivals prove the sender moved on.
    """
    from repro.faults.recovery import EARLY_WINDOW, _RecvFlow

    flow = _RecvFlow()
    holes_total = 0
    # Sender gave up on seq 0; seqs 1..EARLY_WINDOW+199 all arrive.
    for seq in range(1, EARLY_WINDOW + 200):
        _in_order, holes = flow.accept(seq)
        holes_total += holes
    assert holes_total == 1  # exactly the abandoned seq 0
    assert len(flow.early) < EARLY_WINDOW
    # Flow is back in order: the next expected seq drains immediately.
    in_order, holes = flow.accept(EARLY_WINDOW + 200)
    assert in_order and holes == 0
    # A late original of the skipped hole now suppresses as a duplicate.
    assert flow.is_dup(0)


def test_window_skip_keeps_exactly_once_under_partial_partition():
    """End-to-end: one give-up plus >EARLY_WINDOW later sends — the
    receiver skips the hole, counts it, and delivers everything else
    exactly once."""
    from repro.faults.recovery import EARLY_WINDOW

    n = EARLY_WINDOW + 80
    # Link down long enough to exhaust the short retry ladder for the
    # first send only; everything sent after recovery flows cleanly.
    plan = FaultPlan(
        seed=0,
        down=(LinkDownWindow(None, None, 0.0, 60_000.0),),
        retry_timeout_us=5.0,
        retry_max=2,
    )
    env = Environment()
    rt = ConverseRuntime(
        env, RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan)
    )
    ctx0 = rt.processes[0].contexts[0]
    ctx1 = rt.processes[1].contexts[0]
    delivered = []
    ctx1.register_dispatch(0x51, lambda c, t, p: delivered.append(p.data))
    qd = QuiescenceDetector(rt, poll_interval_us=5.0)
    rt.start()
    # Phase 1: the doomed send exhausts its ladder inside the outage.
    ctx0._post(ctx1.endpoint, 0x51, 32, ("doomed", 0))
    env.run(until=env.timeout(100_000.0))
    rel0, rel1 = ctx0.reliability, ctx1.reliability
    assert rel0.gave_up == 1
    # Phase 2: the link is back; flood past the dedup window (a fresh
    # detector event — the phase-1 lull may already have quiesced).
    for i in range(1, n + 1):
        ctx0._post(ctx1.endpoint, 0x51, 32, ("ok", i))
    quiesced = qd.start()
    env.run(until=env.any_of([quiesced, env.timeout(HORIZON)]))
    rt.stop()
    assert quiesced.triggered
    assert sorted(delivered) == sorted(("ok", i) for i in range(1, n + 1))
    assert rel1.holes_skipped == 1
    # The receive flow's early-set is drained, not grown without bound.
    for flow in rel1._flows.values():
        assert len(flow.early) < EARLY_WINDOW


def test_ack_cancels_retransmit_timer():
    """An ACKed send's backoff timer must die with the pending record.

    Pre-fix the timer generator kept rescheduling no-op wakeups through
    the whole exponential ladder (~327M cycles of dead heap events per
    send).  Post-fix the ACK cancels it: after quiescence no armed
    event in the heap points past `now`.
    """
    env = Environment()
    cfg = RunConfig(nnodes=2, workers_per_process=1, reliable=True)
    rt = ConverseRuntime(env, cfg)
    received = []
    hid = rt.register_handler(lambda pe, msg: received.append(msg.payload))

    def kick(pe, msg):
        for i in range(6):
            yield from pe.send(cfg.pes_per_node, hid, 64, i)

    kid = rt.register_handler(kick)
    rt.pes[0].local_q.append(ConverseMessage(kid, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=20.0)
    quiesced = qd.start()
    rt.start()
    env.run(until=quiesced)  # no faults: guaranteed to quiesce
    rt.stop()
    rels = [
        c.reliability for p in rt.processes for c in p.client.contexts if c.reliability
    ]
    assert received == list(range(6))
    assert rel_total(rels, "timers_cancelled") == rel_total(rels, "acks_sent")
    assert rel_total(rels, "timers_cancelled") >= 6
    # Cancelled timers may still sit in the heap, but defused: nothing
    # scheduled after `now` still has callbacks armed.
    live = [  # heap introspection is the point of this test
        ev
        for (t, _seq, ev) in env._queue  # repro-lint: disable=P3
        if t > env.now and ev.callbacks
    ]
    assert live == []


def test_retransmitted_then_acked_send_cancels_final_timer():
    """Timers survive retransmits (rearmed per attempt) but die at ACK."""
    plan = FaultPlan(seed=0, name="lossy", link=FaultRates(drop=0.4))
    rt, received, rels, quiesced = run_reliable(plan, n_msgs=10)
    assert quiesced.triggered
    assert sorted(received) == [("m", i) for i in range(10)]
    assert rel_total(rels, "retries") > 0
    assert rel_total(rels, "timers_cancelled") > 0
    assert rel_total(rels, "in_flight") == 0
    env = rt.env
    live = [  # heap introspection is the point of this test
        ev
        for (t, _seq, ev) in env._queue  # repro-lint: disable=P3
        if t > env.now and ev.callbacks
    ]
    # The only live future event is the test's own horizon timeout.
    assert len(live) <= 1
