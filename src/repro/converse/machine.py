"""The Converse machine layer and runtime for BG/Q (§III).

Assembles everything below it — simulated nodes, PAMI contexts,
communication threads — into a running message-driven system, and
implements the send/receive paths the paper optimizes:

* **intra-process**: pointer exchange into the destination PE's L2
  atomic queue (no serialization, no network);
* **eager network path**: Converse envelope + PAMI active message
  (``send_immediate`` for single-packet messages, ``send`` otherwise),
  dispatch callback at the receiver allocates a buffer and enqueues to
  the destination PE;
* **rendezvous path** (large messages): a short RTS header carries the
  source address; the receiver issues ``PAMI_Rget`` (RDMA read) and,
  on completion, enqueues the message and returns an ACK that lets the
  sender free its buffer;
* **communication-thread offload**: with communication threads enabled,
  workers post send closures to comm-thread contexts (round-robin, so
  one chatty PE's load spreads over all comm threads — §III-C) and
  never touch the network themselves.

Three execution modes, as studied in the paper (§III, Fig. 4):
``RunConfig(workers_per_process=1, processes_per_node=64)`` is non-SMP;
more workers per process is SMP; ``comm_threads_per_process > 0`` adds
dedicated communication threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..bgq.machine import BGQMachine
from ..bgq.node import HWThread, Node
from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..bgq.wakeup import WakeupSource
from ..faults import (
    FAULT_TRACK,
    FaultInjector,
    FaultPlan,
    QOS_BEST_EFFORT_FRESH,
    QOS_RELIABLE,
)
from ..faults.recovery import transport_totals
from ..pami.commthread import CommThread
from ..pami.context import AMPayload, Endpoint, PamiClient, PamiContext
from ..pami.manytomany import ManyToManyRegistry
from ..sim import Environment
from ..trace import Tracer
from .alloc import make_allocator
from .messages import ConverseMessage
from .scheduler import PE

__all__ = ["RunConfig", "ConverseProcess", "ConverseRuntime"]

# Reserved PAMI dispatch ids for the Converse machine layer.
DISPATCH_EAGER = 1
DISPATCH_RTS = 2
DISPATCH_ACK = 3


def _unique_by_identity(items) -> List[Any]:
    """Order-preserving identity dedup.

    Keeps the first occurrence of each distinct *object* (equal-but-
    distinct objects are all kept).  The result order follows the input
    order — an ``{id(x): x}`` mapping would key the output on interpreter
    memory layout instead (repro-lint D4).
    """
    seen: set = set()
    out: List[Any] = []
    for obj in items:
        key = id(obj)
        if key not in seen:
            seen.add(key)
            out.append(obj)
    return out


def _hpm_group(node: Node) -> Dict[str, float]:
    """One node's simulated HPM counter group, zero-valued counters skipped.

    The reproduction's analogue of reading the BG/Q performance monitor
    (``bgpm``): L2 atomics by op type, MU descriptor/packet traffic and
    FIFO high-water marks, wakeup-unit signals — read from the native
    statistics those components maintain anyway.
    """
    group: Dict[str, float] = {}
    l2 = node.l2
    for op, n in sorted(l2.op_counts.items()):
        group[f"l2.{op}"] = n
    group["l2.bounded_failed"] = l2.bounded_failed
    mu = node.mu
    group["mu.descriptors"] = mu.descriptors_processed
    group["mu.packets_injected"] = mu.packets_injected
    group["mu.packets_received"] = mu.packets_received
    group["mu.ififo_occupancy_hwm"] = max(
        (f.occupancy_hwm for f in mu._injection), default=0
    )
    group["mu.rfifo_occupancy_hwm"] = max(
        (f.occupancy_hwm for f in mu._reception), default=0
    )
    group["wu.signals"] = sum(f.wakeup.signals for f in mu._reception)
    group["wu.wakeups"] = sum(f.wakeup.wakeups for f in mu._reception)
    group["wu.latched"] = sum(f.wakeup.latched_fires for f in mu._reception)
    return {k: v for k, v in group.items() if v}


@dataclass
class RunConfig:
    """One launch configuration (the paper's "modes").

    The product ``processes_per_node * (workers_per_process +
    comm_threads_per_process)`` must not exceed the node's 64 hardware
    threads.
    """

    nnodes: int = 1
    processes_per_node: int = 1
    workers_per_process: int = 1
    comm_threads_per_process: int = 0
    #: "l2" = the paper's lockless queues; "mutex" = baseline (Fig. 8).
    queue_kind: str = "l2"
    #: "pool" = per-thread L2 pools (§III-B); "gnu" = arena allocator.
    allocator: str = "pool"
    #: "l2" = optimized idle poll (§III-D); "naive" = spin loop.
    idle_poll: str = "l2"
    #: Enable the Projections-style tracer (per-PE timelines for Figs.
    #: 3/9/10, named counters, exporters; see repro.trace).  Costs
    #: memory, off by default.
    trace: bool = False
    #: Fault-injection plan (repro.faults).  None or a null plan means
    #: no faults.
    fault_plan: Optional[FaultPlan] = None
    #: Sequence-numbered ACK/retransmit transport on every PAMI context.
    #: None = auto: enabled exactly when a fault plan is active, so the
    #: fault-free fast path stays trajectory-identical to older builds.
    reliable: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.queue_kind not in ("l2", "mutex"):
            raise ValueError(f"bad queue_kind {self.queue_kind!r}")
        if self.allocator not in ("pool", "gnu"):
            raise ValueError(f"bad allocator {self.allocator!r}")
        if self.idle_poll not in ("l2", "naive"):
            raise ValueError(f"bad idle_poll {self.idle_poll!r}")
        if min(self.nnodes, self.processes_per_node, self.workers_per_process) < 1:
            raise ValueError("nnodes/processes/workers must be >= 1")
        if self.comm_threads_per_process < 0:
            raise ValueError("comm_threads_per_process must be >= 0")
        if self.processes_per_node * self.threads_per_process > 64:
            raise ValueError(
                "configuration exceeds the 64 hardware threads of a BG/Q node"
            )

    @property
    def threads_per_process(self) -> int:
        return self.workers_per_process + self.comm_threads_per_process

    @property
    def is_smp(self) -> bool:
        return self.threads_per_process > 1

    @property
    def pes_per_node(self) -> int:
        return self.processes_per_node * self.workers_per_process

    @property
    def total_pes(self) -> int:
        return self.nnodes * self.pes_per_node


class ConverseProcess:
    """One OS process of the Charm++ job."""

    def __init__(
        self,
        runtime: "ConverseRuntime",
        node: Node,
        proc_index: int,
        thread_base: int,
    ) -> None:
        self.runtime = runtime
        self.node = node
        self.proc_index = proc_index  # index within the node
        cfg = runtime.config
        self.env = runtime.env
        self.params = runtime.params
        self.alloc = make_allocator(node, cfg.allocator, runtime.params)
        self.client = PamiClient(self.env, node, runtime.params)
        self.pes: List[PE] = []

        nthreads = cfg.threads_per_process
        if thread_base + nthreads > node.n_threads:
            raise ValueError(
                f"config needs {nthreads} threads at base {thread_base} but the "
                f"node has {node.n_threads}"
            )
        self.worker_threads = [
            node.thread(thread_base + i) for i in range(cfg.workers_per_process)
        ]
        comm_hw = [
            node.thread(thread_base + cfg.workers_per_process + i)
            for i in range(cfg.comm_threads_per_process)
        ]

        # Context topology (see module docstring).
        self.comm_contexts: List[PamiContext] = []
        self.worker_contexts: List[PamiContext] = []
        self.comm_threads: List[CommThread] = []
        if cfg.comm_threads_per_process > 0:
            for hw in comm_hw:
                ctx = self.client.create_context()
                self.comm_contexts.append(ctx)
                self.comm_threads.append(
                    CommThread(self.env, hw, [ctx], runtime.params)
                )
        else:
            for _ in range(cfg.workers_per_process):
                self.worker_contexts.append(self.client.create_context())

        for ctx in self.contexts:
            ctx.register_dispatch(DISPATCH_EAGER, runtime._eager_dispatch)
            ctx.register_dispatch(DISPATCH_RTS, runtime._rts_dispatch)
            ctx.register_dispatch(DISPATCH_ACK, runtime._ack_dispatch)

        self.m2m = ManyToManyRegistry(
            self.env, self.contexts, self.comm_threads, runtime.params
        )

        #: Rendezvous bookkeeping.
        self._token_counter = itertools.count()
        self.pending_sends: Dict[int, Any] = {}
        #: Per-source-PE round-robin over comm contexts.
        self._send_rr = 0

    @property
    def contexts(self) -> List[PamiContext]:
        return self.comm_contexts if self.comm_contexts else self.worker_contexts

    @property
    def is_smp(self) -> bool:
        return self.runtime.config.is_smp

    def inbound_endpoint(self, local_pe_index: int) -> Endpoint:
        """Which context endpoint remote senders target for a local PE."""
        if self.comm_contexts:
            return self.comm_contexts[local_pe_index % len(self.comm_contexts)].endpoint
        return self.worker_contexts[local_pe_index].endpoint

    def next_send_context(self) -> PamiContext:
        """Round-robin comm-thread context for the next offloaded send."""
        ctx = self.comm_contexts[self._send_rr % len(self.comm_contexts)]
        self._send_rr += 1
        return ctx

    def new_token(self) -> int:
        return next(self._token_counter)


class ConverseRuntime:
    """The running Charm++/Converse job over a simulated BG/Q partition."""

    def __init__(
        self,
        env: Environment,
        config: RunConfig,
        params: BGQParams = DEFAULT_PARAMS,
        machine: Optional[BGQMachine] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.params = params
        self.machine = machine or BGQMachine(env, config.nnodes, params)
        if self.machine.nnodes != config.nnodes:
            raise ValueError("machine/config node count mismatch")
        per_node_threads = config.processes_per_node * config.threads_per_process
        if per_node_threads > params.threads_per_node:
            raise ValueError(
                f"{per_node_threads} threads/node requested, hardware has "
                f"{params.threads_per_node}"
            )

        self.handlers: List[Callable] = []
        self.handler_categories: Dict[int, str] = {}
        #: Per-handler default delivery semantics (repro.faults.qos);
        #: unregistered ids default to QOS_RELIABLE.
        self.handler_qos: Dict[int, int] = {}
        #: Cumulative machine-layer sends (quiescence accounting).
        #: Counts reliable sends only: a best-effort send may legally
        #: never be executed anywhere, so charging it to `created`
        #: would wedge the detector's `processed >= created` condition.
        self.messages_sent = 0
        #: Best-effort / FRESH sends (never in quiescence `created`).
        self.best_effort_sends = 0
        # Native send/delivery statistics (always maintained; snapshotted
        # into the tracer's counters by _flush_stats at Tracer.finish()).
        self.messages_delivered = 0
        self.intraprocess_sends = 0
        self.eager_sends = 0
        self.rendezvous_sends = 0
        #: Quiescence-detector protocol accounting (repro.faults PR):
        #: rounds run and reduction messages charged (see quiescence.py).
        self.qd_rounds = 0
        self.qd_protocol_msgs = 0
        self.stopped = False
        self.stop_wakeup = WakeupSource(env, name="runtime-stop", params=params)
        #: The Projections-style tracer (repro.trace): spans + counters.
        #: None when tracing is off — every instrumentation site across
        #: the stack guards on that, keeping the disabled path free.
        self.tracer: Optional[Tracer] = Tracer(env) if config.trace else None

        # Fault injection (repro.faults).  No plan or a null plan
        # installs nothing — the hardware hooks stay `None` and the
        # trajectory is bench-gate-identical to a build without faults.
        plan = self.fault_plan = config.fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        if plan is not None and not plan.is_null:
            self.fault_injector = FaultInjector(env, plan)
            self.machine.attach_faults(self.fault_injector)

        # Build processes and PEs.  Threads of a node are split evenly
        # between its processes.  Sharded machines leave ``None`` node
        # placeholders; the matching process/PE slots stay ``None`` too,
        # so global ranks keep indexing ``pes`` (remote PEs are reached
        # through :meth:`rank_endpoint`).
        self.processes: List[Optional[ConverseProcess]] = []
        self.pes: List[Optional[PE]] = []
        slice_size = params.threads_per_node // config.processes_per_node
        rank = 0
        for node in self.machine.nodes:
            if node is None:
                self.processes.extend([None] * config.processes_per_node)
                self.pes.extend(
                    [None] * (config.processes_per_node * config.workers_per_process)
                )
                rank += config.processes_per_node * config.workers_per_process
                continue
            for p in range(config.processes_per_node):
                proc = ConverseProcess(self, node, p, thread_base=p * slice_size)
                self.processes.append(proc)
                for w in range(config.workers_per_process):
                    pe = PE(self, proc, rank, w, proc.worker_threads[w])
                    if not proc.comm_contexts:
                        pe.context = proc.worker_contexts[w]
                    proc.pes.append(pe)
                    self.pes.append(pe)
                    rank += 1

        # Reliability: auto-on exactly when faults are injected (an
        # unreliable network needs the ACK/retransmit transport for the
        # runtime's delivery guarantees to hold), overridable for tests.
        reliable = (
            config.reliable
            if config.reliable is not None
            else self.fault_injector is not None
        )
        if reliable:
            policy = (plan or FaultPlan()).retry_policy()
            for proc in self.processes:
                if proc is None:
                    continue
                for ctx in proc.client.contexts:
                    ctx.enable_reliability(policy)

        if self.tracer is not None:
            self._wire_tracer()

    #: Comm-thread span tracks start here so they never collide with PE
    #: ranks (a BG/Q partition in this reproduction stays well below it).
    COMMTHREAD_TRACK_BASE = 10_000

    def _wire_tracer(self) -> None:
        """Attach the tracer to span-recording components and name tracks.

        Only components that record *spans* (comm threads, and the env
        so user code can reach the tracer) hold a ``tracer`` attribute;
        counter-producing components keep plain integer statistics
        unconditionally and :meth:`_flush_stats` snapshots them at
        ``Tracer.finish()`` — see docs/ARCHITECTURE.md for the hook map.
        """
        tracer = self.tracer
        self.env.tracer = tracer
        ct_track = self.COMMTHREAD_TRACK_BASE
        for proc in self.processes:
            if proc is None:
                continue
            for ct in proc.comm_threads:
                ct.tracer = tracer
                ct.track = ct_track
                tracer.register_track(ct_track, ct.name)
                ct_track += 1
        for pe in self.pes:
            if pe is not None:
                tracer.register_track(pe.rank, f"pe{pe.rank}")
        inj = self.fault_injector
        if inj is not None:
            tracer.register_track(FAULT_TRACK, "faults")
            inj.tracer = tracer
            for proc in self.processes:
                if proc is None:
                    continue
                for ctx in proc.client.contexts:
                    if ctx.reliability is not None:
                        ctx.reliability.tracer = tracer
        tracer.add_finalizer(self._flush_stats)

    def _flush_stats(self) -> None:
        """Snapshot component statistics into the tracer — the one harvest.

        Runs from ``Tracer.finish()``.  Assigns (never adds) so calling
        finish() twice is safe; zero-valued stats are skipped so e.g.
        ``commthread.*`` counters only appear in runs with comm threads.
        Fills both ``tracer.counters`` and the per-node simulated HPM
        groups in ``tracer.hpm`` (catalogue in docs/TRACING.md).
        """
        tracer = self.tracer
        counters = tracer.counters

        def put(name: str, value: float) -> None:
            if value:
                counters[name] = value

        pes = [pe for pe in self.pes if pe is not None]
        put("converse.msgs_sent", sum(pe.msgs_sent for pe in pes))
        put("converse.bytes_sent", sum(pe.bytes_sent for pe in pes))
        put("converse.msgs_executed", sum(pe.messages_executed for pe in pes))
        put("converse.bytes_received", sum(pe.bytes_received for pe in pes))
        put("sched.idle_entries", sum(pe.idle_entries for pe in pes))
        put("sched.polls", sum(pe.polls for pe in pes))
        put("converse.msgs_delivered", self.messages_delivered)
        put("converse.intraprocess_sends", self.intraprocess_sends)
        put("converse.eager_sends", self.eager_sends)
        put("converse.rendezvous_sends", self.rendezvous_sends)
        put("converse.best_effort_sends", self.best_effort_sends)
        put("queue.enqueues", sum(pe.queue.enqueues for pe in pes))
        put("queue.dequeues", sum(pe.queue.dequeues for pe in pes))
        nodes = [node for node in self.machine.nodes if node is not None]
        put("l2.atomic_ops", sum(node.l2.op_count for node in nodes))
        put("mu.descriptors", sum(node.mu.descriptors_processed for node in nodes))
        put("mu.packets_injected", sum(node.mu.packets_injected for node in nodes))
        put("mu.packets_received", sum(node.mu.packets_received for node in nodes))
        procs = [proc for proc in self.processes if proc is not None]
        contexts = [ctx for proc in procs for ctx in proc.client.contexts]
        put("pami.msgs_sent", sum(c.messages_sent for c in contexts))
        put("pami.bytes_sent", sum(c.bytes_sent for c in contexts))
        put("pami.msgs_received", sum(c.messages_received for c in contexts))
        put("pami.advances", sum(c.advances for c in contexts))
        put("pami.packets_drained", sum(c.packets_drained for c in contexts))
        put("pami.work_posted", sum(c.work_posted for c in contexts))
        put("pami.completions", sum(c.completions_posted for c in contexts))
        put("pami.rgets", sum(c.rgets for c in contexts))
        # Processes may share one allocator; count each exactly once, in
        # process order.
        allocs = _unique_by_identity(proc.alloc for proc in procs)
        put("alloc.mallocs", sum(a.mallocs for a in allocs))
        put("alloc.frees", sum(a.frees for a in allocs))
        put("alloc.pool_hits", sum(getattr(a, "pool_hits", 0) for a in allocs))
        put("alloc.pool_misses", sum(getattr(a, "pool_misses", 0) for a in allocs))
        put("alloc.spills", sum(getattr(a, "spills", 0) for a in allocs))
        cts = [ct for proc in procs for ct in proc.comm_threads]
        put("commthread.items", sum(ct.items_processed for ct in cts))
        put("commthread.wakeups", sum(ct.wakeup_count for ct in cts))
        inj = self.fault_injector
        if inj is not None:
            for name, value in sorted(inj.stats.as_dict().items()):
                put(f"faults.{name}", value)
        for name, total in transport_totals(contexts).items():
            put("rel.in_flight_at_finish" if name == "in_flight" else f"rel.{name}", total)
        put("qd.rounds", self.qd_rounds)
        put("qd.protocol_msgs", self.qd_protocol_msgs)
        # Simulated HPM groups, one per node; a node's comm threads add
        # their interrupt/round counts to its group.  The ``hpm.*``
        # totals sum over nodes, except ``*_hwm`` marks (max over nodes).
        hpm = {node.node_id: _hpm_group(node) for node in nodes}
        for proc in procs:
            group = hpm[proc.node.node_id]
            for ct in proc.comm_threads:
                group["commthread.interrupts"] = (
                    group.get("commthread.interrupts", 0) + ct.wakeup_count
                )
                group["commthread.rounds"] = (
                    group.get("commthread.rounds", 0) + ct.advance_rounds
                )
        tracer.hpm = hpm
        totals: Dict[str, float] = {}
        for group in hpm.values():
            for name, value in group.items():
                if name.endswith("_hwm"):
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        totals["torus.routes"] = self.machine.torus.routes_computed
        totals["torus.hops"] = self.machine.torus.hops_routed
        for name, value in totals.items():
            put(f"hpm.{name}", value)

    # -- PE -> endpoint addressing ---------------------------------------------
    def rank_endpoint(self, rank: int) -> Endpoint:
        """Inbound PAMI endpoint for a global PE rank.

        For locally built PEs this is the object-derived endpoint
        (``process.inbound_endpoint``).  For ``None`` placeholders
        (remote shards) the endpoint is computed from the deterministic
        construction order: each process allocates its contexts — and
        therefore its node's reception FIFOs — in process order, one
        FIFO per context, so the FIFO id is the context's ordinal
        within the node.  ``tests/sim/test_sharded.py`` asserts the
        formula matches the object-derived endpoints exactly.
        """
        pe = self.pes[rank]
        if pe is not None:
            return pe.process.inbound_endpoint(pe.local_index)
        cfg = self.config
        node_id, r = divmod(rank, cfg.pes_per_node)
        proc_in_node, local_index = divmod(r, cfg.workers_per_process)
        if cfg.comm_threads_per_process > 0:
            contexts_per_process = cfg.comm_threads_per_process
            ctx_index = local_index % cfg.comm_threads_per_process
        else:
            contexts_per_process = cfg.workers_per_process
            ctx_index = local_index
        return (node_id, proc_in_node * contexts_per_process + ctx_index)

    # -- handler registry ------------------------------------------------------
    def register_handler(
        self, fn: Callable, category: str = "sched", qos: int = QOS_RELIABLE
    ) -> int:
        """Register a Converse handler ``fn(pe, msg)``; returns its id.

        ``category`` labels the handler's timeline segments (Figs. 3/9/10
        colours): integrate / nonbonded / pme / comm / sched ...

        ``qos`` sets the *default* delivery semantics for sends that
        target this handler (:mod:`repro.faults.qos`); a per-send
        ``qos=`` argument to :meth:`send` overrides it.
        """
        self.handlers.append(fn)
        hid = len(self.handlers) - 1
        self.handler_categories[hid] = category
        self.handler_qos[hid] = qos
        return hid

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start every (locally built) PE's scheduler loop."""
        for pe in self.pes:
            if pe is not None:
                pe.start()

    def stop(self) -> None:
        """Stop all schedulers and communication threads."""
        self.stopped = True
        self.stop_wakeup.signal()
        for proc in self.processes:
            if proc is None:
                continue
            for ct in proc.comm_threads:
                ct.stop()
        # Wake any PE parked in its idle loop.
        for pe in self.pes:
            if pe is not None:
                pe.queue.wakeup.signal()

    def run_until(self, event) -> Any:
        """Convenience: start, run to the event, stop."""
        self.start()
        value = self.env.run(until=event)
        self.stop()
        return value

    # -- message send path --------------------------------------------------
    def send(
        self,
        src_pe: PE,
        dst_rank: int,
        handler_id: int,
        nbytes: int,
        payload: Any,
        qos: Optional[int] = None,
        fresh_key: Any = None,
    ):
        """CmiSyncSend (generator); runs on the sending PE's thread.

        ``qos=None`` (the default) inherits the destination handler's
        registered delivery mode; pass an explicit
        :mod:`repro.faults.qos` constant to override per send.  FRESH
        sends supersede per ``fresh_key`` flow — defaulting to
        ``(handler_id, src_rank, dst_rank)`` so distinct handler/rank
        pairs never alias; applications carrying several logical flows
        over one handler (e.g. per-chare halos) pass their own key.
        """
        env = self.env
        p = self.params
        if not 0 <= dst_rank < len(self.pes):
            raise ValueError(f"bad destination rank {dst_rank}")
        if not 0 <= handler_id < len(self.handlers):
            raise ValueError(f"unregistered handler {handler_id}")
        thread = src_pe.thread
        proc = src_pe.process
        dst_pe = self.pes[dst_rank]
        if qos is None:
            qos = self.handler_qos.get(handler_id, QOS_RELIABLE)
        if nbytes > p.rendezvous_threshold:
            # Rendezvous is a three-way control protocol (RTS/rget/ACK);
            # losing any leg leaks a buffer and wedges the sender, so
            # large messages always ride the reliable transport.
            qos = QOS_RELIABLE
        if qos == QOS_RELIABLE:
            self.messages_sent += 1
        else:
            self.best_effort_sends += 1
            if qos == QOS_BEST_EFFORT_FRESH and fresh_key is None:
                fresh_key = (handler_id, src_pe.rank, dst_rank)
        src_pe.msgs_sent += 1
        src_pe.bytes_sent += nbytes
        rec = self.tracer
        msg_id = None
        if rec is not None:
            rec.begin(src_pe.rank, "comm")
            # Provenance stamp: monotonic per-source id, recorded as the
            # send edge of the causal DAG.  Host-side only (the id rides
            # in tuples/slots), so stamping is cycle-neutral — and it
            # only happens at all on traced runs.  The append is inlined
            # (schema of Tracer.msg_send) — this is the per-message hot
            # path, and a method call per event is what the <5% tracer
            # overhead budget can't afford.
            src_pe.msg_seq += 1
            msg_id = (src_pe.rank, src_pe.msg_seq)
            rec.provenance.append(
                ("send", msg_id, src_pe.rank, dst_rank, nbytes, env.now)
            )

        if dst_pe is not None and dst_pe.process is proc:
            # Intra-process: pointer exchange into the peer's L2 queue.
            self.intraprocess_sends += 1
            yield from thread.compute(p.intranode_deliver_instr)
            msg = ConverseMessage(
                handler_id, nbytes, payload, src_pe.rank, dst_rank,
                sent_at=env.now, msg_id=msg_id,
            )
            if dst_pe is src_pe:
                src_pe.local_q.append(msg)
            else:
                yield from dst_pe.enqueue_from(thread, msg)
            if rec is not None:
                if msg_id is not None:
                    rec.provenance.append(("recv", msg_id, dst_rank, env.now))
                rec.begin(src_pe.rank, "sched")
            return

        # Network path: allocate + pack the outgoing buffer.
        buf = yield from proc.alloc.malloc(thread, nbytes)
        yield from thread.compute(nbytes / p.memcpy_bytes_per_instr)
        yield from thread.compute(
            p.converse_send_instr + (p.smp_overhead_instr if proc.is_smp else 0.0)
        )
        endpoint = self.rank_endpoint(dst_rank)
        data = (dst_rank, handler_id, nbytes, payload, env.now, msg_id)

        if nbytes <= p.rendezvous_threshold:
            self.eager_sends += 1
            if proc.comm_threads:
                ctx = proc.next_send_context()

                def send_work(c: PamiContext, t: HWThread, _data=data, _n=nbytes,
                              _qos=qos, _fk=fresh_key):
                    if _n <= p.packet_payload_max:
                        yield from c.send_immediate(
                            t, endpoint, DISPATCH_EAGER, _n, _data, _qos, _fk
                        )
                    else:
                        yield from c.send(
                            t, endpoint, DISPATCH_EAGER, _n, _data, _qos, _fk
                        )

                yield from ctx.post_work(thread, send_work)
            else:
                ctx = src_pe.context
                if nbytes <= p.packet_payload_max:
                    yield from ctx.send_immediate(
                        thread, endpoint, DISPATCH_EAGER, nbytes, data, qos, fresh_key
                    )
                else:
                    yield from ctx.send(
                        thread, endpoint, DISPATCH_EAGER, nbytes, data, qos, fresh_key
                    )
            # Eager: the machine layer owns the payload now.
            yield from proc.alloc.free(thread, buf)
        else:
            self.rendezvous_sends += 1
            token = proc.new_token()
            proc.pending_sends[token] = buf
            ack_ep = proc.inbound_endpoint(src_pe.local_index)
            rts = (
                dst_rank,
                handler_id,
                nbytes,
                payload,
                proc.node.node_id,
                token,
                ack_ep,
                env.now,
                msg_id,
            )
            yield from thread.compute(p.rendezvous_extra_instr / 2)
            if proc.comm_threads:
                ctx = proc.next_send_context()

                def rts_work(c: PamiContext, t: HWThread, _rts=rts):
                    yield from c.send_immediate(t, endpoint, DISPATCH_RTS, 64, _rts)

                yield from ctx.post_work(thread, rts_work)
            else:
                yield from src_pe.context.send_immediate(
                    thread, endpoint, DISPATCH_RTS, 64, rts
                )
        if rec is not None:
            rec.begin(src_pe.rank, "sched")

    # -- receive-side dispatches (run on whichever thread advances) -----------
    def _proc_of_context(self, ctx: PamiContext) -> ConverseProcess:
        for proc in self.processes:
            if proc is not None and ctx in proc.contexts:
                return proc
        raise RuntimeError("context not owned by any process")

    def _deliver_to_pe(self, thread: HWThread, msg: ConverseMessage):
        pe = self.pes[msg.dst_rank]
        if pe.thread is thread:
            pe.local_q.append(msg)
        else:
            yield from pe.enqueue_from(thread, msg)
        rec = self.tracer
        if rec is not None and msg.msg_id is not None:
            # Receive edge: arrival in the destination PE's queue.  A
            # retransmitted message can arrive twice; analysis keeps the
            # first recv event per id.  Inlined append (schema of
            # Tracer.msg_recv) — per-message hot path.
            rec.provenance.append(
                ("recv", msg.msg_id, msg.dst_rank, self.env.now)
            )

    def _eager_dispatch(self, ctx: PamiContext, thread: HWThread, payload: AMPayload):
        p = self.params
        dst_rank, handler_id, nbytes, user_payload, sent_at, msg_id = payload.data
        proc = self._proc_of_context(ctx)
        self.messages_delivered += 1
        yield from thread.compute(p.converse_recv_instr)
        buf = yield from proc.alloc.malloc(thread, nbytes)
        yield from thread.compute(nbytes / p.memcpy_bytes_per_instr)
        msg = ConverseMessage(
            handler_id, nbytes, user_payload, -1, dst_rank, buffer=buf,
            sent_at=sent_at, msg_id=msg_id,
        )
        yield from self._deliver_to_pe(thread, msg)

    def _rts_dispatch(self, ctx: PamiContext, thread: HWThread, payload: AMPayload):
        p = self.params
        (dst_rank, handler_id, nbytes, user_payload, src_node, token, ack_ep, sent_at, msg_id) = payload.data
        proc = self._proc_of_context(ctx)
        self.messages_delivered += 1
        yield from thread.compute(p.rendezvous_extra_instr / 2)
        desc = yield from ctx.rget(thread, src_node, nbytes)

        def completion(c: PamiContext, t: HWThread):
            yield from t.compute(p.converse_recv_instr)
            buf = yield from proc.alloc.malloc(t, nbytes)
            # RDMA wrote straight into memory: no unpack copy.
            msg = ConverseMessage(
                handler_id, nbytes, user_payload, -1, dst_rank, buffer=buf,
                sent_at=sent_at, msg_id=msg_id,
            )
            yield from self._deliver_to_pe(t, msg)
            yield from c.send_immediate(t, ack_ep, DISPATCH_ACK, 16, token)

        # The read is still in flight: its arrival posts the completion.
        desc.delivered._add_callback(lambda _ev: ctx.post_completion(completion))

    def _ack_dispatch(self, ctx: PamiContext, thread: HWThread, payload: AMPayload):
        proc = self._proc_of_context(ctx)
        token = payload.data
        buf = proc.pending_sends.pop(token, None)
        if buf is None:
            raise RuntimeError(f"ACK for unknown rendezvous token {token}")
        yield from proc.alloc.free(thread, buf)
