"""Distributed 3D FFT over the Charm++ runtime (§IV-A, Table I).

Forward transform: FFT along Z on the Z-layout pencils, transpose Z->Y,
FFT along Y, transpose Y->X, FFT along X; the backward transform runs
the same pipeline in reverse.  One *step* (the quantity in Table I) is
a forward followed by a backward transform.

Two transpose transports, as compared in the paper:

* **p2p** — every block is a separate Charm++ point-to-point message
  through the full machine-layer send path;
* **m2m** — each process registers one persistent
  ``CmiDirectManytomany`` handle per transpose phase; chares fill their
  registered slots, a per-process coordinator chare calls ``start()``,
  and the burst is injected by the communication threads at a small
  amortized per-message cost.

The numerics are real: blocks are numpy arrays, transforms are numpy
FFTs, and the distributed result is validated against
``numpy.fft.fftn`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..charm import Chare, Charm
from .kernels import batch_fft, fft_instructions
from .pencil import PencilGrid, choose_grid
from types import MappingProxyType

__all__ = ["FFT3D", "FFTResult", "Slot"]

# Phase tags (offset added per driver so several drivers can coexist).
_PHASES = ("zy", "yx", "xy", "yz")
_TAG_BASE = MappingProxyType({"zy": 1, "yx": 2, "xy": 3, "yz": 4})


class Slot:
    """A persistent registered send buffer (many-to-many semantics)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None


@dataclass
class FFTResult:
    """Outcome of an FFT3D run."""

    #: Completion time (cycles) of each forward+backward step.
    step_times: List[float] = field(default_factory=list)
    #: Z-layout blocks after the final backward transform.
    blocks: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)
    #: X-layout blocks captured after the first forward transform.
    forward_blocks: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def mean_step_time(self) -> float:
        """Steady-state step time: the first (cold) step is dropped
        whenever more than one step was run."""
        if not self.step_times:
            raise ValueError("no steps completed")
        if len(self.step_times) == 1:
            return self.step_times[0]
        deltas = np.diff(self.step_times)
        return float(np.mean(deltas))


class _Pencil(Chare):
    """One pencil chare of the decomposition."""

    def __init__(self, idx):
        self.driver: "FFT3D" = None  # injected by the driver
        self.r = self.c = 0
        self.data: Optional[np.ndarray] = None  # current phase layout
        self.y_data: Optional[np.ndarray] = None
        self.x_data: Optional[np.ndarray] = None
        self.recv_count = {p: 0 for p in _PHASES}
        #: Per-phase receive buffers: peers may run a full phase ahead,
        #: so each transpose collects into its own buffer.
        self.bufs: Dict[str, Optional[np.ndarray]] = {p: None for p in _PHASES}
        self.iteration = 0
        self._deposit_count = 0

    # ---- helpers --------------------------------------------------------
    def _charge_fft(self, n, batch):
        yield from self.charge(fft_instructions(n, batch, qpx=self.driver.qpx))

    # ---- service mode: external charge/data deposits -------------------------
    def deposit(self, region, arr):
        """Accumulate external data into this pencil's Z-layout block.

        ``region`` = (x0, x1, y0, y1) in pencil-local coordinates; the
        cycle starts automatically once ``deposits_expected`` blocks
        have arrived (used by NAMD PME charge-grid communication).
        """
        d = self.driver
        if self._deposit_count == 0:
            # First deposit of a cycle: start from a zero grid.
            self.data = np.zeros(d.grid.z_shape(self.r, self.c), dtype=np.complex128)
        x0, x1, y0, y1 = region
        self.data[x0:x1, y0:y1, :] += arr
        self._deposit_count += 1
        expected = d.deposits_expected.get((self.r, self.c), 0)
        if self._deposit_count >= expected:
            self._deposit_count = 0
            yield from self.begin()

    # ---- iteration entry ---------------------------------------------------
    def begin(self):
        """Start one forward+backward step from the Z layout."""
        d = self.driver
        g = d.grid
        # Forward FFT along Z.
        nx, ny, _ = self.data.shape
        yield from self._charge_fft(g.nz, nx * ny)
        self.data = batch_fft(self.data, axis=2)
        yield from d.do_transpose(self, "zy")

    # ---- transposes -------------------------------------------------------
    def _blocks_out(self, phase):
        """Yield (dst_coords, block) for one transpose phase."""
        g = self.driver.grid
        r, c = self.r, self.c
        if phase == "zy":
            for k in range(g.pc):
                z0, z1 = g.z_ranges[k]
                yield (r, k), self.data[:, :, z0:z1]
        elif phase == "yx":
            for k in range(g.pr):
                y0, y1 = g.y2_ranges[k]
                yield (k, c), self.y_data[:, y0:y1, :]
        elif phase == "xy":
            for k in range(g.pr):
                x0, x1 = g.x_ranges[k]
                yield (k, c), self.x_data[x0:x1, :, :]
        elif phase == "yz":
            for k in range(g.pc):
                y0, y1 = g.y_ranges[k]
                yield (r, k), self.y_data[:, y0:y1, :]
        else:  # pragma: no cover - defensive
            raise ValueError(phase)

    # ---- receives (p2p path) ------------------------------------------------

    def _buf(self, phase) -> np.ndarray:
        """Receive buffer for one transpose phase (allocated lazily)."""
        buf = self.bufs[phase]
        if buf is None:
            g = self.driver.grid
            shape_fn = {
                "zy": g.y_shape,
                "yx": g.x_shape,
                "xy": g.y_shape,
                "yz": g.z_shape,
            }[phase]
            buf = np.empty(shape_fn(self.r, self.c), dtype=np.complex128)
            self.bufs[phase] = buf
        return buf

    def _place(self, phase, src, block):
        g = self.driver.grid
        src_r, src_c = src
        buf = self._buf(phase)
        if phase == "zy":
            y0, y1 = g.y_ranges[src_c]
            buf[:, y0:y1, :] = block
        elif phase == "yx":
            x0, x1 = g.x_ranges[src_r]
            buf[x0:x1, :, :] = block
        elif phase == "xy":
            y0, y1 = g.y2_ranges[src_r]
            buf[:, y0:y1, :] = block
        elif phase == "yz":
            z0, z1 = g.z_ranges[src_c]
            buf[:, :, z0:z1] = block

    def _phase_full(self, phase) -> bool:
        g = self.driver.grid
        expected = g.pc if phase in ("zy", "yz") else g.pr
        return self.recv_count[phase] >= expected

    def recv_block(self, phase, src_r, src_c, block):
        """p2p receive of one transpose block."""
        self._place(phase, (src_r, src_c), block)
        self.recv_count[phase] += 1
        if self._phase_full(phase):
            self.recv_count[phase] = 0
            yield from self.phase_done(phase)

    # ---- phase continuations -----------------------------------------------
    def phase_done(self, phase):
        """All blocks of a transpose arrived: run the next compute."""
        d = self.driver
        g = d.grid
        if phase == "zy":
            self.y_data = self.bufs["zy"]
            self.bufs["zy"] = None
            nx, _, nz = self.y_data.shape
            yield from self._charge_fft(g.ny, nx * nz)
            self.y_data = batch_fft(self.y_data, axis=1)
            yield from d.do_transpose(self, "yx")
        elif phase == "yx":
            self.x_data = self.bufs["yx"]
            self.bufs["yx"] = None
            _, ny, nz = self.x_data.shape
            yield from self._charge_fft(g.nx, ny * nz)
            self.x_data = batch_fft(self.x_data, axis=0)
            # Forward transform complete.
            if self.iteration == 0 and d.capture_forward:
                d.result.forward_blocks[(self.r, self.c)] = self.x_data.copy()
            if d.post_forward is not None:
                # Reciprocal-space hook (e.g. PME Green's-function
                # multiply + energy contribution); may be a generator.
                result = d.post_forward(self)
                if result is not None and hasattr(result, "__next__"):
                    yield from result
            # Backward: inverse FFT along X, then transpose back.
            yield from self._charge_fft(g.nx, ny * nz)
            self.x_data = batch_fft(self.x_data, axis=0, inverse=True)
            yield from d.do_transpose(self, "xy")
        elif phase == "xy":
            self.y_data = self.bufs["xy"]
            self.bufs["xy"] = None
            nx, _, nz = self.y_data.shape
            yield from self._charge_fft(g.ny, nx * nz)
            self.y_data = batch_fft(self.y_data, axis=1, inverse=True)
            yield from d.do_transpose(self, "yz")
        elif phase == "yz":
            self.data = self.bufs["yz"]
            self.bufs["yz"] = None
            nx, ny, _ = self.data.shape
            yield from self._charge_fft(g.nz, nx * ny)
            self.data = batch_fft(self.data, axis=2, inverse=True)
            self.iteration += 1
            if d.service:
                # Service mode (NAMD PME): hand the result back to the
                # application (potential-slab collection) and wait for
                # the next deposits.
                if d.on_backward is not None:
                    result = d.on_backward(self)
                    if result is not None and hasattr(result, "__next__"):
                        yield from result
                return
            # Standalone benchmark: account the step, maybe loop.
            yield from self.contribute(
                1, "sum", ("fft-step", d.uid, self.iteration), d.on_step_done
            )
            if self.iteration < d.iterations:
                yield from self.begin()


class FFT3D:
    """Driver for a pencil-decomposed 3D FFT benchmark run."""

    def __init__(
        self,
        charm: Charm,
        n: int,
        nchares: Optional[int] = None,
        use_m2m: bool = False,
        iterations: int = 1,
        qpx: bool = True,
        capture_forward: bool = False,
        data: Optional[np.ndarray] = None,
        service: bool = False,
        post_forward=None,
        on_backward=None,
        deposits_expected: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> None:
        """``service=False``: self-driving benchmark (``run()``).

        ``service=True``: FFT service for an embedding application (NAMD
        PME): pencils accept ``deposit`` entry-method calls, start a
        forward+backward cycle when ``deposits_expected[idx]`` blocks
        have arrived, apply ``post_forward(chare)`` in the fully
        transformed X layout (Green's-function multiply), and hand the
        back-transformed Z-layout data to ``on_backward(chare)``.
        """
        if iterations < 1:
            raise ValueError("need at least one iteration")
        # The uid rides in array names, m2m tags and reduction tags, so
        # it must come from the owning Charm instance (not a class
        # counter): sharded SPMD mirrors — several Charm instances in
        # one process — must mint identical uids.
        self.uid = charm.next_uid()
        self.charm = charm
        self.n = n
        self.use_m2m = use_m2m
        self.iterations = iterations
        self.qpx = qpx
        self.capture_forward = capture_forward
        self.service = service
        self.post_forward = post_forward
        self.on_backward = on_backward
        # Note: the caller may pass a dict it fills *after* construction
        # (NAMD computes the plan once the pencil grid is known).
        self.deposits_expected = (
            deposits_expected if deposits_expected is not None else {}
        )
        nchares = nchares if nchares is not None else charm.npes
        pr, pc = choose_grid(nchares, n)
        self.grid = PencilGrid(n, pr, pc)
        self.result = FFTResult()
        self._t_start = 0.0

        # --- pencil array -------------------------------------------------
        indices = [(r, c) for r in range(pr) for c in range(pc)]
        self.array = charm.create_array(
            f"fft{self.uid}-pencils", _Pencil, indices, map_fn="blocked"
        )
        shape3 = self.grid.shape3
        rng = np.random.default_rng(1234)
        full = (
            data
            if data is not None
            else rng.standard_normal(shape3) + 1j * rng.standard_normal(shape3)
        )
        if full.shape != shape3:
            raise ValueError("data shape mismatch")
        self.input = full.astype(np.complex128)
        blocks = self.grid.scatter_z(self.input)
        for (r, c) in indices:
            ch = self.array.element((r, c))
            ch.driver = self
            ch.r, ch.c = r, c
            ch.data = blocks[(r, c)].copy()

        # --- m2m setup ---------------------------------------------------------
        self.slots: Dict[Tuple[str, Tuple[int, int], Tuple[int, int]], Slot] = {}
        self.m2m_handles: Dict[Tuple[Tuple[int, int], str], Any] = {}
        if use_m2m:
            self._setup_m2m()

    # -- topology helpers ---------------------------------------------------
    def pencils_of_process(self, proc_idx: int) -> List[Tuple[int, int]]:
        out = []
        for idx in self.array.indices:
            pe = self.charm.runtime.pes[self.array.pe_of(idx)]
            if self._proc_index(pe.process) == proc_idx:
                out.append(idx)
        return out

    def _proc_index(self, process) -> int:
        return self.charm.runtime.processes.index(process)

    def slot_for(self, phase, src, dst) -> Slot:
        key = (phase, src, dst)
        slot = self.slots.get(key)
        if slot is None:
            slot = Slot()
            self.slots[key] = slot
        return slot

    # -- m2m wiring -----------------------------------------------------------
    def _tag(self, phase: str, idx: Tuple[int, int]):
        return (self.uid, _TAG_BASE[phase], idx)

    def _setup_m2m(self) -> None:
        """One persistent handle per chare per transpose phase.

        Matches the paper's usage ("each thread sends and receives [its]
        small messages... in a single call"): a chare fills its
        registered slots, calls ``start()`` on its own handle, and its
        completion callback fires when all of *its* blocks arrived.
        """
        charm = self.charm
        runtime = charm.runtime
        g = self.grid
        completion_hid = runtime.register_handler(self._m2m_complete, category="comm")
        for idx in self.array.indices:
            r, c = idx
            owner_pe = runtime.pes[self.array.pe_of(idx)]
            if owner_pe is None:
                # Sharded mirror: the shard owning this pencil's PE
                # registers its handle; remote sends reach it through
                # the rank_endpoint formula.
                continue
            for phase in _PHASES:
                sends = []
                for dst, nbytes in self._send_sizes(phase, r, c):
                    slot = self.slot_for(phase, (r, c), dst)
                    data = (dst, (r, c), phase, slot)
                    sends.append(
                        (self.array.pe_of(dst), nbytes, data, self._tag(phase, dst))
                    )
                expected = g.pc if phase in ("zy", "yz") else g.pr
                handle = charm.cmidirect.register(
                    self._tag(phase, idx),
                    owner_pe,
                    sends,
                    expected_recvs=expected,
                    on_message=self._on_m2m_message,
                    completion_handler=completion_hid,
                )
                self.m2m_handles[(idx, phase)] = handle

    def _m2m_complete(self, pe, msg):
        """All blocks of one chare's phase arrived (runs on its PE)."""
        _uid, tag_base, idx = msg.payload
        phase = {v: k for k, v in _TAG_BASE.items()}[tag_base]
        self.m2m_handles[(idx, phase)].reset()  # re-arm for next iteration
        chare = self.array.element(idx)
        yield from chare.phase_done(phase)

    def _send_sizes(self, phase, r, c):
        g = self.grid
        if phase == "zy":
            return [((r, k), g.zy_block_bytes(r, c, k)) for k in range(g.pc)]
        if phase == "yx":
            return [((k, c), g.yx_block_bytes(r, c, k)) for k in range(g.pr)]
        if phase == "xy":
            # Inverse of yx: block (X_k, Y'_r, Z_c) to (k, c).
            return [((k, c), g.yx_block_bytes(k, c, r)) for k in range(g.pr)]
        if phase == "yz":
            # Inverse of zy: block (X_r, Y_k, Z_c) to (r, k).
            return [((r, k), g.zy_block_bytes(r, k, c)) for k in range(g.pc)]
        raise ValueError(phase)

    def _on_m2m_message(self, src_node, data) -> None:
        dst, src, phase, slot = data
        chare = self.array.element(dst)
        chare._place(phase, src, slot.value)

    # -- transpose dispatch (both modes) ------------------------------------
    def do_transpose(self, chare: _Pencil, phase: str):
        """Send one chare's blocks for a transpose phase (generator)."""
        if self.use_m2m:
            for dst, block in chare._blocks_out(phase):
                self.slot_for(phase, (chare.r, chare.c), dst).value = block
            yield from self.m2m_handles[((chare.r, chare.c), phase)].start()
        else:
            for dst, block in chare._blocks_out(phase):
                nbytes = block.size * 16
                if dst == (chare.r, chare.c):
                    # Local block: place directly (pointer exchange).
                    result = chare.recv_block(phase, chare.r, chare.c, block)
                    yield from result
                else:
                    yield from chare.send(
                        dst, "recv_block", nbytes, phase, chare.r, chare.c, block
                    )

    # -- completion --------------------------------------------------------
    def on_step_done(self, _value):
        self.result.step_times.append(self.charm.env.now - self._t_start)
        if len(self.result.step_times) >= self.iterations:
            for idx in self.array.indices:
                self.result.blocks[idx] = self.array.element(idx).data
            self.charm.exit(self.result)

    # -- run ------------------------------------------------------------------
    def run(self) -> FFTResult:
        self._t_start = self.charm.env.now
        for idx in self.array.indices:
            self.charm.seed(self.array, idx, "begin")
        return self.charm.run()
