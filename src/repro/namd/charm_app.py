"""Mini-NAMD on the Charm++ runtime (the paper's §IV-B application).

The NAMD work decomposition, faithfully miniaturized:

* **Patch chares** own the atoms of one spatial cell: they integrate
  (velocity Verlet), multicast positions to their compute objects, and
  on PME steps spread charges and exchange grid slabs with the PME
  pencils.
* **Compute chares** (one per interacting patch pair) run the
  non-bonded kernel — real LJ + screened-Coulomb math, charged at the
  QPX cost model — and return forces to their patches.
* **PME pencils** are the pencil FFT in *service* mode: accumulate
  deposited charge slabs, forward FFT (p2p or CmiDirectManytomany
  transposes, the Fig. 3/10 comparison), multiply the Ewald kernel,
  contribute the reciprocal energy, back-transform and return potential
  slabs to the patches, which interpolate their atoms' long-range
  forces.

Numerics are identical to :class:`repro.namd.simulation.SequentialMD`
(same kernels), which the test suite verifies; the simulated-time side
produces the timeline/utilization figures.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..charm import Chare, Charm
from ..fft.fft3d import FFT3D
from .forces import bonded_forces, nonbonded_instructions, pair_forces
from .integrator import kinetic_energy
from .patches import PatchGrid
from .pme import greens_function, interpolate_forces, spread_charges
from .system import MolecularSystem

__all__ = ["NamdCharm", "wrapped_overlap"]

#: Integration flops per atom per half-kick+drift.
_INTEGRATE_FLOPS = 25.0
#: Charge spreading / force interpolation flops per atom (order^3 stencil).
_SPREAD_FLOPS_PER_POINT = 8.0


def wrapped_overlap(w0: int, w1: int, a: int, b: int, K: int) -> List[Tuple[int, int, int]]:
    """Pieces of unwrapped window [w0, w1) that wrap into range [a, b).

    Returns ``(u0, u1, local0)`` triples: unwrapped indices [u0, u1)
    map to [local0, local0 + u1 - u0) inside the target range.
    """
    out = []
    for s in range(math.floor(w0 / K), math.floor((w1 - 1) / K) + 1):
        lo = max(w0, s * K + a)
        hi = min(w1, s * K + b)
        if hi > lo:
            out.append((lo, hi, lo - s * K - a))
    return out


class _Patch(Chare):
    """One spatial patch: atoms, integration, PME interpolation."""

    def __init__(self, idx):
        self.app: "NamdCharm" = None
        self.atoms: np.ndarray = None  # global atom indices
        self.pos: np.ndarray = None  # unwrapped local positions
        self.vel: np.ndarray = None
        self.q: np.ndarray = None
        self.mass: np.ndarray = None
        self.computes: List[int] = []
        self.window: Tuple[Tuple[int, int], Tuple[int, int]] = ((0, 0), (0, 0))
        self.pme_pieces_expected = 0
        self.step = 0
        self.forces: Optional[np.ndarray] = None
        self.pme_forces: Optional[np.ndarray] = None
        self._acc: Optional[np.ndarray] = None
        self._force_msgs = 0
        self._pme_pending = False
        self._phi_win: Optional[np.ndarray] = None
        self._phi_pieces = 0

    # -- step flow --------------------------------------------------------
    def start(self):
        """Initial force evaluation round (no integration)."""
        yield from self._gather_forces(first=True)

    def _is_pme_step(self) -> bool:
        app = self.app
        if self.forces is None:  # init round
            return True
        return (self.step + 1) % app.pme_every == 0 or app.pme_every == 1

    def _gather_forces(self, first=False):
        app = self.app
        self._acc = np.zeros_like(self.pos)
        self._force_msgs = 0
        self._pme_pending = self._is_pme_step() and app.pme_enabled
        # Multicast positions and charges to the compute objects.
        for cid in self.computes:
            nbytes = self.pos.size * 8 + self.q.size * 8 + 16
            yield from self.send_to(
                app.computes, cid, "take_positions", nbytes,
                self.step, self.thisIndex, self.pos.copy(), self.q,
            )
        if self._pme_pending:
            yield from self._deposit_charges()
        if first and not self.computes and not self._pme_pending:
            yield from self._complete_forces()

    def _deposit_charges(self):
        """Spread local charges and send slabs to the PME pencils.

        Standard PME sends each slab as a point-to-point entry-method
        message; the optimized PME fills the persistent many-to-many
        slots and triggers the whole burst with one ``start()``
        (§IV-B2: "sets them up with all the communication operations in
        the different phases of PME").
        """
        app = self.app
        n = len(self.atoms)
        yield from self.charge(
            n * app.order**3 * _SPREAD_FLOPS_PER_POINT / 4.0
        )
        W = spread_charges(
            self.pos, self.q, app.K, app.box_arr, app.order,
            window=self.window,
        )
        self._phi_win = np.zeros_like(W)
        self._phi_pieces = 0
        if app.use_m2m_pme:
            for (pencil, region, src_slice) in app.deposit_plan[self.thisIndex]:
                app.dep_slot(self.thisIndex, pencil, region).value = W[src_slice]
            handle = app.m2m_dep_handles[self.thisIndex]
            handle.reset()
            yield from handle.start()
        else:
            for (pencil, region, src_slice) in app.deposit_plan[self.thisIndex]:
                block = W[src_slice]
                nbytes = block.size * 8 + 32
                yield from self.send_to(
                    app.pme.array, pencil, "deposit", nbytes, region, block
                )

    def add_force(self, forces):
        """Force contribution from one compute object."""
        self._acc += forces
        self._force_msgs += 1
        yield from self._check_complete()

    def pme_slab(self, piece_id, block):
        """One potential slab back from a PME pencil (p2p path)."""
        app = self.app
        dst_slice = app.return_plan[self.thisIndex][piece_id]
        self._phi_win[dst_slice] += block
        self._phi_pieces += 1
        if self._phi_pieces >= self.pme_pieces_expected:
            self._phi_pieces = 0
            yield from self.pme_potential_ready()

    def pme_potential_ready(self):
        """The whole potential window is assembled: interpolate forces."""
        app = self.app
        n = len(self.atoms)
        yield from self.charge(n * app.order**3 * _SPREAD_FLOPS_PER_POINT / 4.0)
        self.pme_forces = interpolate_forces(
            self.pos, self.q, self._phi_win, app.box_arr, app.K,
            app.order, window=self.window,
        )
        self._pme_pending = False
        yield from self._check_complete()

    def _check_complete(self):
        if self._force_msgs < len(self.computes) or self._pme_pending:
            return
            yield  # pragma: no cover - generator shape
        yield from self._complete_forces()

    def _complete_forces(self):
        app = self.app
        # Bonded terms internal to this patch.
        e_bond, f_bond = bonded_forces(self.pos, app.patch_bonds[self.thisIndex], app.box_arr)
        total = self._acc + f_bond
        if app.pme_enabled and self.pme_forces is not None:
            total = total + self.pme_forces
        dt = app.dt
        yield from self.charge(len(self.atoms) * _INTEGRATE_FLOPS / 4.0)
        if self.forces is None:
            # Init round: store forces, begin stepping.
            self.forces = total
            yield from self._begin_step()
            return
        # Second half-kick with the new forces.
        self.vel += 0.5 * dt * total / self.mass[:, None]
        self.forces = total
        ke = kinetic_energy(self.vel, self.mass)
        step = self.step
        self.step += 1
        yield from self.contribute(
            ke, "sum", ("namd-step", step), app._on_step_reduction
        )
        if self.step < app.n_steps:
            yield from self._begin_step()

    def _begin_step(self):
        app = self.app
        dt = app.dt
        yield from self.charge(len(self.atoms) * _INTEGRATE_FLOPS / 4.0)
        self.vel += 0.5 * dt * self.forces / self.mass[:, None]
        self.pos += dt * self.vel  # unwrapped (PME windows stay valid)
        yield from self._gather_forces()


class _Compute(Chare):
    """Non-bonded compute object for one patch pair."""

    def __init__(self, idx):
        self.app: "NamdCharm" = None
        self.pair: Tuple[int, int] = (0, 0)
        self._pending: Dict[int, Dict[int, np.ndarray]] = {}

    def take_positions(self, step, patch_idx, pos, q):
        a, b = self.pair
        slot = self._pending.setdefault(step, {})
        slot[patch_idx] = (pos, q)
        needed = 1 if a == b else 2
        if len(slot) < needed:
            return
            yield  # pragma: no cover
        del self._pending[step]
        app = self.app
        if a == b:
            (pa, qa) = (pb, qb) = slot[a]
        else:
            (pa, qa), (pb, qb) = slot[a], slot[b]
        e, fa, fb, npairs = pair_forces(
            pa, pb, qa, qb,
            app.box_arr, app.cutoff, app.beta,
            same_block=(a == b),
        )
        yield from self.charge(nonbonded_instructions(npairs, qpx=app.qpx))
        if a == b:
            yield from self.send_to(app.patches, a, "add_force", fa.size * 8, fa)
        else:
            yield from self.send_to(app.patches, a, "add_force", fa.size * 8, fa)
            yield from self.send_to(app.patches, b, "add_force", fb.size * 8, fb)


class NamdCharm:
    """Driver: build and run mini-NAMD on a Charm instance."""

    def __init__(
        self,
        charm: Charm,
        system: MolecularSystem,
        n_steps: int = 4,
        pme_every: int = 4,
        pme_enabled: bool = True,
        use_m2m_pme: bool = False,
        beta: float = 0.35,
        order: int = 4,
        dt: Optional[float] = None,
        qpx: bool = True,
        n_pencils: Optional[int] = None,
    ) -> None:
        if n_steps < 1:
            raise ValueError("need at least one step")
        self.charm = charm
        self.system = system
        self.n_steps = n_steps
        self.pme_every = pme_every
        self.pme_enabled = pme_enabled
        self.beta = beta
        self.order = order
        self.qpx = qpx
        self.cutoff = system.spec.cutoff
        self.dt = dt if dt is not None else system.spec.timestep_fs * 0.01
        self.box_arr = system.box
        # PME grid; may be non-cubic (ApoA1 uses 108 x 108 x 80).
        self.K = system.spec.pme_grid
        self.step_log: List[Tuple[float, float]] = []  # (sim time, kinetic E)
        self.recip_energies: List[float] = []
        self.done_value = None
        # PME cycles: one for the initial force evaluation plus one per
        # step whose post-drift forces refresh PME.
        self.expected_pme_cycles = 0
        if pme_enabled:
            self.expected_pme_cycles = 1 + sum(
                1
                for s in range(n_steps)
                if (s + 1) % pme_every == 0 or pme_every == 1
            )

        # Timeline categories for the Projections-style figures.
        for method, cat in (
            ("start", "integrate"),
            ("add_force", "integrate"),
            ("take_positions", "nonbonded"),
            ("deposit", "pme"),
            ("pme_slab", "pme"),
            ("begin", "pme"),
            ("recv_block", "pme"),
            ("phase_done", "pme"),
        ):
            try:
                charm.set_entry_category(method, cat)
            except RuntimeError:
                pass

        # ---- patches --------------------------------------------------
        self.patch_grid = PatchGrid.for_cutoff(system.spec.box, system.spec.cutoff)
        bins = self.patch_grid.bin_atoms(system.positions)
        patch_ids = [p for p in range(self.patch_grid.n_patches)]
        self.patches = charm.create_array("namd-patches", _Patch, patch_ids)
        self.patch_bonds: Dict[int, list] = {p: [] for p in patch_ids}
        atom_to_patch: Dict[int, Tuple[int, int]] = {}
        for p in patch_ids:
            ch = self.patches.element(p)
            ch.app = self
            idx = bins[p]
            ch.atoms = idx
            ch.pos = system.positions[idx].copy()
            ch.vel = system.velocities[idx].copy()
            ch.q = system.charges[idx].copy()
            ch.mass = system.masses[idx].copy()
            for local, a in enumerate(idx):
                atom_to_patch[int(a)] = (p, local)
        # Bonds whose atoms share a patch are handled by that patch;
        # cross-patch bonds are dropped in the distributed app (the
        # synthetic builder bonds lattice neighbours, which share a
        # patch except across patch boundaries — the sequential/charm
        # equivalence test uses a matching system).
        self.dropped_bonds = 0
        for (i, j, r0, k) in system.bonds:
            pi, li = atom_to_patch[i]
            pj, lj = atom_to_patch[j]
            if pi == pj:
                self.patch_bonds[pi].append((li, lj, r0, k))
            else:
                self.dropped_bonds += 1

        # ---- computes -----------------------------------------------------
        pairs = self.patch_grid.neighbor_pairs()
        self.computes = charm.create_array(
            "namd-computes",
            _Compute,
            range(len(pairs)),
            map_fn=self._compute_map(pairs),
        )
        for cid, pair in enumerate(pairs):
            cc = self.computes.element(cid)
            cc.app = self
            cc.pair = pair
            a, b = pair
            self.patches.element(a).computes.append(cid)
            if b != a:
                self.patches.element(b).computes.append(cid)

        # ---- PME pencils ---------------------------------------------------
        self.pme: Optional[FFT3D] = None
        self.use_m2m_pme = use_m2m_pme
        if pme_enabled:
            self._setup_pme(use_m2m_pme, n_pencils)

    # -- placement ---------------------------------------------------------
    def _compute_map(self, pairs):
        patches = self.patches

        def fn(idx, ordinal, npes):
            a, b = pairs[ordinal]
            # Alternate between the two patches' PEs (NAMD places
            # computes next to one of their patches).
            home = patches.pe_of(a) if ordinal % 2 == 0 else patches.pe_of(b)
            return home

        return fn

    # -- PME wiring ------------------------------------------------------------
    def _setup_pme(self, use_m2m: bool, n_pencils: Optional[int]) -> None:
        charm = self.charm
        Kx, Ky, _Kz = self.K
        n_pencils = n_pencils if n_pencils is not None else min(charm.npes, Kx * Ky)
        # deposit_plan[patch] = [(pencil_idx, region, src_slice)]
        # return_plan[patch]  = [slices into the patch window, by piece id]
        self.deposit_plan: Dict[int, list] = {}
        self.return_plan: Dict[int, list] = {}
        deposits_expected: Dict[Tuple[int, int], int] = {}
        collect_plan: Dict[Tuple[int, int], list] = {}

        # Build the FFT service first to know the pencil grid.
        self.pme = FFT3D(
            charm,
            self.K,
            nchares=n_pencils,
            use_m2m=use_m2m,
            service=True,
            post_forward=self._pme_kernel,
            on_backward=self._pme_collect,
            deposits_expected=deposits_expected,
            data=np.zeros(self.K, dtype=np.complex128),
        )
        g = self.pme.grid
        self._green = greens_function(self.K, self.box_arr, self.beta, self.order)
        self._ntot = int(np.prod(self.K))
        self._green_slices: Dict[Tuple[int, int], np.ndarray] = {}
        for (r, c) in self.pme.array.indices:
            (y0, y1), (z0, z1) = g.y2_ranges[r], g.z_ranges[c]
            self._green_slices[(r, c)] = self._green[:, y0:y1, z0:z1]

        for p in range(self.patch_grid.n_patches):
            window = self.patch_grid.pme_footprint(p, self.K, self.order)
            patch = self.patches.element(p)
            patch.window = window
            (wx0, wx1), (wy0, wy1) = window
            plan = []
            returns = []
            for (r, c) in self.pme.array.indices:
                (ax, bx), (ay, by) = g.x_ranges[r], g.y_ranges[c]
                xp = wrapped_overlap(wx0, wx1, ax, bx, Kx)
                yp = wrapped_overlap(wy0, wy1, ay, by, Ky)
                for (xu0, xu1, gx0) in xp:
                    for (yu0, yu1, gy0) in yp:
                        region = (gx0, gx0 + xu1 - xu0, gy0, gy0 + yu1 - yu0)
                        src = (
                            slice(xu0 - wx0, xu1 - wx0),
                            slice(yu0 - wy0, yu1 - wy0),
                            slice(None),
                        )
                        piece_id = len(returns)
                        plan.append(((r, c), region, src))
                        returns.append(src)
                        deposits_expected[(r, c)] = deposits_expected.get((r, c), 0) + 1
                        collect_plan.setdefault((r, c), []).append((p, piece_id, region))
            self.deposit_plan[p] = plan
            self.return_plan[p] = returns
            patch.pme_pieces_expected = len(returns)
        self._collect_plan = collect_plan
        self._pme_cycle = 0
        if use_m2m:
            self._setup_pme_m2m(deposits_expected)

    # -- optimized PME: every phase through persistent m2m handles -----------
    def _setup_pme_m2m(self, deposits_expected) -> None:
        """Wire charge-slab deposits and potential returns through
        CmiDirectManytomany (the paper's optimized PME registers *all*
        phases on persistent handles)."""
        charm = self.charm
        runtime = charm.runtime
        uid = self.pme.uid
        self._dep_slots: Dict[Tuple[int, Tuple[int, int], tuple], object] = {}
        self._ret_slots: Dict[Tuple[Tuple[int, int], int, int], object] = {}
        self.m2m_dep_handles = {}
        self.m2m_ret_handles = {}
        self.m2m_pen_handles = {}
        #: First-arrival flag: zero the pencil grid per cycle.
        self._dep_fresh = {idx: True for idx in self.pme.array.indices}

        dep_hid = runtime.register_handler(self._m2m_dep_complete, category="pme")
        ret_hid = runtime.register_handler(self._m2m_ret_complete, category="pme")

        class _Slot:
            __slots__ = ("value",)

            def __init__(self):
                self.value = None

        def dep_slot(patch, pencil, region):
            key = (patch, pencil, region)
            s = self._dep_slots.get(key)
            if s is None:
                s = _Slot()
                self._dep_slots[key] = s
            return s

        def ret_slot(pencil, patch, piece_id):
            key = (pencil, patch, piece_id)
            s = self._ret_slots.get(key)
            if s is None:
                s = _Slot()
                self._ret_slots[key] = s
            return s

        self.dep_slot = dep_slot
        self.ret_slot = ret_slot

        # Patch side: deposit-send handles + return-receive handles.
        for p in range(self.patch_grid.n_patches):
            patch_pe = runtime.pes[self.patches.pe_of(p)]
            sends = []
            for (pencil, region, src_slice) in self.deposit_plan[p]:
                x0, x1, y0, y1 = region
                nbytes = (x1 - x0) * (y1 - y0) * self.K[2] * 8 + 32
                slot = dep_slot(p, pencil, region)
                sends.append(
                    (
                        self.pme.array.pe_of(pencil),
                        nbytes,
                        (pencil, region, slot),
                        (uid, "pmedep", pencil),
                    )
                )
            self.m2m_dep_handles[p] = charm.cmidirect.register(
                (uid, "patchdep", p), patch_pe, sends, expected_recvs=0
            )
            self.m2m_ret_handles[p] = charm.cmidirect.register(
                (uid, "pmeret", p),
                patch_pe,
                [],
                expected_recvs=len(self.return_plan[p]),
                on_message=self._on_m2m_return,
                completion_handler=ret_hid,
            )

        # Pencil side: deposit-receive + return-send handles.
        for idx in self.pme.array.indices:
            pencil_pe = runtime.pes[self.pme.array.pe_of(idx)]
            sends = []
            for (patch, piece_id, region) in self._collect_plan.get(idx, []):
                x0, x1, y0, y1 = region
                nbytes = (x1 - x0) * (y1 - y0) * self.K[2] * 8 + 32
                slot = ret_slot(idx, patch, piece_id)
                sends.append(
                    (
                        self.patches.pe_of(patch),
                        nbytes,
                        (patch, piece_id, slot),
                        (uid, "pmeret", patch),
                    )
                )
            self.m2m_pen_handles[idx] = charm.cmidirect.register(
                (uid, "pmedep", idx),
                pencil_pe,
                sends,
                expected_recvs=deposits_expected.get(idx, 0),
                on_message=self._on_m2m_deposit,
                completion_handler=dep_hid,
            )

    def _on_m2m_deposit(self, src_node, data) -> None:
        pencil, region, slot = data
        chare = self.pme.array.element(pencil)
        if self._dep_fresh[pencil]:
            self._dep_fresh[pencil] = False
            chare.data = np.zeros(
                self.pme.grid.z_shape(*pencil), dtype=np.complex128
            )
        x0, x1, y0, y1 = region
        chare.data[x0:x1, y0:y1, :] += slot.value

    def _m2m_dep_complete(self, pe, msg):
        """All charge slabs arrived at one pencil: run the FFT cycle."""
        _uid, _kind, pencil = msg.payload
        self.m2m_pen_handles[pencil].reset()
        self._dep_fresh[pencil] = True
        chare = self.pme.array.element(pencil)
        yield from chare.begin()

    def _on_m2m_return(self, src_node, data) -> None:
        patch, piece_id, slot = data
        ch = self.patches.element(patch)
        ch._phi_win[self.return_plan[patch][piece_id]] += slot.value

    def _m2m_ret_complete(self, pe, msg):
        """The whole potential window is back at one patch."""
        _uid, _kind, patch = msg.payload
        self.m2m_ret_handles[patch].reset()
        ch = self.patches.element(patch)
        yield from ch.pme_potential_ready()

    def _pme_kernel(self, chare):
        """Green's-function multiply + reciprocal-energy contribution."""
        C = self._green_slices[(chare.r, chare.c)]
        e_part = 0.5 * float(np.sum(C * np.abs(chare.x_data) ** 2))
        chare.x_data *= C * self._ntot
        yield from chare.contribute(
            e_part, "sum", ("pme-energy", chare.iteration), self._on_pme_energy
        )

    def _on_pme_energy(self, value):
        self.recip_energies.append(value)
        self._maybe_exit()

    def _pme_collect(self, chare):
        """Send potential slabs back to the patches.

        Standard PME: one entry-method message per piece.  Optimized
        PME: fill the persistent slots and trigger the burst.
        """
        idx = (chare.r, chare.c)
        if self.use_m2m_pme:
            for (patch, piece_id, region) in self._collect_plan.get(idx, []):
                x0, x1, y0, y1 = region
                self.ret_slot(idx, patch, piece_id).value = (
                    chare.data[x0:x1, y0:y1, :].real.copy()
                )
            yield from self.m2m_pen_handles[idx].start()
        else:
            for (patch, piece_id, region) in self._collect_plan.get(idx, []):
                x0, x1, y0, y1 = region
                block = chare.data[x0:x1, y0:y1, :].real.copy()
                nbytes = block.size * 8 + 32
                yield from chare.send_to(
                    self.patches, patch, "pme_slab", nbytes, piece_id, block
                )

    # -- reductions / run -----------------------------------------------------
    def _on_step_reduction(self, ke):
        self.step_log.append((self.charm.env.now, ke))
        self._maybe_exit()

    def _maybe_exit(self):
        if (
            len(self.step_log) >= self.n_steps
            and len(self.recip_energies) >= self.expected_pme_cycles
        ):
            self.charm.exit(self)

    def run(self):
        for p in range(self.patch_grid.n_patches):
            self.charm.seed(self.patches, p, "start")
        return self.charm.run()

    # -- results ----------------------------------------------------------
    def gather_positions(self) -> np.ndarray:
        """Assemble global positions (wrapped) from the patches."""
        out = np.zeros_like(self.system.positions)
        for p in range(self.patch_grid.n_patches):
            ch = self.patches.element(p)
            out[ch.atoms] = ch.pos % self.box_arr
        return out

    def gather_velocities(self) -> np.ndarray:
        out = np.zeros_like(self.system.velocities)
        for p in range(self.patch_grid.n_patches):
            ch = self.patches.element(p)
            out[ch.atoms] = ch.vel
        return out
