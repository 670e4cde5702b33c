"""Integration tests: mini-NAMD on the Charm++ runtime (§IV-B)."""

import numpy as np
import pytest

from repro.charm import Charm
from repro.converse import RunConfig
from repro.namd.charm_app import NamdCharm, wrapped_overlap
from repro.namd.simulation import SequentialMD
from repro.namd.system import build_system


def small_system(n=96, temperature=0.003, bond_fraction=0.0, seed=5):
    return build_system(n, temperature=temperature, bond_fraction=bond_fraction, seed=seed)


def make_app(system, nnodes=2, workers=2, comm_threads=0, **kw):
    charm = Charm(
        RunConfig(
            nnodes=nnodes,
            workers_per_process=workers,
            comm_threads_per_process=comm_threads,
        )
    )
    return NamdCharm(charm, system, **kw)


# ---------- wrapped_overlap geometry -------------------------------------

def test_wrapped_overlap_no_wrap():
    assert wrapped_overlap(2, 6, 0, 8, 16) == [(2, 6, 2)]


def test_wrapped_overlap_negative_window():
    # Window [-3, 2) on K=16: [-3,0) wraps to [13,16).
    assert wrapped_overlap(-3, 2, 12, 16, 16) == [(-3, 0, 1)]
    assert wrapped_overlap(-3, 2, 0, 4, 16) == [(0, 2, 0)]


def test_wrapped_overlap_window_longer_than_K():
    # Window spanning more than one period hits the range twice.
    pieces = wrapped_overlap(0, 20, 0, 4, 16)
    assert pieces == [(0, 4, 0), (16, 20, 0)]


def test_wrapped_overlap_sums_cover_window():
    K = 16
    w0, w1 = -5, 13
    ranges = [(0, 4), (4, 9), (9, 16)]
    covered = []
    for (a, b) in ranges:
        for (u0, u1, _l) in wrapped_overlap(w0, w1, a, b, K):
            covered.extend(range(u0, u1))
    assert sorted(covered) == list(range(w0, w1))


# ---------- end-to-end ------------------------------------------------------

def test_charm_matches_sequential_no_pme():
    system = small_system()
    seq_sys = build_system(96, temperature=0.003, bond_fraction=0.0, seed=5)
    md = SequentialMD(seq_sys, pme_every=4, dt=0.005)
    # Disable reciprocal part for an exact cutoff-only comparison.
    md.compute_reciprocal = lambda: (0.0, np.zeros_like(seq_sys.positions))
    md.run(3)

    app = make_app(system, pme_enabled=False, n_steps=3, dt=0.005)
    app.run()
    got = app.gather_positions()
    want = seq_sys.positions
    assert np.allclose(got, want, atol=1e-8)
    assert np.allclose(app.gather_velocities(), seq_sys.velocities, atol=1e-8)


def test_charm_matches_sequential_with_pme():
    system = small_system()
    seq_sys = build_system(96, temperature=0.003, bond_fraction=0.0, seed=5)
    md = SequentialMD(seq_sys, pme_every=2, dt=0.005)
    md.run(3)

    app = make_app(system, pme_enabled=True, pme_every=2, n_steps=3, dt=0.005)
    app.run()
    got = app.gather_positions()
    assert np.allclose(got, seq_sys.positions % seq_sys.box, atol=1e-6)


def test_charm_pme_energy_matches_reference():
    system = small_system()
    ref_sys = build_system(96, temperature=0.003, bond_fraction=0.0, seed=5)
    from repro.namd.pme import pme_reciprocal

    e_ref, _ = pme_reciprocal(
        ref_sys.positions, ref_sys.charges, ref_sys.box,
        ref_sys.spec.pme_grid, 0.35, 4,
    )
    app = make_app(system, pme_enabled=True, pme_every=1, n_steps=1, dt=0.005)
    app.run()
    assert app.recip_energies
    assert app.recip_energies[0] == pytest.approx(e_ref, rel=1e-9)


def test_charm_m2m_pme_matches_p2p_numerically():
    s1 = small_system()
    s2 = small_system()
    a1 = make_app(s1, pme_enabled=True, pme_every=1, n_steps=2, dt=0.005,
                  use_m2m_pme=False)
    a1.run()
    a2 = make_app(s2, pme_enabled=True, pme_every=1, n_steps=2, dt=0.005,
                  use_m2m_pme=True, comm_threads=1, workers=2)
    a2.run()
    assert np.allclose(a1.gather_positions(), a2.gather_positions(), atol=1e-8)


def test_charm_intra_patch_bonds_applied():
    system = build_system(96, temperature=0.0, bond_fraction=0.5, seed=5)
    app = make_app(system, pme_enabled=False, n_steps=1, dt=0.005)
    total_bonds = sum(len(b) for b in app.patch_bonds.values())
    assert total_bonds + app.dropped_bonds == len(system.bonds)
    app.run()  # runs to completion with bonded forces active


def test_step_log_and_kinetic_energy_recorded():
    system = small_system()
    app = make_app(system, pme_enabled=False, n_steps=3, dt=0.005)
    app.run()
    assert len(app.step_log) == 3
    times = [t for t, _ in app.step_log]
    assert times == sorted(times)
    kes = [k for _, k in app.step_log]
    assert all(k > 0 for k in kes)


def test_timeline_recording_produces_categories():
    system = small_system()
    charm = Charm(
        RunConfig(nnodes=1, workers_per_process=4, trace=True)
    )
    app = NamdCharm(charm, system, pme_enabled=True, pme_every=2, n_steps=2, dt=0.005)
    app.run()
    cats = {s.category for s in charm.tracer.spans}
    assert "integrate" in cats
    assert "nonbonded" in cats
    assert "pme" in cats
    assert "idle" in cats


def test_validates_steps():
    system = small_system()
    charm = Charm(RunConfig(nnodes=1, workers_per_process=1))
    with pytest.raises(ValueError):
        NamdCharm(charm, system, n_steps=0)
