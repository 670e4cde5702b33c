"""``repro.namd.erfc`` returns the same bytes as ``scipy.special.erfc``.

scipy is the test-only reference here: the kernels no longer import
it.  The sweeps cover each Cephes branch (``1 - erf`` below 1, ``P/Q``
below 8, ``R/S`` above, subnormal results and the ``MAXLOG`` underflow,
the ``2 - y`` reflection for negatives) and the edge values;
one more runs over every input of one Fig. 3 many-to-many PME step, the
inputs the kernels actually see.  Two *premise* tests name the numpy
behaviours the port rests on, so that a numpy or libm that changes one
fails here by name, not only as a checksum drift.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

from repro.harness.workloads import namd_run
from repro.namd import forces
from repro.namd.erfc import MAXLOG, erfc


def _assert_same_bytes(x):
    got = np.asarray(erfc(x))
    want = np.asarray(scipy_erfc(x))
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    bad = np.flatnonzero(got.ravel().view(np.int64) != want.ravel().view(np.int64))
    assert bad.size == 0, (
        f"{bad.size} of {got.size} differ, first x={np.ravel(x)[bad[0]]!r}: "
        f"{got.ravel()[bad[0]]!r} != {want.ravel()[bad[0]]!r}"
    )


# ---------- premises ------------------------------------------------------------

def test_numpy_complex_exp_of_a_real_is_libm_exp():
    """The port's exp: numpy's complex exp calls libm's ``cexp``, which
    for a zero imaginary part returns ``exp(x) * 1.0``, the libm value
    Cephes uses (numpy's float64 ``np.exp`` need not be)."""
    z = np.random.default_rng(7).uniform(-745.0, 10.0, 200_000)
    z[:1000] = -np.square(np.linspace(0.0, 8.0, 1000))  # the fast path's range
    got = np.exp(z + 0j).real
    want = np.array([math.exp(v) for v in z.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_complex_multiply_by_a_real_scales_each_part_with_one_rounding():
    """The port's paired Horner step: ``(p + qj) * (x + 0j)`` is
    ``p*x + (q*x)j`` bitwise, and adding ``complex(c, d)`` adds each part."""
    rng = np.random.default_rng(8)
    p = rng.uniform(-1e4, 1e4, 100_000)
    q = rng.uniform(-1e4, 1e4, 100_000)
    x = rng.uniform(0.0, 64.0, 100_000)
    got = (p + 1j * q) * x.astype(np.complex128)
    got += complex(3.3, -7.7)
    assert np.array_equal(got.real.view(np.int64), (p * x + 3.3).view(np.int64))
    assert np.array_equal(got.imag.view(np.int64), (q * x - 7.7).view(np.int64))


# ---------- bit identity --------------------------------------------------------

@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 1.0),  # 1 - erf
        (1.0, 8.0),  # P/Q
        (8.0, 27.0),  # R/S
        (26.0, 27.5),  # x*x around MAXLOG: subnormal results, then 0
        (27.0, 1e3),  # underflow to 0
        (-1.0, 0.0),  # 1 - erf of a negative (erf is odd)
        (-8.0, -1.0),  # 2 - y
        (-30.0, -8.0),  # 2 - y, and the underflow to 2
        (-30.0, 30.0),  # every branch in one call (the general path)
    ],
)
def test_matches_scipy_bytes_over_each_branch(lo, hi):
    x = np.random.default_rng(17).uniform(lo, hi, 200_000)
    _assert_same_bytes(x)


def test_matches_scipy_bytes_at_the_edges():
    tiny = np.finfo(np.float64).tiny
    edges = [
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
        1.0, -1.0, 8.0, -8.0, 1e300, -1e300,
        np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0),
        np.nextafter(-1.0, 0.0), np.nextafter(-8.0, 0.0),
        math.sqrt(MAXLOG), np.nextafter(math.sqrt(MAXLOG), 30.0),
    ]
    _assert_same_bytes(np.array(edges))
    for v in edges:
        _assert_same_bytes(v)
    _assert_same_bytes(np.array([]))
    _assert_same_bytes(np.linspace(0.1, 7.9, 24).reshape(2, 3, 4))
    _assert_same_bytes(np.linspace(-3.0, 9.0, 40)[::3])


def test_scalar_in_scalar_out():
    assert isinstance(erfc(0.5), np.float64)
    assert erfc(0.5) == scipy_erfc(0.5)


def test_matches_scipy_bytes_on_every_input_of_one_m2m_pme_step(monkeypatch):
    """The kernel's own inputs: one ``pme_m2m`` step (500 atoms, 4 nodes,
    2 workers and 2 comm threads per process, seed 17), captured as
    ``pair_forces`` makes its calls."""
    seen = []

    def capture(x):
        seen.append(np.array(x, copy=True))
        return erfc(x)

    monkeypatch.setattr(forces, "erfc", capture)
    namd_run(True, 1, 500, 4, 2, 2, seed=17)
    assert len(seen) == 72
    assert sum(call.size for call in seen) == 88_119
    for call in seen:
        _assert_same_bytes(call)
