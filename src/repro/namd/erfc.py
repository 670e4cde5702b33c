"""erfc for the real-space Ewald kernels, the same bytes as scipy's.

A numpy port of Cephes ``erfc`` (``ndtr.c``, which scipy's ``xsf``
library carries as ``scipy.special.erfc``): the same coefficient
tables, the same Horner order (``polevl`` / ``p1evl``), the same
branches.  Every float operation is the one the C code performs, in its
order, so each result is the same double; ``tests/namd/test_erfc.py``
checks that bitwise against scipy over every branch.

The one operation numpy does not give directly is libm's ``exp``:
numpy's float64 ``np.exp`` is its own SIMD code and differs from libm
in the last bit on a few inputs in a hundred.  numpy's complex ``exp``
calls libm's ``cexp``, which for a zero imaginary part returns
``exp(x) * cos(0)`` = ``exp(x)``, so :func:`_libm_exp` goes through
complex128.  The two polynomials of each rational (``P/Q``, ``R/S``,
``T/U``) share one complex Horner pass, :func:`_horner2`, which halves
the numpy calls.  ``test_erfc.py`` checks both premises by name.

A ``pair_forces`` input is ``beta`` times a distance inside the cutoff
(at most 2.63 in the bench workloads), so :func:`erfc` takes a fast
path on ``[0, 8)``, chosen by one ``min()``/``max()`` check: no sign,
``R/S`` or underflow branch, and the Horner steps run in place.
Anything else (negatives, ``x >= 8``, ``nan``, ``inf``) goes through
the general path, which follows the C branches one by one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erfc"]

#: Cephes ``MAXLOG``, ``log(DBL_MAX)``: ``exp(-x*x)`` below ``-MAXLOG``
#: underflows, and erfc is 0 (2 for negative ``x``).
MAXLOG = 7.09782712893383996843e2

# erfc(x) = exp(-x*x) * P(x) / Q(x) for 1 <= |x| < 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
#: Leading coefficient 1.0 implicit (``p1evl``).
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x*x) * R(x) / S(x) for |x| >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
#: Leading coefficient 1.0 implicit (``p1evl``).
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x * T(x*x) / U(x*x) for |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
#: Leading coefficient 1.0 implicit (``p1evl``).
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


# The tables paired for _horner2: a shorter numerator padded with a
# leading 0.0, each implicit 1.0 written out.
_PQ = tuple(map(complex, _P, (1.0,) + _Q))
_RS = tuple(map(complex, (0.0,) + _R, (1.0,) + _S))
_TU = tuple(map(complex, (0.0,) + _T, (1.0,) + _U))


def _horner2(x: np.ndarray, pair: tuple) -> np.ndarray:
    """Two Cephes polynomials at once: ``polevl`` in ``.real``, ``p1evl`` in ``.imag``.

    ``x`` is complex with zero imaginary parts.  Multiplying by
    ``x + 0j`` scales each part by ``x`` with one rounding (the cross
    terms are exact zeros), and adding ``complex(c, d)`` adds ``c`` and
    ``d``, so each step is the Horner step ``ans * x + coef`` of both
    polynomials, in Cephes' order.  For finite ``x`` the padding is
    exact too: a leading 0.0 keeps a part at 0 until its table starts,
    and the written-out 1.0 makes the next step ``x + coef[0]``, the
    first step of ``p1evl``.
    """
    ans = x * pair[0]
    ans += pair[1]
    for c in pair[2:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(z: np.ndarray) -> np.ndarray:
    """libm's ``exp(z)``, elementwise, through ``cexp`` (module docstring)."""
    return np.exp(z.astype(np.complex128)).real


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for ``0 <= x < 1``: ``x * T(x*x) / U(x*x)``."""
    z = x * x
    tu = _horner2(z.astype(np.complex128), _TU)
    y = x * tu.real
    y /= tu.imag
    return y


def erfc(x) -> np.ndarray:
    """erfc of ``x`` as float64, bitwise equal to ``scipy.special.erfc``."""
    a = np.asarray(x, dtype=np.float64)
    flat = a.ravel()
    lo = flat.min() if flat.size else np.nan
    if 0.0 <= lo and flat.max() < 8.0:
        y = _erfc_0_8(flat, lo < 1.0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            y = _erfc_general(flat)
    return y.reshape(a.shape)[()]


def _erfc_0_8(a: np.ndarray, any_small: bool) -> np.ndarray:
    """erfc of 1-D ``a`` in ``[0, 8)``: ``exp(-a*a) * P/Q``, ``1 - erf`` below 1."""
    pq = _horner2(a.astype(np.complex128), _PQ)
    z = a * a
    np.negative(z, out=z)
    y = _libm_exp(z)
    y *= pq.real
    y /= pq.imag
    if any_small:
        small = a < 1.0
        y[small] = 1.0 - _erf_small(a[small])
    return y


def _erfc_general(a: np.ndarray) -> np.ndarray:
    """:func:`erfc` on any 1-D ``a``, one Cephes branch at a time."""
    x = np.abs(a)
    y = np.full(a.shape, np.nan)  # nan in, nan out
    small = x < 1.0
    if small.any():
        # 1 - erf(a); Cephes' erf is odd: erf(a) = -erf(-a) for a < 0.
        s = _erf_small(x[small])
        y[small] = 1.0 - np.where(a[small] < 0.0, -s, s)
    z = -a * a
    big = x >= 1.0
    live = big & (z >= -MAXLOG)
    if live.any():
        xl = x[live].astype(np.complex128)
        mid = xl.real < 8.0
        pq = np.empty_like(xl)
        pq[mid] = _horner2(xl[mid], _PQ)
        pq[~mid] = _horner2(xl[~mid], _RS)
        yl = _libm_exp(z[live])
        yl *= pq.real
        yl /= pq.imag
        y[live] = np.where(a[live] < 0.0, 2.0 - yl, yl)
    # Underflow: exp(-a*a) below range, or a product that rounded to 0.
    under = big & ~(live & (y != 0.0))
    y[under] = np.where(a[under] < 0.0, 2.0, 0.0)
    return y
