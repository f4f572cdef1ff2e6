"""Phase of the completed-L prefactor (q/pi)^((s+alpha)/2) * Gamma((s+alpha)/2).

Two independent routes are implemented and cross-checked.

Product route ("gw"): the phase of the Gauss-Weierstrass product
    Gamma(z) = lim N! (N+1)^z / (z (z+1) ... (z+N)),   z = (s+alpha)/2,
regrouped with the Euler-Mascheroni constant so each partial sum is already
close to the limit:

    phase(z) = -gamma*v - arctan(v/a) + sum_{n>=1} [ v/n - arctan(v/(n+a)) ]

with a = Re z = (1/2+eps+alpha)/2 and v = Im z = t/2.  Terms fall off like 1/n^2,
so the N-term truncation error is O(1/N).  Past n0 = max(64, ceil(4|v|) + 32) terms the
rest of the sum is a digamma difference plus a geometric Hurwitz-zeta series (`_gw_tail`):
`_log_gamma_grid` adds it to an n0-row head matrix, giving the limit, and log|Gamma| from
the same head, to near machine precision.  The N-term sums add their first min(N, n0)
terms as one sum in numpy's pairwise order over leaves of 8192 terms and the rest as the
difference of two tails, in O(min(N, |t|)).  The route is valid for all t.  Its special
functions are float64 kernels on the Bernoulli table, with no scipy: the tails' Hurwitz
zeta (`_hurwitz_zeta`) and digamma gap (`_psi_gap`), both memoized, the real digamma
(`_digamma`) and log Gamma(1+a) (`_log_gamma_1p`).

Asymptotic route ("stirling"): `stirling_phase` takes the imaginary part of Stirling's
series for ln Gamma(z+1), z = (2*eps+2*alpha-3)/4 + i*t/2,
    (z+1/2) log z - z + B_2/(2z) + B_4/(12 z^3),
adds (t/2) log(q/pi), and returns with it a bound on its error: the B_6 term, which bounds
the series remainder, plus the rounding of the steps it takes.  Since Re z < 0 on the
strip, the remainder bound blows up as t -> 0; the route refuses t < 0.5 (and a NaN t),
and the product route covers the small-t neighborhood.  It refuses as well an input whose
total or bound is not a finite float: an infinite t, a non-finite eps, or a t large enough
(about 6e305 at q = 3) that the total overflows.

The three-case pattern for the mixed derivative d^2 phase / (d eps d t) at
eps = 0 -- 3/(4t^2), 1/(4t^2), -1/(4t^2) for alpha = 2, 1, 0 -- is exposed
through `mixed_second_derivative`, the product route's N-term sum differentiated
in eps termwise: a trigamma partial sum, its first min(N, n0) terms explicit and
the rest a Hurwitz tail, in a `_gw_sum` pass of its own like the other two sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import SPoint
from .errors import DomainError, NumericalInstabilityError, ResourceLimitError, SingularityError

__all__ = [
    "PrefactorParams",
    "gw_log_gamma_phase",
    "gw_phase_tail_estimate",
    "gamma_phase",
    "gamma_log_abs",
    "gw_dphase_dt",
    "prefactor_dphase_dt",
    "stirling_phase",
    "mixed_second_derivative",
    "find_t_cross",
]

EULER_GAMMA = float(np.euler_gamma)
GW_DEFAULT_TERMS = 10 ** 6
T_STIRLING_MIN = 0.5
_LEAF = 8192  # >= 128, numpy's pairwise base case; 64 KiB leaf buffers and temporaries fit cache
_HEAD_CELLS = 1 << 15  # cells of one column block of a head matrix (`_column_blocks`)
_MAX_HEAD_ROWS = 1 << 20  # most rows of a head (|t| ~ 5e5 for Gamma, 1e6 for L); 80 MiB traced
_T_CROSS_TOL = 1e-4  # bracket width at which find_t_cross's bisection stops

# B_2, B_4, ..., B_26
BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6),
]
_STIRLING_K = 3  # the asymptotic route keeps Bernoulli terms k = 1..K-1; term K bounds the rest
_STIRLING_COEF = [float(BERNOULLI[k - 1]) / (2 * k * (2 * k - 1))  # k = K-1..1, Horner's order
                  for k in range(_STIRLING_K - 1, 0, -1)]
# 32u, u = 2^-53.  With log, atan2 and hypot within one ulp, `stirling_phase`'s roundings
# move its total, to first order, by at most 9u per unit of (t/2)(1 + |log|z|| + |log(q/pi)|)
# (the logs, and the products and sums that carry them) and by at most 22u|eps + alpha| + 50u
# from the bounded parts: arg z times the rounded Re z + 1/2, the rounding of Re z itself
# (the total moves by less than 9 per unit of Re z at |z| >= 1/4) and the series (below 0.52
# there).  32u covers both and the higher orders.
_STIRLING_ROUNDING = 2.0 ** -48
_N_BERN = 11  # Euler-Maclaurin Bernoulli corrections of every Hurwitz zeta (here and `_l_values`)
_PSI_COEF = [float(BERNOULLI[k - 1]) / (2 * k) for k in range(7, 0, -1)]  # B_2k/(2k), k = 7..1
_PSI_MIN = 16.0  # digamma's recurrence lifts x to at least this before its series
_LGAMMA_ORDER = 60  # Taylor terms of log Gamma(2+y), |y| <= 1: the next is below 2^-60
_MEMO_SIZE = 1024  # entries of each tail memo; a prefactor pass asks for about 260 distinct ones


@dataclass(frozen=True)
class PrefactorParams:
    """Modulus and Gamma-shift of the prefactor (q/pi)^((s+alpha)/2) Gamma((s+alpha)/2).

    alpha = 0 (even character), 1 (odd character) or 2 (the zeta case, where
    the factor (s-1) is absorbed and q is forced to 1).
    """

    q: int
    alpha: int

    def __post_init__(self):
        if self.alpha not in (0, 1, 2):
            raise DomainError(f"unsupported alpha = {self.alpha}")
        if self.alpha == 2 and self.q != 1:
            raise DomainError("alpha = 2 encodes the zeta case and requires q = 1")
        if self.q < 1:
            raise DomainError("modulus must be a positive integer")

    @classmethod
    def for_alpha(cls, alpha: int, q: int | None = None) -> "PrefactorParams":
        return cls(q=1 if alpha == 2 or q is None else q, alpha=alpha)


# --------------------------------------------------------------------------
# special functions on the Bernoulli table
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _zeta_coefs(s: int) -> tuple[float, ...]:
    # B_2k (s)_(2k-1) / (2k)! for k = _N_BERN..1, Horner's order, each the exact rational
    # correctly rounded (Python's integer true division rounds correctly)
    out, poch = [], s
    for k, b in enumerate(BERNOULLI[:_N_BERN], 1):
        out.append(b.numerator * poch / (b.denominator * math.factorial(2 * k)))
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return tuple(reversed(out))


@lru_cache(maxsize=_MEMO_SIZE)
def _hurwitz_zeta(s1: int, count: int, w: float) -> tuple[float, ...]:
    """zeta(s, w) for the count integers s = s1, s1+2, ..., each >= 2, at w >= 65.

    Euler-Maclaurin with no head terms and _N_BERN Bernoulli corrections, no stop test:
    zeta(s, w) = w^(1-s) [1/(s-1) + (1/2 + sum_k c_k(s) w^(2-2k) / w) / w], c_k from
    `_zeta_coefs`.  At w >= 65 the first dropped term is below 1e-23 of the value for the
    tails' s <= 33 (1e-18 for s <= 60), and w^(1-s) stays a normal float wherever the value
    does.  Memoized: a prefactor pass asks for about 260 distinct tuples 2,000 times.
    """
    x2, out = 1.0 / (w * w), []
    for s in range(s1, s1 + 2 * count, 2):
        series = 0.0
        for c in _zeta_coefs(s):
            series = series * x2 + c
        out.append(w ** (1 - s) * ((series / w + 0.5) / w + 1.0 / (s - 1)))
    return tuple(out)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x+1) - 1/x lifts x to _PSI_MIN, then
    psi(x) = log x - 1/(2x) - sum_{k=1..7} B_2k / (2k x^(2k)), whose next term is below 3e-20
    there, added in Cephes' order (scipy's `digamma` gives the same bits at x >= 16); the
    smallest recurrence terms are added first."""
    shift = max(0, math.ceil(_PSI_MIN - x))
    out = 0.0
    for k in reversed(range(shift)):  # the smallest terms first
        out = out - 1.0 / (x + k)
    x = x + shift
    r, series = 1.0 / (x * x), 0.0
    for c in _PSI_COEF:
        series = series * r + c
    return ((math.log(x) - 0.5 / x) - r * series) + out


@lru_cache(maxsize=_MEMO_SIZE)
def _psi_gap(m: int, w: float) -> float:
    # psi(w) - psi(m+1), w = m+1+a: the harmonic part of every tail past m terms; memoized,
    # as a prefactor pass asks for about 180 distinct gaps 1,800 times
    return _digamma(w) - _digamma(m + 1.0)


@lru_cache(maxsize=None)
def _lgamma_coefs() -> tuple[float, ...]:
    # Taylor coefficients of log Gamma(2+y) in Horner's order: (-1)^k (zeta(k) - 1)/k for
    # k = _LGAMMA_ORDER..2, zeta(k) - 1 as the exact sum of its terms n = 2..64 and
    # zeta(k, 65), then 1 - gamma for k = 1
    out = [1.0 - EULER_GAMMA]
    for k in range(2, _LGAMMA_ORDER + 1):
        tail = math.fsum([n ** -k for n in range(2, 65)] + [_hurwitz_zeta(k, 1, 65.0)[0]])
        out.append((-1) ** k * tail / k)
    return tuple(reversed(out))


def _log_gamma_1p(a: float) -> float:
    """log Gamma(1+a) for a > 0: log Gamma(1+a) = log a + log Gamma(a) brings a into (0, 2],
    then the Taylor series of log Gamma(2+y) at y = a - 1 in Horner form."""
    out = 0.0
    while a > 2.0:
        out += math.log(a)
        a -= 1.0
    y, series = a - 1.0, 0.0
    for c in _lgamma_coefs():
        series = series * y + c
    return out + y * series


# --------------------------------------------------------------------------
# product (Gauss-Weierstrass) route
# --------------------------------------------------------------------------

def _ab(s: SPoint, alpha: int) -> tuple[float, float]:
    a = (0.5 + s.eps + alpha) / 2.0
    v = s.t / 2.0
    if a <= 0.0:
        raise DomainError(f"Re (s+alpha)/2 = {a} <= 0 is outside the product-route domain")
    if a < 1e-12 and abs(v) < 1e-12:
        raise SingularityError("(s+alpha)/2 is too close to the Gamma pole at 0")
    return a, v


def _x_minus_arctan(x: np.ndarray) -> np.ndarray:
    # x - arctan(x) in one pass; the |x| < 0.1 entries, where the subtraction cancels, by the
    # series x^3/3 - x^5/5 + ... through x^11, in place in two scratch arrays, since the Gamma
    # head of a 3,991-point grid passes about 1.7M cells
    out = np.abs(x)
    small = out < 0.1
    np.subtract(x, np.arctan(x, out=out), out=out)
    xs = x[small]
    x2, series = np.multiply(xs, xs), np.empty_like(xs)
    np.divide(x2, 11.0, series)
    for c in (-1.0 / 9.0, 1.0 / 7.0, -1.0 / 5.0):
        np.multiply(x2, np.add(c, series, series), series)
    np.add(1.0 / 3.0, series, series)
    out[small] = np.multiply(np.multiply(xs, x2, x2), series, series)
    return out


def _ordered_sum(leaf, lo: int, m: int) -> np.float64 | np.ndarray:
    """The m summands from index lo, added in np.sum's pairwise order.

    `leaf(lo, m)` returns the m summands from index lo along its last axis, one row per
    sum; it is called only at leaves of at most _LEAF terms of numpy's pairwise split
    (`_split`), which np.add.reduce finishes in the same order.
    Module-level, so a call leaves no reference cycle behind.
    """
    if m <= _LEAF:
        return np.add.reduce(leaf(lo, m), axis=-1)
    m2 = _split(m)
    return _ordered_sum(leaf, lo, m2) + _ordered_sum(leaf, lo + m2, m - m2)


def _split(m: int) -> int:
    # the first half of numpy's pairwise split of m > _LEAF summands: m//2 rounded down to a
    # multiple of 8
    return m // 2 - (m // 2) % 8


def _leaf_size(m: int) -> int:
    """The most summands `_ordered_sum` passes one leaf when it adds m.  Either half of a
    split may hold it: a half of at most _LEAF terms is a leaf at once, while the other may
    split again into narrower ones."""
    if m <= _LEAF:
        return m
    m2 = _split(m)
    return max(_leaf_size(m2), _leaf_size(m - m2))


def _gw_sum(total: float, n_terms: int, v: float, terms, tail) -> float:
    # add the summands terms(n) for n = 1..n_terms to `total`: the first min(n_terms, n0) as
    # one ordered sum, and any past n0 as tail(n0) - tail(n_terms), tail(m) the sum over n > m
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    m = min(n_terms, _head_rows(abs(v)))
    total += _ordered_sum(lambda lo, k: terms(np.arange(lo, lo + k, dtype=np.float64)), 1, m)
    if n_terms > m:
        total += tail(m) - tail(n_terms)
    return float(total)


def gw_log_gamma_phase(s: SPoint, alpha: int, n_terms: int = GW_DEFAULT_TERMS) -> float:
    """Phase of Gamma((s+alpha)/2) from the N-term regrouped product sum S_N.

    Costs O(min(N, |t|)); within 3e-14 * (1 + |S_N|) of S_N for |t| <= 3000, N <= 1e12.
    """
    a, v = _ab(s, alpha)

    def terms(n: np.ndarray) -> np.ndarray:
        na = n + a
        return v * a / (n * na) + _x_minus_arctan(v / na)

    return _gw_sum(-EULER_GAMMA * v - math.atan(v / a), n_terms, v, terms,
                   lambda m: _gw_tail(v, abs(v), m, a))


def gw_phase_tail_estimate(s: SPoint, alpha: int, n_terms: int) -> float:
    """Upper estimate of |limit - N-term sum| for the computed `gw_log_gamma_phase`.

    The tail terms satisfy 0 < v/n - arctan(v/(n+a)) <= v*a/(n(n+a)) +
    v^3/(3(n+a)^3) termwise, so the first two terms dominate the exact partial sum's
    truncation.  The last bounds the computed sum's rounding, 3e-14 * (1 + |S_N|), since
    |S_N| <= |v| (gamma + H_N) + pi/2 and H_N <= 1 + ln N.
    """
    a, v = _ab(s, alpha)
    v = abs(v)
    return (v * a / n_terms + v ** 3 / (6.0 * n_terms ** 2)
            + 3e-14 * (1.0 + math.pi / 2.0 + v * (1.0 + EULER_GAMMA + math.log(n_terms))))


def _tail_order(vmax: float, w: float) -> int:
    # the one truncation rule of every Hurwitz-zeta tail: the smallest J with r^(2J) <= 1e-18,
    # r = vmax/w; every caller has w >= n0 + 1 + a, a > 0, n0 = _head_rows(vmax) >= 4 vmax + 32,
    # so r < 1/4 and J lies in [1, 15], and J is 1 when vmax = 0
    r = vmax / w
    if r <= 0:
        return 1
    return int(math.ceil(-18.0 * math.log(10) / (2.0 * math.log(r))))


def _hurwitz_tail(tail, pw, v, vmax: float, w: float, s1: int, coef):
    # add coef(j) * zeta(s1 + 2(j-1), w) * pw * v^(2j) for j = 1.._tail_order(vmax, w), with
    # all the zeta values from one memoized `_hurwitz_zeta` tuple; tail, pw and v are
    # scalars or arrays alike
    v2 = v * v
    for j, z in enumerate(_hurwitz_zeta(s1, _tail_order(vmax, w), w), 1):
        pw = pw * v2
        tail += coef(j) * z * pw
    return tail


def _head_rows(vmax: float) -> int:
    # n0: past n0 terms |v|/(n+a) <= 1/4 for |v| <= vmax, so the tail series converge fast
    return int(max(64, math.ceil(4.0 * vmax) + 32))


def _gw_tail(v, vmax: float, m: int, a: float):
    """Sum over n > m >= n0 of the phase summands v/n - arctan(v/(n+a)), w = m+1+a:
    v (psi(w) - psi(m+1)) + sum_j (-1)^(j+1) v^(2j+1)/(2j+1) zeta(2j+1, w)."""
    w = m + 1.0 + a
    return _hurwitz_tail(v * _psi_gap(m, w), v, v, vmax, w, 3,
                         lambda j: ((-1) ** (j + 1)) / (2 * j + 1))


def _column_blocks(n_cols: int, n_rows: int) -> list[slice]:
    """Column slices of an (n_rows, n_cols) head matrix, at most _HEAD_CELLS cells each.

    numpy sums a C-contiguous (n, k) block over axis 0 row by row for k >= 2, but an
    (n, 1) block pairwise; so no block is one column wide unless n_cols is 1, and each
    column is summed as it would be inside the whole matrix.  Blocks are 2 columns wide
    at least, so a head of more than _HEAD_CELLS/2 rows exceeds the cell budget, and one
    of more than _MAX_HEAD_ROWS raises ResourceLimitError; each head takes its blocks first.
    """
    if n_rows > _MAX_HEAD_ROWS:
        raise ResourceLimitError(f"a head of {n_rows} rows is over the {_MAX_HEAD_ROWS}-row budget")
    width = max(2, _HEAD_CELLS // max(n_rows, 1))
    starts = list(range(0, n_cols, width))
    if len(starts) > 1 and n_cols - starts[-1] == 1:
        starts.pop()  # the last column joins the block before it
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_cols])]


def _log_gamma_grid(t, eps: float, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """log|Gamma(a+iv)| and the limit of the product-route phase over t, from one head matrix.

    Moduli in the product give log|Gamma| = lnGamma(1+a) - log(a^2+v^2)/2 - sum log(1+x^2)/2,
    x = v/(n+a).  Both head sums over n = 1..n0 share x and are completed by the tails
    sum_j (-1)^(j+1) v^(2j)/(2j) zeta(2j, n0+1+a) and `_gw_tail`, to near machine precision
    for every t.  The head has n0 = `_head_rows`(max|v|) rows, so the tails converge
    geometrically.  The head matrix is built and summed in the column blocks of
    `_column_blocks`, both sums from one block of x, so memory stays at _HEAD_CELLS cells
    plus O(points) and every column is summed as in the whole matrix.
    """
    a, _ = _ab(SPoint(eps, 0.0), alpha)
    v = np.atleast_1d(np.asarray(t, dtype=np.float64)) / 2.0
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    n0 = _head_rows(vmax)
    blocks = _column_blocks(v.size, n0)
    n, w = np.arange(1, n0 + 1, dtype=np.float64)[:, None], n0 + 1.0 + a
    na = n + a
    nna = n * na
    head_abs, head_phase = np.empty_like(v), np.empty_like(v)
    for b in blocks:
        x = v[None, b] / na
        head_abs[b] = 0.5 * np.sum(np.log1p(x * x), axis=0)
        head_phase[b] = np.sum(v[None, b] * a / nna + _x_minus_arctan(x), axis=0)
    tail = _hurwitz_tail(np.zeros_like(v), np.ones_like(v), v, vmax, w, 2,
                         lambda j: ((-1) ** (j + 1)) / (2.0 * j))
    log_abs = _log_gamma_1p(a) - 0.5 * np.log(a * a + v * v) - head_abs - tail
    return log_abs, -EULER_GAMMA * v - np.arctan(v / a) + head_phase + _gw_tail(v, vmax, n0, a)


def gamma_phase(t, eps: float, alpha: int) -> np.ndarray | float:
    """Limit of the product-route phase, vectorized over t (see `_log_gamma_grid`)."""
    out = _log_gamma_grid(t, eps, alpha)[1]
    return out if np.ndim(t) else float(out[0])


def gamma_log_abs(t, eps: float, alpha: int) -> np.ndarray | float:
    """log |Gamma((s+alpha)/2)| from the same product, vectorized over t (see `_log_gamma_grid`)."""
    out = _log_gamma_grid(t, eps, alpha)[0]
    return out if np.ndim(t) else float(out[0])


def gw_dphase_dt(s: SPoint, alpha: int, n_terms: int = GW_DEFAULT_TERMS) -> float:
    """t-derivative of the product-route phase at fixed N (termwise derivative).

    Costs O(min(N, |t|)); within 3e-14 * (1 + |value|) of it for |t| <= 3000, N <= 1e12.
    """
    a, v = _ab(s, alpha)

    def terms(n: np.ndarray) -> np.ndarray:
        na = n + a
        return 0.5 * (a * na + v * v) / (n * (na * na + v * v))

    def tail(m: int) -> float:  # (psi(w) - psi(m+1))/2 + sum_j (-1)^(j+1) v^(2j)/2 zeta(2j+1, w)
        w = m + 1.0 + a
        return 0.5 * _hurwitz_tail(_psi_gap(m, w), 1.0, v, abs(v), w, 3,
                                   lambda j: (-1) ** (j + 1))

    return _gw_sum(-EULER_GAMMA / 2.0 - a / (2.0 * (a * a + v * v)), n_terms, v, terms, tail)


def _gw_mixed(s: SPoint, alpha: int, n_terms: int) -> float:
    """eps-derivative of `gw_dphase_dt` (da/d eps = 1/2), the trigamma partial sum
    sum_{n=0..N} ((n+a)^2 - v^2) / (4((n+a)^2 + v^2)^2) = Re [psi'(z) - psi'(z+N+1)]/4."""
    a, v = _ab(s, alpha)

    def terms(n: np.ndarray) -> np.ndarray:
        x2 = (n + a) ** 2
        return (x2 - v * v) / (4.0 * (x2 + v * v) ** 2)

    def tail(m: int) -> float:  # sum_j (-1)^j (2j+1) v^(2j)/4 zeta(2j+2, w)
        w = m + 1.0 + a
        return 0.25 * _hurwitz_tail(_hurwitz_zeta(2, 1, w)[0], 1.0, v, abs(v), w, 4,
                                    lambda j: (-1) ** j * (2 * j + 1))

    return _gw_sum((a * a - v * v) / (4.0 * (a * a + v * v) ** 2), n_terms, v, terms, tail)


def prefactor_dphase_dt(s: SPoint, params: PrefactorParams,
                        n_terms: int = GW_DEFAULT_TERMS) -> float:
    """t-derivative of the full prefactor phase: log(q/pi)/2 plus the Gamma part."""
    return 0.5 * math.log(params.q / math.pi) + gw_dphase_dt(s, params.alpha, n_terms)


# --------------------------------------------------------------------------
# asymptotic (Stirling) route
# --------------------------------------------------------------------------

def _level(t: float, q: int) -> float:
    """The level log sqrt(|t| q / 2 pi), NaN at t = 0."""
    return 0.5 * math.log(abs(t) * q / (2.0 * math.pi)) if t != 0 else math.nan


def stirling_phase(t: float, eps: float, params: PrefactorParams) -> tuple[float, float]:
    """(Total prefactor phase, a bound on its error) by the asymptotic route; t >= 0.5.

    With z = (2 eps + 2 alpha - 3)/4 + i t/2, so that Gamma((s+alpha)/2) = Gamma(z+1), the
    total is Im[(z+1/2) log z - z + sum_{k<K} B_2k / (2k(2k-1) z^(2k-1))] + (t/2) log(q/pi).
    The bound is the B_2K term, sec^(2K)(arg z / 2) times its modulus, which bounds the
    series remainder for |arg z| < pi, plus `_STIRLING_ROUNDING` times the sum of the
    magnitudes the computed total is rounded against.  A total or bound that is not a finite
    float is refused, as a t below 0.5 is.
    """
    if not t >= T_STIRLING_MIN:
        raise DomainError(
            f"asymptotic route is unreliable below t = {T_STIRLING_MIN}; use the product route"
        )
    z = complex((2.0 * eps + 2.0 * params.alpha - 3.0) / 4.0, t / 2.0)
    log_z, r = complex(math.log(abs(z)), math.atan2(z.imag, z.real)), 1.0 / z
    r2, series = r * r, 0.0
    for c in _STIRLING_COEF:
        series = series * r2 + c
    log_qpi = math.log(params.q / math.pi)
    total = ((z + 0.5) * log_z - z + r * series).imag + z.imag * log_qpi
    K = _STIRLING_K
    # |z|^(1-2K), not 1/|z|^(2K-1): it underflows to 0 where the other overflows
    remainder = (abs(float(BERNOULLI[K - 1])) / (2 * K * (2 * K - 1)) * abs(z) ** (1 - 2 * K)
                 / math.cos(log_z.imag / 2.0) ** (2 * K))
    bound = remainder + _STIRLING_ROUNDING * (z.imag * (1.0 + abs(log_z.real) + abs(log_qpi))
                                              + abs(eps + params.alpha) + 3.0)
    if not (math.isfinite(total) and math.isfinite(bound)):
        raise DomainError(f"no finite asymptotic phase at t = {t}, eps = {eps}")
    return total, bound


# --------------------------------------------------------------------------
# bisection driver, mixed derivative and crossing points
# --------------------------------------------------------------------------

def _bisect(f, lo, hi, f_lo, tol: float) -> np.ndarray:
    """Midpoints of sign-change brackets [lo, hi] of f, each narrowed to width <= tol.

    lo, hi and f_lo = f(lo) hold one entry per bracket, and f(lo), f(hi) lie on opposite
    sides of zero (f_lo = 0 counts as negative).  f maps an array of points to an array
    of values; each level evaluates the midpoints of all still-open brackets in one f
    call, so brackets of one width take as many calls as a single bracket.  A bracket
    stops on its own once its width is <= tol, or at a midpoint where f is exactly zero,
    which is then its result.  Signs are compared, never multiplied, so values near
    underflow keep their sign.
    """
    lo, hi, f_lo = (np.array(a, dtype=np.float64) for a in (lo, hi, f_lo))
    open_ = np.flatnonzero(hi - lo > tol)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = np.asarray(f(mid), dtype=np.float64)
        hit = f_mid == 0.0  # the bracket closes on mid: 0.5 * (mid + mid) == mid
        up = ((f_mid > 0.0) == (f_lo[open_] > 0.0)) & ~hit
        lo[open_[up | hit]] = mid[up | hit]
        f_lo[open_[up]] = f_mid[up]
        hi[open_[~up]] = mid[~up]
        open_ = open_[hi[open_] - lo[open_] > tol]
    return 0.5 * (lo + hi)


def _bisect_one(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """`_bisect` on the one bracket [lo, hi] of a scalar f."""
    return float(_bisect(lambda ts: [f(float(ts[0]))], [lo], [hi], [f_lo], tol)[0])


def mixed_second_derivative(t: float, alpha: int, n_terms: int = GW_DEFAULT_TERMS) -> float:
    """d/d eps at eps=0 of the prefactor-phase t-derivative (independent of q): the N-term
    product sum differentiated termwise, a trigamma partial sum whose terms past n0 come from
    a Hurwitz tail (`_gw_mixed`); O(min(N, t)), within 1e-14 * max(1, |value|) of it."""
    if t <= 0.0:
        raise DomainError("mixed derivative requires t > 0")
    return _gw_mixed(SPoint(0.0, t), alpha, n_terms)


def find_t_cross(params: PrefactorParams, n_terms: int = GW_DEFAULT_TERMS) -> float | None:
    """Zero crossing of the prefactor-phase t-derivative on (0, 100], to within _T_CROSS_TOL.

    Returns None when the curve is positive for all t (no crossing).  The
    curve is strictly increasing in t, so a single bisection suffices.
    """
    f = lambda tt: prefactor_dphase_dt(SPoint(0.0, tt), params, n_terms)
    t_lo = 1e-3
    f_lo = f(t_lo)
    if f_lo > 0.0:
        return None
    grid = np.concatenate([np.geomspace(t_lo, 1.0, 12)[1:], np.linspace(1.25, 100.0, 40)])
    for g in grid:
        f_g = f(float(g))
        if f_g > 0.0:
            return _bisect_one(f, t_lo, float(g), f_lo, _T_CROSS_TOL)
        t_lo, f_lo = float(g), f_g
    raise NumericalInstabilityError("no sign change found on (0, 100]")
