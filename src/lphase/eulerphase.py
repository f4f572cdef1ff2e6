"""Windowed Euler-product phase estimators and oscillation bookkeeping.

Every estimator here is a windowed increment of the phase of the Euler product over
primes p <= p_max, gcd(p, q) = 1,

    phase(t) = - sum_p arctan( sin(log(p) t - angle(chi(p)))
                               / (p^(1/2+eps) - cos(log(p) t - angle(chi(p)))) ),

never the phase itself.  The sum converges only conditionally for eps <= 1/2, so the
summation order is part of every contract here: terms are accumulated over ascending
primes, and any grouping (class tagging, oscillation braces, block pre-sums) must keep that
order.  numpy's pairwise reduction satisfies this -- it groups contiguous blocks in order
and never permutes terms -- and is bit-stable across runs.

The incremental ratio over the window t +/- pi/log(p_star) is the working
phase-derivative estimator (`windowed_ratio_exact`); replacing each arctan
increment by its leading cosine term gives `windowed_ratio_approx`, and
`estimator_residual` exposes their difference split into the two
structurally bounded pieces (higher arctan orders, and the 1/p-coupled
term).  Oscillation masses collect |cosine summand| between consecutive cosine
zero-transitions in prime space, once by the ordered prime sum and once by the
Li integral of the same integrand (composite Gauss-Legendre in log y); their ratios
at two eps values drive the level-monotonicity checks.  Each call prepares its
primes, p^(1/2+eps) and the window tables once; `scan` makes one kernel call for its whole
grid.  Preparation copies the runs of the prime table between the few primes that divide q
straight into its arrays and fills the window tables leaf by leaf, so a prepared kernel
holds five arrays over its primes and leaf-sized buffers.
The two estimators and the residual are modes of that kernel's one leaf: each value is one
sum in numpy's pairwise order over leaves of at most 8192 primes
(`gammaphase._ordered_sum`), so it depends only on its own t.  Each leaf runs on a block
of up to `_BLOCK` points at once, one row per point: a single-point call is a block of
one, and every value keeps the bits it has alone.  Every cosine of a per-prime angle, in the
kernel and the ledger, and every sine the kernel uses, comes from one tan of the half angle
(`_cos`, `_sin_cos`); see `_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .arith import DirichletCharacter, PrimeTable, euler_phi
from .errors import DegenerateInputError, DomainError, ResourceLimitError, TruncationError
from .gammaphase import _LEAF, _leaf_size, _level, _ordered_sum, _x_minus_arctan

__all__ = [
    "WindowParams",
    "PhaseScan",
    "OscillationLedger",
    "LedgerEntry",
    "MassRatios",
    "LevelCheckResult",
    "windowed_ratio_exact",
    "windowed_ratio_approx",
    "EstimatorResidual",
    "estimator_residual",
    "oscillation_boundaries",
    "max_k_for_bound",
    "build_oscillation_ledger",
    "oscillation_mass_ratios",
    "level_check",
    "scan",
]

MIN_EPS = -0.4  # arctan denominators can degenerate for p=2,3 below this
_MAX_LEDGER_ENTRIES = 10 ** 5  # each entry takes two Li quadratures and two prime sums
# panels of one Li interval, 20 nodes each (`_li_integral`): the CLI ledgers and criterion 13
# take at most 2, the quadrature tests 68; the count grows like |eps| past |t|
_MAX_LI_PANELS = 1 << 12
# Li intervals [a, b] in u = log y are cut into panels with max(|z|, 1/a) (b - a) <= _GL_SPAN,
# each integrated by the 20 Gauss-Legendre nodes and weights on [-1, 1] below (`_li_integral`):
# the roots of P_20 and their weights 2 / ((1 - x^2) P_20'(x)^2), each correctly rounded
# from a 50-digit Newton solve (mpmath); numpy's leggauss(20) misses the weights by up to
# 353 ulps.  Stored, since computing them costs a LAPACK call or mpmath at import
_GL_SPAN = 2.0
_GL_NODES = np.array([
    -0.9931285991850949, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.9931285991850949,
])
_GL_WEIGHTS = np.array([
    0.017614007139152118, 0.04060142980038694, 0.06267204833410907, 0.08327674157670475,
    0.10193011981724044, 0.11819453196151841, 0.13168863844917664, 0.14209610931838204,
    0.14917298647260374, 0.15275338713072584, 0.15275338713072584, 0.14917298647260374,
    0.14209610931838204, 0.13168863844917664, 0.11819453196151841, 0.10193011981724044,
    0.08327674157670475, 0.06267204833410907, 0.04060142980038694, 0.017614007139152118,
])


@dataclass(frozen=True)
class WindowParams:
    """Window scale p_star and summation cutoff p_max.

    The window half-width is pi/log(p_star).  p_star is real and may exceed
    p_max: a narrower window applied to the same finite prime sum is still a
    well-defined incremental ratio (used for derivative-consistency checks).
    """

    p_star: float
    p_max: int

    def __post_init__(self):
        if not self.p_star > 1.0:
            raise DomainError("p_star must exceed 1")
        if self.p_max < 2:
            raise DomainError("p_max must be at least 2")


@dataclass
class PhaseScan:
    chi: DirichletCharacter
    eps: float
    t_grid: np.ndarray
    values: np.ndarray
    estimator: str  # "exact_arctan" | "cosine_approx"
    window: WindowParams

    def __post_init__(self):
        if len(self.values) != len(self.t_grid):
            raise DomainError("scan values and grid lengths differ")
        if np.any(np.diff(self.t_grid) <= 0):
            raise DomainError("t grid must be strictly increasing")


def _prime_data(chi: DirichletCharacter, primes: PrimeTable,
                p_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primes p <= p_max coprime to q (ascending), their logs, and character angles.

    A prime off the units divides q, so only primes <= q can drop out; the runs of the
    table between them are copied straight into the float primes, their logs and their
    residues mod q, which index the angles.
    """
    if p_max > primes.p_max:
        raise DomainError(f"cutoff {p_max} lies past the prime table's p_max {primes.p_max}")
    table = primes.primes
    n = int(np.searchsorted(table, p_max, side="right"))
    q = chi.q
    drop = [i for i in range(int(np.searchsorted(table[:n], q, side="right")))
            if chi.k[table[i] % q] < 0]
    size = n - len(drop)
    p, lp, res = np.empty(size), np.empty(size), np.empty(size, dtype=table.dtype)
    for k, (lo, hi) in enumerate(zip([0] + [i + 1 for i in drop], drop + [n])):
        out = slice(lo - k, hi - k)  # k primes dropped before lo
        p[out] = table[lo:hi]
        lp[out] = primes.log_primes[lo:hi]
        np.remainder(table[lo:hi], q, out=res[out])
    return p, lp, chi.angles_by_residue()[res]


def _check_eps(eps: float) -> None:
    if not MIN_EPS <= eps < math.inf:
        raise DomainError(f"eps must be finite and at least {MIN_EPS}, got {eps}")


def _cos(x, u, c, d):
    # cos x into c from u = tan(x/2), left in u, and d = 1 + u*u, u may alias x: one
    # vectorised tan costs about a tenth of np.sin plus np.cos, and sin and cos from it come
    # out within a few ulps; u*u cannot overflow, since no double lies within 1e-19 of a
    # pole of tan
    np.tan(np.multiply(x, 0.5, u), u)
    np.add(1.0, np.multiply(u, u, c), d)
    return np.divide(np.subtract(1.0, c, c), d, c)


def _sin_cos(x, s, c, d):
    # sin x into s and cos x into c, d scratch, s may alias x (`_cos`)
    _cos(x, s, c, d)
    return np.divide(np.add(s, s, s), d, s), c


def _window_table(lp, lnps):
    # sin B and cos B, B = pi log p / log p*: the window's fixed rotation of each prime,
    # filled leaf by leaf, so that _sin_cos needs one leaf of scratch
    sin_b, cos_b, d = np.empty_like(lp), np.empty_like(lp), np.empty(_LEAF)
    for lo in range(0, lp.size, _LEAF):
        i = slice(lo, lo + _LEAF)
        b = np.divide(np.multiply(math.pi, lp[i], sin_b[i]), lnps, sin_b[i])
        _sin_cos(b, b, cos_b[i], d[:b.size])
    return sin_b, cos_b


# leaf buffer rows of each `_kernel` mode: s, c, d; then u, v; then the residual's e, f
_ROWS = {"cosine_approx": 3, "exact_arctan": 5, "residual": 7}
_BLOCK = 4  # grid points per leaf of a scan


def _kernel(mode: str, eps: float, chi: DirichletCharacter, primes: PrimeTable,
            window: WindowParams):
    """One of the Euler-product sums as a function of t, with its primes prepared once.

    A value is one ordered sum over ascending primes, computed in leaves of at most _LEAF
    primes, and depends only on its own t.  The function takes a 1-D array of t and runs
    each leaf on _BLOCK points as one (points, primes) array, whose rows `_ordered_sum`
    reduces in the same order, so each point keeps the bits it has alone; a single point is
    a block of one.
    The buffers are allocated per evaluation, as wide as the largest leaf (`_leaf_size`),
    and each mode has only the rows it uses (`_ROWS`).  The leaf takes cos, and for all but
    the cosine mode sin, of A = log(p) t - theta from one tan of A/2 (`_cos`, `_sin_cos`),
    and uses fixed sin B, cos B tables (`_window_table`, B = pi log p / log p*).  Modes:
    "exact_arctan", the arctan increments x = sin/(p^sigma - cos) at A +- B, reached by
    angle addition; "cosine_approx", their leading terms cos A sin B / p^sigma (scale
    -log p*/pi against -log p*/2pi); "residual", the difference of the two as two rows
    (higher arctan orders, coupled term).  The leaf works in place in its buffers: the same
    leaf written as plain expressions gives the same bits but is slower at 665k primes
    (q = 3, p_max = 1e7, in-process medians on a 2-vCPU host): 13.7-17.0 against
    11.9-12.0 ms a point.
    """
    _check_eps(eps)
    p, lp, th = _prime_data(chi, primes, window.p_max)
    p_sigma = np.power(p, 0.5 + eps, out=p)
    lnps = math.log(window.p_star)
    scale = -lnps / (math.pi if mode == "cosine_approx" else 2.0 * math.pi)
    sin_w, cos_w = _window_table(lp, lnps)

    def leaf(buf: np.ndarray, t, lo: int, m: int) -> np.ndarray:
        views, i = buf[..., :m], slice(lo, lo + m)
        s, c, d = views[:3]
        a = np.subtract(np.multiply(lp[i], t, s), th[i], s)
        if mode == "cosine_approx":  # the leading term cos A sin B / p^sigma of each increment
            _cos(a, s, c, d)
            return np.divide(np.multiply(c, sin_w[i], c), p_sigma[i], c)
        _sin_cos(a, s, c, d)
        # sin(A +- B) = s cos B +- c sin B, cos(A +- B) = c cos B -+ s sin B
        u, v = views[3:5]
        np.multiply(s, sin_w[i], v)
        np.multiply(s, cos_w[i], s)
        np.multiply(c, sin_w[i], u)
        np.multiply(c, cos_w[i], c)
        if mode == "residual":  # cos(A +- B) itself: p^sigma minus the denominator cancels
            e, f = views[5:]
            np.subtract(c, v, e)
            np.add(c, v, f)
        np.subtract(p_sigma[i], c, c)
        np.add(c, v, d)
        np.subtract(c, v, c)
        np.divide(np.add(s, u, v), d, v)  # x at A + B
        np.divide(np.subtract(s, u, s), c, s)  # x at A - B
        if mode == "exact_arctan":
            return np.subtract(np.arctan(v, v), np.arctan(s, s), v)
        # rows: the last two pieces of arctan(x) = sin/p^sigma + x cos/p^sigma + (arctan(x) - x),
        # at A + B minus at A - B
        np.divide(np.subtract(np.multiply(v, e, e), np.multiply(s, f, f), f), p_sigma[i], f)
        np.subtract(_x_minus_arctan(s), _x_minus_arctan(v), e)
        return views[5:]

    rows, width = _ROWS[mode], _leaf_size(lp.size)

    def values(t):
        t = np.reshape(t, (-1, 1))
        buf = np.empty((rows, min(_BLOCK, t.size), width))
        sums = [_ordered_sum(partial(leaf, buf[:, :tb.size], tb), 0, lp.size)
                for tb in (t[lo:lo + _BLOCK] for lo in range(0, t.size, _BLOCK))]
        return scale * np.concatenate(sums, axis=-1) if sums else np.empty(0)

    return values


def windowed_ratio_exact(t: float, eps: float, chi: DirichletCharacter,
                         primes: PrimeTable, window: WindowParams) -> float:
    """Incremental phase ratio over [t - w, t + w], w = pi/log(p_star)."""
    return float(_kernel("exact_arctan", eps, chi, primes, window)([t])[0])


def windowed_ratio_approx(t: float, eps: float, chi: DirichletCharacter,
                          primes: PrimeTable, window: WindowParams) -> float:
    """Leading cosine approximation of the windowed ratio (no denominators)."""
    return float(_kernel("cosine_approx", eps, chi, primes, window)([t])[0])


@dataclass(frozen=True)
class EstimatorResidual:
    """Exact-minus-approx estimator difference and its two structured pieces."""

    total: float
    higher_order: float   # arctan orders three and up
    coupled: float        # sin*cos / ((p^sigma - cos) p^sigma) piece


def estimator_residual(t: float, eps: float, chi: DirichletCharacter,
                       primes: PrimeTable, window: WindowParams) -> EstimatorResidual:
    """windowed_ratio_exact - windowed_ratio_approx, split termwise.

    Each arctan increment decomposes exactly as
      arctan(x) = sin/p^sigma + sin*cos/((p^sigma - cos) p^sigma) + (arctan(x) - x),
    so the residual is the ordered sum of the last two pieces evaluated at
    the window endpoints; both remain bounded as p_max grows for eps > 0.
    """
    higher, coupled = _kernel("residual", eps, chi, primes, window)([t])[:, 0].tolist()
    return EstimatorResidual(total=higher + coupled, higher_order=higher, coupled=coupled)


# --------------------------------------------------------------------------
# oscillation intervals and masses
# --------------------------------------------------------------------------

def oscillation_boundaries(k: int, h: int, t: float,
                           chi: DirichletCharacter) -> tuple[float, float]:
    """Zero-transition abscissae of cos(log(x) t - angle(chi(h))) for the k-th turn.

    The cosine increases through zero at the first value and decreases
    through zero at the second.
    """
    if t <= 0.0:
        raise DomainError("oscillation boundaries require t > 0")
    th = chi.angle(h)
    x_up = math.exp((2.0 * math.pi * k - math.pi / 2.0 + th) / t)
    x_down = math.exp((2.0 * math.pi * k + math.pi / 2.0 + th) / t)
    return x_up, x_down


def max_k_for_bound(t: float, chi: DirichletCharacter, bound: float) -> int:
    """Largest k such that the (k+1)-th rising boundary stays <= bound for all classes."""
    if t <= 0.0 or bound <= 2.0:
        raise DomainError("need t > 0 and bound > 2")
    ks = []
    for h in range(chi.q):
        if chi.k[h] >= 0:
            th = chi.angle(h)
            ks.append(int(math.floor((t * math.log(bound) + math.pi / 2.0 - th)
                                     / (2.0 * math.pi))) - 1)
    return min(ks)


@dataclass(frozen=True)
class LedgerEntry:
    k: int
    h: int
    x_up: float        # rising cosine zero (interval with positive cosine follows)
    x_down: float      # falling cosine zero
    x_up_next: float   # next rising zero
    o_plus_sum: float
    o_minus_sum: float
    o_plus_li: float
    o_minus_li: float


@dataclass
class OscillationLedger:
    chi: DirichletCharacter
    t: float
    eps: float
    window: WindowParams
    k_max: int
    entries: tuple[LedgerEntry, ...] = field(default=())

    def keys(self) -> list[tuple[int, int]]:
        return [(e.k, e.h) for e in self.entries]


def _mass_sum(p, vals, lnps, lo, hi):
    i0, i1 = np.searchsorted(p, lo, side="right"), np.searchsorted(p, hi, side="left")
    return abs(float(lnps / (2.0 * math.pi) * np.sum(vals[i0:i1])))


def _li_integral(th, t, eps, lnps, lo, hi):
    """Signed integral of cos(t log y - th) sin(pi log y / lnps) y^-(1/2+eps) / log y on [lo, hi].

    In u = log y, [a, b] = [log lo, log hi], the integrand is analytic away from its pole at
    u = 0, so Gauss-Legendre converges geometrically on panels of bounded span: [a, b] is cut
    into ceil(max(|z|, 1/a) (b - a) / _GL_SPAN) equal panels, z = 1/2 - eps + i(pi/lnps + |t|),
    of 20 nodes each, and the panel sums are added in order."""
    a, b = math.log(lo), math.log(hi)
    span = max(math.hypot(0.5 - eps, math.pi / lnps + abs(t)), 1.0 / a) * (b - a)
    n = max(1, math.ceil(span / _GL_SPAN))
    h = (b - a) / n
    u = a + h * (np.arange(n)[:, None] + (1 + _GL_NODES) / 2)
    f = np.cos(t * u - th) * np.sin(math.pi * u / lnps) * np.exp((0.5 - eps) * u) / u
    return h / 2 * float(np.sum(f @ _GL_WEIGHTS))


def _mass_li(th, t, eps, lnps, phi_q, lo, hi):
    lo = max(lo, 2.0)
    if hi <= lo:
        return 0.0
    return abs(lnps / (2.0 * math.pi * phi_q) * _li_integral(th, t, eps, lnps, lo, hi))


def build_oscillation_ledger(t: float, eps: float, chi: DirichletCharacter,
                             primes: PrimeTable, window: WindowParams,
                             k_max: int) -> OscillationLedger:
    """Per-(k, h) oscillation masses by ordered prime sum and by Li integral.

    Within (x_up, x_down) the cosine is positive: the prime-sum mass there is
    the plus mass and the Li mass the minus one; the next half-turn swaps the
    roles.  Intervals are clamped below at 2 (no primes, Li starts at 2).
    """
    _check_eps(eps)
    if t <= 0.0:
        raise DomainError("ledger construction requires t > 0")
    largest = max_k_for_bound(t, chi, float(min(window.p_max, window.p_star)))
    if k_max > largest:
        raise TruncationError(
            f"k_max={k_max} pushes boundaries past p_max; largest valid k is {largest}",
            largest_valid=largest,
        )
    lnps = math.log(window.p_star)
    phi_q = euler_phi(chi.q)
    # per class, the first k whose falling boundary exceeds 2 (intervals fully below 2 are empty)
    first = {h: int(math.floor((t * math.log(2.0) - math.pi / 2.0 - chi.angle(h))
                               / (2.0 * math.pi))) + 1
             for h in np.flatnonzero(chi.k >= 0).tolist()}
    count = sum(max(0, k_max - k + 1) for k in first.values())
    if count > _MAX_LEDGER_ENTRIES:
        raise ResourceLimitError(f"a ledger of {count} entries is over the "
                                 f"{_MAX_LEDGER_ENTRIES}-entry budget; lower k_max")
    # an interval spans at most pi/t in u = log y, from u >= log 2 (`_li_integral`'s panels)
    panels = max(math.hypot(0.5 - eps, math.pi / lnps + t), 1.0 / math.log(2.0)) * (
        math.pi / (t * _GL_SPAN))
    if count and panels > _MAX_LI_PANELS:
        raise ResourceLimitError(f"Li intervals of up to {panels:.3g} panels are over the "
                                 f"{_MAX_LI_PANELS}-panel budget; lower eps")
    # every interval ends at or below the last rising boundary
    p, lp, angles = _prime_data(chi, primes, p_max=math.floor(max(
        oscillation_boundaries(k_max + 1, h, t, chi)[0] for h in first)))
    a = lp * t - angles
    cos_a = _cos(a, a, np.empty_like(a), np.empty_like(a))
    vals = cos_a * _window_table(lp, lnps)[0] / p ** (0.5 + eps)  # the kernel's cosine terms
    res = p.astype(np.int64) % chi.q  # chi.q, not primes.q: the table may be sieved mod another q
    entries = []
    for h, k in first.items():
        th = chi.angle(h)
        pc, vc = p[res == h], vals[res == h]
        for kk in range(k, k_max + 1):
            x_up, x_down = oscillation_boundaries(kk, h, t, chi)
            x_next = oscillation_boundaries(kk + 1, h, t, chi)[0]
            entries.append(LedgerEntry(
                k=kk, h=h, x_up=x_up, x_down=x_down, x_up_next=x_next,
                o_plus_sum=_mass_sum(pc, vc, lnps, x_up, x_down),
                o_minus_sum=_mass_sum(pc, vc, lnps, x_down, x_next),
                o_minus_li=_mass_li(th, t, eps, lnps, phi_q, x_up, x_down),
                o_plus_li=_mass_li(th, t, eps, lnps, phi_q, x_down, x_next),
            ))
    entries.sort(key=lambda e: (e.k, e.h))
    return OscillationLedger(chi=chi, t=t, eps=eps, window=window,
                             k_max=k_max, entries=tuple(entries))


@dataclass(frozen=True)
class MassRatios:
    mixed: float   # plus masses at eps'' over minus masses at eps'
    plus: float    # plus masses at eps'' over plus masses at eps'
    minus: float   # minus masses at eps'' over minus masses at eps'


def oscillation_mass_ratios(ledger_ref: OscillationLedger,
                            ledger_shifted: OscillationLedger) -> MassRatios:
    """Mass ratios between a reference ledger (eps') and a shifted one (eps'')."""
    if (ledger_ref.t != ledger_shifted.t or ledger_ref.chi != ledger_shifted.chi
            or ledger_ref.window != ledger_shifted.window
            or ledger_ref.keys() != ledger_shifted.keys()):
        raise DomainError("ledgers must share t, chi, window and k range")
    plus_s = sum(e.o_plus_li + e.o_plus_sum for e in ledger_shifted.entries)
    minus_s = sum(e.o_minus_sum + e.o_minus_li for e in ledger_shifted.entries)
    plus_r = sum(e.o_plus_li + e.o_plus_sum for e in ledger_ref.entries)
    minus_r = sum(e.o_minus_sum + e.o_minus_li for e in ledger_ref.entries)
    if minus_r == 0.0 or plus_r == 0.0:
        raise DegenerateInputError("reference ledger masses vanish")
    return MassRatios(mixed=plus_s / minus_r, plus=plus_s / plus_r, minus=minus_s / minus_r)


# --------------------------------------------------------------------------
# level check and scans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelCheckResult:
    t: float
    eps: float
    windowed: float
    lhs: float      # log sqrt(tq/2pi) + windowed ratio
    xi_phase_dt: float
    defect: float   # lhs - xi phase derivative


def level_check(t: float, eps: float, chi: DirichletCharacter, primes: PrimeTable,
                window: WindowParams) -> LevelCheckResult:
    """Compare log sqrt(tq/2pi) + windowed ratio against the xi phase derivative."""
    from .lfunction import xi_phase_dt  # local import to keep module layering acyclic

    if t <= 0.0:
        raise DomainError("level check requires t > 0")
    ratio = windowed_ratio_exact(t, eps, chi, primes, window)
    lhs = _level(t, chi.q) + ratio
    dphi = xi_phase_dt(chi, eps, t)
    return LevelCheckResult(t=t, eps=eps, windowed=ratio, lhs=lhs,
                            xi_phase_dt=dphi, defect=lhs - dphi)


def scan(chi: DirichletCharacter, eps: float, t_grid: np.ndarray, primes: PrimeTable,
         window: WindowParams, estimator: str = "exact_arctan") -> PhaseScan:
    """Windowed estimator sampled over a t grid: one kernel call, one ordered sum per point."""
    if estimator not in ("exact_arctan", "cosine_approx"):
        raise DomainError(f"unknown estimator {estimator!r}")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    out = PhaseScan(chi=chi, eps=eps, t_grid=t_grid, values=np.empty(t_grid.size),
                    estimator=estimator, window=window)  # checks the grid before any prime
    out.values[:] = _kernel(estimator, eps, chi, primes, window)(t_grid)
    return out

