"""Dirichlet L-functions in the critical strip, their completions, and zeros.

L(s, chi) is evaluated through Hurwitz zeta values,
    L(s, chi) = q^(-s) * sum_{r mod q, gcd(r,q)=1} chi(r) zeta(s, r/q),
by one Euler-Maclaurin pass over all unit classes (head sums, integral and
half terms, Bernoulli corrections, explicit remainder estimate); zeta(s) is
L(s, chi mod 1).  This is accurate to ~1e-13 relative over the desk-scale
window |t| <= 100 and is valid throughout the strip for non-principal characters.
The class rows do not depend on the character, so a tuple of characters of one
modulus takes one pass per grid, which gives one row per character with the bits
of a call with that character alone.
The head sums run over column blocks of at most `gammaphase._HEAD_CELLS` cells,
as the Gamma head does, so a grid needs memory for one block plus
O(classes x points), never a whole (head, points) matrix.

The completed function
    xi(s, chi) = (q/pi)^((s+alpha)/2) Gamma((s+alpha)/2) L(s, chi)
takes its Gamma modulus and phase from one call of the product-route kernel
`gammaphase._log_gamma_grid` (one head matrix for both), once per parity present
when xi, eta, the angular momentum or the eps-slope is taken for such a tuple.
The rotation
    eta = exp(i/2 * angle(i^alpha sqrt(q) / tau(chi))) * xi
is real on the critical line for primitive characters, with the zeros and signs of Hardy's
Z = eta / |G|, G = (q/pi)^((s+alpha)/2) Gamma((s+alpha)/2); the sign changes of Z locate the
zeros.  The quantity (eta')^2 - eta*eta'' equals the eps-derivative of the angular momentum
of xi at eps = 0.  Every t-derivative samples one five-point stencil (`_SHIFTS`, Richardson
in its step).  A zero scan samples Z, which does not underflow where eta does, in one call
on a grid that ends at t_hi, finds sign changes, hits and dips by array operations, then
bisects every sign-change bracket in lockstep, one Z call per level for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import (
    DirichletCharacter,
    SPoint,
    _factorize,
    enumerate_characters,
    gauss_sum,
    primitive_inducer,
)
from .errors import DomainError, NumericalInstabilityError, ResourceLimitError
from .gammaphase import BERNOULLI, _N_BERN, _bisect, _column_blocks, _log_gamma_grid

__all__ = [
    "LValue",
    "ZeroRecord",
    "l_eval",
    "l_on_grid",
    "xi_on_grid",
    "normalizer_phase",
    "eta_on_grid",
    "angular_momentum",
    "angular_momentum_on_grid",
    "xi_phase_dt",
    "angular_momentum_eps_slope",
    "eps_slope_on_grid",
    "reduction_identities",
    "find_zeros_on_line",
]


# --------------------------------------------------------------------------
# Euler-Maclaurin L-values
# --------------------------------------------------------------------------

# B_{2k} / (2k)! for k = 1, 2, ...; the first _N_BERN are kept and the next is the estimate
_BERN_FACT = [float(b) / math.factorial(2 * (k + 1)) for k, b in enumerate(BERNOULLI)]
_L_TOL = 1e-10  # the largest remainder estimate l_eval accepts, from its one head size


def _em_head(t_max: float) -> int:
    return int(t_max) + 40


def _one_modulus(chi) -> tuple[DirichletCharacter, ...]:
    """chi as a tuple of characters: one character, or a non-empty tuple of one modulus."""
    chis = chi if isinstance(chi, tuple) else (chi,)
    if not chis or len({c.q for c in chis}) > 1:
        raise DomainError("a tuple of characters needs at least one, all of one modulus")
    return chis


def _rows(chi, rows):
    """rows as given for a tuple of characters, its row 0 for one character."""
    return rows if isinstance(chi, tuple) else rows[0]


def _l_values(chis: tuple[DirichletCharacter, ...],
              svals: np.ndarray) -> tuple[np.ndarray, float]:
    """L(s, chi) over complex s, one row per character of one modulus, and one remainder
    estimate, in one Euler-Maclaurin pass.

    Each unit class r gets zeta(s, r/q) once for all the characters: a head sum over
    n < n_head, one class at a time in the column blocks of `gammaphase._column_blocks`,
    written into a (classes, points) array (each column is summed as in the whole
    (n_head, points) matrix), then integral, half and Bernoulli terms at w = n_head + r/q as
    (classes, points) arrays; the pole series and the Pochhammer ladder are built once.  The
    class rows are summed in ascending class order as total += (chi(r) per character, a
    column) x (class row r), so each row has the bits of a call with its character alone.
    A non-principal character drops the pole 1/(s-1) from every class, keeping s = 1 finite;
    the dropped parts sum to zero.  A principal character keeps the pole, so it is evaluated
    alone.  A class's estimate is its first dropped Bernoulli term times
    |s+2K+1| / (sigma+2K+1), maximized over s; the classes' estimates are summed and scaled
    by q^(-sigma), the same for every character.
    """
    chis = _one_modulus(chis)
    chi = chis[0]
    if len(chis) > 1 and any(c.is_principal for c in chis):
        raise DomainError("a principal character keeps the pole, so it is evaluated alone")
    s = np.atleast_1d(np.asarray(svals, dtype=np.complex128))
    if not s.size:
        return np.zeros((len(chis), 0), dtype=np.complex128), 0.0
    nh = _em_head(float(np.max(np.abs(s.imag))))
    q = chi.q
    units = [r for r in range(1, q + 1) if chi.k[r % q] >= 0]  # r = q only for q = 1 (a = 1)
    w = np.array([[nh + r / q] for r in units])
    lw = np.array([[math.log(x)] for x in w[:, 0]])  # np.log can differ in the last bit
    blocks = _column_blocks(s.size, nh)
    n, ms = np.arange(nh, dtype=np.float64)[:, None], -s[None, :]
    head = np.empty((len(units), s.size), dtype=np.complex128)
    for row, r in zip(head, units):
        log_n = np.log(n + r / q)
        for b in blocks:
            row[b] = np.sum(np.exp(ms[:, b] * log_n), axis=0)
    if chi.is_principal:
        integral = np.exp((1.0 - s) * lw) / (s - 1.0)
    else:
        # w^(1-s)/(s-1) - 1/(s-1) = -expm1((1-s) log w)/(1-s), stable at s = 1
        u = 1.0 - s
        tiny = np.abs(u) < 1e-6
        us, ut = np.where(tiny, 0.0, u), np.where(tiny, 1.0, u)
        series = -lw * (1.0 + us * lw / 2.0 + us * us * lw * lw / 6.0)
        integral = np.where(tiny, series, -np.expm1(ut * lw) / ut)
    out = head + integral + 0.5 * np.exp(-s * lw)

    w_pow = np.exp((-s - 1.0) * lw)   # w^(-s-1)
    poch = s.copy()                   # (s)_{2k-1}, starting at k = 1
    w2 = w * w
    for k in range(1, _N_BERN + 1):
        out += _BERN_FACT[k - 1] * poch * w_pow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        w_pow = w_pow / w2
    next_term = np.abs(_BERN_FACT[_N_BERN] * poch * w_pow)
    sigma = float(np.min(s.real))
    inflate = (np.max(np.abs(s)) + 2 * _N_BERN + 1) / max(sigma + 2 * _N_BERN + 1, 1.0)
    # every product below is of 2-D operands: at one point numpy can round a (1, 1) x (1,)
    # product differently from the (1,) x (1,) one of the single-character code
    values = np.array([[c.value(r) for c in chis] for r in units])[:, :, None]
    total = np.zeros((len(chis), s.size), dtype=np.complex128)
    for column, z in zip(values, out[:, None, :]):  # classes in ascending order
        total += column * z
    err = sum(float(e) * inflate for e in np.max(next_term, axis=1))
    scale = np.exp(-s * math.log(q)) if q > 1 else np.ones_like(s)
    return scale[None, :] * total, err * float(q) ** -sigma


@dataclass(frozen=True)
class LValue:
    s: SPoint
    chi: DirichletCharacter
    value: complex
    abs_err_estimate: float


def l_eval(s: SPoint, chi: DirichletCharacter) -> LValue:
    """L(s, chi) with a remainder estimate <= _L_TOL (else NumericalInstabilityError).

    One Euler-Maclaurin pass with `_em_head(|t|)` head terms.  Non-principal characters
    are accepted for eps > -1/2; the principal character only for eps > 1/2 (use the
    reduction identity inside the strip, where its L-function inherits the zeta pole).
    """
    if chi.is_principal:
        if s.eps <= 0.5:
            raise DomainError(
                "principal character inside the strip: evaluate via the reduction identity"
            )
    elif s.eps <= -0.5:
        raise DomainError("L-series evaluation requires Re(s) > 0")

    vals, err = _l_values((chi,), np.array([s.s]))
    if err > _L_TOL:
        raise NumericalInstabilityError(f"L remainder estimate {err:.3e} exceeds tol = {_L_TOL:.3e}")
    return LValue(s=s, chi=chi, value=complex(vals[0, 0]), abs_err_estimate=float(err))


def l_on_grid(chi: DirichletCharacter, eps: float, t_grid: np.ndarray) -> np.ndarray:
    """Vectorized L(1/2+eps+it, chi) over a t grid, row 0 of `_l_values((chi,), s)`; the
    principal character only for eps > 1/2."""
    if chi.is_principal and eps <= 0.5:
        raise DomainError("principal character inside the strip has a pole-bearing L")
    s = 0.5 + eps + 1j * np.asarray(t_grid, dtype=np.float64)
    return _l_values((chi,), s)[0][0]


# --------------------------------------------------------------------------
# completed function and its real rotation
# --------------------------------------------------------------------------

def _primitive(chi) -> tuple[DirichletCharacter, ...]:
    """`_one_modulus(chi)`, each a primitive non-principal character (else DomainError)."""
    chis = _one_modulus(chi)
    if any(c.is_principal or not c.is_primitive for c in chis):
        raise DomainError("completed function requires a primitive non-principal character")
    return chis


def xi_on_grid(chi, eps: float, t_grid: np.ndarray) -> np.ndarray:
    """xi(1/2+eps+it, chi) over a t grid; entire in s.  chi is one primitive character, or a
    tuple of them of one modulus, which gives one row per character from one `_l_values`
    pass and one Gamma head per parity present."""
    chis = _primitive(chi)
    t = np.asarray(t_grid, dtype=np.float64)
    lnqpi = math.log(chis[0].q / math.pi)
    factor = {}
    for alpha in sorted({c.parity for c in chis}):  # first: a Gamma head refuses a smaller |t|
        log_abs, phase = _log_gamma_grid(t, eps, alpha)
        log_mod = log_abs + (0.5 + eps + alpha) / 2.0 * lnqpi
        factor[alpha] = np.exp(log_mod + 1j * (phase + 0.5 * t * lnqpi))
    lvals, _ = _l_values(chis, 0.5 + eps + 1j * t)
    return _rows(chi, np.array([factor[c.parity] for c in chis]) * lvals)


@lru_cache
def normalizer_phase(chi: DirichletCharacter) -> float:
    """Half the principal-value angle of i^alpha sqrt(q) / tau(chi), cached per character."""
    _primitive(chi)
    w = (1j ** chi.parity) * math.sqrt(chi.q) / gauss_sum(chi)
    return 0.5 * math.atan2(w.imag, w.real)


def eta_on_grid(chi, eps: float, t_grid: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotated completion eta over a t grid, and its `normalizer_phase`; real up to noise when
    eps = 0.  A tuple of characters (as in `xi_on_grid`) gives a row and a phase for each."""
    chis = _primitive(chi)
    halves = tuple(normalizer_phase(c) for c in chis)
    rot = np.array([[complex(math.cos(h), math.sin(h))] for h in halves])
    return _rows(chi, rot * xi_on_grid(chis, eps, t_grid)), _rows(chi, halves)


def _z_on_grid(chi: DirichletCharacter, t_grid: np.ndarray) -> np.ndarray:
    """Hardy's Z = Re(exp(i(theta + t/2 log(q/pi) + h)) L(1/2+it)) over a t grid, theta the
    Gamma phase and h = `normalizer_phase`: eta / |G| with |G| > 0, so sign(Z) = sign(eta).
    exp(log|G|) is never formed, so Z keeps its size where eta's e^(-pi t/4) decay underflows."""
    half = normalizer_phase(chi)  # first: refuses a non-primitive chi before any head is built
    t = np.asarray(t_grid, dtype=np.float64)
    phase = _log_gamma_grid(t, 0.0, chi.parity)[1]  # before L, as in xi_on_grid
    lvals = l_on_grid(chi, 0.0, t)
    return (np.exp(1j * (phase + 0.5 * t * math.log(chi.q / math.pi) + half)) * lvals).real


# --------------------------------------------------------------------------
# angular momentum and its eps-derivative
# --------------------------------------------------------------------------

_DT = 1e-3        # t step of every difference stencil (halved once for Richardson)
_EPS_STEP = 1e-4  # eps step of the finite-difference cross-check
_SHIFTS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])  # t + u*h is t - h, t - h/2, ... bit for bit


def _stencil(f, t, h: float) -> list:
    """f(t + u*h) for u in _SHIFTS, one f call per shift."""
    return [f(t + u * h) for u in _SHIFTS]


def _richardson(coarse, fine):
    # step-halving extrapolation: removes the error term that falls by a factor 4 per halving
    return (4.0 * fine - coarse) / 3.0


def _five_point(y, h: float):
    """y(t), y' and y'' from samples y at t - h, t - h/2, t, t + h/2, t + h (Richardson in h)."""
    dp = _richardson((y[4] - y[0]) / (2.0 * h), (y[3] - y[1]) / h)
    dpp = _richardson((y[4] - 2.0 * y[2] + y[0]) / (h * h),
                      (y[3] - 2.0 * y[2] + y[1]) / (h * h / 4.0))
    return y[2], dp, dpp


def _ang_mom_ladder(chi, eps: float, t: np.ndarray):
    """Re xi * d_t Im xi - Im xi * d_t Re xi at steps _DT and _DT/2, and
    |xi(t)|^2 + |xi(t+_DT)|^2 as its scale; rows per character for a tuple (`xi_on_grid`)."""
    xm, xm2, xc, xp2, xp = _stencil(lambda u: xi_on_grid(chi, eps, u), t, _DT)
    det = lambda lo, hi, h: (xc.real * ((hi.imag - lo.imag) / (2.0 * h))
                             - xc.imag * ((hi.real - lo.real) / (2.0 * h)))
    return det(xm, xp, _DT), det(xm2, xp2, _DT / 2), np.abs(xc) ** 2 + np.abs(xp) ** 2


def angular_momentum_on_grid(chi, eps: float, t_grid: np.ndarray) -> np.ndarray:
    """Re xi * d_t Im xi - Im xi * d_t Re xi over a grid (Richardson in the t step); one row
    per character for a tuple of characters (`xi_on_grid`)."""
    l_h, l_h2, _ = _ang_mom_ladder(chi, eps, np.asarray(t_grid, dtype=np.float64))
    return _richardson(l_h, l_h2)


def angular_momentum(s: SPoint, chi: DirichletCharacter) -> float:
    """Angular momentum of xi at s; vanishes identically on the critical line."""
    l_h, l_h2, scale = (float(v[0]) for v in _ang_mom_ladder(chi, s.eps, np.array([s.t])))
    if abs(l_h2 - l_h) > max(0.05 * max(abs(l_h), abs(l_h2)), 1e-7 * scale):
        raise NumericalInstabilityError(
            f"angular-momentum Richardson steps disagree at t={s.t}: {l_h} vs {l_h2}"
        )
    return _richardson(l_h, l_h2)


def xi_phase_dt(chi: DirichletCharacter, eps: float, t: float) -> float:
    """Numerical d/dt of the phase of xi, Im(xi'/xi), from the `_stencil` samples of xi at t
    (one single-point xi call per shift), combined by `_five_point`."""
    xc, deriv, _ = _five_point(_stencil(lambda u: xi_on_grid(chi, eps, u), np.array([t]), _DT),
                               _DT)
    return float((deriv / xc)[0].imag)


@dataclass(frozen=True)
class EpsSlopeResult:
    """Two routes to d/d eps of the angular momentum at eps = 0."""

    t: float
    value: float        # (eta')^2 - eta * eta'' by t-differences on the line
    cross_check: float  # (L(eps=_EPS_STEP) - L(eps=0)) / _EPS_STEP
    eta: float


def angular_momentum_eps_slope(t: float, chi: DirichletCharacter) -> EpsSlopeResult:
    """(eta')^2 - eta*eta'' at eps=0, with the finite-difference eps route alongside."""
    # one five-point eta batch, not `_stencil`: criterion 8's recorded line pins its bits
    y, dp, dpp = _five_point(eta_on_grid(chi, 0.0, t + _DT * _SHIFTS)[0].real, _DT)
    y = float(y)
    value = dp * dp - y * dpp
    lm_d = angular_momentum(SPoint(_EPS_STEP, t), chi)
    lm_0 = angular_momentum(SPoint(0.0, t), chi)
    return EpsSlopeResult(t=t, value=value, cross_check=(lm_d - lm_0) / _EPS_STEP, eta=y)


def eps_slope_on_grid(chi, t_grid: np.ndarray) -> np.ndarray:
    """(eta')^2 - eta*eta'' on a grid (vectorized, fixed stencil); one row per character for a
    tuple of characters (`xi_on_grid`)."""
    y, dp, dpp = _five_point(_stencil(lambda u: eta_on_grid(chi, 0.0, u)[0].real,
                                      np.asarray(t_grid, dtype=np.float64), _DT), _DT)
    return dp * dp - y * dpp


# --------------------------------------------------------------------------
# reduction identities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionEntry:
    chi_index: int
    kind: str       # "principal" or "induced"
    residual: float


@dataclass(frozen=True)
class ReductionReport:
    s: SPoint
    q: int
    entries: tuple[ReductionEntry, ...]

    @property
    def max_residual(self) -> float:
        return max(e.residual for e in self.entries)


def reduction_identities(s: SPoint, q: int) -> ReductionReport:
    """Residuals of L(s, chi) = L(s, psi) * prod_{p | q} (1 - psi(p) p^-s), psi inducing chi
    (the character mod 1, so L(s, psi) = zeta(s), for the principal chi); every L-value passes
    `l_eval`'s remainder check.  Requires eps > 1/2 so every factor converges absolutely.
    """
    if s.eps <= 0.5:
        raise DomainError("reduction identities are checked in the absolute-convergence region")
    q_primes = [p for p, _ in _factorize(q)] if q > 1 else []

    entries = []
    for chi in enumerate_characters(q):
        lhs = l_eval(s, chi).value
        psi = primitive_inducer(chi)
        rhs = l_eval(s, psi).value
        for p in q_primes:
            rhs *= 1.0 - psi.value(p) * p ** (-s.s)
        kind = "principal" if chi.is_principal else "induced"
        entries.append(ReductionEntry(chi.index, kind, abs(lhs - rhs)))
    return ReductionReport(s=s, q=q, entries=tuple(entries))


# --------------------------------------------------------------------------
# zeros on the critical line
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroRecord:
    t_zero: float | None
    bracket: tuple[float, float]
    tol: float
    sign_before: int
    sign_after: int
    suspected_multiple: bool = False


_ZERO_TOL = 1e-8  # bracket width at which zero bisection stops
_GRID_POINTS = 10 ** 6  # most points of a t grid; 250 times the largest grid in use


def _uniform_grid(t_lo: float, t_hi: float, step: float) -> np.ndarray:
    # np.arange(t_lo, t_hi + step/2, step) for finite t_lo < t_hi and step > 0, written so
    # that a NaN fails too; refused past _GRID_POINTS points before allocating
    if not (t_lo < t_hi and step > 0 and all(map(math.isfinite, (t_lo, t_hi, step)))):
        raise DomainError(f"a t grid needs t_min < t_max and a positive step, got "
                          f"[{t_lo}, {t_hi}] at step {step}")
    stop = t_hi + step / 2.0
    if (stop - t_lo) / step > _GRID_POINTS:
        raise ResourceLimitError(
            f"t grid [{t_lo}, {t_hi}] at step {step} has over {_GRID_POINTS} points")
    return np.arange(t_lo, stop, step)


def find_zeros_on_line(chi: DirichletCharacter, t_lo: float, t_hi: float,
                       grid_step: float) -> list[ZeroRecord]:
    """Sign-change zeros of Hardy's Z (those of eta) on [t_lo, t_hi], bisected to width
    <= _ZERO_TOL = 1e-8.

    Z (`_z_on_grid`, which has eta's signs but not its e^(-pi t/4) decay) is sampled in one
    call on the grid t_lo, t_lo + grid_step, ... cut below t_hi and closed by t_hi itself (a
    grid of more than _GRID_POINTS points raises ResourceLimitError).  Every sign-change
    bracket is then refined in lockstep by `_bisect`: one Z call per level evaluates the
    midpoints of all still-open brackets, so a scan makes at most
    1 + ceil(log2(grid_step / _ZERO_TOL)) Z calls, however many zeros it finds.  A batch never
    holds more points than the grid call.  A reported t_zero depends only on the sequence of
    sign decisions, not on the Z values: a midpoint's Z inside a batch differs from its
    single-point value by rounding, which can flip a decision only where |Z| is at rounding
    level, within about 1e-13 of the zero, and the result then still lies within _ZERO_TOL
    of it, which each ZeroRecord reports as tol.

    Nonzero grid dips of |Z| below 1e-8 of the largest |Z| within 10 grid points, without
    a sign change, are recorded as suspected multiple zeros and left unrefined.  Negative t
    is allowed (used to confirm the +/-t pairing of real-character zeros).
    """
    g = _uniform_grid(t_lo, t_hi, grid_step)
    grid = np.append(g[g < t_hi], t_hi)
    vals = _z_on_grid(chi, grid)

    ts = grid.tolist()
    sign = np.where(np.signbit(vals), -1, 1).tolist()  # math.copysign(1, v) for every v
    # exact grid hits; the scan's last point has no sign after it
    records = [ZeroRecord(ts[i], (ts[i], ts[i]), 0.0, 0, sign[i + 1] if i + 1 < len(ts) else 0)
               for i in np.flatnonzero(vals == 0.0).tolist()]
    # signs are compared, not multiplied: two small values can square to 0
    lo, hi = vals[:-1], vals[1:]
    i0 = np.flatnonzero((lo < 0.0) & (hi > 0.0) | (hi < 0.0) & (lo > 0.0))
    t_zeros = _bisect(lambda t: _z_on_grid(chi, t), grid[i0], grid[i0 + 1], vals[i0], _ZERO_TOL)
    records += [ZeroRecord(t_zero, (ts[i], ts[i + 1]), _ZERO_TOL, sign[i], sign[i + 1])
                for i, t_zero in zip(i0.tolist(), t_zeros.tolist())]

    # nonzero dips against the largest |Z| within 10 grid points; zero padding is exact
    a, sg = np.abs(vals), np.sign(vals)
    mid, scale = a[1:-1], sliding_window_view(np.pad(a, 10), 21).max(axis=1)[1:-1]
    dips = np.flatnonzero((0.0 < mid) & (mid < 1e-8 * scale) & (mid <= a[:-2]) & (mid <= a[2:])
                          & (sg[:-2] == sg[2:]) & (sg[2:] != 0.0)) + 1
    records += [ZeroRecord(None, (ts[i - 1], ts[i + 1]), grid_step, sign[i - 1], sign[i + 1],
                           suspected_multiple=True) for i in dips.tolist()]
    records.sort(key=lambda r: r.bracket[0])
    return records

