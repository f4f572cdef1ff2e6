"""Quantitative acceptance suite.

Sixteen numbered checks pin the package against closed-form values,
independent oracles and tabulated reference brackets.  Each check returns a
CriterionResult; `run_acceptance` executes a selection and reports one
PASS/FAIL line per criterion.  The same functions back the pytest
acceptance module and the ``lphase verify`` command.

Three criteria fail against their tabulated brackets.  The checks are
implemented as stated and report FAIL rather than widening the brackets:

- Criteria 4 and 5 print the roots of closed forms, and the brackets exclude
  those roots.  As N -> oo the alpha = 0 mixed derivative is
  Re psi'(1/4 + it/2)/4, whose root 0.5887966 lies outside (0.585, 0.588).
  The odd prefactor-phase t-derivative is Re psi(3/4 + it/2)/2 + log(q/pi)/2,
  whose roots for q = 3 and 4, 2.1062054 and 1.5638816, lie outside 2.0 and
  1.5 +/- 0.05.  Each printed crossing is within its bisection's width of the
  root (tests/test_acceptance.py checks them against mpmath).
- Criterion 11's target -1.128 is the L side: the change of arg L over the
  window t +/- pi/log p* divided by its width.  The windowed ratio is the same
  change for the partial Euler product at eps = 0, and at p_max = 1e6 it reads
  -1.5267.  ROADMAP.md's State gives the readings at the other cutoffs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import arith, eulerphase as ep, gammaphase as gp, lfunction as lf
from .arith import SPoint

__all__ = ["CriterionResult", "run_criterion", "run_acceptance", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    elapsed: float
    budget: float
    subchecks: list[tuple[str, bool]] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.cid:2d} [{self.elapsed:7.2f}s "
                f"< {self.budget:.0f}s] {self.title}: {self.detail}")


class _Check:
    """Collects named subchecks and a summary detail string."""

    def __init__(self):
        self.subchecks: list[tuple[str, bool]] = []

    def expect(self, name: str, ok: bool) -> bool:
        self.subchecks.append((name, bool(ok)))
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.subchecks)

    def failures(self) -> str:
        bad = [n for n, ok in self.subchecks if not ok]
        return "all subchecks passed" if not bad else "failed: " + "; ".join(bad)


@lru_cache(maxsize=8)
def _primes(p_max: int) -> arith.PrimeTable:
    return arith.sieve_primes(p_max)


def _odd_primitive(q: int) -> list[arith.DirichletCharacter]:
    return [c for c in arith.enumerate_characters(q) if c.is_primitive and c.parity == 1]


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def _c1_gauss_sum_law(c: _Check) -> None:
    worst = 0.0
    for q in range(1, 51):
        for chi in arith.enumerate_characters(q):
            if chi.is_primitive:
                tau = arith.gauss_sum(chi)
                worst = max(worst, abs(abs(tau) ** 2 - q))
    c.expect(f"max | |tau|^2 - q | = {worst:.2e} < 1e-9", worst < 1e-9)


def _c2_character_table_q5(c: _Check) -> None:
    # chi(n) = exp(2 pi i k[n] / 4) for n = 1..4: the turns 0, 1/4, 3/4, 1/2 are k = 0, 1, 3, 2
    reference = {(0, 0, 0, 0), (0, 1, 3, 2), (0, 2, 2, 0), (0, 3, 1, 2)}
    chars = arith.enumerate_characters(5)
    rows = {tuple(chi.k[1:5].tolist()) for chi in chars}
    c.expect("q=5 phase rows match the reference table up to permutation",
             all(chi.m == 4 for chi in chars) and rows == reference)


def _c3_three_case_mixed(c: _Check) -> None:
    tol = {10.0: 0.02, 20.0: 0.02, 50.0: 0.005}
    for alpha in (2, 1, 0):
        target_num = 2 * alpha - 1
        for t, eps_tol in tol.items():
            got = gp.mixed_second_derivative(t, alpha, n_terms=10 ** 6)
            ref = target_num / (4.0 * t * t)
            rel = abs(got - ref) / abs(ref)
            c.expect(f"alpha={alpha} t={t}: rel dev {rel:.4%} <= {eps_tol:.1%}", rel <= eps_tol)


def _c4_mixed_curve_crossing(c: _Check) -> None:
    f = lambda t: gp.mixed_second_derivative(t, 0, n_terms=10 ** 6)
    lo, hi = 0.5, 0.7
    f_lo = f(lo)
    if not f_lo > 0 > f(hi):
        c.expect("sign change bracketing on (0.5, 0.7)", False)
        return
    t_cross = gp._bisect_one(f, lo, hi, f_lo, 1e-5)
    c.expect(f"alpha=0 crossing t = {t_cross:.5f} inside (0.585, 0.588)",
             0.585 < t_cross < 0.588)


_TABLE_CROSSINGS = {3: 2.0, 4: 1.5, 5: 1.25, 7: 0.75, 8: 0.5, 9: 0.25}


def _c5_table_crossings(c: _Check) -> None:
    got = {}
    for q, ref in _TABLE_CROSSINGS.items():
        t = gp.find_t_cross(gp.PrefactorParams.for_alpha(1, q), n_terms=10 ** 6)
        got[q] = t
        if t is None:
            c.expect(f"q={q}: no t_cross, expected {ref} +/- 0.05", False)
        else:
            c.expect(f"q={q}: t_cross = {t:.4f} within {ref} +/- 0.05", abs(t - ref) <= 0.05)
    vals = [got[q] for q in sorted(got)]
    c.expect("crossings strictly decreasing in q",
             None not in vals and all(a > b for a, b in zip(vals, vals[1:])))


def _c6_route_agreement(c: _Check) -> None:
    n_terms = 10 ** 6
    worst = -np.inf
    ok = True
    for alpha in (0, 1, 2):
        params = gp.PrefactorParams.for_alpha(alpha, q=3 if alpha != 2 else None)
        lnqpi = math.log(params.q / math.pi)
        for eps in (-0.2, 0.0, 0.2):
            for t in np.linspace(2.0, 100.0, 21):
                t = float(t)
                s = SPoint(eps, t)
                stirl, bound = gp.stirling_phase(t, eps, params)
                gw = gp.gw_log_gamma_phase(s, alpha, n_terms) + 0.5 * t * lnqpi
                tol = bound + 10.0 * gp.gw_phase_tail_estimate(s, alpha, n_terms)
                margin = abs(stirl - gw) - tol
                worst = max(worst, margin)
                ok &= margin <= 0.0
    c.expect(f"max (|stirling-gw| - allowance) = {worst:.3e} <= 0 over 189 points", ok)


def _c7_eta_realness_and_level(c: _Check) -> None:
    grid = np.arange(0.5, 20.0001, 0.1)
    for q in (3, 4, 5, 7):
        chis = tuple(_odd_primitive(q))  # one Hurwitz pass and one Gamma head per modulus
        etas, _ = lf.eta_on_grid(chis, 0.0, grid)
        lms = lf.angular_momentum_on_grid(chis, 0.0, grid)
        for chi, eta, lm in zip(chis, etas, lms):
            realness = float(np.max(np.abs(eta.imag) / np.maximum(np.abs(eta), 1e-12)))
            c.expect(f"q={q} chi{chi.index}: max |Im eta|/|eta| = {realness:.2e} < 1e-7",
                     realness < 1e-7)
            ratio = float(np.max(np.abs(lm) / (np.abs(eta) ** 2 * (1.0 + np.log(grid)))))
            c.expect(f"q={q} chi{chi.index}: max |L|/(|xi|^2 (1+log t)) = {ratio:.2e} < 1e-6",
                     ratio < 1e-6)


def _c8_slope_identity(c: _Check) -> None:
    chi = _odd_primitive(3)[0]
    rng = np.random.default_rng(20240911)
    ts = rng.uniform(1.0, 25.0, size=50)
    worst = 0.0
    for t in ts:
        r = lf.angular_momentum_eps_slope(float(t), chi)
        rel = abs(r.value - r.cross_check) / max(abs(r.value), 1e-300)
        worst = max(worst, rel)
    c.expect(f"max relative two-route gap = {worst:.2e} < 1e-4 over 50 random t", worst < 1e-4)


def _c9_positivity(c: _Check) -> None:
    grid = np.arange(0.5, 30.0001, 0.05)
    for q in (3, 4, 5, 7, 8, 9):
        chis = tuple(_odd_primitive(q))
        for chi, vals in zip(chis, lf.eps_slope_on_grid(chis, grid)):
            mn = float(np.min(vals))
            c.expect(f"q={q} chi{chi.index}: min (eta')^2 - eta*eta'' = {mn:.3e} > 0", mn > 0.0)


def _c10_first_zeros(c: _Check) -> None:
    for q, t_hi, lo, hi in ((3, 9.0, 8.0, 8.2), (4, 6.5, 6.0, 6.2)):
        chi = _odd_primitive(q)[0]
        zs = [z for z in lf.find_zeros_on_line(chi, 0.0, t_hi, 0.05) if not z.suspected_multiple]
        if not zs:
            c.expect(f"q={q}: no zero below {t_hi}, expected one in ({lo}, {hi})", False)
        else:
            c.expect(f"q={q} first zero at {zs[0].t_zero:.4f} in ({lo}, {hi}), none earlier",
                     len(zs) == 1 and lo < zs[0].t_zero < hi)
    for q, t_hi in ((5, 4.0), (7, 2.0)):
        for chi in _odd_primitive(q):
            zs_q = lf.find_zeros_on_line(chi, 0.0, t_hi, 0.05)
            c.expect(f"q={q} chi{chi.index}: no zero below {t_hi}", len(zs_q) == 0)


def _c11_level_bracket(c: _Check) -> None:
    chi = _odd_primitive(3)[0]
    table = _primes(10 ** 6)
    w = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    v0 = ep.windowed_ratio_exact(20.0, 0.0, chi, table, w)
    v2 = ep.windowed_ratio_exact(20.0, 0.2, chi, table, w)
    c.expect(f"windowed ratio {v0:.4f} inside [-1.28, -0.98] (target -1.128)",
             -1.28 <= v0 <= -0.98)
    c.expect(f"|ratio| decreases with eps: |{v2:.4f}| < |{v0:.4f}|", abs(v2) < abs(v0))


def _c12_residual_stability(c: _Check) -> None:
    chi = _odd_primitive(3)[0]
    small = _primes(10 ** 5)
    large = _primes(2 * 10 ** 5)
    for t, tag in ((8.04, "on-spike"), (14.0, "off-spike")):
        r1 = ep.estimator_residual(t, 0.25, chi, small,
                                   ep.WindowParams(p_star=1e5, p_max=10 ** 5)).total
        r2 = ep.estimator_residual(t, 0.25, chi, large,
                                   ep.WindowParams(p_star=1e5, p_max=2 * 10 ** 5)).total
        rel = abs(r2 - r1) / abs(r1)
        c.expect(f"t={t} ({tag}): residual change {rel:.4%} < 1% when p_max doubles",
                 rel < 0.01)


def _c13_mass_ratios(c: _Check) -> None:
    chi = _odd_primitive(3)[0]
    table = _primes(10 ** 6)
    w = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    gaps = {}
    ratios = {}
    for bound in (10 ** 5, 10 ** 6):
        k_max = ep.max_k_for_bound(10.0, chi, float(bound))
        led0 = ep.build_oscillation_ledger(10.0, 0.0, chi, table, w, k_max)
        led1 = ep.build_oscillation_ledger(10.0, 0.1, chi, table, w, k_max)
        r = ep.oscillation_mass_ratios(led0, led1)
        ratios[bound] = r
        gaps[bound] = abs(r.plus - r.minus)
    r6 = ratios[10 ** 6]
    c.expect(f"rho+ = {r6.plus:.4f} < 1", r6.plus < 1.0)
    c.expect(f"rho- = {r6.minus:.4f} < 1", r6.minus < 1.0)
    c.expect(f"|rho+ - rho-| shrinks: {gaps[10 ** 5]:.5f} -> {gaps[10 ** 6]:.5f}",
             gaps[10 ** 6] < gaps[10 ** 5])


def _c14_class_ratios(c: _Check) -> None:
    for q in (3, 4, 5):
        ratios = arith.pnt_class_ratio(1e6, q, table=_primes(10 ** 6))
        lo, hi = min(ratios.values()), max(ratios.values())
        c.expect(f"q={q}: class ratios in [{lo:.5f}, {hi:.5f}] subset of [0.99, 1.01]",
                 lo >= 0.99 and hi <= 1.01)


def _c15_reduction_identities(c: _Check) -> None:
    for q in (2, 5, 9):
        for eps in (1.5, 2.5):  # s = 2 and s = 3
            rep = lf.reduction_identities(SPoint(eps, 0.0), q)
            c.expect(f"q={q} s={eps + 0.5:.0f}: max residual {rep.max_residual:.2e} < 1e-8",
                     rep.max_residual < 1e-8)


def _c16_symmetry(c: _Check) -> None:
    chi = arith.enumerate_characters(5)[2]  # the real non-principal character
    table = _primes(10 ** 5)
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    grid = np.round(np.arange(-15.0, 15.0001, 0.1), 10)
    sc = ep.scan(chi, 0.0, grid, table, w)
    n = len(grid)
    asym = float(np.max(np.abs(sc.values - sc.values[::-1])))
    c.expect(f"max |v(t) - v(-t)| = {asym:.2e} < 1e-9 on the +/-15 grid ({n} points)",
             asym < 1e-9)


CRITERIA: list[tuple[int, str, float, callable]] = [
    (1, "Gauss-sum modulus law |tau|^2 = q for primitive characters, q <= 50", 1.0, _c1_gauss_sum_law),
    (2, "character phase table mod 5 (exact rational match)", 1.0, _c2_character_table_q5),
    (3, "three-case mixed derivative values at t = 10, 20, 50", 10.0, _c3_three_case_mixed),
    (4, "alpha=0 mixed-derivative curve crosses zero inside (0.585, 0.588)", 30.0, _c4_mixed_curve_crossing),
    (5, "prefactor-phase crossings for q = 3..9 against tabulated values", 30.0, _c5_table_crossings),
    (6, "Stirling vs product-route phase agreement within remainder allowance", 60.0, _c6_route_agreement),
    (7, "eta realness and vanishing angular momentum on the critical line", 120.0, _c7_eta_realness_and_level),
    (8, "two routes to the eps-slope of the angular momentum agree to 1e-4", 60.0, _c8_slope_identity),
    (9, "positivity of (eta')^2 - eta*eta'' on [0.5, 30] for odd primitive chi", 300.0, _c9_positivity),
    (10, "first critical-line zeros against tabulated exclusion windows", 120.0, _c10_first_zeros),
    (11, "windowed estimator level at t = 20 and eps-monotonicity", 120.0, _c11_level_bracket),
    (12, "exact-vs-approx residual stable under doubling p_max", 60.0, _c12_residual_stability),
    (13, "oscillation mass ratios below 1 and converging to each other", 180.0, _c13_mass_ratios),
    (14, "prime class counts match Li(x)/phi(q) at x = 1e6 within 1%", 10.0, _c14_class_ratios),
    (15, "principal and induced-character reduction identities", 10.0, _c15_reduction_identities),
    (16, "real-character scan symmetric under t -> -t", 180.0, _c16_symmetry),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, title, budget, fn in CRITERIA:
        if num == cid:
            check = _Check()
            start = time.perf_counter()
            fn(check)
            elapsed = time.perf_counter() - start
            passed = check.passed and elapsed < budget
            detail = check.failures()
            if elapsed >= budget:
                detail += f"; exceeded runtime budget ({elapsed:.1f}s >= {budget:.0f}s)"
            return CriterionResult(cid=num, title=title, passed=passed, detail=detail,
                                   elapsed=elapsed, budget=budget, subchecks=check.subchecks)
    raise KeyError(f"no criterion number {cid}")


def run_acceptance(ids: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for num, _, _, _ in CRITERIA:
        if ids is not None and num not in ids:
            continue
        res = run_criterion(num)
        print(res.line(), flush=True)
        results.append(res)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed", flush=True)
    return results
