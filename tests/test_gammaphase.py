"""Product and asymptotic Gamma-phase routes, cross-checked against mpmath."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lphase import arith, gammaphase as gp, lfunction as lf
from lphase.arith import SPoint
from lphase.errors import DomainError

mp.mp.dps = 30


def _loggamma_phase(t, eps, alpha):
    return float(mp.im(mp.loggamma((0.5 + eps + alpha + 1j * t) / 2)))


# --------------------------------------------------------------------------
# product route
# --------------------------------------------------------------------------

def test_gw_phase_vanishes_at_t0():
    for alpha in (0, 1, 2):
        for eps in (-0.2, 0.0, 0.3):
            assert gp.gw_log_gamma_phase(SPoint(eps, 0.0), alpha, 10 ** 4) == 0.0


def test_gw_phase_odd_in_t():
    for t in (0.3, 2.0, 17.5):
        plus = gp.gw_log_gamma_phase(SPoint(0.1, t), 1, 10 ** 5)
        minus = gp.gw_log_gamma_phase(SPoint(0.1, -t), 1, 10 ** 5)
        assert plus == pytest.approx(-minus, abs=1e-14)


def test_gw_phase_truncation_within_estimate():
    for t, alpha in ((5.0, 1), (40.0, 0), (15.0, 2)):
        s = SPoint(0.0, t)
        exact = _loggamma_phase(t, 0.0, alpha)
        for n in (10 ** 4, 10 ** 5):
            err = abs(gp.gw_log_gamma_phase(s, alpha, n) - exact)
            assert err <= gp.gw_phase_tail_estimate(s, alpha, n)


def test_gw_phase_tail_estimate_bounds_truncation():
    # limit - S_N = Im logGamma(N+1+z) - v psi(N+1) for the exact partial sum S_N: the
    # estimate must bound it, and the computed S_N's distance from the limit as well, which
    # adds S_N's rounding (at N = 1e9 larger than the truncation's overestimate)
    for t in (0.3, 5.0, 100.0, 3000.0):
        for eps in (-0.3, 0.0, 0.4):
            for alpha in (0, 1, 2):
                s = SPoint(eps, t)
                with mp.workdps(40):
                    z = mp.mpc(0.5 + eps + alpha, t) / 2
                    limit = float(mp.im(mp.loggamma(z)))
                    for n in (1, 10, 10 ** 3, 10 ** 6, 10 ** 9):
                        est = gp.gw_phase_tail_estimate(s, alpha, n)
                        trunc = mp.im(mp.loggamma(n + 1 + z)) - z.imag * mp.digamma(n + 1)
                        assert abs(float(trunc)) <= est, (t, eps, alpha, n)
                        got = gp.gw_log_gamma_phase(s, alpha, n)
                        assert abs(limit - got) <= est, (t, eps, alpha, n)


def test_gamma_phase_limit_matches_mpmath():
    for t in (0.0, 0.7, 5.0, 33.0, 90.0):
        for eps in (-0.2, 0.0, 0.2):
            for alpha in (0, 1, 2):
                got = gp.gamma_phase(t, eps, alpha)
                ref = _loggamma_phase(t, eps, alpha)
                assert got == pytest.approx(ref, abs=1e-11 * (1 + abs(ref)))


def test_gamma_log_abs_matches_mpmath():
    for t in (0.0, 1.0, 12.0, 70.0):
        for alpha in (0, 1):
            got = gp.gamma_log_abs(t, 0.1, alpha)
            ref = float(mp.re(mp.loggamma((0.6 + alpha + 1j * t) / 2)))
            assert got == pytest.approx(ref, abs=1e-11 * (1 + abs(ref)))


def test_gw_dphase_t0_reduction():
    # at t = 0 each summand loses its arctan factor; compare with the direct series
    n_terms = 10 ** 4
    got = gp.gw_dphase_dt(SPoint(0.0, 0.0), 1, n_terms)
    direct = -gp.EULER_GAMMA / 2.0 - 1.0 / 1.5
    for n in range(1, n_terms + 1):
        direct += 1.0 / (2 * n) - 1.0 / (2 * n + 1.5)
    assert got == pytest.approx(direct, abs=1e-11)


def test_gw_dphase_even_in_t():
    for t in (0.5, 4.0, 22.0):
        a = gp.gw_dphase_dt(SPoint(0.05, t), 1, 10 ** 5)
        b = gp.gw_dphase_dt(SPoint(0.05, -t), 1, 10 ** 5)
        assert a == pytest.approx(b, abs=1e-14)


def test_gw_dphase_large_t_asymptote():
    # prefactor derivative approaches log sqrt(t q / 2 pi) for large t
    t, q = 50.0, 3
    val = gp.prefactor_dphase_dt(SPoint(0.0, t), gp.PrefactorParams.for_alpha(1, q), 10 ** 6)
    assert abs(val - 0.5 * math.log(t * q / (2 * math.pi))) < 1e-3


def test_gw_dphase_matches_digamma():
    for t, eps, alpha in ((3.0, 0.0, 1), (11.0, -0.2, 0), (27.0, 0.2, 2)):
        ref = float(0.5 * mp.re(mp.digamma((0.5 + eps + alpha + 1j * t) / 2)))
        got = gp.gw_dphase_dt(SPoint(eps, t), alpha, 10 ** 6)
        assert got == pytest.approx(ref, abs=3e-6)


# one-block np.sum formulas of the product route: the reference the blocked
# Gauss-Weierstrass kernel must reproduce bit for bit

def _ref_x_minus_arctan(x):
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.1)
    x2 = xs * xs
    series = xs * x2 * (1.0 / 3.0 + x2 * (-1.0 / 5.0 + x2 * (1.0 / 7.0 + x2 * (-1.0 / 9.0 + x2 / 11.0))))
    return np.where(small, series, x - np.arctan(x))


def _ref_gw(s, alpha, n_terms):
    a, v = (0.5 + s.eps + alpha) / 2.0, s.t / 2.0
    phase = -gp.EULER_GAMMA * v - math.atan(v / a)
    dphase = -gp.EULER_GAMMA / 2.0 - a / (2.0 * (a * a + v * v))
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    phase += float(np.sum(v * a / (n * (n + a)) + _ref_x_minus_arctan(v / (n + a))))
    na = n + a
    dphase += float(np.sum(0.5 * (a * na + v * v) / (n * (na * na + v * v))))
    mixed = (a * a - v * v) / (4.0 * (a * a + v * v) ** 2)
    mixed += float(np.sum((na ** 2 - v * v) / (4.0 * (na ** 2 + v * v) ** 2)))
    return phase, dphase, mixed


def _ref_head_rows(t):
    # n0 for v = t/2: the partial sums add their first min(N, n0) terms explicitly
    return max(64, math.ceil(2.0 * abs(t)) + 32)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_terms=st.sampled_from([1, 7, 63, 64, 65, 97, 1000, 8193, 12345, 10 ** 6]),
       t=st.floats(-3000.0, 3000.0), eps=st.floats(-0.4, 0.5), alpha=st.sampled_from([0, 1, 2]))
@example(n_terms=10 ** 6, t=0.0, eps=0.0, alpha=1)
@example(n_terms=12345, t=1800.3, eps=0.0, alpha=1)        # arctan/series split inside the head
@example(n_terms=10 ** 6, t=-2.0e4, eps=-0.2, alpha=2)     # a head of 40032 terms: 5 leaves
@example(n_terms=(1 << 20) + 5, t=-7.0e5, eps=0.3, alpha=1)  # a head past 2^20 terms, one sum
def test_gw_sums_bit_identical_to_one_block_sum(n_terms, t, eps, alpha):
    # up to n0 terms the partial sums are fully explicit and keep the one-block sum's bits
    n_terms = min(n_terms, _ref_head_rows(t))
    s = SPoint(eps, t)
    phase, dphase, mixed = _ref_gw(s, alpha, n_terms)
    assert gp.gw_log_gamma_phase(s, alpha, n_terms) == phase
    assert gp.gw_dphase_dt(s, alpha, n_terms) == dphase
    assert gp._gw_mixed(s, alpha, n_terms) == mixed


def _mp_gw(t, eps, alpha, n_terms):
    # the exact N-term phase, t-derivative and mixed sums at 40 digits, z = a + iv:
    # -gamma v - arctan(v/a) + v H_N - Im[logGamma(N+1+z) - logGamma(1+z)], its d/dt and
    # the eps-derivative of that, Re[psi'(z) - psi'(z+N+1)]/4
    with mp.workdps(40):
        z = mp.mpc(0.5 + eps + alpha, t) / 2
        a, v, h = z.real, z.imag, mp.harmonic(n_terms)
        phase = (-mp.euler * v - mp.atan(v / a) + v * h
                 - mp.im(mp.loggamma(n_terms + 1 + z) - mp.loggamma(1 + z)))
        dphase = (-mp.euler - a / (a * a + v * v) + h
                  - mp.re(mp.digamma(n_terms + 1 + z) - mp.digamma(1 + z))) / 2
        mixed = mp.re(mp.psi(1, z) - mp.psi(1, z + n_terms + 1)) / 4
        if n_terms <= 10 ** 4:  # the closed form against the direct sums
            ns = range(1, n_terms + 1)
            direct = (-mp.euler * v - mp.atan(v / a)
                      + mp.fsum(v / n - mp.atan(v / (n + a)) for n in ns),
                      (-mp.euler - a / (a * a + v * v)
                       + mp.fsum(1 / mp.mpf(n) - (n + a) / ((n + a) ** 2 + v * v) for n in ns)) / 2,
                      mp.fsum(((n + a) ** 2 - v * v) / (4 * ((n + a) ** 2 + v * v) ** 2)
                              for n in range(n_terms + 1)))
            assert max(abs(phase - direct[0]), abs(dphase - direct[1]),
                       abs(mixed - direct[2])) < mp.mpf(10) ** -30
        return float(phase), float(dphase), float(mixed)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_terms=st.sampled_from([1, 7, 100, 8193, 10 ** 4, 2 * 10 ** 5, 10 ** 6, (1 << 20) + 5,
                                10 ** 9, 10 ** 12]),
       t=st.floats(-3000.0, 3000.0), eps=st.floats(-0.4, 0.5), alpha=st.sampled_from([0, 1, 2]))
@example(n_terms=10 ** 12, t=3000.0, eps=0.5, alpha=2)
@example(n_terms=10 ** 12, t=-0.3, eps=-0.4, alpha=0)
@example(n_terms=10 ** 9, t=0.0, eps=0.0, alpha=1)
@example(n_terms=10 ** 4, t=1800.3, eps=0.1, alpha=0)
@example(n_terms=10 ** 6, t=14.13, eps=0.0, alpha=1)
def test_gw_sums_match_mpmath_partial_sum(n_terms, t, eps, alpha):
    # past n0 terms the partial sums add T(n0) - T(N) in closed form; the stated bound
    # is 3e-14 * (1 + |ref|) for both, at any N
    s = SPoint(eps, t)
    phase, dphase, mixed = _mp_gw(t, eps, alpha, n_terms)
    assert abs(gp.gw_log_gamma_phase(s, alpha, n_terms) - phase) <= 3e-14 * (1.0 + abs(phase))
    assert abs(gp.gw_dphase_dt(s, alpha, n_terms) - dphase) <= 3e-14 * (1.0 + abs(dphase))
    assert abs(gp._gw_mixed(s, alpha, n_terms) - mixed) <= 3e-14 * (1.0 + abs(mixed))


@pytest.mark.parametrize("t, n_terms", [(1e7, 10 ** 6), (-1e7, 10 ** 6), (30.0, 10 ** 12)])
def test_gw_sums_memory_is_one_leaf(t, n_terms, traced_peak):
    # the explicit head runs in leaves of at most _LEAF terms and the tail holds no array,
    # so neither an n0-row nor an N-row array is ever built
    s = SPoint(0.1, t)
    for f in (gp.gw_log_gamma_phase, gp.gw_dphase_dt, gp._gw_mixed):
        f(s, 1, 10 ** 3)  # the kernels' one-time coefficient tables are built outside the trace
        assert traced_peak(lambda: f(s, 1, n_terms)) <= 4 * gp._LEAF * 8 + 64 * 1024


def test_x_minus_arctan_bit_identical():
    rng = np.random.default_rng(20241)
    x = np.concatenate([rng.normal(0.0, 0.2, 4000), rng.normal(0.0, 50.0, 1000), [0.0, -0.1, 0.1]])
    assert np.array_equal(gp._x_minus_arctan(x), _ref_x_minus_arctan(x))
    small, large = x[np.abs(x) < 0.1], x[np.abs(x) >= 0.1]
    for part in (np.array([]), small, large):
        assert np.array_equal(gp._x_minus_arctan(part), _ref_x_minus_arctan(part))
    grid = x[:4900].reshape(-1, 7)
    assert np.array_equal(gp._x_minus_arctan(grid), _ref_x_minus_arctan(grid))


# the separate phase and log-modulus routines, and the two-call xi, that the one
# log-Gamma head kernel replaced: the kernel must reproduce them bit for bit

def _ref_head_grid(t, eps, alpha):
    # a, v = t/2, max |v|, the head indices n = 1..n0 as a column, w = n0+1+a
    a = (0.5 + eps + alpha) / 2.0
    v = np.atleast_1d(np.asarray(t, dtype=np.float64)) / 2.0
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    n0 = int(max(64, math.ceil(4.0 * vmax) + 32))
    return a, v, vmax, np.arange(1, n0 + 1, dtype=np.float64)[:, None], n0 + 1.0 + a


def _ref_hurwitz_tail(tail, pw, v, vmax, w, s1, coef):
    # coef(j) * zeta(s1 + 2(j-1), w) * v^(2j) * pw for j = 1..J, one zeta call per term, with
    # J the least order whose ratio power (vmax/w)^(2J) is <= 1e-18, and J = 1 when vmax = 0
    r, order = vmax / w, 1
    while r > 0 and r ** (2 * order) > 1e-18:
        order += 1
    for j in range(1, order + 1):
        pw = pw * (v * v)
        tail += coef(j) * gp._hurwitz_zeta(s1 + 2 * (j - 1), 1, w)[0] * pw
    return tail


def _ref_gamma_phase(t, eps, alpha):
    a, v, vmax, n, w = _ref_head_grid(t, eps, alpha)
    x = v[None, :] / (n + a)
    head = np.sum(v[None, :] * a / (n * (n + a)) + _ref_x_minus_arctan(x), axis=0)
    tail = _ref_hurwitz_tail(v * (gp._digamma(w) - gp._digamma(len(n) + 1.0)), v, v, vmax, w, 3,
                             lambda j: ((-1) ** (j + 1)) / (2 * j + 1))
    out = -gp.EULER_GAMMA * v - np.arctan(v / a) + head + tail
    return out if np.ndim(t) else float(out[0])


def _ref_gamma_log_abs(t, eps, alpha):
    a, v, vmax, n, w = _ref_head_grid(t, eps, alpha)
    x = v[None, :] / (n + a)
    head = 0.5 * np.sum(np.log1p(x * x), axis=0)
    tail = _ref_hurwitz_tail(np.zeros_like(v), np.ones_like(v), v, vmax, w, 2,
                             lambda j: ((-1) ** (j + 1)) / (2.0 * j))
    out = gp._log_gamma_1p(a) - 0.5 * np.log(a * a + v * v) - head - tail
    return out if np.ndim(t) else float(out[0])


def _ref_xi(chi, eps, t_grid):
    t = np.asarray(t_grid, dtype=np.float64)
    alpha = chi.parity
    lvals = lf.l_on_grid(chi, eps, t)
    lnqpi = math.log(chi.q / math.pi)
    log_mod = _ref_gamma_log_abs(t, eps, alpha) + (0.5 + eps + alpha) / 2.0 * lnqpi
    phase = _ref_gamma_phase(t, eps, alpha) + 0.5 * t * lnqpi
    return np.exp(log_mod + 1j * phase) * lvals


def _same_bytes(got, ref):
    return type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


_KERNEL_T = {"scalar": 37.3, "zero": 0.0, "negative": -5.2, "one-point": np.array([12.5]),
             "grid": np.linspace(-30.0, 120.0, 301)}


# 40032 head rows: at the real _HEAD_CELLS the five columns go into blocks of 2 and 3
_FAR_T = np.array([-2.0e4, -1.99e4, 5.0, 1.99e4, 2.0e4])


@pytest.mark.parametrize("t", [*_KERNEL_T.values(), _FAR_T], ids=[*_KERNEL_T, "far"])
def test_log_gamma_kernel_bit_identical_to_separate_routines(t, monkeypatch):
    # the references sum the whole head matrix; 64 cells split a grid into 2- and 3-column blocks
    for cells in (gp._HEAD_CELLS, 64):
        monkeypatch.setattr(gp, "_HEAD_CELLS", cells)
        for alpha in (0, 1, 2):
            for eps in (-0.2, 0.0, 0.3):
                phase = _ref_gamma_phase(t, eps, alpha)
                log_abs = _ref_gamma_log_abs(t, eps, alpha)
                assert _same_bytes(gp.gamma_phase(t, eps, alpha), phase)
                assert _same_bytes(gp.gamma_log_abs(t, eps, alpha), log_abs)
                kernel = gp._log_gamma_grid(t, eps, alpha)
                assert _same_bytes(kernel, (np.atleast_1d(log_abs), np.atleast_1d(phase)))


@pytest.mark.parametrize("t", [np.asarray(t, dtype=np.float64) for t in _KERNEL_T.values()],
                         ids=_KERNEL_T.keys())
def test_xi_bit_identical_to_two_call_formula(t):
    chars = [c for q in (3, 4, 5, 7) for c in arith.enumerate_characters(q)
             if c.is_primitive and not c.is_principal]
    assert {c.parity for c in chars} == {0, 1}
    for chi in chars:
        for eps in (-0.2, 0.0, 0.3):
            assert _same_bytes(lf.xi_on_grid(chi, eps, t), _ref_xi(chi, eps, t))


def test_xi_builds_one_head_grid(monkeypatch, chi3):
    calls = []
    kernel = lf._log_gamma_grid
    monkeypatch.setattr(lf, "_log_gamma_grid", lambda *args: calls.append(args) or kernel(*args))
    for t in (np.array([14.1]), np.linspace(0.5, 200.0, 400)):
        calls.clear()
        lf.xi_on_grid(chi3, 0.0, t)
        assert len(calls) == 1


def test_xi_memory_is_head_blocks_plus_points(chi3, traced_peak):
    # the heads hold one column block at a time: the L head's exponents and their exp, or
    # the Gamma head's real temporaries, stay under 4 complex arrays of _HEAD_CELLS cells;
    # the rest of xi holds about 32 complex values per point (L's (2, points) class arrays
    # for chi mod 3, the Gamma tails, xi itself)
    t = np.arange(0.5, 200.0001, 0.05)
    lf.xi_on_grid(chi3, 0.0, t[:2])  # the one-time log Gamma(1+a) table stays outside the trace
    peak = traced_peak(lambda: lf.xi_on_grid(chi3, 0.0, t))
    assert peak <= 16 * (4 * gp._HEAD_CELLS + 32 * t.size)


# the four Hurwitz tails, by coefficient c(j) and first order s_1: the phase and log|Gamma|
# of `_log_gamma_grid`, gw_dphase_dt's and the mixed derivative's
_TAIL_COEFS = {
    "phase": (lambda j: ((-1) ** (j + 1)) / (2 * j + 1), 3),
    "log-modulus": (lambda j: ((-1) ** (j + 1)) / (2.0 * j), 2),
    "dphase": (lambda j: (-1) ** (j + 1), 3),
    "mixed": (lambda j: (-1) ** j * (2 * j + 1), 4),
}
# (vmax, w, pw scale, terms taken): v = 0 takes one term, r = vmax/w = 1e-6 two, r just
# under 1/4 the largest count of 15, and r = 0.025, a prefactor-sized tail, six
_TAIL_CASES = {"v=0": (0.0, 65.5, 1.0, 1), "tiny-ratio": (1.0, 1e6 + 1.5, 1.0, 2),
               "full-order": (999.9, 4000.75, 1e6, 15), "typical": (5.0, 200.5, 1.0, 6)}


@pytest.mark.parametrize("family", _TAIL_COEFS)
@pytest.mark.parametrize("case", _TAIL_CASES)
def test_hurwitz_tail_bit_identical_to_per_term_loop(family, case):
    (coef, s1), (vmax, w, scale, order) = _TAIL_COEFS[family], _TAIL_CASES[case]
    assert gp._tail_order(vmax, w) == order
    for v in (vmax, -vmax, 0.5 * vmax, np.array([]), np.array([vmax]),
              vmax * np.array([-1.0, -0.3, 0.0, 0.7, 1.0])):
        pw = scale * (v if family == "phase" else 1.0 + 0.0 * v)
        # the start cancels the first term, so the later ones are not lost beside it; each
        # call adds to its own copy of the start, and both count the terms they take
        start = lambda: 0.37 - coef(1) * gp._hurwitz_zeta(s1, 1, w)[0] * (pw * (v * v))
        terms, got_terms = [], []
        ref = _ref_hurwitz_tail(start(), pw, v, vmax, w, s1, lambda j: terms.append(j) or coef(j))
        got = gp._hurwitz_tail(start(), pw, v, vmax, w, s1,
                               lambda j: got_terms.append(j) or coef(j))
        assert _same_bytes(got, ref), (v, got, ref)
        assert type(got) is (float if np.ndim(v) == 0 else np.ndarray)
        # every call takes the rule's count, whatever v holds
        assert got_terms == terms == list(range(1, order + 1))


@pytest.mark.parametrize("t", [0.3, 10.0, 300.0, 3000.0])
def test_gw_sums_bit_identical_with_per_term_tail(t, monkeypatch):
    # the three N-term sums keep their bits when _hurwitz_tail is the per-term loop: N = n0 + 1
    # takes a tail difference next to the head, N = 1e12 one far from it
    def sums(n_terms):
        s = SPoint(0.0, t)
        return (gp.gw_log_gamma_phase(s, alpha, n_terms), gp.gw_dphase_dt(s, alpha, n_terms),
                gp.mixed_second_derivative(t, alpha, n_terms))

    for alpha in (0, 1, 2):
        for n_terms in (_ref_head_rows(t) + 1, 10 ** 6, 10 ** 12):
            got = sums(n_terms)
            with monkeypatch.context() as m:
                m.setattr(gp, "_hurwitz_tail", _ref_hurwitz_tail)
                ref = sums(n_terms)
            assert all(type(x) is float and _same_bytes(x, y) for x, y in zip(got, ref)), \
                (alpha, n_terms, got, ref)


def test_gw_domain_guard():
    with pytest.raises(DomainError):
        gp.gw_log_gamma_phase(SPoint(-0.5, 1.0), 0, 100)  # a = 0


# --------------------------------------------------------------------------
# prefactor derivative roots
# --------------------------------------------------------------------------

def test_prefactor_root_locations():
    # frozen from a high-precision digamma root solve
    expected = {3: 2.1062054, 5: 1.2116358, 9: 0.2266757}
    for q, ref in expected.items():
        t = gp.find_t_cross(gp.PrefactorParams.for_alpha(1, q), n_terms=2 * 10 ** 5)
        assert t == pytest.approx(ref, abs=5e-4)


def test_prefactor_positive_for_large_q():
    params = gp.PrefactorParams.for_alpha(1, 11)
    assert gp.find_t_cross(params, n_terms=10 ** 5) is None
    for t in (0.01, 0.5, 3.0, 40.0, 100.0):
        assert gp.prefactor_dphase_dt(SPoint(0.0, t), params, 10 ** 5) > 0


def test_even_prefactor_sign_pattern():
    # alpha = 0: negative near t = 0 for q = 5, positive everywhere once
    # log(q/pi)/2 exceeds -psi(1/4)/2, i.e. for q >= 220
    q5 = gp.PrefactorParams.for_alpha(0, 5)
    assert gp.prefactor_dphase_dt(SPoint(0.0, 0.5), q5, 10 ** 5) < 0
    assert gp.prefactor_dphase_dt(SPoint(0.0, 10.0), q5, 10 ** 5) > 0
    q220 = gp.PrefactorParams.for_alpha(0, 220)
    for t in (0.01, 0.5, 5.0, 50.0):
        assert gp.prefactor_dphase_dt(SPoint(0.0, t), q220, 10 ** 5) > 0


def test_find_t_cross_strictly_decreasing():
    vals = [gp.find_t_cross(gp.PrefactorParams.for_alpha(1, q), n_terms=10 ** 5)
            for q in (3, 4, 5, 7, 8, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[3] == pytest.approx(0.75, abs=0.1)  # q = 7 lands near 0.75


# --------------------------------------------------------------------------
# asymptotic route
# --------------------------------------------------------------------------

def test_stirling_phase_within_its_bound_of_mpmath():
    # |total - (Im log Gamma((s+alpha)/2) + (t/2) log(q/pi))| <= bound, the reference at 40
    # digits and compared there: past t ~ 300 the error is the total's rounding, which the
    # B_6 remainder term alone falls far below (2e-16 at t = 1000, 2e-26 at 1e5)
    ts = (0.5, 0.7, 1.0, 2.0, 5.0, 10.0, 31.0, 100.0, 300.0, 1000.0, 3000.0, 1e4, 3e4, 1e5)
    for alpha, q in ((0, 3), (0, 400), (1, 3), (1, 400), (2, 1)):
        params = gp.PrefactorParams.for_alpha(alpha, q)
        for eps in (-0.4, -0.2, 0.0, 0.2, 0.5):
            for t in ts:
                total, bound = gp.stirling_phase(t, eps, params)
                with mp.workdps(40):
                    z = (mp.mpf(0.5) + mp.mpf(eps) + alpha + mp.mpc(0, t)) / 2
                    ref = mp.im(mp.loggamma(z)) + mp.mpf(t) / 2 * mp.log(mp.mpf(q) / mp.pi)
                    assert abs(mp.mpf(total) - ref) <= bound, (alpha, q, eps, t)


def test_stirling_route_refuses_small_t():
    # t < 0.5 and a NaN t are refused; t = 0.5 is the first t taken
    params = gp.PrefactorParams.for_alpha(1, 3)
    for t in (0.3, math.nextafter(0.5, 0.0), 0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            gp.stirling_phase(t, 0.0, params)
    assert math.isfinite(gp.stirling_phase(0.5, 0.0, params)[1])


def test_stirling_route_refuses_non_finite_input():
    # an infinite t and a non-finite eps are refused, and so is a t whose total overflows;
    # a huge t below that gives a finite total and bound
    params = gp.PrefactorParams.for_alpha(1, 3)
    for t, eps in ((math.inf, 0.0), (10.0, math.inf), (10.0, -math.inf), (10.0, math.nan),
                   (1e307, 0.0), (sys.float_info.max, 0.0)):
        with pytest.raises(DomainError):
            gp.stirling_phase(t, eps, params)
    for t in (1e62, 1e300):
        total, bound = gp.stirling_phase(t, 0.0, params)
        assert math.isfinite(total) and math.isfinite(bound) and bound > 0.0


def test_level_is_the_stirling_phase_slope():
    # log sqrt(|t| q / 2 pi), NaN at t = 0; the Stirling total's t-derivative,
    # (Re psi(z+1) + log(q/pi))/2, differs from it by (a^2 - a)/t^2 + O(t^-4), a = Re z + 1
    assert gp._level(10.0, 5) == pytest.approx(0.5 * math.log(10.0 * 5 / (2 * math.pi)), abs=1e-15)
    assert gp._level(-10.0, 5) == gp._level(10.0, 5)
    assert math.isnan(gp._level(0.0, 5))
    params, h = gp.PrefactorParams.for_alpha(1, 5), 1e-3
    for t in (10.0, 100.0, 1000.0):
        fd = (gp.stirling_phase(t + h, 0.0, params)[0]
              - gp.stirling_phase(t - h, 0.0, params)[0]) / (2 * h)
        assert abs(fd - gp._level(t, 5)) < 0.25 / t ** 2


def test_route_agreement_sample_point():
    # asymptotic total vs product phase plus the (t/2) log(q/pi) shift
    t, eps, alpha, q = 5.0, 0.0, 1, 3
    params = gp.PrefactorParams.for_alpha(alpha, q)
    s = SPoint(eps, t)
    stirl, bound = gp.stirling_phase(t, eps, params)
    gw = gp.gw_log_gamma_phase(s, alpha, 10 ** 6) + 0.5 * t * math.log(q / math.pi)
    assert abs(stirl - gw) <= bound + 10 * gp.gw_phase_tail_estimate(s, alpha, 10 ** 6)


def test_route_agreement_band():
    n_terms = 2 * 10 ** 5
    for alpha in (0, 1, 2):
        params = gp.PrefactorParams.for_alpha(alpha, q=3 if alpha != 2 else None)
        shift = 0.5 * math.log(params.q / math.pi)
        for eps in (-0.2, 0.0, 0.2):
            for t in (2.0, 7.0, 31.0, 100.0):
                s = SPoint(eps, t)
                stirl, bound = gp.stirling_phase(t, eps, params)
                gw = gp.gw_log_gamma_phase(s, alpha, n_terms) + t * shift
                allowance = bound + gp.gw_phase_tail_estimate(s, alpha, n_terms)
                assert abs(stirl - gw) <= allowance


# --------------------------------------------------------------------------
# mixed second derivative
# --------------------------------------------------------------------------

def test_mixed_derivative_three_cases_both_routes():
    # 3/(4t^2), 1/(4t^2), -1/(4t^2) at t = 10; the trigamma oracle test below is the second route
    for alpha, num in ((2, 3.0), (1, 1.0), (0, -1.0)):
        prod = gp.mixed_second_derivative(10.0, alpha, n_terms=10 ** 5)
        assert prod == pytest.approx(num / 400.0, rel=0.02)


def test_mixed_derivative_matches_trigamma_oracle():
    # the N-term sum at 40 digits, sum_{n=0..N} Re (n+z)^(-2)/4 = Re[psi'(z) - psi'(z+N+1)]/4
    # with z = (1/2 + alpha + it)/2, across the alpha = 0 crossing and up to N = 1e12
    for t in (0.01, 0.25, 0.5888, 1.0, 10.0, 50.0, 300.0, 3000.0):
        for alpha in (0, 1, 2):
            for n_terms in (10 ** 5, 10 ** 6, 10 ** 9, 10 ** 12):
                with mp.workdps(40):
                    z = mp.mpc(0.5 + alpha, t) / 2
                    ref = float(mp.re(mp.psi(1, z) - mp.psi(1, z + n_terms + 1)) / 4)
                got = gp.mixed_second_derivative(t, alpha, n_terms)
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def test_mixed_derivative_within_ladder_tolerance(ref_mixed):
    # the eps-difference Richardson ladder of gw_dphase_dt is an independent route to the
    # same derivative; its worst error here is 3.5e-6 relative, at the alpha = 0 crossing
    # 0.5888, where the value is 1e-5 and the absolute term carries the bound
    for alpha in (0, 1, 2):
        for t in (0.55, 0.5888, 0.6, 1.0, 3.7, 10.0, 20.0, 50.0, 99.5):
            ref = ref_mixed(t, alpha, 10 ** 5)
            got = gp.mixed_second_derivative(t, alpha, 10 ** 5)
            assert abs(got - ref) <= 1e-6 * abs(ref) + 1e-10


def test_mixed_derivative_normalized_limit():
    # 4 t^2 * mixed -> 1 for alpha = 1: inside 5% at t = 20 and 1% at t = 50;
    # the truncation bias ~1/(4 n_terms) matters at t = 50, hence the 1e6 terms
    m20 = gp.mixed_second_derivative(20.0, 1, n_terms=10 ** 6)
    m50 = gp.mixed_second_derivative(50.0, 1, n_terms=10 ** 6)
    assert abs(m20 * 4 * 400.0 - 1.0) < 0.05
    assert abs(m50 * 4 * 2500.0 - 1.0) < 0.01


def test_mixed_derivative_alpha0_sign_change_location():
    # frozen from a high-precision trigamma root solve: 0.5887965556
    f = lambda t: gp.mixed_second_derivative(t, 0, n_terms=10 ** 5)
    assert f(0.5885) > 0 > f(0.5891)


def test_mixed_derivative_guards():
    with pytest.raises(DomainError):
        gp.mixed_second_derivative(-1.0, 1)
    with pytest.raises(DomainError):
        gp.mixed_second_derivative(1.0, 1, n_terms=0)
    assert _same_bytes(gp.mixed_second_derivative(1.0, 1, n_terms=1),
                       gp._gw_mixed(SPoint(0.0, 1.0), 1, 1))


@pytest.mark.parametrize("n_terms", [1, 7, 99_999, 10 ** 5, 10 ** 6])
def test_mixed_derivative_is_the_trigamma_sum_at_any_n(n_terms):
    # no floor on N: the closed-form sum is exact for every N >= 1
    for alpha in (0, 1, 2):
        for t in (0.25, 0.5887965556, 10.0, 50.0):
            assert _same_bytes(gp.mixed_second_derivative(t, alpha, n_terms),
                               gp._gw_mixed(SPoint(0.0, t), alpha, n_terms))


# --------------------------------------------------------------------------
# configuration types
# --------------------------------------------------------------------------

def test_prefactor_params_validation():
    with pytest.raises(DomainError):
        gp.PrefactorParams(q=3, alpha=2)  # zeta case needs q = 1
    with pytest.raises(DomainError):
        gp.PrefactorParams(q=0, alpha=0)
    p = gp.PrefactorParams.for_alpha(2)
    assert (p.q, p.alpha) == (1, 2)
