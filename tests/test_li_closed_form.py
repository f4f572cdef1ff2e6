"""The Li integrals against mpmath quadrature: `arith.li` (closed form), and the ledger's
per-interval Li masses and each class's integral on [2, p_max] (composite Gauss-Legendre),
each to 1e-10 relative; short intervals and the ledger intervals at p_star = 1e7 also to
1e-13; and the stored Gauss-Legendre rule against a 50-digit one."""

import math

import mpmath as mp
import numpy as np
import pytest

from lphase import arith, eulerphase as ep

REL = 1e-10
# real characters mod 3 and 12 (angles 0 and pi), one mod 7 with angles k pi/3, whose
# masses change when an angle changes sign, and the odd one mod 5 (angles k pi/2)
_CHARS = {q: arith.enumerate_characters(q)[i] for q, i in ((3, 1), (12, 3), (7, 1), (5, 1))}


def _oracle(th, t, eps, lnps, lo, hi, pieces=2, dps=16):
    """Integral of cos(t log y - th) sin(pi log y / lnps) / (y^(1/2+eps) log y) over [lo, hi]
    by mpmath in u = log y, split into `pieces` equal parts, at `dps` digits."""
    c = mp.mpf(0.5) - eps
    f = lambda u: mp.cos(t * u - th) * mp.sin(mp.pi * u / lnps) * mp.exp(c * u) / u
    with mp.workdps(dps):
        return mp.quad(f, mp.linspace(mp.log(lo), mp.log(hi), pieces + 1),
                       method="gauss-legendre")


def _classes(chi):
    return np.flatnonzero(chi.k >= 0).tolist()


def _assert_mass(th, t, eps, lnps, phi_q, lo, hi, rel=REL, pieces=2, dps=16):
    got = ep._mass_li(th, t, eps, lnps, phi_q, lo, hi)
    want = abs(lnps / (2 * mp.pi * phi_q)
               * _oracle(th, t, eps, lnps, max(lo, 2.0), hi, pieces, dps))
    assert type(got) is float and want > 0
    assert abs(got - want) <= rel * want, (th, t, eps, lnps, lo, hi, got, want)


def _ledger_intervals(chi, t, p_star):
    # per class: the first ledger interval pair, clamped at 2, the last one, and the
    # stretch from its end to p_star, where sin(pi log y / log p_star) -> 0
    k_max = ep.max_k_for_bound(t, chi, p_star)
    for h in _classes(chi):
        th = chi.angle(h)
        k_first = math.floor((t * math.log(2.0) - math.pi / 2.0 - th) / (2.0 * math.pi)) + 1
        for k in (k_first, k_max):
            x_up, x_down = ep.oscillation_boundaries(k, h, t, chi)
            x_next = ep.oscillation_boundaries(k + 1, h, t, chi)[0]
            yield th, x_up, x_down
            yield th, x_down, x_next
        yield th, x_next, p_star


_LEDGERS = [(q, t, p_star) for q in (3, 12) for t in (10.0, 25.0) for p_star in (1e5, 1e7)]


@pytest.mark.parametrize("q, t, p_star", _LEDGERS + [(7, 14.0, 1e6)])
def test_mass_li_on_ledger_intervals(q, t, p_star):
    chi, lnps, phi_q = _CHARS[q], math.log(p_star), arith.euler_phi(q)
    for eps in (0.0, 0.2, -0.3, 0.45):
        for th, lo, hi in _ledger_intervals(chi, t, p_star):
            _assert_mass(th, t, eps, lnps, phi_q, lo, hi)


@pytest.mark.parametrize("q, t, eps", [(q, t, eps) for q in (3, 7)
                                       for t in (10.0, 25.0) for eps in (0.0, 0.45)])
def test_mass_li_to_1e13_on_ledger_intervals(q, t, eps):
    # the same intervals at p_star = 1e7 against a 30-digit oracle split into one piece
    # per radian of t log(hi/lo)
    chi, lnps, phi_q = _CHARS[q], math.log(1e7), arith.euler_phi(q)
    for th, lo, hi in _ledger_intervals(chi, t, 1e7):
        pieces = max(1, math.ceil(t * math.log(hi / max(lo, 2.0))))
        _assert_mass(th, t, eps, lnps, phi_q, lo, hi, rel=1e-13, pieces=pieces, dps=30)


@pytest.mark.parametrize("eps", (0.0, 0.5), ids=("omega=0", "z=0"))
def test_mass_li_at_degenerate_frequencies(eps):
    # t = pi/log p_star makes the frequency pi/log p_star - t of one term of
    # cos X sin Y = (sin(Y+X) + sin(Y-X))/2 exactly 0, and at eps = 1/2 the integrand
    # loses its exponential factor too: the cases an exponential-integral form singles out
    lnps = math.log(1e5)
    t = math.pi / lnps
    assert math.pi / lnps - t == 0.0
    for th in (0.0, 0.7, -2.1):
        for lo, hi in ((2.0, 1e5), (30.0, 4e3)):
            _assert_mass(th, t, eps, lnps, 2, lo, hi)


# short intervals, one panel each, where an exponential-integral difference would cancel:
# the first ledger interval of the character mod 7 at t = 40, clamped at 2 and ending at a
# cosine zero near 2.0012, and the stretch below p_star = 1e5, where
# sin(pi log y / log p_star) -> 0
_SHORT = [(7, 40.0, 0.45, 1e7, 2.0, 2.0012)] + [
    (q, t, eps, 1e5, 95493.0, 1e5) for q in (3, 12) for t in (10.0, 25.0) for eps in (0.0, 0.45)]


@pytest.mark.parametrize("q, t, eps, p_star, lo, hi", _SHORT)
def test_li_integral_on_short_intervals(q, t, eps, p_star, lo, hi):
    lnps = math.log(p_star)
    for h in _classes(_CHARS[q]):
        th = _CHARS[q].angle(h)
        want = _oracle(th, t, eps, lnps, lo, hi, dps=30)
        got = ep._li_integral(th, t, eps, lnps, lo, hi)
        assert abs(got - want) <= 1e-13 * abs(want), (h, got, want)


def _gauss_legendre_rule(n=20, dps=50):
    """Nodes and weights 2 / ((1 - x^2) P_n'(x)^2) of the n-point rule, ascending, at `dps`
    digits: Newton on P_n from Tricomi's starting values, P_n and P_n' by the recurrence."""
    def p_and_dp(x):
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    rule = []
    with mp.workdps(dps):
        for i in range(n, 0, -1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(60):
                p, dp = p_and_dp(x)
                x -= p / dp
            dp = p_and_dp(x)[1]
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


def test_stored_gauss_legendre_rule():
    # the stored 20-point rule is the exact rule correctly rounded, node and weight alike,
    # symmetric, and exact to degree 39 up to that rounding
    x, w = ep._GL_NODES, ep._GL_WEIGHTS
    rule = _gauss_legendre_rule()
    for got, ref in ((x, [r[0] for r in rule]), (w, [r[1] for r in rule])):
        assert got.dtype == np.float64 and got.shape == (20,)
        for g, r in zip(got.tolist(), ref):
            assert abs(mp.mpf(g) - r) <= mp.mpf(np.spacing(abs(g))) / 2, (g, r)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert abs(math.fsum(w) - 2.0) <= 2e-16
    for k in range(40):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x ** k) - exact) <= 2e-16, k


@pytest.mark.parametrize("q, t, p_max", [(12, 5.0, 10 ** 6)] + [
    (q, t, p_max) for q in (3, 5) for t in (5.0, 10.0) for p_max in (10 ** 5, 10 ** 6)])
def test_class_li_combination_against_oracle(q, t, p_max):
    # each class's term of the combination over [2, p_max]; the terms cancel to 0 over the
    # classes (the character values sum to 0 over the units), so each is checked on its own
    chi = _CHARS[q]
    lnps = math.log(float(p_max))
    pieces = math.ceil(t * math.log(p_max / 2.0) / math.pi)  # one per half-turn
    for h in _classes(chi):
        th = chi.angle(h)
        want = _oracle(th, t, 0.0, lnps, 2.0, p_max, pieces)
        got = ep._li_integral(th, t, 0.0, lnps, 2.0, p_max)
        assert abs(got - want) <= REL * abs(want), (h, got, want)


@pytest.mark.parametrize("x", (10.0, 1e5, 1e7))
def test_li_against_oracle(x):
    with mp.workdps(16):
        want = mp.quad(lambda u: mp.exp(u) / u, mp.linspace(mp.log(2), mp.log(x), 5))
    got = arith.li(x)
    assert type(got) is float
    assert abs(got - want) <= REL * want
