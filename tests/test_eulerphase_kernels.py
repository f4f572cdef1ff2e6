"""The prepared-prime estimator kernels against the per-call code they replaced: every
scan value, scalar estimate, residual, Euler phase and ledger entry must be equal bit
for bit."""

import math

import numpy as np
import pytest

from lphase import eulerphase as ep
from lphase.arith import SPoint, enumerate_characters, euler_phi, sieve_primes
from lphase.gammaphase import _x_minus_arctan


# --------------------------------------------------------------------------
# reference code: the primes prepared again at every point and every interval
# --------------------------------------------------------------------------

def _ref_prime_data(chi, primes, p_max=None):
    angles = chi.angles_by_residue()
    res = primes.primes % chi.q
    theta = angles[res]
    keep = ~np.isnan(theta)
    p = primes.primes[keep].astype(np.float64)
    lp = primes.log_primes[keep]
    th = theta[keep]
    if p_max is not None:
        cut = np.searchsorted(p, p_max, side="right")
        p, lp, th = p[:cut], lp[:cut], th[:cut]
    return p, lp, th


def _ref_arctan_terms(p, lp, th, t, eps):
    ang = lp * t - th
    return np.arctan(np.sin(ang) / (p ** (0.5 + eps) - np.cos(ang)))


def _ref_exact(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    w = window.half_width
    diff = _ref_arctan_terms(p, lp, th, t + w, eps) - _ref_arctan_terms(p, lp, th, t - w, eps)
    return float(-math.log(window.p_star) / (2.0 * math.pi) * np.sum(diff))


def _ref_approx(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    lnps = math.log(window.p_star)
    terms = np.cos(lp * t - th) * np.sin(math.pi * lp / lnps) / p ** (0.5 + eps)
    return float(-lnps / math.pi * np.sum(terms))


def _ref_residual(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    w = window.half_width
    sigma = 0.5 + eps
    pref = -math.log(window.p_star) / (2.0 * math.pi)
    higher, coupled = np.zeros_like(p), np.zeros_like(p)
    for tt, sign in ((t + w, 1.0), (t - w, -1.0)):
        ang = lp * tt - th
        sin_a, cos_a = np.sin(ang), np.cos(ang)
        denom = p ** sigma - cos_a
        higher += sign * (-_x_minus_arctan(sin_a / denom))
        coupled += sign * (sin_a * cos_a / (denom * p ** sigma))
    higher_val = float(pref * np.sum(higher))
    coupled_val = float(pref * np.sum(coupled))
    return ep.EstimatorResidual(total=higher_val + coupled_val,
                                higher_order=higher_val, coupled=coupled_val)


def _ref_euler_phase(s, chi, primes):
    p, lp, th = _ref_prime_data(chi, primes)
    return float(-np.sum(_ref_arctan_terms(p, lp, th, s.t, s.eps)))


def _ref_mass_sum(p_class, lp_class, th, t, eps, lnps, lo, hi):
    i0 = np.searchsorted(p_class, lo, side="right")
    i1 = np.searchsorted(p_class, hi, side="left")
    if i1 <= i0:
        return 0.0
    pp, ll = p_class[i0:i1], lp_class[i0:i1]
    vals = np.cos(ll * t - th) * np.sin(math.pi * ll / lnps) / pp ** (0.5 + eps)
    return abs(float(lnps / (2.0 * math.pi) * np.sum(vals)))


def _ref_ledger_entries(t, eps, chi, primes, window, k_max):
    lnps = math.log(window.p_star)
    phi_q = euler_phi(chi.q)
    entries = []
    res = primes.primes % chi.q
    for h in np.flatnonzero(chi.k >= 0).tolist():
        th = chi.angle(h)
        pc = primes.primes[res == h].astype(np.float64)
        lc = np.log(pc)
        k = int(math.floor((t * math.log(2.0) - math.pi / 2.0 - th) / (2.0 * math.pi))) + 1
        for kk in range(k, k_max + 1):
            x_up, x_down = ep.oscillation_boundaries(kk, h, t, chi)
            x_next = ep.oscillation_boundaries(kk + 1, h, t, chi)[0]
            entries.append(ep.LedgerEntry(
                k=kk, h=h, x_up=x_up, x_down=x_down, x_up_next=x_next,
                o_plus_sum=_ref_mass_sum(pc, lc, th, t, eps, lnps, x_up, x_down),
                o_minus_sum=_ref_mass_sum(pc, lc, th, t, eps, lnps, x_down, x_next),
                o_minus_li=ep._mass_li(th, t, eps, lnps, phi_q, x_up, x_down),
                o_plus_li=ep._mass_li(th, t, eps, lnps, phi_q, x_down, x_next),
            ))
    entries.sort(key=lambda e: (e.k, e.h))
    return tuple(entries)


# --------------------------------------------------------------------------
# cases: characters, tables and the three window shapes
# --------------------------------------------------------------------------

_TABLES = {q: sieve_primes(120_000, q) for q in (1, 3, 5)}
# (chi, table): chi mod 12 runs on a table sieved mod 1, so its classes come from chi.q
_CASES = {
    "q3": (enumerate_characters(3)[1], _TABLES[3]),
    "q5": (enumerate_characters(5)[2], _TABLES[5]),
    "q12": (enumerate_characters(12)[3], _TABLES[1]),
}
_WINDOWS = {
    "pstar=pmax": ep.WindowParams(p_star=1e5, p_max=100_000),
    "pstar<pmax": ep.WindowParams(p_star=1e4, p_max=100_003),  # 100003 is prime
    "pstar>pmax": ep.WindowParams(p_star=1e6, p_max=50_000),
}
_EPS = (0.0, 0.2, -0.3)
_GRID = np.round(np.arange(-4.0, 16.0001, 1.0), 10)  # negative t, t = 0 and positive t


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("window", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("case", _CASES.keys())
def test_scan_matches_per_point_estimators(case, eps, window):
    chi, table = _CASES[case]
    for estimator, ref in (("exact_arctan", _ref_exact), ("cosine_approx", _ref_approx)):
        values = ep.scan(chi, eps, _GRID, table, window, estimator=estimator).values
        expected = np.array([ref(float(t), eps, chi, table, window) for t in _GRID])
        assert values.dtype == np.float64
        assert values.tobytes() == expected.tobytes()
        empty = ep.scan(chi, eps, np.array([]), table, window, estimator=estimator).values
        assert empty.dtype == np.float64 and empty.size == 0


@pytest.mark.parametrize("window", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("case", _CASES.keys())
def test_point_estimators_match_reference(case, eps, window):
    chi, table = _CASES[case]
    for t in (-4.1, 7.3, 22.0):
        for f, ref in ((ep.windowed_ratio_exact, _ref_exact),
                       (ep.windowed_ratio_approx, _ref_approx)):
            got, want = f(t, eps, chi, table, window), ref(t, eps, chi, table, window)
            assert type(got) is float and _bits(got) == _bits(want)
        res, want = ep.estimator_residual(t, eps, chi, table, window), _ref_residual(
            t, eps, chi, table, window)
        for name in ("total", "higher_order", "coupled"):
            assert type(getattr(res, name)) is float
            assert _bits(getattr(res, name)) == _bits(getattr(want, name))
        s = SPoint(eps, t)
        got = ep.euler_phase(s, chi, table)
        assert type(got) is float and _bits(got) == _bits(_ref_euler_phase(s, chi, table))


@pytest.mark.parametrize("window", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("case", ("q3", "q12"))
def test_ledger_matches_per_interval_sums(case, eps, window):
    chi, table = _CASES[case]
    for t in (10.0, 25.0):
        k_max = ep.max_k_for_bound(t, chi, float(min(window.p_max, window.p_star)))
        got = ep.build_oscillation_ledger(t, eps, chi, table, window, k_max).entries
        want = _ref_ledger_entries(t, eps, chi, table, window, k_max)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert (a.k, a.h) == (b.k, b.h)
            for name in ("x_up", "x_down", "x_up_next", "o_plus_sum", "o_minus_sum",
                         "o_plus_li", "o_minus_li"):
                assert type(getattr(a, name)) is float
                assert _bits(getattr(a, name)) == _bits(getattr(b, name))


def test_scan_prepares_primes_once(monkeypatch):
    chi, table = _CASES["q5"]
    calls = []
    prime_data = ep._prime_data

    def counted(*args, **kwargs):
        calls.append(args)
        return prime_data(*args, **kwargs)

    monkeypatch.setattr(ep, "_prime_data", counted)
    for estimator in ("exact_arctan", "cosine_approx"):
        calls.clear()
        ep.scan(chi, 0.0, _GRID, table, _WINDOWS["pstar=pmax"], estimator=estimator)
        assert len(calls) == 1
