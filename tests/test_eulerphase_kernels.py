"""The prepared-prime estimator kernels against the per-call code they replaced.  Every
sine and cosine of log(p) t - theta comes from one tan of the half angle, and the arctan
increments reach their window endpoints by angle addition, so both estimators, both
residual pieces and the ledger's prime-sum masses must match the per-call
np.sin/np.cos sums within 2e-12 relative, and every estimator a 30-digit mpmath evaluation;
the ledger's boundaries and Li masses are equal bit for bit, and a scan value must equal
its own per-point value bit for bit inside any grid."""

import gc
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphase import eulerphase as ep, gammaphase as gp
from lphase.arith import SPoint, enumerate_characters, euler_phi, sieve_primes
from lphase.gammaphase import _x_minus_arctan


# --------------------------------------------------------------------------
# reference code: the primes prepared again at every point and every interval
# --------------------------------------------------------------------------

def _ref_prime_data(chi, primes, p_max):
    angles = chi.angles_by_residue()
    res = primes.primes % chi.q
    theta = angles[res]
    keep = ~np.isnan(theta)
    p = primes.primes[keep].astype(np.float64)
    lp = primes.log_primes[keep]
    cut = np.searchsorted(p, p_max, side="right")
    return p[:cut], lp[:cut], theta[keep][:cut]


def _ref_arctan_terms(p, lp, th, t, eps):
    ang = lp * t - th
    return np.arctan(np.sin(ang) / (p ** (0.5 + eps) - np.cos(ang)))


def _ref_exact(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    w = math.pi / math.log(window.p_star)
    diff = _ref_arctan_terms(p, lp, th, t + w, eps) - _ref_arctan_terms(p, lp, th, t - w, eps)
    return float(-math.log(window.p_star) / (2.0 * math.pi) * np.sum(diff))


def _ref_approx(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    lnps = math.log(window.p_star)
    terms = np.cos(lp * t - th) * np.sin(math.pi * lp / lnps) / p ** (0.5 + eps)
    return float(-lnps / math.pi * np.sum(terms))


def _ref_residual(t, eps, chi, primes, window):
    p, lp, th = _ref_prime_data(chi, primes, p_max=window.p_max)
    w = math.pi / math.log(window.p_star)
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


_EXACT_RTOL = 2e-12  # an arctan-increment sum against one over the same primes, times max(1, |ref|)


def _assert_exact_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert np.all(np.abs(got - want) <= _EXACT_RTOL * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("window", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("case", _CASES.keys())
def test_scan_matches_per_point_estimators(case, eps, window):
    chi, table = _CASES[case]
    for estimator, f, ref in (("exact_arctan", ep.windowed_ratio_exact, _ref_exact),
                              ("cosine_approx", ep.windowed_ratio_approx, _ref_approx)):
        values = ep.scan(chi, eps, _GRID, table, window, estimator=estimator).values
        expected = np.array([ref(float(t), eps, chi, table, window) for t in _GRID])
        points = np.array([f(float(t), eps, chi, table, window) for t in _GRID])
        assert values.dtype == np.float64
        assert values.tobytes() == points.tobytes()
        _assert_exact_close(values, expected)
        empty = ep.scan(chi, eps, np.array([]), table, window, estimator=estimator).values
        assert empty.dtype == np.float64 and empty.size == 0


@pytest.mark.parametrize("window", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("case", _CASES.keys())
def test_point_estimators_match_reference(case, eps, window):
    chi, table = _CASES[case]
    for t in (-4.1, 7.3, 22.0):
        got = ep.windowed_ratio_exact(t, eps, chi, table, window)
        assert type(got) is float
        _assert_exact_close(got, _ref_exact(t, eps, chi, table, window))
        got = ep.windowed_ratio_approx(t, eps, chi, table, window)
        assert type(got) is float
        _assert_exact_close(got, _ref_approx(t, eps, chi, table, window))
        res, want = ep.estimator_residual(t, eps, chi, table, window), _ref_residual(
            t, eps, chi, table, window)
        for name in ("total", "higher_order", "coupled"):
            assert type(getattr(res, name)) is float
            _assert_exact_close(getattr(res, name), getattr(want, name))


@pytest.mark.parametrize("estimator", ("exact_arctan", "cosine_approx"))
def test_point_value_independent_of_grid(estimator):
    # a value depends only on its own t: alone, and inside grids of 2, 21 and 65 points
    chi, table = _CASES["q12"]
    window = _WINDOWS["pstar<pmax"]
    t = 7.3
    alone = ep.scan(chi, 0.2, np.array([t]), table, window, estimator=estimator).values
    for grid in ([9.0], np.round(np.arange(-2.7, 17.4, 1.0), 10), np.linspace(-30.0, 30.0, 64)):
        grid = np.union1d(grid, [t])
        values = ep.scan(chi, 0.2, grid, table, window, estimator=estimator).values
        assert values[np.searchsorted(grid, t)].tobytes() == alone.tobytes()


@pytest.mark.parametrize("p_max", (50_000, 180_617, 10 ** 6))
def test_scan_blocks_match_point_estimators(p_max):
    # grids of 1, B - 1, B, B + 1 and 2B + 1 points and an empty one, B = _BLOCK points a
    # leaf, at q = 12 (2 and 3 dropped): 5,131 primes, under one leaf; 16,390, whose widest
    # leaf is the first half of the split; and 78,496, which take 16 leaves; each scan value
    # has the bytes of its single-point estimator
    chi, table = enumerate_characters(12)[3], sieve_primes(p_max)
    window = ep.WindowParams(p_star=float(p_max), p_max=p_max)
    b = ep._BLOCK
    for estimator, f in (("exact_arctan", ep.windowed_ratio_exact),
                         ("cosine_approx", ep.windowed_ratio_approx)):
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 1):
            grid = np.linspace(-5.0, 25.0, n)
            values = ep.scan(chi, 0.3, grid, table, window, estimator=estimator).values
            points = [f(t, 0.3, chi, table, window) for t in grid.tolist()]
            assert values.tobytes() == _bits(points)


def test_leaf_size_is_the_widest_leaf_of_an_ordered_sum():
    # every count up to 70,000 and those within 128 of 2^k * 8192; at 16,385 the first half,
    # 8,192 terms, is one leaf, while the second splits into leaves of 4,096 and 4,097
    one = np.zeros(1)

    def widest(m):
        seen = [0]
        gp._ordered_sum(lambda lo, k: seen.append(k) or one, 0, m)
        return max(seen)

    counts = list(range(70_001)) + [(8192 << k) + d for k in range(1, 8) for d in range(-128, 129)]
    assert [gp._leaf_size(m) for m in counts] == [widest(m) for m in counts]
    assert gp._leaf_size(16_385) == gp._LEAF


def _mp_arctan_sums(ts, epss, chi, table, window):
    """At 30 digits for every (t, eps), on the same primes and angles: windowed_ratio_exact,
    the residual's higher-order, coupled and total values and windowed_ratio_approx."""
    p, _, th = ep._prime_data(chi, table, p_max=window.p_max)
    with mp.workdps(30):
        lnps = mp.log(window.p_star)
        w, pref = mp.pi / lnps, -lnps / (2 * mp.pi)
        lp = [mp.log(int(x)) for x in p]
        cw, sw = [mp.cos(x * w) for x in lp], [mp.sin(x * w) for x in lp]
        ps = {eps: [mp.mpf(int(x)) ** (mp.mpf(0.5) + eps) for x in p] for eps in epss}
        out = {}
        for t in ts:
            terms = {eps: ([], [], [], []) for eps in epss}
            for i, (x, theta) in enumerate(zip(lp, th.tolist())):
                a = x * t - mp.mpf(theta)
                s, c = mp.sin(a), mp.cos(a)
                sp, cp = s * cw[i] + c * sw[i], c * cw[i] - s * sw[i]
                sm, cm = s * cw[i] - c * sw[i], c * cw[i] + s * sw[i]
                for eps in epss:
                    pse = ps[eps][i]
                    xp, xm = sp / (pse - cp), sm / (pse - cm)
                    exact, higher, coupled, cosine = terms[eps]
                    exact.append(mp.atan(xp) - mp.atan(xm))
                    higher.append((mp.atan(xp) - xp) - (mp.atan(xm) - xm))
                    coupled.append((xp * cp - xm * cm) / pse)
                    cosine.append(c * sw[i] / pse)
            for eps in epss:
                exact, higher, coupled, cosine = (mp.fsum(x) for x in terms[eps])
                out[t, eps] = (float(pref * exact), float(pref * higher), float(pref * coupled),
                               float(pref * (higher + coupled)), float(2 * pref * cosine))
    return out


@pytest.mark.parametrize("p_star", ("1e3", "p_max"))
@pytest.mark.parametrize("q, index, p_max", [(3, 1, 10_000), (5, 1, 15_000), (12, 3, 20_000)])
def test_windowed_ratio_exact_matches_mpmath_oracle(q, index, p_max, p_star):
    chi, table = enumerate_characters(q)[index], sieve_primes(p_max, q)
    window = ep.WindowParams(p_star=1e3 if p_star == "1e3" else float(p_max), p_max=p_max)
    epss = (-0.3, 0.0, 0.4)
    ref = _mp_arctan_sums((-7.3, 180.0), epss, chi, table, window)
    for (t, eps), want in ref.items():
        res = ep.estimator_residual(t, eps, chi, table, window)
        got = (ep.windowed_ratio_exact(t, eps, chi, table, window), res.higher_order,
               res.coupled, res.total, ep.windowed_ratio_approx(t, eps, chi, table, window))
        for g, r in zip(got, want):
            assert abs(g - r) <= _EXACT_RTOL * max(1.0, abs(r)), (t, eps)


_SYM_TABLE = sieve_primes(30_000, 1)
_REAL_CHARS = [chi for q in range(3, 25) for chi in enumerate_characters(q)
               if not chi.is_principal and np.all((chi.k <= 0) | (2 * chi.k == chi.m))]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(chi=st.sampled_from(_REAL_CHARS), eps=st.floats(-0.3, 0.5),
       p_star=st.floats(50.0, 1e5), p_max=st.integers(1_000, 30_000),
       half=st.floats(0.0, 60.0), n=st.integers(1, 12),
       estimator=st.sampled_from(("exact_arctan", "cosine_approx")))
def test_scan_symmetric_under_t_reflection_for_real_characters(chi, eps, p_star, p_max, half, n,
                                                               estimator):
    # real chi: every angle is 0 or pi, so each summand is odd or even in t and v(-t) = v(t)
    grid = np.unique(np.concatenate([np.linspace(-half, 0.0, n), np.linspace(0.0, half, n)]))
    grid = np.unique(np.concatenate([grid, -grid]))
    window = ep.WindowParams(p_star=p_star, p_max=p_max)
    values = ep.scan(chi, eps, grid, _SYM_TABLE, window, estimator=estimator).values
    assert np.max(np.abs(values - values[::-1])) <= 1e-10


def test_ordered_sums_leave_no_reference_cycles():
    chi, table = _CASES["q5"]
    window = _WINDOWS["pstar=pmax"]
    gc.collect()
    gc.disable()
    try:
        gp.gw_log_gamma_phase(SPoint(0.0, 14.0), 1, 20_000)
        gp.gw_dphase_dt(SPoint(0.0, 14.0), 1, 20_000)
        for estimator in ("exact_arctan", "cosine_approx"):
            ep.scan(chi, 0.0, _GRID, table, window, estimator=estimator)
        ep.windowed_ratio_exact(7.3, 0.0, chi, table, window)
        ep.estimator_residual(7.3, 0.0, chi, table, window)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
            for name in ("x_up", "x_down", "x_up_next", "o_plus_li", "o_minus_li"):
                assert _bits(getattr(a, name)) == _bits(getattr(b, name))
            _assert_exact_close((a.o_plus_sum, a.o_minus_sum), (b.o_plus_sum, b.o_minus_sum))


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


@pytest.mark.parametrize("q", (1, 2, 3, 12, 30, 60))
def test_prime_data_matches_masked_copies(q):
    # the kept runs between the primes that divide q, against the mask over the whole table;
    # p_max = 2, 3 and 5 end the table among those primes, and 120,000 keeps the whole table
    table = _TABLES[1]
    for chi in enumerate_characters(q):
        for p_max in (2, 3, 5, 61, 100_003, 120_000):
            got, want = ep._prime_data(chi, table, p_max), _ref_prime_data(chi, table, p_max)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
            assert np.all(np.diff(got[0]) > 0)


def test_prepared_kernel_memory_is_five_prime_arrays(traced_peak):
    # p^sigma, log p, the angles and the sin B, cos B tables, plus the leaf buffer, as wide
    # as the largest leaf (4,906 of the 78,497 primes): 5 rows for a point, and 5 rows of
    # _BLOCK points for a scan; and _window_table's one leaf of scratch.  The residues live
    # only inside _prime_data
    chi, table = enumerate_characters(3)[1], sieve_primes(10 ** 6, 3)
    table.log_primes  # the table's own cache, built once per table
    window = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    kept = ep._prime_data(chi, table, window.p_max)[0].size
    peak = traced_peak(lambda: ep.windowed_ratio_exact(22.0, 0.0, chi, table, window))
    assert peak <= 8 * (5 * kept + 8 * gp._LEAF) + (64 << 10)
    grid = np.linspace(-15.0, 15.0, 301)
    peak = traced_peak(lambda: ep.scan(chi, 0.0, grid, table, window))
    assert peak <= 8 * (5 * kept + 5 * ep._BLOCK * gp._leaf_size(kept) + gp._LEAF) + (64 << 10)
