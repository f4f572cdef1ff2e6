"""The prepared-prime estimator kernels against the per-call code they replaced.  Every
sine and cosine of log(p) t - theta comes from one tan of the half angle, and the arctan
increments reach their window endpoints by angle addition, so both estimators, both
residual pieces and the ledger's prime-sum masses must match the per-call
np.sin/np.cos sums within 2e-12 relative, and every estimator a 30-digit mpmath evaluation;
the ledger's boundaries and Li masses are equal bit for bit, and a scan value must equal
its own per-point value bit for bit inside any grid.  `_ref_kernel` keeps the kernel that
prepared all its primes before it summed any: the kernel that prepares each leaf in turn
must reproduce it byte for byte in every mode."""

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
    lp = np.log(p)
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


# the kernel as it stood before its loops were inverted: the primes prepared once per call into
# five arrays as long as the kept primes (`_ref_prime_data`, bit for bit the runs copy it
# used, and `_ref_window_table`), and each block of points summed over every leaf in turn

def _ref_window_table(lp, lnps):
    # sin B and cos B, B = pi log p / log p*: the window's fixed rotation of each prime,
    # filled leaf by leaf, so that _sin_cos needs one leaf of scratch
    sin_b, cos_b, d = np.empty_like(lp), np.empty_like(lp), np.empty(gp._LEAF)
    for lo in range(0, lp.size, gp._LEAF):
        i = slice(lo, lo + gp._LEAF)
        b = np.divide(np.multiply(math.pi, lp[i], sin_b[i]), lnps, sin_b[i])
        ep._sin_cos(b, b, cos_b[i], d[:b.size])
    return sin_b, cos_b


def _ref_kernel(mode: str, eps: float, chi, primes, window, t) -> np.ndarray:
    ep._check_eps(eps)
    t = np.reshape(t, (-1, 1))
    ep._check_t(t)
    p, lp, th = _ref_prime_data(chi, primes, window.p_max)
    with np.errstate(over="ignore"):
        p_sigma = np.power(p, 0.5 + eps, out=p)
    lnps = math.log(window.p_star)
    scale = -lnps / (math.pi if mode == "cosine_approx" else 2.0 * math.pi)
    sin_w, cos_w = _ref_window_table(lp, lnps)
    buf = np.empty((ep._ROWS[mode], min(ep._BLOCK, t.size), gp._leaf_plan(lp.size)[1]))

    def leaf(lo: int, m: int) -> np.ndarray:  # on the block tb of the loop below
        views, i = buf[:, :tb.size, :m], slice(lo, lo + m)
        s, c, d = views[:3]
        a = np.subtract(np.multiply(lp[i], tb, s), th[i], s)
        if mode == "cosine_approx":  # the leading term cos A sin B / p^sigma of each increment
            ep._cos(a, s, c, d)
            return np.divide(np.multiply(c, sin_w[i], c), p_sigma[i], c)
        ep._sin_cos(a, s, c, d)
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

    sums = []
    for k in range(0, t.size, ep._BLOCK):
        tb = t[k:k + ep._BLOCK]
        sums.append(gp._ordered_sum(leaf, 0, lp.size))
    return scale * np.concatenate(sums, axis=-1) if sums else np.empty(0)


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
    # leaf, at q = 12 (2 and 3 dropped): 5,131 primes, under one leaf; 16,390, just past two
    # full leaves, which take 4 leaves of up to 4,098; and 78,496, which take 16 leaves; each
    # scan value has the bytes of its single-point estimator
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


_KERNEL_TABLE = sieve_primes(10 ** 6)


@pytest.mark.parametrize("q", (1, 3, 12, 60))
def test_kernel_matches_reference_kernel_bit_for_bit(q):
    # every mode against the kernel that prepared whole prime arrays, byte for byte: p_max
    # = 5e4, 1e5 and 1e6 keep primes in 1, 2 and 16 leaves (the primes that divide q in leaf
    # 0), and 2, 3 and 5 end among those primes, for every character; eps = 100 makes
    # p^sigma inf from p = 1,171 on; grids of 1, B - 1, B, B + 1 and 5B + 1 points, B = _BLOCK
    chars = enumerate_characters(q)
    grids = [np.linspace(-7.5, 30.0, n) for n in (1, 3, 4, 5, 21)]
    for p_max, leaves in ((2, 1), (3, 1), (5, 1), (50_000, 1), (100_000, 2), (10 ** 6, 16)):
        window = ep.WindowParams(p_star=1e5, p_max=p_max)
        assert gp._leaf_plan(_ref_prime_data(chars[-1], _KERNEL_TABLE, p_max)[0].size)[0] == leaves
        for chi in chars if p_max < 10 else chars[-1:]:
            for eps in (0.0, 0.2, -0.3, 100.0):
                for mode in ("exact_arctan", "cosine_approx", "residual"):
                    for grid in grids:
                        got = ep._kernel(mode, eps, chi, _KERNEL_TABLE, window, grid)
                        want = _ref_kernel(mode, eps, chi, _KERNEL_TABLE, window, grid)
                        assert got.shape == want.shape and _bits(got) == _bits(want), (
                            chi, p_max, eps, mode, grid.size)


def test_ordered_sum_walks_one_equal_leaf_plan():
    # every count up to 70,000 and those within 128 of 2^k * 8192: the leaves `_ordered_sum`
    # visits are contiguous and ascending from lo, cover the m summands, number the fewest
    # power of two that keeps each within _LEAF, and none is wider than the width the
    # kernel's leaf buffer takes from `_leaf_plan`
    one, lo = np.zeros(1), 3

    def leaves(m):
        seen = []
        gp._ordered_sum(lambda a, k: seen.append((a, k)) or one, lo, m)
        return seen

    counts = list(range(70_001)) + [(8192 << k) + d for k in range(1, 8) for d in range(-128, 129)]
    for m in counts:
        seen, (n, width) = leaves(m), gp._leaf_plan(m)
        assert [a for a, _ in seen] == [lo + sum(k for _, k in seen[:j]) for j in range(n)]
        assert sum(k for _, k in seen) == m and len(seen) == n and n & (n - 1) == 0
        assert n == 1 or (n // 2) * gp._LEAF < m
        assert max(k for _, k in seen) <= width <= gp._LEAF
    # the eulerphase tables' leaf counts, and their widths, each at most the widest leaf of
    # numpy's pairwise split (4,799, 4,503, 4,913 and 5,194); 16,385 summands take 4 leaves
    assert [gp._leaf_plan(m) for m in (9_591, 17_983, 78_497, 664_578, 16_385)] == [
        (2, 4_796), (4, 4_496), (16, 4_907), (128, 5_193), (4, 4_097)]


def _mp_arctan_sums(ts, epss, chi, table, window):
    """At 30 digits for every (t, eps), on the same primes and angles: windowed_ratio_exact,
    the residual's higher-order, coupled and total values and windowed_ratio_approx."""
    p, _, th = _ref_prime_data(chi, table, p_max=window.p_max)
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


@pytest.mark.parametrize("points", (1, 301))
def test_kernel_prepares_each_leaf_once(monkeypatch, points):
    # one preparation a leaf, whatever the grid: 16 for the 78,497 primes of q = 3 to 1e6
    chi, table = enumerate_characters(3)[1], _KERNEL_TABLE
    window = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    kept = _ref_prime_data(chi, table, window.p_max)[0].size
    n, calls = gp._leaf_plan(kept)[0], []
    prime_data = ep._prime_data

    def counted(*args):
        calls.append(args[3])
        return prime_data(*args)

    monkeypatch.setattr(ep, "_prime_data", counted)
    grid = np.linspace(-15.0, 15.0, points)
    for mode in ("exact_arctan", "cosine_approx", "residual"):
        calls.clear()
        ep._kernel(mode, 0.0, chi, table, window, grid)
        assert calls == [j * kept // n for j in range(n)] and n == 16


@pytest.mark.parametrize("q", (1, 2, 3, 12, 30, 60))
def test_prime_data_matches_masked_copies(q):
    # the kept runs between the primes that divide q, against the mask over the whole table,
    # and the window rows against the reference table; p_max = 2, 3 and 5 end the table among
    # those primes, and 120,000 keeps the whole table.  Each range of kept primes, a leaf or
    # any other, is the same slice of the whole, since every row is elementwise
    table, lnps = _TABLES[1], math.log(1e4)
    for chi in enumerate_characters(q):
        angles = chi.angles_by_residue()
        for p_max in (2, 3, 5, 61, 100_003, 120_000):
            runs = ep._runs(chi, table, p_max)
            kept = runs[-1][1]
            got = ep._prime_data(angles, table, runs, 0, np.empty((6, kept)), lnps)
            want = _ref_prime_data(chi, table, p_max)
            want += _ref_window_table(want[1], lnps)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
            assert np.all(np.diff(got[0]) > 0)
            for lo, hi in ((0, 1), (0, 2), (1, 2), (kept // 3, kept - 1), (kept - 1, kept)):
                if 0 <= lo < hi <= kept:
                    part = ep._prime_data(angles, table, runs, lo, np.empty((6, hi - lo)),
                                          lnps)
                    assert part.tobytes() == np.ascontiguousarray(got[:, lo:hi]).tobytes()


def test_kernel_memory_is_leaf_bounded(traced_peak):
    # a call holds six prepared rows and its mode's _ROWS rows of up to _BLOCK points, each as
    # wide as the widest leaf (4,907 of the 78,497 primes to 1e6), and no array as long as
    # the kept primes; the residues of a leaf live in its sixth row, and the table caches
    # nothing.  The residual's leaf also holds the two outputs of _x_minus_arctan, the
    # |x| < 0.1 mask of the second and its three series arrays, at most one cell each:
    # 41 bytes a cell of a block, not bounded by _ROWS
    chi = enumerate_characters(3)[1]
    tables = [sieve_primes(p_max, 3) for p_max in (10 ** 6, 2 * 10 ** 6)]
    windows = [ep.WindowParams(p_star=1e6, p_max=table.p_max) for table in tables]
    width = gp._leaf_plan(_ref_prime_data(chi, tables[0], 10 ** 6)[0].size)[1]
    grid = np.linspace(-15.0, 15.0, 301)
    for mode in ("exact_arctan", "cosine_approx", "residual"):
        scratch = (2 * 8 + 1 + 3 * 8) if mode == "residual" else 0
        for t, points in (([22.0], 1), (grid, ep._BLOCK)):
            peak = traced_peak(lambda: ep._kernel(mode, 0.0, chi, tables[0], windows[0], t))
            assert peak <= (8 * width * (6 + ep._ROWS[mode] * points)
                            + scratch * width * points + (64 << 10))
    # twice the primes: 32 leaves of at most 4,655, so no more memory than 16 of 4,907
    peaks = [traced_peak(lambda i=i: ep.windowed_ratio_exact(22.0, 0.0, chi, tables[i], windows[i]))
             for i in (0, 1)]
    assert abs(peaks[1] - peaks[0]) < 8 * gp._LEAF
