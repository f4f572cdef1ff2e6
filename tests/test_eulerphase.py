"""Windowed estimators, oscillation ledger and level checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lphase import eulerphase as ep
from lphase.arith import enumerate_characters, sieve_primes
from lphase.errors import DegenerateInputError, DomainError, ResourceLimitError, TruncationError


# --------------------------------------------------------------------------
# the eps floor
# --------------------------------------------------------------------------

def test_eps_floor_guard(chi3, primes_1e5_q3):
    # every estimator rejects eps just below MIN_EPS and a non-finite eps, scan even on an
    # empty grid
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    calls = []
    for eps in (-0.45, math.nextafter(ep.MIN_EPS, -math.inf), math.inf, math.nan):
        calls += [lambda f=f, e=eps: f(1.0, e, chi3, primes_1e5_q3, w)
                  for f in (ep.windowed_ratio_exact, ep.windowed_ratio_approx,
                            ep.estimator_residual)]
        calls += [lambda g=g, e=eps, m=m: ep.scan(chi3, e, g, primes_1e5_q3, w, estimator=m)
                  for g in (np.array([1.0, 2.0]), np.array([]))
                  for m in ("exact_arctan", "cosine_approx")]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    ep.scan(chi3, ep.MIN_EPS, np.array([]), primes_1e5_q3, w)  # MIN_EPS itself is supported


# --------------------------------------------------------------------------
# windowed estimators
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.floats(-1e4, 1e4), q=st.sampled_from([1, 3, 4, 5, 8]), index=st.integers(0, 3))
def test_arctan_denominator_bounded_below_at_min_eps(t, q, index):
    # p^sigma - cos >= 2^0.1 - 1 for p >= 2 and eps >= MIN_EPS: no denominator can vanish
    chars = enumerate_characters(q)
    chi = chars[index % len(chars)]
    p, lp, th = ep._prime_data(chi, sieve_primes(10 ** 4, q), 10 ** 4)
    denom = p ** (0.5 + ep.MIN_EPS) - np.cos(lp * t - th)
    assert np.all(denom >= 2.0 ** 0.1 - 1.0)


def _phase(t, eps, chi, primes):
    # the Euler-product phase, -sum arctan(sin A / (p^sigma - cos A)), A = log(p) t - theta,
    # over the whole table in one numpy sum
    keep = chi.k[primes.primes % chi.q] >= 0
    p, lp = primes.primes[keep].astype(np.float64), primes.log_primes[keep]
    a = lp * t - chi.angles_by_residue()[primes.primes[keep] % chi.q]
    return float(-np.sum(np.arctan(np.sin(a) / (p ** (0.5 + eps) - np.cos(a)))))


def test_windowed_matches_derivative_for_narrow_window(chi3, primes_1e5_q3):
    # a window much narrower than the curvature scale reproduces the exact
    # t-derivative of the same finite sum
    t0, h = 10.0, 1e-5
    fd = (_phase(t0 + h, 1.0, chi3, primes_1e5_q3)
          - _phase(t0 - h, 1.0, chi3, primes_1e5_q3)) / (2 * h)
    narrow = ep.WindowParams(p_star=1e45, p_max=10 ** 5)
    assert abs(ep.windowed_ratio_exact(t0, 1.0, chi3, primes_1e5_q3, narrow) - fd) < 1e-4


def test_exact_approx_agree_in_absolute_regime(chi5_odd, primes_1e5_q5):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    a = ep.windowed_ratio_exact(10.0, 1.0, chi5_odd, primes_1e5_q5, w)
    b = ep.windowed_ratio_approx(10.0, 1.0, chi5_odd, primes_1e5_q5, w)
    assert abs(a - b) < 0.05


def test_approx_term_vanishes_at_pstar():
    table = sieve_primes(2, 1)  # single prime p = 2
    chi1 = enumerate_characters(1)[0]
    w = ep.WindowParams(p_star=2.0, p_max=2)
    assert abs(ep.windowed_ratio_approx(3.7, 0.0, chi1, table, w)) < 1e-14


def test_approx_term_vanishes_at_quarter_turn():
    table = sieve_primes(2, 1)
    chi1 = enumerate_characters(1)[0]
    w = ep.WindowParams(p_star=100.0, p_max=2)
    t = (math.pi / 2.0) / math.log(2.0)  # cos(log(2) t) = 0
    assert abs(ep.windowed_ratio_approx(t, 0.0, chi1, table, w)) < 1e-14


def test_pmax_cut_keeps_prime_pmax(chi3, primes_1e5_q3):
    # primes p <= p_max are summed: p_max = 101 (prime) includes 101, like p_max = 102
    ratio = lambda p_max: ep.windowed_ratio_approx(
        5.0, 0.0, chi3, primes_1e5_q3, ep.WindowParams(p_star=1e3, p_max=p_max))
    assert ratio(101) == ratio(102) != ratio(100)


def test_window_cutoff_past_table_raises(chi3):
    # summing a 1e4 table under a 1e6 cutoff gave the 1e4 value (-0.94912 against -1.14483)
    table, w = sieve_primes(10 ** 4, 3), ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    k_max = ep.max_k_for_bound(10.0, chi3, 1e6)
    calls = [lambda f=f: f(22.0, 0.0, chi3, table, w)
             for f in (ep.windowed_ratio_exact, ep.windowed_ratio_approx,
                       ep.estimator_residual, ep.level_check)]
    calls += [lambda: ep.scan(chi3, 0.0, np.array([22.0]), table, w),
              lambda: ep.build_oscillation_ledger(10.0, 0.0, chi3, table, w, k_max)]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    # the table's own p_max is a valid cutoff
    ep.windowed_ratio_exact(22.0, 0.0, chi3, table, ep.WindowParams(p_star=1e6, p_max=10 ** 4))


def test_spike_present_near_first_zero(chi3, primes_1e5_q3):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    grid = np.arange(5.0, 11.0001, 0.05)
    sc = ep.scan(chi3, 0.0, grid, primes_1e5_q3, w)
    peak_t = float(grid[np.argmax(np.abs(sc.values))])
    assert 7.9 <= peak_t <= 8.2


def test_scan_symmetry_real_character(chi5_real, primes_1e5_q5):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    grid = np.round(np.arange(-3.0, 3.0001, 0.25), 12)
    sc = ep.scan(chi5_real, 0.0, grid, primes_1e5_q5, w)
    assert np.max(np.abs(sc.values - sc.values[::-1])) < 1e-9


def test_windowed_monotone_in_eps(chi3, primes_1e6_q3):
    w = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    v0 = ep.windowed_ratio_exact(20.0, 0.0, chi3, primes_1e6_q3, w)
    v2 = ep.windowed_ratio_exact(20.0, 0.2, chi3, primes_1e6_q3, w)
    assert abs(v2) < abs(v0)


def test_scan_determinism(chi3, primes_1e5_q3):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    grid = np.arange(1.0, 4.0, 0.5)
    a = ep.scan(chi3, 0.0, grid, primes_1e5_q3, w).values
    b = ep.scan(chi3, 0.0, grid, primes_1e5_q3, w).values
    assert np.array_equal(a, b)


def test_scan_rejects_unordered_grid_before_any_prime(chi3, primes_1e5_q3, monkeypatch):
    # the grid is checked before the primes are prepared, so no point is summed in vain
    monkeypatch.setattr(ep, "_prime_data", None)
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for grid in (np.array([3.0, 2.0, 1.0]), np.array([1.0, 1.0])):
        with pytest.raises(DomainError):
            ep.scan(chi3, 0.0, grid, primes_1e5_q3, w)


# --------------------------------------------------------------------------
# residual pieces
# --------------------------------------------------------------------------

def test_residual_is_exact_minus_approx(chi3, primes_1e5_q3):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for t, eps in ((8.04, 0.25), (3.0, 0.0), (14.0, 0.6)):
        r = ep.estimator_residual(t, eps, chi3, primes_1e5_q3, w)
        direct = (ep.windowed_ratio_exact(t, eps, chi3, primes_1e5_q3, w)
                  - ep.windowed_ratio_approx(t, eps, chi3, primes_1e5_q3, w))
        assert r.total == pytest.approx(r.higher_order + r.coupled, abs=1e-15)
        assert r.total == pytest.approx(direct, abs=1e-12)


def test_residual_small_in_absolute_regime(chi3, primes_1e5_q3):
    # at eps = 2 the higher arctan orders decay like p^(-7.5) and stay below
    # 1e-3; the coupled piece decays like p^(-5) and is set by p = 2, ~2e-2
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    r = ep.estimator_residual(5.0, 2.0, chi3, primes_1e5_q3, w)
    assert abs(r.higher_order) < 1e-3
    assert abs(r.total) < 0.05


def test_residual_stable_under_pmax_doubling(chi3):
    small = sieve_primes(10 ** 5, 3)
    large = sieve_primes(2 * 10 ** 5, 3)
    for t in (8.04, 14.0):
        r1 = ep.estimator_residual(t, 0.25, chi3, small,
                                   ep.WindowParams(p_star=1e5, p_max=10 ** 5)).total
        r2 = ep.estimator_residual(t, 0.25, chi3, large,
                                   ep.WindowParams(p_star=1e5, p_max=2 * 10 ** 5)).total
        assert abs(r2 - r1) < 0.01 * abs(r1)


# --------------------------------------------------------------------------
# oscillation boundaries and ledger
# --------------------------------------------------------------------------

def test_boundaries_closed_form(chi3):
    x_up, x_down = ep.oscillation_boundaries(1, 1, math.pi, chi3)
    assert x_up == pytest.approx(math.exp(1.5), rel=1e-14)
    # the cosine really crosses zero upward there
    f = lambda x: math.cos(math.log(x) * math.pi)
    assert f(x_up * 0.999) < 0 < f(x_up * 1.001)
    assert f(x_down * 0.999) > 0 > f(x_down * 1.001)


def test_boundary_interval_widths(chi3):
    t = 10.0
    for k in (18, 20):
        x_up, x_down = ep.oscillation_boundaries(k, 2, t, chi3)
        x_up_next = ep.oscillation_boundaries(k + 1, 2, t, chi3)[0]
        assert x_down - x_up == pytest.approx(math.pi / t * x_up, rel=0.2)
        assert x_down < x_up_next
        assert x_up_next - x_down == pytest.approx(math.pi / t * x_down, rel=0.2)


def test_boundaries_require_positive_t(chi3):
    with pytest.raises(DomainError):
        ep.oscillation_boundaries(1, 1, -2.0, chi3)


def _ledger(chi, primes, t=10.0, eps=0.0, bound=10 ** 6):
    w = ep.WindowParams(p_star=float(primes.p_max), p_max=primes.p_max)
    k_max = ep.max_k_for_bound(t, chi, float(bound))
    return ep.build_oscillation_ledger(t, eps, chi, primes, w, k_max)


def test_ledger_masses_nonnegative_and_ordered(chi3, primes_1e6_q3):
    led = _ledger(chi3, primes_1e6_q3)
    assert led.entries
    for e in led.entries:
        assert e.x_up < e.x_down < e.x_up_next
        assert min(e.o_plus_sum, e.o_minus_sum, e.o_plus_li, e.o_minus_li) >= 0.0
    for h in (1, 2):
        seq = [e for e in led.entries if e.h == h]
        for a, b in zip(seq, seq[1:]):
            assert b.k == a.k + 1
            assert b.x_up == pytest.approx(a.x_up_next, rel=1e-12)  # exact abutment


def test_ledger_single_sign_inside_intervals(chi3, primes_1e6_q3):
    led = _ledger(chi3, primes_1e6_q3)
    p = primes_1e6_q3.primes
    for e in led.entries[-6:]:
        pc = p[p % 3 == e.h].astype(float)
        inside = pc[(pc > e.x_up) & (pc < e.x_down)]
        if inside.size:
            c = np.cos(np.log(inside) * led.t - chi3.angle(e.h))
            assert np.all(c > 0)
        between = pc[(pc > e.x_down) & (pc < e.x_up_next)]
        if between.size:
            c = np.cos(np.log(between) * led.t - chi3.angle(e.h))
            assert np.all(c < 0)


def test_ledger_li_close_to_sum_for_large_k(chi3, primes_1e6_q3):
    led = _ledger(chi3, primes_1e6_q3)
    checked = 0
    for e in led.entries:
        if e.x_up > 1e4:
            assert 0.8 <= e.o_plus_sum / e.o_minus_li <= 1.25
            assert 0.8 <= e.o_minus_sum / e.o_plus_li <= 1.25
            checked += 1
    assert checked >= 10


def test_ledger_masses_shrink_with_eps(chi3, primes_1e6_q3):
    led0 = _ledger(chi3, primes_1e6_q3, eps=0.0)
    led2 = _ledger(chi3, primes_1e6_q3, eps=0.2)
    for a, b in zip(led0.entries, led2.entries):
        for field in ("o_plus_sum", "o_minus_sum", "o_plus_li", "o_minus_li"):
            va, vb = getattr(a, field), getattr(b, field)
            assert vb < va or va == vb == 0.0


def _signed_sum(ledger):
    # the cosine estimator over the covered primes, regrouped: 2 (minus - plus) prime masses
    # summed in (k, h) order
    total = 0.0
    for e in ledger.entries:
        total += 2.0 * (e.o_minus_sum - e.o_plus_sum)
    return total


def test_ledger_reconstruction_identity(chi3, primes_1e6_q3):
    led = _ledger(chi3, primes_1e6_q3)
    lnps = math.log(1e6)
    direct = 0.0
    for h in (1, 2):
        th = chi3.angle(h)
        k0 = min(e.k for e in led.entries if e.h == h)
        lo = math.exp((2 * math.pi * k0 - math.pi / 2 + th) / led.t)
        hi = math.exp((2 * math.pi * (led.k_max + 1) - math.pi / 2 + th) / led.t)
        pc = primes_1e6_q3.primes[primes_1e6_q3.primes % 3 == h].astype(float)
        pc = pc[(pc > lo) & (pc < hi)]
        direct += float(-lnps / math.pi * np.sum(
            np.cos(np.log(pc) * led.t - th) * np.sin(math.pi * np.log(pc) / lnps)
            / np.sqrt(pc)))
    assert _signed_sum(led) == pytest.approx(direct, abs=1e-9)


def test_ledger_ignores_table_modulus(chi5_odd):
    # classes are taken mod chi.q, so a table sieved for q = 1 gives the same ledger
    w = ep.WindowParams(p_star=1e4, p_max=10 ** 4)
    led1 = ep.build_oscillation_ledger(20.0, 0.0, chi5_odd, sieve_primes(10 ** 4), w, 2)
    led5 = ep.build_oscillation_ledger(20.0, 0.0, chi5_odd, sieve_primes(10 ** 4, 5), w, 2)
    assert led1 == led5
    assert _signed_sum(led1) == pytest.approx(-0.4557, abs=1e-4)


def test_ledger_truncation_error(chi3, primes_1e6_q3):
    w = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    largest = ep.max_k_for_bound(10.0, chi3, 1e6)
    with pytest.raises(TruncationError) as err:
        ep.build_oscillation_ledger(10.0, 0.0, chi3, primes_1e6_q3, w, largest + 1)
    assert err.value.largest_valid == largest


def test_ledger_refused_past_entry_budget(chi3, primes_1e6_q3, monkeypatch):
    n = len(_ledger(chi3, primes_1e6_q3).entries)
    monkeypatch.setattr(ep, "_MAX_LEDGER_ENTRIES", n)
    assert len(_ledger(chi3, primes_1e6_q3).entries) == n
    monkeypatch.setattr(ep, "_MAX_LEDGER_ENTRIES", n - 1)
    monkeypatch.setattr(ep, "_prime_data", None)  # counted before any prime is prepared
    with pytest.raises(ResourceLimitError, match=f"of {n} entries"):
        _ledger(chi3, primes_1e6_q3)


@pytest.mark.parametrize("eps", (1e8, 1e300))
def test_ledger_refused_past_li_panel_budget(chi3, primes_1e5_q3, monkeypatch, eps):
    # an interval's Li panels grow like |eps| past t: refused before any prime or node exists
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    k_max = ep.max_k_for_bound(10.0, chi3, 1e5)
    monkeypatch.setattr(ep, "_prime_data", None)
    monkeypatch.setattr(ep, "_li_integral", None)
    with pytest.raises(ResourceLimitError, match="4096-panel budget"):
        ep.build_oscillation_ledger(10.0, eps, chi3, primes_1e5_q3, w, k_max)


def test_li_panel_budget_is_the_widest_interval(chi3, primes_1e5_q3, monkeypatch):
    # the ledger's bound on an interval's panels, max(|z|, 1/log 2) pi / (t _GL_SPAN), is
    # attained within one panel by the intervals `_li_integral` is handed
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    t, k_max = 10.0, ep.max_k_for_bound(10.0, chi3, 1e5)
    li, spans = ep._li_integral, []

    def counted(th, t, eps, lnps, lo, hi):
        a, b = math.log(lo), math.log(hi)
        spans.append(max(math.hypot(0.5 - eps, math.pi / lnps + t), 1.0 / a) * (b - a))
        return li(th, t, eps, lnps, lo, hi)

    monkeypatch.setattr(ep, "_li_integral", counted)
    for eps in (0.0, 0.45, 50.0):
        spans.clear()
        ep.build_oscillation_ledger(t, eps, chi3, primes_1e5_q3, w, k_max)
        bound = max(math.hypot(0.5 - eps, math.pi / math.log(1e5) + t), 1.0 / math.log(2.0))
        widest = max(spans) / ep._GL_SPAN
        assert widest <= bound * math.pi / (t * ep._GL_SPAN) * (1 + 1e-12) < widest + 1
    monkeypatch.setattr(ep, "_MAX_LI_PANELS", math.ceil(widest) - 1)
    with pytest.raises(ResourceLimitError):
        ep.build_oscillation_ledger(t, 50.0, chi3, primes_1e5_q3, w, k_max)


def test_mass_ratios(chi3, primes_1e6_q3):
    led0 = _ledger(chi3, primes_1e6_q3, eps=0.0)
    led1 = _ledger(chi3, primes_1e6_q3, eps=0.1)
    same = ep.oscillation_mass_ratios(led0, led0)
    assert same.plus == 1.0 and same.minus == 1.0
    r = ep.oscillation_mass_ratios(led0, led1)
    assert r.plus < 1.0 and r.minus < 1.0
    gap_small = abs(ep.oscillation_mass_ratios(
        _ledger(chi3, primes_1e6_q3, bound=10 ** 5),
        _ledger(chi3, primes_1e6_q3, eps=0.1, bound=10 ** 5)).plus
        - ep.oscillation_mass_ratios(
        _ledger(chi3, primes_1e6_q3, bound=10 ** 5),
        _ledger(chi3, primes_1e6_q3, eps=0.1, bound=10 ** 5)).minus)
    gap_large = abs(r.plus - r.minus)
    assert gap_large < gap_small


def test_mass_ratio_compatibility_guard(chi3, chi5_odd, primes_1e6_q3, primes_1e5_q5):
    led3 = _ledger(chi3, primes_1e6_q3)
    led5 = _ledger(chi5_odd, primes_1e5_q5, bound=10 ** 5)
    with pytest.raises(DomainError):
        ep.oscillation_mass_ratios(led3, led5)


def test_mass_ratio_degenerate_guard(chi3, primes_1e6_q3):
    w = ep.WindowParams(p_star=1e6, p_max=10 ** 6)
    empty = ep.build_oscillation_ledger(10.0, 0.0, chi3, primes_1e6_q3, w, k_max=-3)
    assert empty.entries == ()
    with pytest.raises(DegenerateInputError):
        ep.oscillation_mass_ratios(empty, empty)


# --------------------------------------------------------------------------
# spikes, level check and the class combination
# --------------------------------------------------------------------------

def test_spikes_colocated_between_estimators(chi3, primes_1e5_q3):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    grid = np.arange(0.5, 30.0001, 0.1)
    exact = ep.scan(chi3, 0.0, grid, primes_1e5_q3, w)
    approx = ep.scan(chi3, 0.0, grid, primes_1e5_q3, w, estimator="cosine_approx")
    top_e = grid[np.argsort(np.abs(exact.values))[-3:]]
    top_a = grid[np.argsort(np.abs(approx.values))[-3:]]
    for te in top_e:
        assert np.min(np.abs(top_a - te)) <= 2.0 * math.pi / math.log(w.p_star)


def test_level_check_defect_off_line(chi5_odd, primes_1e5_q5):
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for t in (5.0, 12.0, 27.0):
        res = ep.level_check(t, 0.5, chi5_odd, primes_1e5_q5, w)
        assert abs(res.defect) < 0.05


def test_level_check_rejects_nonpositive_t(chi3, primes_1e5_q3, monkeypatch):
    # log(t q / 2 pi) needs t > 0; the check comes before any prime is touched
    monkeypatch.setattr(ep, "_prime_data", None)
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for t in (-2.0, 0.0):
        with pytest.raises(DomainError):
            ep.level_check(t, 0.0, chi3, primes_1e5_q3, w)


def test_window_params_validation():
    for p_star in (1.0, math.inf):
        with pytest.raises(DomainError):
            ep.WindowParams(p_star=p_star, p_max=100)
    with pytest.raises(DomainError):
        ep.WindowParams(p_star=100.0, p_max=1)
    ep.WindowParams(p_star=math.exp(math.pi), p_max=100)


def test_window_params_reject_nan_p_star():
    with pytest.raises(DomainError):
        ep.WindowParams(p_star=math.nan, p_max=100)


# --------------------------------------------------------------------------
# non-finite t and large eps
# --------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_non_finite_t_refused(chi3, primes_1e5_q3, monkeypatch):
    # every eulerphase function of t refuses +-inf and NaN, before any prime is prepared
    monkeypatch.setattr(ep, "_prime_data", None)
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for t in (math.inf, -math.inf, math.nan):
        calls = [lambda f=f: f(t, 0.0, chi3, primes_1e5_q3, w)
                 for f in (ep.windowed_ratio_exact, ep.windowed_ratio_approx,
                           ep.estimator_residual, ep.level_check)]
        calls += [lambda: ep.max_k_for_bound(t, chi3, 1e5),
                  lambda: ep.build_oscillation_ledger(t, 0.0, chi3, primes_1e5_q3, w, 1),
                  lambda: ep.oscillation_boundaries(1, 1, t, chi3)]
        for call in calls:
            with pytest.raises(DomainError):
                call()


def test_max_k_for_bound_refuses_non_finite_bound(chi3):
    for bound in (math.inf, math.nan):
        with pytest.raises(DomainError):
            ep.max_k_for_bound(10.0, chi3, bound)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", ([1.0, math.nan], [math.nan, 1.0], [math.nan],
                                  [1.0, math.inf], [-math.inf, 1.0]))
def test_scan_refuses_non_finite_grid_points(grid, chi3, primes_1e5_q3, monkeypatch):
    monkeypatch.setattr(ep, "_prime_data", None)
    w = ep.WindowParams(p_star=1e5, p_max=10 ** 5)
    for estimator in ("exact_arctan", "cosine_approx"):
        with pytest.raises(DomainError):
            ep.scan(chi3, 0.0, np.array(grid), primes_1e5_q3, w, estimator=estimator)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_eps_runs_without_overflow_warning(chi3, primes_1e5_q3):
    # at eps = 100, p^sigma passes the float range from p = 1,171 on; those terms are the 0
    # they round to, so each value matches the one over the primes to 1,000, where every
    # p^sigma is finite
    eps, t = 100.0, 10.0
    w, w_small = (ep.WindowParams(p_star=1e5, p_max=p_max) for p_max in (10 ** 5, 1000))
    for f in (ep.windowed_ratio_exact, ep.windowed_ratio_approx):
        got, want = f(t, eps, chi3, primes_1e5_q3, w), f(t, eps, chi3, primes_1e5_q3, w_small)
        assert want != 0.0 and got == pytest.approx(want, rel=1e-14)
    res = ep.estimator_residual(t, eps, chi3, primes_1e5_q3, w)
    assert math.isfinite(res.total)
    assert np.all(np.isfinite(ep.scan(chi3, eps, np.array([1.0, 2.0]), primes_1e5_q3, w).values))
    k_max = ep.max_k_for_bound(t, chi3, 1e5)
    ledger = ep.build_oscillation_ledger(t, eps, chi3, primes_1e5_q3, w, k_max)
    assert ledger.entries and all(math.isfinite(e.o_plus_sum) for e in ledger.entries)
