"""L, xi, eta and zero machinery against series oracles and mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

from lphase import arith, gammaphase, lfunction as lf
from lphase.arith import SPoint, enumerate_characters
from lphase.errors import DomainError, NumericalInstabilityError, ResourceLimitError

mp.mp.dps = 30


# --------------------------------------------------------------------------
# L-series values
# --------------------------------------------------------------------------

def _alternating_oracle(exponent, n_terms=2 * 10 ** 5):
    # sum over odd n of (-1)^((n-1)/2) / n^exponent; averaging successive
    # partial sums accelerates the alternating tail far below 1e-9
    n = np.arange(n_terms)
    terms = (-1.0) ** n / (2.0 * n + 1.0) ** exponent
    partial = np.cumsum(terms)
    for _ in range(12):
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[-1])


def test_catalan_value(chi4):
    got = lf.l_eval(SPoint(1.5, 0.0), chi4)
    assert got.abs_err_estimate < 1e-10
    assert got.value.real == pytest.approx(_alternating_oracle(2.0), abs=1e-9)
    assert abs(got.value.imag) < 1e-15


def test_l_at_one_blocked_oracle(chi3):
    # period blocks 1/(3k+1) - 1/(3k+2) converge absolutely
    k = np.arange(4 * 10 ** 6, dtype=np.float64)
    blocked = float(np.sum(1.0 / (3.0 * k + 1.0) - 1.0 / (3.0 * k + 2.0)))
    tail = 1.0 / (3.0 * 4e6)  # sum_{k>K} 3/(3k)^2 ~ 1/(3K)
    got = lf.l_eval(SPoint(0.5, 0.0), chi3).value
    assert abs(got.real - blocked) < 2 * tail
    assert got.real == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-12)


def test_principal_reduction_at_two():
    chi = enumerate_characters(2)[0]
    got = lf.l_eval(SPoint(1.5, 0.0), chi).value
    zeta2 = float(np.sum(1.0 / np.arange(1, 10 ** 6, dtype=np.float64) ** 2)) \
        + 1.0 / 10 ** 6  # tail: 1/N - 1/(2N^2) + ...
    assert got.real == pytest.approx(zeta2 * (1 - 0.25), abs=1e-6)
    assert got.real == pytest.approx(math.pi ** 2 / 8, abs=1e-12)


def test_l_eval_raises_when_tol_is_unmet(chi3, monkeypatch):
    # the 50-term head leaves an estimate near 4e-32, far above this tolerance
    assert lf.l_eval(SPoint(0.0, 10.0), chi3).abs_err_estimate <= 1e-10
    monkeypatch.setattr(lf, "_L_TOL", 1e-300)
    with pytest.raises(NumericalInstabilityError, match="exceeds tol"):
        lf.l_eval(SPoint(0.0, 10.0), chi3)


@pytest.mark.parametrize("q", (3, 13, 29))
def test_l_eval_first_head_meets_tolerance(q):
    # l_eval takes one head of _em_head(|t|) terms; its estimate stays far below _L_TOL
    # from t = 0 to 1e4 across the strip
    chi = next(c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal)
    for t in (0.0, 14.13, 1e3, 1e4):
        for eps in (-0.49, 0.0, 0.49):
            assert lf.l_eval(SPoint(eps, t), chi).abs_err_estimate <= 1e-12


def test_principal_strip_rejected():
    chi = enumerate_characters(2)[0]
    with pytest.raises(DomainError):
        lf.l_eval(SPoint(0.3, 1.0), chi)


def _mpmath_l(chi, eps, t):
    s = complex(0.5 + eps, t)
    q = chi.q
    return complex(mp.fsum(
        [mp.mpc(chi.value(r)) * mp.zeta(s, mp.mpf(r) / q) for r in range(1, q)],
    ) * mp.power(q, -s))


def test_l_values_against_mpmath(chi3, chi5_odd):
    # chi mod 13 has 12 unit classes; numpy sums a one-point head block in a different
    # order from a multi-point one, so both paths are checked
    ts = (2.0, 17.0, 55.0)
    chi13 = enumerate_characters(13)[1]
    for chi in (chi3, chi5_odd, chi13):
        for eps, t in zip((-0.3, 0.0, 0.4), ts):
            ref = _mpmath_l(chi, eps, t)
            got = lf.l_on_grid(chi, eps, np.array([t]))[0]
            assert abs(got - ref) < 1e-12 * (1 + abs(ref))
    for t, got in zip(ts, lf.l_on_grid(chi13, 0.0, np.array(ts)), strict=True):
        ref = _mpmath_l(chi13, 0.0, t)
        assert abs(got - ref) < 1e-12 * (1 + abs(ref))


@pytest.mark.parametrize("run, dtype, rows", [
    (lambda chi, t: gammaphase.gamma_phase(t, 0.0, chi.parity), np.float64, False),
    (lambda chi, t: gammaphase.gamma_log_abs(t, 0.0, chi.parity), np.float64, False),
    (lambda chi, t: lf.l_on_grid(chi, 0.0, t), np.complex128, False),
    (lambda chi, t: lf.xi_on_grid(chi, 0.0, t), np.complex128, True),
    (lambda chi, t: lf.eta_on_grid(chi, 0.0, t)[0], np.complex128, True),
    (lambda chi, t: lf.eps_slope_on_grid(chi, t), np.float64, True),
    (lambda chi, t: lf.angular_momentum_on_grid(chi, 0.0, t), np.float64, True),
], ids=["gamma_phase", "gamma_log_abs", "l_on_grid", "xi_on_grid",
        "eta_on_grid", "eps_slope_on_grid", "angular_momentum_on_grid"])
def test_empty_grid_gives_empty_result(run, dtype, rows, chi5_odd):
    out = run(chi5_odd, np.array([]))
    assert out.shape == (0,) and out.dtype == dtype
    if rows:  # a tuple of characters (both parities mod 5) gives one empty row each
        chis = tuple(c for c in enumerate_characters(5) if not c.is_principal)
        out = run(chis, np.array([]))
        assert out.shape == (3, 0) and out.dtype == dtype


# --------------------------------------------------------------------------
# completed function
# --------------------------------------------------------------------------

def _xi(s, chi):
    # xi at one point: a one-point grid
    return complex(lf.xi_on_grid(chi, s.eps, np.array([s.t]))[0])


def test_functional_equation_q3(chi3):
    s = SPoint(0.2, 5.0)
    lhs = _xi(SPoint(-0.2, -5.0), chi3.conjugate())  # xi(1-s, conj chi)
    w = (1j ** chi3.parity) * math.sqrt(3) / arith.gauss_sum(chi3)
    rhs = w * _xi(s, chi3)
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)
    assert abs(abs(lhs) - abs(rhs)) < 1e-8 * abs(rhs)


def test_functional_equation_random_characters(rng):
    count = 0
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 13):
        for chi in enumerate_characters(q):
            if not chi.is_primitive or chi.is_principal:
                continue
            eps = float(rng.uniform(-0.3, 0.3))
            t = float(rng.uniform(1.0, 20.0))
            lhs = _xi(SPoint(-eps, -t), chi.conjugate())
            w = (1j ** chi.parity) * math.sqrt(q) / arith.gauss_sum(chi)
            rhs = w * _xi(SPoint(eps, t), chi)
            assert abs(lhs - rhs) < 1e-6 * abs(rhs)
            count += 1
            if count >= 20:
                return
    assert count >= 20


def test_xi_real_axis_symmetry(chi5_real):
    # real coefficients: xi(conj s) = conj xi(s)
    a = _xi(SPoint(0.15, 6.0), chi5_real)
    b = _xi(SPoint(0.15, -6.0), chi5_real)
    assert abs(a - b.conjugate()) < 1e-12 * abs(a)


def test_xi_requires_primitive(monkeypatch):
    calls = [lambda chi: _xi(SPoint(0.0, 1.0), chi),
             lambda chi: lf.eta_on_grid(chi, 0.0, np.array([1.0])),
             lambda chi: lf.eps_slope_on_grid(chi, np.array([1.0])),
             lambda chi: lf.angular_momentum_eps_slope(1.0, chi),
             lambda chi: lf.find_zeros_on_line(chi, 0.0, 1.0, 0.5)]
    for call in calls:
        with pytest.raises(DomainError):
            call(enumerate_characters(3)[0])
        with pytest.raises(DomainError):
            call(enumerate_characters(9)[3])  # induced, not primitive

    # a tuple is one modulus, not empty, and (for xi and eta) primitive non-principal only;
    # it is refused before any head is built
    def no_head(*args):
        raise AssertionError("a head was built for a refused tuple")
    monkeypatch.setattr(lf, "_log_gamma_grid", no_head)
    monkeypatch.setattr(lf, "_column_blocks", no_head)
    chi5, chi9 = enumerate_characters(5), enumerate_characters(9)
    empty, mixed = (), (chi5[1], enumerate_characters(7)[1])
    principal, induced = (chi5[1], chi5[0]), (chi9[1], chi9[3])
    t = np.array([1.0, 2.0])
    calls = [lambda c: lf.xi_on_grid(c, 0.0, t), lambda c: lf.eta_on_grid(c, 0.0, t),
             lambda c: lf.eps_slope_on_grid(c, t), lambda c: lf.angular_momentum_on_grid(c, 0.0, t)]
    for call in calls:
        for chis in (empty, mixed, principal, induced):
            with pytest.raises(DomainError):
                call(chis)
    # the L kernel takes an induced character, and a principal one alone (l_eval, eps > 1/2)
    for chis in (empty, mixed, principal):
        with pytest.raises(DomainError):
            lf._l_values(chis, 2.0 + 1j * t)


_C7_GRID, _C9_GRID = np.arange(0.5, 20.0001, 0.1), np.arange(0.5, 30.0001, 0.05)


# The tuple path depends on q only through its shapes: the rows of one parity (the
# characters) and the classes.  q <= 16 reaches 1 to 6 rows and 2 to 12 classes; q = 17 adds
# 7 and 8 rows (a one-point float64 column of 8 fills a whole 512-bit vector), 16 classes
# and a 15-row tuple of both parities.  Moduli 18 to 30 add at most more rows and classes
# on these same paths, and none of them has three prime factors and a primitive character,
# so the q17-30 half runs q = 17 alone.
@pytest.mark.parametrize("q_range", [range(3, 17), (17,)], ids=["q3-16", "q17-30"])
def test_character_tuple_rows_are_single_calls(q_range):
    # every primitive non-principal chi of the moduli, grouped by modulus and parity, on the
    # grids of criteria 7 and 9 and on one point: each row has the single call's bytes
    runs = [(lambda c, t: lf.xi_on_grid(c, 0.0, t), (_C7_GRID,)),
            (lambda c, t: lf.eta_on_grid(c, 0.0, t)[0], (_C7_GRID,)),
            (lambda c, t: lf.angular_momentum_on_grid(c, 0.0, t), (_C7_GRID,)),
            (lambda c, t: lf.eps_slope_on_grid(c, t), (_C9_GRID,))]
    point = np.array([14.25])
    for q in q_range:
        prim = [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
        for chis in {tuple(c for c in prim if c.parity == p) for p in (0, 1)} - {()}:
            for run, grids in runs:
                for t in grids + (point,):
                    rows = run(chis, t)
                    assert rows.shape == (len(chis), t.size)
                    for chi, row in zip(chis, rows, strict=True):
                        assert row.tobytes() == run(chi, t).tobytes()
            # criterion 8 reads the single-point angular momentum: the grouped ladder's bytes
            rows = lf.angular_momentum_on_grid(chis, 1e-4, point)
            for chi, row in zip(chis, rows, strict=True):
                got = lf.angular_momentum(SPoint(1e-4, float(point[0])), chi)
                assert np.array([got]).tobytes() == row.tobytes()
    # both parities in one tuple: each row takes its own parity's Gamma head
    chis = tuple(c for c in enumerate_characters(q_range[0]) if c.is_primitive)
    for chi, row in zip(chis, lf.xi_on_grid(chis, 0.2, _C7_GRID), strict=True):
        assert row.tobytes() == lf.xi_on_grid(chi, 0.2, _C7_GRID).tobytes()


# --------------------------------------------------------------------------
# eta on the line
# --------------------------------------------------------------------------

def test_eta_real_on_line(chi3):
    vals, half = lf.eta_on_grid(chi3, 0.0, np.array([5.0]))
    eta = complex(vals[0])
    assert abs(eta.imag) < 1e-8 * abs(eta)
    assert half == lf.normalizer_phase(chi3)
    assert half == pytest.approx(0.0, abs=1e-15)  # tau = i sqrt(3)


def test_zero_scan_grid_within_point_budget(chi3, monkeypatch):
    # the grid's point count is checked before np.arange would try to allocate 2e16 points
    with pytest.raises(ResourceLimitError):
        lf.find_zeros_on_line(chi3, 0.0, 1e15, 0.05)
    # a NaN or an infinite bound or step is invalid input, not an over-budget request
    inf = math.inf
    for bounds in ((0.0, math.nan, 0.05), (math.nan, 1.0, 0.05), (0.0, 1.0, math.nan),
                   (0.0, inf, 0.05), (-inf, 1.0, 0.05), (-inf, inf, 0.05), (0.0, 30.0, inf)):
        with pytest.raises(DomainError):
            lf.find_zeros_on_line(chi3, *bounds)
    # a budget of 5 points admits 0, 1, ..., 4 and refuses 0, 1, ..., 5
    monkeypatch.setattr(lf, "_GRID_POINTS", 5)
    assert lf._uniform_grid(0.0, 4.0, 1.0).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ResourceLimitError):
        lf._uniform_grid(0.0, 5.0, 1.0)


def test_heads_refused_past_row_budget_before_allocating(chi3, monkeypatch, traced_peak):
    # a head of more than _MAX_HEAD_ROWS rows raises before any row array is built: at a
    # budget of 1000 rows, t = 1e5 would build L and Gamma heads of about 1e5 and 2e5 rows
    t = np.array([1.0e5, 1.0e5 + 0.5])
    assert gammaphase._column_blocks(2, gammaphase._MAX_HEAD_ROWS) == [slice(0, 2)]
    with pytest.raises(ResourceLimitError):
        gammaphase._column_blocks(2, gammaphase._MAX_HEAD_ROWS + 1)
    monkeypatch.setattr(gammaphase, "_MAX_HEAD_ROWS", 1000)
    for f in (lambda: lf.l_on_grid(chi3, 0.0, t), lambda: lf.xi_on_grid(chi3, 0.0, t),
              lambda: gammaphase.gamma_phase(t, 0.0, 1)):
        def refused():
            with pytest.raises(ResourceLimitError):
                f()
        assert traced_peak(refused) <= 64 * 1024


def test_normalizer_phase_takes_one_gauss_sum_per_character(monkeypatch):
    # a zero scan calls Z once for the grid and once per bisection level; tau(chi) once
    chi = enumerate_characters(13)[1]
    calls = []
    monkeypatch.setattr(lf, "gauss_sum", lambda c: calls.append(c) or arith.gauss_sum(c))
    lf.normalizer_phase.cache_clear()
    assert len(lf.find_zeros_on_line(chi, 0.0, 10.0, 0.05)) >= 2
    assert calls == [chi]
    assert lf.normalizer_phase(chi) == lf.normalizer_phase.__wrapped__(chi)


def test_eta_realness_all_primitive_up_to_13():
    grid = np.linspace(0.5, 20.0, 1000)
    for q in range(3, 14):
        for chi in enumerate_characters(q):
            if chi.is_primitive and not chi.is_principal:
                eta, _ = lf.eta_on_grid(chi, 0.0, grid)
                assert np.max(np.abs(eta.imag) / np.maximum(np.abs(eta), 1e-12)) < 1e-7


def test_eta_sign_changes_bracket_zeros(chi3, chi4):
    vals3 = lf.eta_on_grid(chi3, 0.0, np.array([8.0, 8.1]))[0].real
    assert vals3[0] * vals3[1] < 0
    vals4 = lf.eta_on_grid(chi4, 0.0, np.array([5.9, 6.2]))[0].real
    assert vals4[0] * vals4[1] < 0


# --------------------------------------------------------------------------
# angular momentum
# --------------------------------------------------------------------------

def test_angular_momentum_vanishes_on_line(chi3):
    for t in (3.0, 5.0, 10.0):
        lm = lf.angular_momentum(SPoint(0.0, t), chi3)
        xi = abs(_xi(SPoint(0.0, t), chi3))
        assert abs(lm) < 1e-6 * xi ** 2 * math.log(t)


def test_angular_momentum_equals_modulus_times_phase_derivative(chi5_odd):
    s = SPoint(0.3, 7.0)
    lm = lf.angular_momentum(s, chi5_odd)
    xi = _xi(s, chi5_odd)
    rhs = abs(xi) ** 2 * lf.xi_phase_dt(chi5_odd, 0.3, 7.0)
    assert lm == pytest.approx(rhs, rel=1e-8)


def test_eps_slope_two_routes(chi3):
    r = lf.angular_momentum_eps_slope(5.0, chi3)
    assert r.value == pytest.approx(0.0031339021, rel=1e-5)  # frozen mpmath oracle
    assert r.cross_check == pytest.approx(r.value, rel=1e-4)


def test_eps_slope_positive_at_zero(chi3):
    zero = lf.find_zeros_on_line(chi3, 7.9, 8.2, 0.05)[0].t_zero
    r = lf.angular_momentum_eps_slope(zero, chi3)
    assert abs(r.eta) < 1e-8
    assert r.value > 0  # collapses to (eta')^2 at a zero


def test_eps_slope_grid_positive(chi3):
    grid = np.arange(0.5, 12.0, 0.25)
    vals = lf.eps_slope_on_grid(chi3, grid)
    assert np.all(vals > 0)


def _mpmath_eta(chi):
    """eta(t) = exp(i half) xi(1/2 + it) at mpmath's working precision, with L from Hurwitz
    zeta values and the character values as mpc (mp.dirichlet with Python complex values
    has given a wrong result)."""
    q, a = chi.q, chi.parity
    vals = [mp.expjpi(mp.mpf(2 * k) / chi.m) if k >= 0 else mp.mpc(0) for k in chi.k.tolist()]
    tau = mp.fsum(v * mp.expjpi(mp.mpf(2 * n) / q) for n, v in enumerate(vals))
    rot = mp.expj(mp.arg(mp.j ** a * mp.sqrt(q) / tau) / 2)

    def eta(t):
        s = mp.mpf(0.5) + mp.j * t
        lval = mp.power(q, -s) * mp.fsum(v * mp.zeta(s, mp.mpf(r) / q)
                                         for r, v in enumerate(vals) if r and v != 0)
        return rot * (q / mp.pi) ** ((s + a) / 2) * mp.gamma((s + a) / 2) * lval
    return eta


def _mpmath_eps_slope(eta, t):
    """(eta')^2 - eta*eta'' at t from mp.diff of eta at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(t)
        return float((mp.diff(eta, x, 1) ** 2 - eta(x) * mp.diff(eta, x, 2)).real)


def test_eps_slope_on_grid_against_mpmath(chi3):
    # the five-point stencils at small t, where their error is largest: on the five points
    # alone (measured 6e-9 to 2.5e-7 relative) and inside the benchmark's 3,991-point grid
    # on [0.5, 200], whose larger L head changes eta's rounding by about 1e-14 and the
    # stencils' result by up to 2.4e-6 (errors 1.5e-6 at t = 0.5, 2.3e-6 at 0.55, 4.6e-7
    # at 1, 7.2e-8 at 5 and 8.3e-9 at 10)
    grid = np.arange(0.5, 200.0001, 0.05)
    pick = [0, 1, 10, 90, 190]
    eta = _mpmath_eta(chi3)
    want = [_mpmath_eps_slope(eta, t) for t in grid[pick].tolist()]
    for got in (lf.eps_slope_on_grid(chi3, grid[pick]), lf.eps_slope_on_grid(chi3, grid)[pick]):
        assert np.all(np.abs(got - want) <= 5e-6 * np.abs(want)), (got, want)


def test_eps_slope_against_mpmath_next_to_zeros(chi3, chi5_odd):
    # (eta')^2 - eta*eta'' on the first zeros of the odd chi mod 3 and mod 5 and 3e-5 past
    # them, where |eta| is far below |eta'| times the stencil step, against mp.diff of a
    # 40-digit eta
    for chi, n_zeros in ((chi3, 4), (chi5_odd, 2)):
        zeros = [z.t_zero for z in lf.find_zeros_on_line(chi, 0.5, 20.0, 0.05)
                 if not z.suspected_multiple][:n_zeros]
        assert len(zeros) == n_zeros
        eta = _mpmath_eta(chi)
        for t in [z + off for z in zeros for off in (0.0, 3e-5)]:
            want = _mpmath_eps_slope(eta, t)
            got = lf.angular_momentum_eps_slope(t, chi).value
            assert abs(got - want) <= 3e-11 * abs(want), (chi.q, t, got, want)


# --------------------------------------------------------------------------
# reduction identities
# --------------------------------------------------------------------------

def test_reduction_identities_examples():
    rep9 = lf.reduction_identities(SPoint(1.5, 0.0), 9)
    induced = [e for e in rep9.entries if e.kind == "induced"]
    assert rep9.max_residual < 1e-10
    assert len(induced) == 5
    rep5 = lf.reduction_identities(SPoint(2.5, 0.0), 5)
    assert rep5.max_residual < 1e-10
    with pytest.raises(DomainError):
        lf.reduction_identities(SPoint(0.4, 0.0), 5)


# --------------------------------------------------------------------------
# zeros
# --------------------------------------------------------------------------

def test_zero_scan_q3(chi3):
    records = lf.find_zeros_on_line(chi3, 0.0, 12.0, 0.05)
    zeros = [r.t_zero for r in records if not r.suspected_multiple]
    assert len(zeros) == 2  # 8.0397 and 11.2492 both lie below 12
    assert zeros[0] == pytest.approx(8.039737, abs=1e-5)
    assert zeros[1] == pytest.approx(11.249206, abs=1e-5)
    assert all(r.sign_before * r.sign_after == -1 for r in records)


def test_zero_scan_q4(chi4):
    records = lf.find_zeros_on_line(chi4, 0.0, 10.0, 0.05)
    assert len(records) == 1
    assert records[0].t_zero == pytest.approx(6.020949, abs=1e-5)


def test_zero_scan_reports_no_zero_past_t_hi(chi3):
    # step 0.3 from 0 would reach 8.1, past t_hi = 8; the grid stops at 7.8 and is closed by
    # t_hi, so the first zero 8.0397 lies outside every bracket
    assert lf.find_zeros_on_line(chi3, 0.0, 8.0, 0.3) == []
    zeros = [r.t_zero for r in lf.find_zeros_on_line(chi3, 0.0, 8.1, 0.3)]
    assert zeros == pytest.approx([8.039737], abs=1e-5)


def test_zero_scan_reaches_t_hi(chi3):
    # step 0.5 from 0 reaches 8.0, short of t_hi = 8.2, which closes the grid; the first zero
    # 8.0397 lies in the last bracket
    records = lf.find_zeros_on_line(chi3, 0.0, 8.2, 0.5)
    assert [r.bracket for r in records] == [(8.0, 8.2)]
    assert records[0].t_zero == pytest.approx(8.039737, abs=1e-5)


def test_zero_scan_exact_zero_at_t_hi(monkeypatch, chi3):
    # a stand-in Z with exact zeros at t = 1 (a grid point), 3.3 and t_hi = 8.2 (the last point)
    fake = lambda chi, t: (np.asarray(t) - 1.0) * (np.asarray(t) - 3.3) * (np.asarray(t) - 8.2)
    monkeypatch.setattr(lf, "_z_on_grid", fake)
    monkeypatch.setattr(lf, "_ZERO_TOL", 1e-10)
    grid_hit, bisected, tail_hit = lf.find_zeros_on_line(chi3, 0.0, 8.2, 0.5)
    assert grid_hit == lf.ZeroRecord(1.0, (1.0, 1.0), 0.0, 0, 1)
    assert bisected.bracket == (3.0, 3.5) and abs(bisected.t_zero - 3.3) <= 1e-10
    assert tail_hit == lf.ZeroRecord(8.2, (8.2, 8.2), 0.0, 0, 0)  # no sample after t_hi


def test_zero_scan_eta_calls_do_not_grow_with_zeros(monkeypatch):
    # the grid call and one Z call per bisection level, however many zeros
    chi = enumerate_characters(13)[1]
    calls = []
    z = lf._z_on_grid
    monkeypatch.setattr(lf, "_z_on_grid", lambda *a: calls.append(a) or z(*a))
    step = 0.05
    zeros = lf.find_zeros_on_line(chi, 0.0, 30.0, step)
    assert len(zeros) >= 10
    assert len(calls) <= 1 + math.ceil(math.log2(step / lf._ZERO_TOL))


def test_first_q3_zero_independent_of_scan_range(chi3):
    # the midpoints share a Z batch with every other bracket of the scan; the bits do not move
    firsts = [lf.find_zeros_on_line(chi3, lo, hi, 0.05)[0] for lo, hi in
              ((7.9, 8.2), (0.0, 40.0), (0.0, 100.0))]
    assert {r.bracket for r in firsts} == {(8.0, 8.05)}
    assert len({r.t_zero.hex() for r in firsts}) == 1


def test_no_low_zeros_q5():
    for chi in enumerate_characters(5):
        if chi.parity == 1:
            assert lf.find_zeros_on_line(chi, 0.0, 4.0, 0.05) == []


def test_real_character_zeros_pair_up(chi5_real):
    pos = [r.t_zero for r in lf.find_zeros_on_line(chi5_real, 0.2, 12.0, 0.05)]
    neg = [r.t_zero for r in lf.find_zeros_on_line(chi5_real, -12.0, -0.2, 0.05)]
    assert len(pos) == len(neg) > 0
    for a, b in zip(pos, sorted(-t for t in neg)):
        assert a == pytest.approx(b, abs=1e-6)


def test_zero_refinement_tolerance(chi3):
    rec = lf.find_zeros_on_line(chi3, 7.9, 8.2, 0.1)[0]
    assert rec.tol <= 1e-8
    val = lf.eta_on_grid(chi3, 0.0, np.array([rec.t_zero]))[0].real
    slope = lf.eta_on_grid(chi3, 0.0, np.array([rec.t_zero + 1e-4]))[0].real - val
    assert abs(val) < 2e-4 * abs(slope / 1e-4) * 1e-4  # |eta| < 2 tol * |eta'|


def test_zero_scan_counts_every_sign_change_at_large_t(chi3):
    # |eta| ~ 1e-170 on [500, 505], so the product of two eta values underflows to 0
    grid = np.arange(500.0, 505.0 + 0.025, 0.05)
    vals = lf.eta_on_grid(chi3, 0.0, grid)[0].real
    assert 0.0 < np.max(np.abs(vals)) < 1e-160
    changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    zeros = [r.t_zero for r in lf.find_zeros_on_line(chi3, 500.0, 505.0, 0.05)
             if not r.suspected_multiple]
    assert changes == 4 and len(zeros) == changes
    for t in zeros:
        assert abs(mp.dirichlet(mp.mpc(0.5, t), [0, 1, -1])) < 1e-7


def _mpmath_z(chi):
    """Hardy's Z(t) = Re(exp(i(Im log Gamma((s+alpha)/2) + t/2 log(q/pi) + h)) L(s)) at
    s = 1/2 + it and mpmath's working precision, L from Hurwitz zeta values (not
    mp.dirichlet) and h half the angle of i^alpha sqrt(q) / tau(chi)."""
    q, a = chi.q, chi.parity
    vals = [mp.expjpi(mp.mpf(2 * k) / chi.m) if k >= 0 else mp.mpc(0) for k in chi.k.tolist()]
    tau = mp.fsum(v * mp.expjpi(mp.mpf(2 * n) / q) for n, v in enumerate(vals))
    h = mp.arg(mp.j ** a * mp.sqrt(q) / tau) / 2

    def z(t):
        s = mp.mpf(0.5) + mp.j * t
        lval = mp.power(q, -s) * mp.fsum(v * mp.zeta(s, mp.mpf(r) / q)
                                         for r, v in enumerate(vals) if r and v != 0)
        theta = mp.im(mp.loggamma((s + a) / 2)) + t / 2 * mp.log(q / mp.pi) + h
        return mp.re(mp.expj(theta) * lval)
    return z


def test_zero_scan_past_eta_underflow(chi3):
    # eta is +-0 on [1000, 1005] (e^(-pi t/4) ~ 1e-341); the scan samples Z, so it reports
    # the four bisected zeros, each a sign change of a 30-digit Z at t_zero +- 1e-6
    records = lf.find_zeros_on_line(chi3, 1000.0, 1005.0, 0.05)
    assert [r.tol for r in records] == [lf._ZERO_TOL] * 4
    z = _mpmath_z(chi3)
    with mp.workdps(30):
        for r, want in zip(records, (1000.219446, 1002.066424, 1003.259355, 1003.711969)):
            assert r.t_zero == pytest.approx(want, abs=1e-6)
            assert mp.sign(z(mp.mpf(r.t_zero) - mp.mpf("1e-6"))) == r.sign_before
            assert mp.sign(z(mp.mpf(r.t_zero) + mp.mpf("1e-6"))) == r.sign_after == -r.sign_before


@pytest.mark.parametrize("q, index", ((3, 1), (5, 1), (5, 2), (13, 1)))
def test_xi_phase_dt_against_mpmath(q, index):
    # d/dt arg xi = Re(L'/L) + Re psi((s+alpha)/2)/2 + log(q/pi)/2 at s = 1/2+eps+it, with L
    # and L' from 40-digit Hurwitz zeta values
    chi = enumerate_characters(q)[index]
    vals = [mp.expjpi(mp.mpf(2 * k) / chi.m) if k >= 0 else mp.mpc(0) for k in chi.k.tolist()]
    with mp.workdps(40):
        for eps in (0.0, 0.15, -0.2, 0.3):
            for t in (0.7, 3.3, 8.04, 14.1, 37.3, 99.5):
                s = mp.mpf(0.5 + eps) + mp.j * mp.mpf(t)
                terms = [(v, mp.mpf(r) / q) for r, v in enumerate(vals) if r and v != 0]
                lval = mp.fsum(v * mp.zeta(s, w) for v, w in terms)
                dlog_l = mp.fsum(v * mp.zeta(s, w, 1) for v, w in terms) / lval - mp.log(q)
                want = float(mp.re(dlog_l) + mp.re(mp.digamma((s + chi.parity) / 2)) / 2
                             + mp.log(q / mp.pi) / 2)
                got = lf.xi_phase_dt(chi, eps, t)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (eps, t, got, want)
