"""The shared bisection and Richardson drivers against the hand-written loops and stencils
they replaced: every result must be equal bit for bit."""

import math
from functools import lru_cache

import numpy as np
import pytest

from lphase import arith, gammaphase as gp, lfunction as lf
from lphase.arith import SPoint
from lphase.errors import NumericalInstabilityError


# --------------------------------------------------------------------------
# reference loops and stencils, written out one per caller
# --------------------------------------------------------------------------

def _ref_t_cross(params, n_terms, t_max=100.0, tol=1e-4):
    f = lambda tt: gp.prefactor_dphase_dt(SPoint(0.0, tt), params, n_terms)
    t_lo = 1e-3
    if f(t_lo) > 0.0:
        return None
    grid = np.concatenate([np.geomspace(t_lo, 1.0, 12)[1:], np.linspace(1.25, t_max, 40)])
    hi = None
    for g in grid:
        if f(float(g)) > 0.0:
            hi = float(g)
            break
        t_lo = float(g)
    while hi - t_lo > tol:
        mid = 0.5 * (t_lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + hi)


def _ref_c4_crossing(f, lo=0.5, hi=0.7):
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_ladder(chi, eps, t, dt):
    xc = lf.xi_on_grid(chi, eps, t)
    xm, xp = lf.xi_on_grid(chi, eps, t - dt), lf.xi_on_grid(chi, eps, t + dt)
    xm2, xp2 = lf.xi_on_grid(chi, eps, t - dt / 2), lf.xi_on_grid(chi, eps, t + dt / 2)
    def sample(lo, hi, step):
        d_re = (hi.real - lo.real) / (2.0 * step)
        d_im = (hi.imag - lo.imag) / (2.0 * step)
        return xc.real * d_im - xc.imag * d_re

    return xc, xp, sample(xm, xp, dt), sample(xm2, xp2, dt / 2)


def _ref_ang_mom_grid(chi, eps, t, dt=1e-3):
    _, _, l_h, l_h2 = _ref_ladder(chi, eps, np.asarray(t, dtype=np.float64), dt)
    return (4.0 * l_h2 - l_h) / 3.0


def _ref_ang_mom(s, chi, dt=1e-3):
    xc, xp, l_h, l_h2 = _ref_ladder(chi, s.eps, np.array([s.t]), dt)
    l_h, l_h2 = float(l_h[0]), float(l_h2[0])
    scale = float(np.abs(xc[0]) ** 2 + np.abs(xp[0]) ** 2)
    if abs(l_h2 - l_h) > max(0.05 * max(abs(l_h), abs(l_h2)), 1e-7 * scale):
        raise NumericalInstabilityError("ladder")
    return (4.0 * l_h2 - l_h) / 3.0


def _ref_xi_phase_dt(chi, eps, t, dt=1e-3):
    x = [lf.xi_on_grid(chi, eps, np.array([u]))[0]
         for u in (t - dt, t - dt / 2, t + dt / 2, t + dt)]
    xc = lf.xi_on_grid(chi, eps, np.array([t]))[0]
    d_h = (x[3] - x[0]) / (2.0 * dt)
    d_h2 = (x[2] - x[1]) / dt
    return float((((4.0 * d_h2 - d_h) / 3.0) / xc).imag)


def _ref_stencil(y, h):
    d_h = (y[4] - y[0]) / (2.0 * h)
    d_h2 = (y[3] - y[1]) / h
    dp = (4.0 * d_h2 - d_h) / 3.0
    c_h = (y[4] - 2.0 * y[2] + y[0]) / (h * h)
    c_h2 = (y[3] - 2.0 * y[2] + y[1]) / (h * h / 4.0)
    dpp = (4.0 * c_h2 - c_h) / 3.0
    return y[2], dp, dpp


def _ref_eps_slope(t, chi, dt=1e-3, delta=1e-4):
    grid = np.array([t - dt, t - dt / 2, t, t + dt / 2, t + dt])
    y, dp, dpp = _ref_stencil(lf.eta_on_grid(chi, 0.0, grid)[0].real, dt)
    y = float(y)
    lm_d, lm_0 = _ref_ang_mom(SPoint(delta, t), chi, dt), _ref_ang_mom(SPoint(0.0, t), chi, dt)
    cross = (lm_d - lm_0) / delta
    return lf.EpsSlopeResult(t=t, value=dp * dp - y * dpp, cross_check=cross, eta=y)


def _ref_eps_slope_grid(chi, t, dt=1e-3):
    t = np.asarray(t, dtype=np.float64)
    y = [lf.eta_on_grid(chi, 0.0, t + u * dt)[0].real for u in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    y2, dp, dpp = _ref_stencil(y, dt)
    return dp * dp - y2 * dpp


def _ref_zeros(chi, t_lo, t_hi, grid_step, tol=1e-8):
    grid = np.arange(t_lo, t_hi + grid_step / 2.0, grid_step)
    grid = np.append(grid[grid < t_hi], t_hi)
    vals = lf._z_on_grid(chi, grid)
    f = lambda t: float(lf._z_on_grid(chi, np.array([t]))[0])
    records = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            records.append(lf.ZeroRecord(a, (a, a), 0.0, 0, int(math.copysign(1, fb))))
            continue
        if fa * fb < 0.0:
            lo, hi, flo = a, b, fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            records.append(lf.ZeroRecord(0.5 * (lo + hi), (a, b), tol,
                                         int(math.copysign(1, fa)), int(math.copysign(1, fb))))
    absvals = np.abs(vals)
    for i in range(1, len(grid) - 1):
        window = absvals[max(0, i - 10): i + 11]
        scale = float(np.max(window)) if window.size else 0.0
        if (0.0 < absvals[i] < 1e-8 * scale and absvals[i] <= absvals[i - 1]
                and absvals[i] <= absvals[i + 1] and vals[i - 1] * vals[i + 1] > 0):
            records.append(lf.ZeroRecord(None, (float(grid[i - 1]), float(grid[i + 1])),
                                         grid_step, int(math.copysign(1, vals[i - 1])),
                                         int(math.copysign(1, vals[i + 1])),
                                         suspected_multiple=True))
    records.sort(key=lambda r: r.bracket[0])
    return records


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes() and type(a) is type(b)


# --------------------------------------------------------------------------
# prefactor side
# --------------------------------------------------------------------------

def test_find_t_cross_bit_identical(monkeypatch):
    cases = [(gp.PrefactorParams.for_alpha(1, q), 1e-4) for q in (3, 9, 11)]  # q = 11: None
    cases += [(gp.PrefactorParams.for_alpha(0, 5), 1e-7), (gp.PrefactorParams.for_alpha(2), 1e-4)]
    for params, tol in cases:
        ref = _ref_t_cross(params, 10 ** 5, tol=tol)
        monkeypatch.setattr(gp, "_T_CROSS_TOL", tol)
        got = gp.find_t_cross(params, n_terms=10 ** 5)
        assert got == ref and type(got) is type(ref)


def test_criterion_4_bisection_bit_identical():
    # criterion 4's curve and bracket; the cache makes the second pass free
    f = lru_cache(maxsize=None)(lambda t: gp.mixed_second_derivative(t, 0, 10 ** 6))
    ref = _ref_c4_crossing(f)
    got = gp._bisect(lambda ts: np.array([f(float(t)) for t in ts]),
                     np.array([0.5]), np.array([0.7]), np.array([f(0.5)]), 1e-5)
    assert got.shape == (1,) and _same(float(got[0]), ref)
    assert 0.588 < ref < 0.589  # the documented criterion 4 reading, 0.58880


def _ref_bisect(f, lo, hi, f_lo, tol):
    # the scalar loop, one bracket at a time
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _counted(f):
    sizes = []
    def g(ts):
        sizes.append(len(ts))
        return np.array([f(float(t)) for t in ts])
    return g, sizes


def test_bisect_brackets_of_different_widths_stop_on_their_own():
    lo, hi, tol = [3.0, 6.0, 9.0, 12.5], [3.5, 7.0, 10.0, 12.6], 1e-9  # around pi, 2pi, 3pi, 4pi
    g, sizes = _counted(math.sin)
    got = gp._bisect(g, lo, hi, [math.sin(x) for x in lo], tol)
    for i in range(4):
        assert _same(float(got[i]), _ref_bisect(math.sin, lo[i], hi[i], math.sin(lo[i]), tol))
    levels = [math.ceil(math.log2((b - a) / tol)) for a, b in zip(lo, hi)]  # 29, 30, 30, 27
    assert sizes == [sum(n > k for n in levels) for k in range(max(levels))]


def test_bisect_exact_zero_ends_only_its_own_bracket():
    f = lambda t: (t - 1.0) * (t - 3.1)
    g, sizes = _counted(f)
    got = gp._bisect(g, [0.5, 2.5], [1.5, 3.5], [f(0.5), f(2.5)], 1e-6)
    assert got[0] == 1.0  # the first midpoint is the zero
    assert _same(float(got[1]), _ref_bisect(f, 2.5, 3.5, f(2.5), 1e-6))
    assert sizes[0] == 2 and set(sizes[1:]) == {1} and len(sizes) == 20


def test_bisect_keeps_signs_near_underflow():
    # values near 1e-170: the product of two of them underflows to 0, their signs still differ
    f = lambda t: 1e-170 * (t - 0.3) * (t - 1.7)
    g, _ = _counted(f)
    got = gp._bisect(g, [0.0, 1.0], [1.0, 2.0], [f(0.0), f(1.0)], 1e-12)
    assert f(0.0) * f(1.0) == 0.0
    assert abs(got[0] - 0.3) <= 1e-12 and abs(got[1] - 1.7) <= 1e-12


def test_bisect_without_brackets_makes_no_call():
    g, sizes = _counted(math.sin)
    got = gp._bisect(g, np.array([]), np.array([]), np.array([]), 1e-8)
    assert got.shape == (0,) and sizes == []


# --------------------------------------------------------------------------
# critical-line side
# --------------------------------------------------------------------------

CHARS = [arith.enumerate_characters(3)[1], arith.enumerate_characters(5)[1],
         arith.enumerate_characters(5)[2]]


@pytest.mark.parametrize("chi", CHARS, ids=["q3", "q5odd", "q5real"])
def test_angular_momentum_and_phase_slope_bit_identical(chi):
    grid = np.array([-3.3, 0.7, 8.04, 14.1, 37.3, 99.5])
    for eps in (0.0, 0.15, -0.2):
        assert _same(lf.angular_momentum_on_grid(chi, eps, grid),
                     _ref_ang_mom_grid(chi, eps, grid))
        for t in grid.tolist():
            s = SPoint(eps, t)
            assert _same(lf.angular_momentum(s, chi), _ref_ang_mom(s, chi))
            assert _same(lf.xi_phase_dt(chi, eps, t), _ref_xi_phase_dt(chi, eps, t))


@pytest.mark.parametrize("chi", CHARS[:2], ids=["q3", "q5odd"])
def test_eps_slope_bit_identical(chi):
    grid = np.arange(0.5, 30.0001, 0.25)
    assert _same(lf.eps_slope_on_grid(chi, grid), _ref_eps_slope_grid(chi, grid))
    # 8.0397 and 8.03974 sit on the first q = 3 zero
    for t in (1.0, 8.0397, 8.03974, 17.2, 63.0, 99.5):
        got, ref = lf.angular_momentum_eps_slope(t, chi), _ref_eps_slope(t, chi)
        assert got == ref and all(_same(getattr(got, k), getattr(ref, k))
                                  for k in ("value", "cross_check", "eta"))


@pytest.mark.parametrize("chi", CHARS, ids=["q3", "q5odd", "q5real"])
def test_zero_scan_bit_identical(chi, monkeypatch):
    for t_lo, t_hi, step, tol in ((0.0, 15.0, 0.05, 1e-8), (-9.0, -0.2, 0.2, 1e-8),
                                  (97.0, 100.0, 0.2, 1e-11)):
        monkeypatch.setattr(lf, "_ZERO_TOL", tol)
        got = lf.find_zeros_on_line(chi, t_lo, t_hi, step)
        assert got == _ref_zeros(chi, t_lo, t_hi, step, tol)


# mid: |Z| at the grid point 2.0 over the largest |Z| within 9, 10 and 11 grid points is
# 1.57e-8, 1.33e-8 and 0.74e-8 in the first case (no dip) and 1.08e-8, 0.90e-8 and 0.87e-8
# in the second (a dip), so a window one point too wide or too narrow changes the records
@pytest.mark.parametrize("t_lo, t_hi, step, mid, n_dips", ((0.0, 4.0, 0.0625, 4.4e-5, 2),
                                                           (-0.5, 4.25, 0.125, 1.35e-4, 3)))
def test_zero_scan_suspected_multiples_bit_identical(t_lo, t_hi, step, mid, n_dips, monkeypatch):
    # a stand-in Z with touching zeros 1e-6 off the grid points 0.125 and 3.875 (within 10
    # points of either end, so their windows are clipped) and `mid` off 2.0, a simple zero at
    # 1.3 and an exact hit at 2.5; both grids end exactly at t_hi, which is no zero, so the
    # reference loop sees every hit
    def fake(chi, t):
        t = np.asarray(t)
        return ((t - 0.125 - 1e-6) ** 2 * (t - 2.0 - mid) ** 2 * (t - 3.875 + 1e-6) ** 2
                * (t - 1.3) * (t - 2.5))

    monkeypatch.setattr(lf, "_z_on_grid", fake)
    assert np.arange(t_lo, t_hi + step / 2.0, step)[-1] == t_hi
    got = lf.find_zeros_on_line(CHARS[0], t_lo, t_hi, step)
    ref = _ref_zeros(CHARS[0], t_lo, t_hi, step)
    assert got == ref
    assert [[type(v) for v in vars(r).values()] for r in got] == \
        [[type(v) for v in vars(r).values()] for r in ref]
    dips = [r.bracket for r in got if r.suspected_multiple]
    assert len(dips) == n_dips and dips[0][0] < t_lo + 10 * step and dips[-1][1] > t_hi - 10 * step
    assert sum(r.t_zero == 2.5 and r.tol == 0.0 for r in got) == 1


def test_zero_scan_touching_zero_on_a_grid_point_is_one_hit(monkeypatch):
    # a touching zero exactly on the grid point 2.0 is reported once, as an exact hit, and
    # not also as a suspected multiple zero bracketing it; 3.3 is a simple zero
    def fake(chi, t):
        return (np.asarray(t) - 2.0) ** 2 * (np.asarray(t) - 3.3)

    monkeypatch.setattr(lf, "_z_on_grid", fake)
    got = lf.find_zeros_on_line(CHARS[0], 0.0, 4.0, 0.25)
    assert got == _ref_zeros(CHARS[0], 0.0, 4.0, 0.25)
    assert got[0] == lf.ZeroRecord(2.0, (2.0, 2.0), 0.0, 0, -1)
    assert len(got) == 2 and got[1].bracket == (3.25, 3.5) and not got[1].suspected_multiple
    assert abs(got[1].t_zero - 3.3) <= lf._ZERO_TOL
