"""The float64 special-function kernels against 40-digit mpmath, each with a stated bound:
the Hurwitz zeta of the Gamma tails, the real digamma of the tail gaps, log Gamma(1+a) for
the log-modulus head, and Ei for Li(x)."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lphase import arith, gammaphase as gp

_ZETA_W = (65.25, 65.75, 100.25, 1000.5, 8233.75, 2e6 + 1.75, 1e12 + 1.5)
# the (eps, alpha) points of the product route: a = (1/2 + eps + alpha)/2 from 0.025 to 1.5
_EPS = (*np.round(np.arange(-0.45, 0.501, 0.05), 2), 1e-4)


def _em_zeta(s: int, w: float) -> mp.mpf:
    # Euler-Maclaurin with 10 head terms and 20 Bernoulli corrections, written out: mp.zeta
    # is off by up to 2.2e-10 relative at shifts like 1000.5 for s = 17..33
    s, w = mp.mpf(s), mp.mpf(w)
    big = w + 10
    out = mp.fsum((w + n) ** -s for n in range(10)) + big ** (1 - s) / (s - 1) + big ** -s / 2
    poch = s
    for k in range(1, 21):
        out += mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * big ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return out


@pytest.mark.parametrize("w", _ZETA_W)
def test_hurwitz_zeta_against_explicit_euler_maclaurin(w):
    with mp.workdps(40):
        for s1 in (2, 3):
            got = gp._hurwitz_zeta(s1, (35 - s1) // 2, w)  # s = s1, s1 + 2, ..., 32 or 33
            for s, z in zip(range(s1, 34, 2), got, strict=True):
                # every value is the one a one-value call gives, whatever the tuple's length
                assert z == gp._hurwitz_zeta(s, 1, w)[0]
                ref = _em_zeta(s, w)
                if ref >= sys.float_info.min:  # no bound where the value underflows
                    assert abs(z - ref) <= 1e-15 * ref, (s, z, ref)


def test_real_digamma_against_mpmath():
    xs = [float(x) for x in np.geomspace(65.0, 1e12, 200)]
    xs += [m + 1.0 + a for m in (64, 431, 8232, 10 ** 6) for a in (0.025, 0.75, 1.5)]
    with mp.workdps(40):
        for x in xs:
            got = gp._digamma(x)
            assert type(got) is float
            ref = mp.digamma(x)
            assert abs(got - ref) <= 1e-15 * abs(ref), (x, got)


def test_log_gamma_1p_against_mpmath():
    with mp.workdps(40):
        for alpha in (0, 1, 2):
            for eps in _EPS:
                a = (0.5 + float(eps) + alpha) / 2.0
                assert abs(gp._log_gamma_1p(a) - mp.loggamma(1 + mp.mpf(a))) <= 3e-16, a
        for a in (2.5, 3.7, 10.25, 100.5):  # brought into (0, 2] by the recurrence
            ref = mp.loggamma(1 + mp.mpf(a))
            assert abs(gp._log_gamma_1p(a) - ref) <= 1e-15 * abs(ref), a


def test_li_against_mpmath_ei():
    # the oracle takes the same float logs as li: rounding log x itself moves Li(x) by up to
    # log(x) * 2^-53 relative, an error of the input, not of the Ei kernel
    assert arith.li(2.0) == 0.0
    u2 = mp.mpf(math.log(2.0))
    with mp.workdps(40):
        for x in [3.0, *np.geomspace(3.0, 1e300, 150), 1.79e308]:
            x = float(x)
            ref = mp.ei(mp.mpf(math.log(x))) - mp.ei(u2)
            assert abs(arith.li(x) - ref) <= 2e-15 * ref, x


@pytest.mark.parametrize("memo, key, others", [
    (gp._hurwitz_zeta, (3, 6, 200.5), [(2, 4, 65.75), (4, 15, 4000.75), (3, 6, 200.25)]),
    (gp._psi_gap, (431, 432.75), [(64, 65.25), (8232, 8233.75), (431, 432.25)]),
])
def test_memo_keeps_every_bit(memo, key, others):
    memo.cache_clear()
    cold = memo(*key)
    memo.cache_clear()
    for k in others:
        memo(*k)
    warm = memo(*key)
    assert np.asarray(warm).tobytes() == np.asarray(cold).tobytes() and warm is memo(*key)
