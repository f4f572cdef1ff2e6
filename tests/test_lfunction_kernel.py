"""The one-pass Euler-Maclaurin `_l_values` against the per-class loop it replaced.

`_ref_hurwitz_zeta` and `_ref_l_values` keep the earlier code verbatim: one
Euler-Maclaurin call per unit class, each with its own pole series, Pochhammer
ladder and inflation factor, for one character.  The one-pass kernel takes a
tuple of characters of one modulus; each of its rows must reproduce the
reference's values for that character byte for byte, and its one remainder
estimate must be the reference's, as the same float.
"""

import math

import numpy as np
import pytest

from lphase import gammaphase as gp, lfunction as lf
from lphase.arith import SPoint, _factorize, enumerate_characters, primitive_inducer

_BERN_FACT, _N_BERN = lf._BERN_FACT, lf._N_BERN


def _ref_hurwitz_zeta(svals, a, n_head, subtract_pole=False):
    s = np.asarray(svals, dtype=np.complex128)
    n = np.arange(n_head, dtype=np.float64)[:, None] + a
    head = np.sum(np.exp(-s[None, :] * np.log(n)), axis=0)

    w = n_head + a
    lw = math.log(w)
    if subtract_pole:
        u = 1.0 - s
        tiny = np.abs(u) < 1e-6
        us = np.where(tiny, 0.0, u)
        direct = -np.expm1(np.where(tiny, 1.0, u) * lw) / np.where(tiny, 1.0, u)
        series = -lw * (1.0 + us * lw / 2.0 + us * us * lw * lw / 6.0)
        integral = np.where(tiny, series, direct)
    else:
        integral = np.exp((1.0 - s) * lw) / (s - 1.0)
    out = head + integral + 0.5 * np.exp(-s * lw)

    w_pow = np.exp((-s - 1.0) * lw)
    poch = s.copy()
    w2 = w * w
    for k in range(1, _N_BERN + 1):
        out += _BERN_FACT[k - 1] * poch * w_pow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        w_pow = w_pow / w2
    next_term = np.abs(_BERN_FACT[_N_BERN] * poch * w_pow)
    sigma = float(np.min(s.real))
    inflate = (np.max(np.abs(s)) + 2 * _N_BERN + 1) / max(sigma + 2 * _N_BERN + 1, 1.0)
    est = float(np.max(next_term)) * inflate if s.size else 0.0
    return out, est


def _ref_l_values(chi, svals, n_head=None):
    s = np.atleast_1d(np.asarray(svals, dtype=np.complex128))
    t_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    nh = lf._em_head(t_max) if n_head is None else n_head
    q = chi.q
    total = np.zeros_like(s)
    err = 0.0
    drop_pole = not chi.is_principal
    for r in range(1, q + 1):
        if chi.k[r % q] < 0:
            continue
        z, e = _ref_hurwitz_zeta(s, r / q, nh, subtract_pole=drop_pole)
        total += chi.value(r) * z
        err += e
    scale = np.exp(-s * math.log(q)) if q > 1 else np.ones_like(s)
    qfac = float(q) ** (-float(np.min(s.real)))
    return scale * total, err * qfac


def _ref_l_rows(chis, svals):
    # `_l_values`' tuple call shape over the reference: one row per character
    rows = [_ref_l_values(chi, svals) for chi in chis]
    return np.array([v for v, _ in rows]), rows[0][1]


def _ref_reduction_residuals(s, q):
    zeta_s = complex(_ref_hurwitz_zeta(np.array([s.s]), 1.0, lf._em_head(abs(s.t)))[0][0])
    q_primes = [p for p, _ in _factorize(q)] if q > 1 else []
    out = []
    for chi in enumerate_characters(q):
        lhs = lf.l_eval(s, chi).value
        if chi.is_principal:
            rhs = zeta_s
            for p in q_primes:
                rhs *= 1.0 - p ** (-s.s)
        else:
            psi = primitive_inducer(chi)
            rhs = lf.l_eval(s, psi).value
            for p in q_primes:
                rhs *= 1.0 - psi.value(p) * p ** (-s.s)
        out.append(abs(lhs - rhs))
    return out


GRIDS = (
    np.array([0.0]),
    np.array([-7.25, 3.5]),
    np.array([-12.0, -0.5, 0.0, 0.75, 21.3]),
    np.linspace(-14.0, 29.0, 175),
)
# 20040 head rows: at the real _HEAD_CELLS the five columns go into blocks of 2 and 3
FAR = np.array([-2.0e4, -1.99e4, 5.0, 1.99e4, 2.0e4])
MODULI = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 24, 30, 60)


def _same(got, ref):
    (vg, eg), (vr, er) = got, ref
    assert vg.dtype == vr.dtype == np.complex128
    assert vg.tobytes() == vr.tobytes()
    assert type(eg) is type(er) and eg == er


def _same_rows(chis, s, **ref_kwargs):
    vals, err = lf._l_values(chis, s)
    assert vals.shape == (len(chis), s.size)
    for chi, row in zip(chis, vals, strict=True):
        _same((row, err), _ref_l_values(chi, s, **ref_kwargs))


@pytest.mark.parametrize("q", MODULI)
def test_l_values_match_per_class_loop(q, monkeypatch):
    chars = enumerate_characters(q)
    # the principal character keeps the zeta pole: it goes alone, right of the strip; the
    # others go as one tuple
    groups = (tuple(c for c in chars if c.is_principal),
              tuple(c for c in chars if not c.is_principal))
    for chis in filter(None, groups):
        epsilons = (0.75, 1.5) if chis[0].is_principal else (0.0, 0.2, -0.3, 0.75, 1.5)
        for eps in epsilons:
            for t in GRIDS:
                some = chis
                if t.size in (2, 175):  # these grids take one eps per character, in turn
                    some = tuple(c for c in chis if eps == epsilons[c.index % len(epsilons)])
                    if not some:
                        continue
                s = 0.5 + eps + 1j * t
                _same_rows(some, s)
                if t.size == 5:
                    with monkeypatch.context() as m:
                        m.setattr(lf, "_em_head", lambda t_max: 57)
                        _same_rows(some, s, n_head=57)
                if t.size == 175:  # 64 cells: the reference's whole head in 2- and 3-column blocks
                    with monkeypatch.context() as m:
                        m.setattr(gp, "_HEAD_CELLS", 64)
                        _same_rows(some, s)
        if not chis[0].is_principal:  # at and near s = 1 the dropped pole takes its series
            _same_rows(chis, 1.0 + 1j * np.array([0.0, 5e-7, -3.0]))
    chi = chars[-1]  # one character per modulus: far heads are large
    _same_rows((chi,), (2.0 if chi.is_principal else 0.5) + 1j * FAR)


@pytest.mark.parametrize("q", MODULI)
def test_l_eval_matches_per_class_loop(q, monkeypatch):
    points = [SPoint(0.0, 0.0), SPoint(0.2, 14.1), SPoint(-0.3, -3.0), SPoint(0.75, 0.0),
              SPoint(0.75, -14.1), SPoint(1.5, 3.0)]
    new = [lf.l_eval(p, chi) for chi in enumerate_characters(q) for p in points
           if not chi.is_principal or p.eps > 0.5]
    monkeypatch.setattr(lf, "_l_values", _ref_l_rows)
    old = [lf.l_eval(p, chi) for chi in enumerate_characters(q) for p in points
           if not chi.is_principal or p.eps > 0.5]
    for a, b in zip(new, old, strict=True):
        assert np.array([a.value]).tobytes() == np.array([b.value]).tobytes()
        assert a.abs_err_estimate == b.abs_err_estimate


@pytest.mark.parametrize("q", (2, 3, 5, 9, 12))
@pytest.mark.parametrize("s", (SPoint(1.5, 0.0), SPoint(2.5, 0.0), SPoint(0.7, 3.3)),
                         ids=("s=2", "s=3", "s=1.2+3.3i"))
def test_reduction_identities_match_per_class_loop(q, s, monkeypatch):
    got = [e.residual for e in lf.reduction_identities(s, q).entries]
    monkeypatch.setattr(lf, "_l_values", _ref_l_rows)
    assert got == _ref_reduction_residuals(s, q)


def test_zeta_is_the_character_mod_one():
    # reduction_identities takes zeta(s) as L(s, chi mod 1), the former direct Hurwitz call
    for s in (2.0 + 0j, 3.0 + 0j, 1.2 + 3.3j):
        got = lf._l_values((enumerate_characters(1)[0],), np.array([s]))[0][0]
        ref = _ref_hurwitz_zeta(np.array([s]), 1.0, lf._em_head(abs(s.imag)))[0]
        assert got.tobytes() == ref.tobytes()
