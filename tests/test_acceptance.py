"""Acceptance gate: every numbered criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line.  Criteria 4, 5 and
11 fail against their tabulated brackets, and report the computed values.
The crossings that criteria 4 and 5 print are the roots of closed forms,
pinned below against mpmath; the brackets exclude those roots.
"""

import mpmath as mp
import numpy as np
import pytest

from lphase import verify


@pytest.mark.parametrize("cid", [num for num, _, _, _ in verify.CRITERIA])
def test_criterion(cid):
    result = verify.run_criterion(cid)
    print(result.line())
    failed = [name for name, ok in result.subchecks if not ok]
    assert result.passed, (
        f"criterion {cid} ({result.title}) failed: " + "; ".join(failed)
        + (f"; runtime {result.elapsed:.1f}s over budget {result.budget:.0f}s"
           if result.elapsed >= result.budget else "")
    )


def test_criterion8_points_are_the_seeded_draws():
    # the stored points are the draws criterion 8 made, float for float
    draws = np.random.default_rng(20240911).uniform(1.0, 25.0, size=50)
    assert verify._C8_TS == tuple(draws.tolist())
    assert all(type(t) is float for t in verify._C8_TS)


def _names(result):
    return [name for name, _ in result.subchecks]


def test_missing_crossing_and_zero_fail_their_subchecks(monkeypatch, capsys):
    # no crossing (c05) and no zero (c10) are failing subchecks, and the run goes on
    monkeypatch.setattr(verify.gp, "find_t_cross", lambda params, n_terms: None)
    monkeypatch.setattr(verify.lf, "find_zeros_on_line", lambda chi, t_lo, t_hi, step: [])
    c05, c10 = verify.run_acceptance([5, 10])
    assert not c05.passed and not c10.passed
    assert _names(c05)[0] == "q=3: no t_cross, expected 2.0 +/- 0.05"
    assert c05.subchecks[-1] == ("crossings strictly decreasing in q", False)
    assert c10.subchecks[:2] == [("q=3: no zero below 9.0, expected one in (8.0, 8.2)", False),
                                 ("q=4: no zero below 6.5, expected one in (6.0, 6.2)", False)]
    assert all(ok for _, ok in c10.subchecks[2:])
    assert "0/2 criteria passed" in capsys.readouterr().out


def test_present_crossing_and_zero_keep_their_subcheck_text(monkeypatch):
    monkeypatch.setattr(verify.gp, "find_t_cross", lambda params, n_terms: 3.0 / params.q)
    monkeypatch.setattr(verify.lf, "find_zeros_on_line", lambda chi, t_lo, t_hi, step: [
        verify.lf.ZeroRecord(t_hi - 0.9, (t_hi - 0.95, t_hi - 0.9), 1e-8, -1, 1)])
    c05, c10 = verify.run_criterion(5), verify.run_criterion(10)
    assert _names(c05)[:2] == ["q=3: t_cross = 1.0000 within 2.0 +/- 0.05",
                               "q=4: t_cross = 0.7500 within 1.5 +/- 0.05"]
    assert c05.subchecks[-1] == ("crossings strictly decreasing in q", True)
    assert _names(c10)[:2] == ["q=3 first zero at 8.1000 in (8.0, 8.2), none earlier",
                               "q=4 first zero at 5.6000 in (6.0, 6.2), none earlier"]
    assert [ok for _, ok in c10.subchecks[:2]] == [True, False]


def _recorded(monkeypatch, name):
    # run verify's own call of gammaphase.<name> and keep what it returns
    out, orig = [], getattr(verify.gp, name)

    def record(*args, **kwargs):
        out.append((args, orig(*args, **kwargs)))
        return out[-1][1]
    monkeypatch.setattr(verify.gp, name, record)
    return out


def test_criterion4_crossing_is_the_trigamma_root(monkeypatch):
    # as N -> oo the mixed derivative is Re psi'(1/4 + it/2)/4 for alpha = 0; its root is
    # 0.5887966, and criterion 4's bisection (to width 1e-5) lands within that width of it
    calls = _recorded(monkeypatch, "_bisect_one")
    verify.run_criterion(4)
    (args, got), = calls
    with mp.workdps(30):
        root = float(mp.findroot(lambda t: mp.re(mp.psi(1, mp.mpf(1) / 4 + 0.5j * t)), 0.5888))
    assert abs(root - 0.5887966) < 5e-8
    assert args[-1] == 1e-5 and abs(got - root) <= 1e-5
    assert not 0.585 < root < 0.588  # the bracket excludes the closed form's root


@pytest.mark.parametrize("q, ref", [(3, 2.1062054), (4, 1.5638816), (5, 1.2116358),
                                    (7, 0.7195697), (8, 0.5009531), (9, 0.2266757)])
def test_criterion5_crossings_are_the_digamma_roots(monkeypatch, q, ref):
    # as N -> oo the odd prefactor-phase t-derivative is Re psi(3/4 + it/2)/2 + log(q/pi)/2;
    # find_t_cross lands within its bisection width _T_CROSS_TOL = 1e-4 of each root
    calls = _recorded(monkeypatch, "find_t_cross")
    verify.run_criterion(5)
    got = {args[0].q: t for args, t in calls}[q]
    with mp.workdps(30):
        root = float(mp.findroot(
            lambda t: mp.re(mp.psi(0, mp.mpf(3) / 4 + 0.5j * t)) / 2 + mp.log(q / mp.pi) / 2, ref))
    assert abs(root - ref) < 5e-8
    assert abs(got - root) <= verify.gp._T_CROSS_TOL
    assert (abs(root - verify._TABLE_CROSSINGS[q]) <= 0.05) == (q not in (3, 4))
