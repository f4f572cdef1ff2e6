"""Acceptance gate: every numbered criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line.  Criteria 4, 5 and
11 compare against tabulated reference brackets whose published values carry
coarse-step reading bias; exact evaluation lands just outside them, and
those tests report the discrepancy as an honest failure (the details name
the computed values).
"""

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
