"""CLI surface: CSV output, determinism, selectors, exit codes."""

import argparse
import math
from fractions import Fraction

import pytest

from lphase import __version__, arith, cli, eulerphase as ep
from lphase.cli import main


def _lines(capsys):
    return capsys.readouterr().out.strip().split("\n")


def test_characters_csv_matches_reference_table(capsys):
    assert main(["characters", "--q", "5"]) == 0
    lines = _lines(capsys)
    comments = [l for l in lines if l.startswith("#")]
    assert comments[0].startswith("# lphase ")
    assert "# q=5" in comments
    header = next(l for l in lines if l.startswith("chi_index"))
    assert header.split(",")[5:] == [f"angle_turns_n{n}" for n in range(5)]
    rows = {tuple(l.split(",")[5:]) for l in lines if not l.startswith(("#", "chi_index"))}
    assert rows == {
        ("", "0", "0", "0", "0"),
        ("", "0", "1/4", "3/4", "1/2"),
        ("", "0", "1/2", "1/2", "0"),
        ("", "0", "3/4", "1/4", "1/2"),
    }


def test_gauss_csv(capsys):
    assert main(["gauss", "--q", "3"]) == 0
    lines = [l for l in _lines(capsys) if not l.startswith("#")]
    data = [l.split(",") for l in lines[1:]]
    assert len(data) == 2
    prim = next(row for row in data if row[1] == "1")
    assert float(prim[4]) == pytest.approx(3.0, abs=1e-12)


def test_csv_byte_identical_across_runs(tmp_path):
    args = ["figure-symmetries", "--q", "5", "--chi-index", "2",
            "--p-star", "2000", "--p-max", "2000",
            "--t-min", "-3", "--t-max", "3", "--t-step", "0.5"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_match_phase_selector(capsys):
    assert main(["figure-symmetries", "--q", "5", "--match-phase", "2=1/2",
                 "--p-star", "100", "--p-max", "100",
                 "--t-min", "-1", "--t-max", "1", "--t-step", "0.5"]) == 0
    lines = _lines(capsys)
    assert "# chi_index=2" in lines


def test_match_phase_ambiguous(capsys):
    rc = main(["figure-symmetries", "--q", "5", "--match-phase", "1=0",
               "--p-star", "100", "--p-max", "100"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("q", [5, 12, 409])
def test_match_phase_selects_by_the_phase_turns_rule(q):
    # the selection the exact Fraction turns make, vanishing cells (None) never matching
    chars = arith.enumerate_characters(q)
    specs = [["1=0"], ["2=1/2"], ["2=1/4"], [f"{q - 1}=1/2"], ["2=-1/2"], [f"{q}=-1/{chars[0].m}"],
             ["0=0"], ["2=1"], ["2=5/4"], ["3=0", f"{q + 2}=1/2"], ["-1=1/2", "2=3/4"]]
    u = next(n for n in range(2, q) if math.gcd(n, q) == 1)
    specs += [[f"{u}={c.phase_turns[u]}", f"{q - 1}={c.phase_turns[q - 1]}"] for c in chars[:4]]
    for spec in specs:
        wanted = {int(n): Fraction(f) for n, f in (x.split("=") for x in spec)}
        hits = [c.index for c in chars
                if all(c.phase_turns[n % q] == f for n, f in wanted.items())]
        args = argparse.Namespace(q=q, match_phase=spec, chi_index=None)
        if len(hits) == 1:
            assert cli._resolve_character(args).index == hits[0], spec
        else:
            with pytest.raises(cli._UsageError, match=rf"selects {len(hits)} characters"):
                cli._resolve_character(args)


def _per_cell_csv(command, q, rows):
    # provenance, header and rows, each cell by the per-cell rule: floats in 12-digit
    # scientific notation, everything else by str
    cells = lambda row: ",".join(f"{x:.11e}" if isinstance(x, float) else str(x) for x in row)
    header = {"characters": ["chi_index", "conductor", "parity", "is_principal", "is_primitive",
                             *(f"angle_turns_n{n}" for n in range(q))],
              "gauss": ["chi_index", "is_primitive", "tau_re", "tau_im", "abs_tau_sq",
                        "q_minus_abs_tau_sq"]}[command]
    lines = [f"# lphase {__version__}", f"# command: {command}", f"# q={q}", ",".join(header)]
    return "\n".join(lines + [cells(row) for row in rows]) + "\n"


@pytest.mark.parametrize("q", [409, 570])
def test_characters_and_gauss_csv_match_per_cell_oracle(q, tmp_path, gauss_comprehension):
    chars = arith.enumerate_characters(q)
    table = [[c.index, c.conductor, c.parity, int(c.is_principal), int(c.is_primitive),
              *("" if f is None else str(f) for f in c.phase_turns)] for c in chars]
    gauss = [[c.index, int(c.is_primitive), t.real, t.imag, abs(t) ** 2, q - abs(t) ** 2]
             for c, t in ((c, gauss_comprehension(c)) for c in chars)]
    for command, rows in (("characters", table), ("gauss", gauss)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--q", str(q), "--out", str(out)]) == 0
        assert out.read_text() == _per_cell_csv(command, q, rows), command


def test_huge_modulus_exits_1_before_factorising(monkeypatch, capsys):
    def factorize(q):
        raise AssertionError(f"factorised {q}")

    monkeypatch.setattr(arith, "_factorize", factorize)
    assert main(["characters", "--q", "2305843009213693951"]) == 1
    assert "over the 16777216-cell budget" in capsys.readouterr().err


def test_scan_zeros_finds_first_zero(tmp_path):
    out = tmp_path / "zeros.csv"
    assert main(["scan-zeros", "--q", "3", "--chi-index", "1",
                 "--t-min", "7", "--t-max", "9", "--t-step", "0.05",
                 "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("t_zero")]
    assert len(rows) == 1
    assert float(rows[0].split(",")[0]) == pytest.approx(8.039737, abs=1e-5)


def test_scan_zeros_past_eta_underflow(tmp_path):
    # eta underflows to +-0 near t = 1000 for the odd chi mod 3; the scan samples Z, so it
    # writes the one zero on [1000, 1001], bisected, and no exact hits
    out = tmp_path / "zeros.csv"
    assert main(["scan-zeros", "--q", "3", "--chi-index", "1", "--t-min", "1000",
                 "--t-max", "1001", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("t_zero")]
    assert len(rows) == 1 and float(rows[0][3]) == 1e-8
    assert float(rows[0][0]) == pytest.approx(1000.219446, abs=1e-5)


def test_level_check_row(capsys):
    assert main(["level-check", "--q", "3", "--chi-index", "1", "--t", "22",
                 "--eps", "0", "--p-star", "100000", "--p-max", "100000"]) == 0
    lines = [l for l in _lines(capsys) if not l.startswith("#")]
    vals = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(vals["t"]) == 22.0
    assert float(vals["target_level"]) == pytest.approx(-1.176, abs=1e-3)


def test_level_check_nonpositive_t_is_a_domain_error(capsys):
    assert main(["level-check", "--q", "3", "--chi-index", "1", "--t", "-2",
                 "--p-star", "1000", "--p-max", "1000"]) == 1
    assert "lphase: error: level check requires t > 0" in capsys.readouterr().err


def test_ledger_rows(capsys):
    assert main(["ledger", "--q", "3", "--chi-index", "1", "--t", "10",
                 "--p-star", "100000", "--p-max", "100000"]) == 0
    lines = _lines(capsys)
    # the provenance records the k_max the command resolved, not the parsed None
    k_max = ep.max_k_for_bound(10.0, arith.enumerate_characters(3)[1], 1e5)
    assert lines[1:9] == ["# command: ledger", "# q=3", "# chi_index=1", "# t=10.0",
                          "# eps=0.0", "# p_star=100000.0", "# p_max=100000", f"# k_max={k_max}"]
    lines = [l for l in lines if not l.startswith(("#", "k,"))]
    assert len(lines) >= 20
    for line in lines:
        parts = line.split(",")
        assert float(parts[2]) < float(parts[3]) < float(parts[4])
        assert all(float(x) >= 0.0 for x in parts[5:])


def test_table_odd_monotone(capsys):
    assert main(["table-odd", "--gw-terms", "100000"]) == 0
    lines = [l for l in _lines(capsys) if not l.startswith(("#", "q,"))]
    crossings = [float(l.split(",")[1]) for l in lines]
    assert all(a > b for a, b in zip(crossings, crossings[1:]))


def test_figure_q3_runs(capsys):
    assert main(["figure-q3", "--t-min", "1", "--t-max", "3", "--t-step", "0.5",
                 "--gw-terms", "50000"]) == 0
    lines = [l for l in _lines(capsys) if not l.startswith(("#", "t,"))]
    assert len(lines) == 5


def test_every_parsed_name_is_recorded_or_declared_unrecorded():
    # a new option joins cli._PROVENANCE, and so every CSV's provenance lines, or this set
    unrecorded = {"command", "out", "match_phase", "allow_large", "fn"}  # command: own line
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        required = [x for a in p._actions if a.required for x in (a.option_strings[0], "1")]
        parsed = set(vars(parser.parse_args([name, *required])))
        assert parsed - unrecorded <= set(cli._PROVENANCE), name


def test_usage_errors_exit_1(capsys):
    assert main(["characters"]) == 1                       # missing --q
    assert main(["characters", "--q", "0"]) == 1           # domain error
    assert main(["scan-zeros", "--q", "3", "--chi-index", "0",
                 "--t-min", "0", "--t-max", "1"]) == 1     # principal character
    assert main(["level-check", "--q", "3", "--chi-index", "1", "--t", "5",
                 "--p-max", str(2 * 10 ** 8)]) == 1        # cap without --allow-large
    assert main(["verify", "--criteria", "99"]) == 1       # unknown criterion
    assert main(["no-such-command"]) == 1


def test_unbounded_t_grids_exit_1(capsys):
    # the point count is checked before np.arange, so 2e16 points are refused, not allocated
    assert main(["figure-q3", "--t-max", "1e15"]) == 1
    assert main(["scan-zeros", "--q", "3", "--chi-index", "1", "--t-max", "1e15"]) == 1
    err = capsys.readouterr().err
    assert err.count("lphase: error: t grid") == 2 and "Traceback" not in err


def test_oversized_tables_exit_1(capsys):
    # 4e11 character cells, 4.2e6 ledger entries and Li intervals of 1.6e299 panels are
    # counted and refused, not built
    assert main(["characters", "--q", "1000000"]) == 1
    assert main(["ledger", "--q", "3", "--chi-index", "1", "--t", "1000000",
                 "--p-max", "1000000", "--p-star", "1000000"]) == 1
    assert main(["ledger", "--q", "3", "--chi-index", "1", "--t", "10", "--eps", "1e300",
                 "--p-max", "100000", "--p-star", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.count("lphase: error:") == 3 and "Traceback" not in err


def test_verify_single_passing_criterion(capsys, tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--criteria", "2", "--out", str(out)]) == 0
    assert "PASS criterion  2" in capsys.readouterr().out
    assert out.read_text().count("\n") >= 3


def test_verify_rows_have_one_field_per_column(tmp_path):
    # criterion 3's title holds commas, escaped like every detail's
    out = tmp_path / "verify.csv"
    assert main(["verify", "--criteria", "3", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "criterion,passed,elapsed_s,title,detail"
    assert len(lines) == 2 and all(len(l.split(",")) == 5 for l in lines)


def test_verify_exits_2_on_failure(capsys):
    # criterion 11 compares against a reference bracket the exact value misses
    assert main(["verify", "--criteria", "11"]) == 2
    assert "FAIL criterion 11" in capsys.readouterr().out


def test_figure_mixed_and_q5_run(capsys):
    assert main(["figure-mixed", "--t-min", "1", "--t-max", "2", "--t-step", "0.5",
                 "--gw-terms", "100000"]) == 0
    lines = [l for l in _lines(capsys) if not l.startswith(("#", "t,"))]
    assert len(lines) == 3 and len(lines[0].split(",")) == 7
    assert main(["figure-q5", "--t-min", "1", "--t-max", "2", "--t-step", "0.5",
                 "--gw-terms", "50000"]) == 0


def _float_options():
    # (command, option) for every option of every subcommand that takes a real number
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, p in sub.choices.items()
            for a in p._actions if a.type not in (None, int)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", _float_options())
def test_float_options_reject_non_finite(command, option, value, capsys):
    assert main([command, f"{option}={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"lphase: usage error: argument {option}: expected a finite number, got {value!r}\n"


def test_float_options_cover_every_real_parameter():
    assert set(_float_options()) >= {
        ("figure-symmetries", "--p-star"), ("figure-q3", "--eps"), ("figure-q3", "--t-step"),
        ("level-check", "--t"), ("ledger", "--t"), ("scan-zeros", "--t-max")}


def test_inverted_or_empty_t_grids_exit_1(capsys):
    # both grid conditions live in lfunction._uniform_grid, shared with find_zeros_on_line
    assert main(["figure-q3", "--t-step", "0"]) == 1
    assert main(["scan-zeros", "--q", "3", "--chi-index", "1", "--t-max", "1", "--t-min", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("lphase: error: a t grid needs") == 2 and "Traceback" not in err


def test_far_t_head_exits_1_before_allocating(capsys):
    # the Gamma and L heads at t = 1e12 would hold 2e12 and 1e12 rows; the row budget
    # refuses them before either is built
    assert main(["scan-zeros", "--q", "3", "--chi-index", "1",
                 "--t-min", "1e12", "--t-max", "1000000000000.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lphase: error: a head of ") and err.count("\n") == 1


def test_main_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["characters", "--q", "3"]) == 0
    assert cli._parser.cache_info().misses == 1
    # a reused parser still gives each parse its own --match-phase list
    spec = ["scan-zeros", "--q", "5", "--match-phase", "2=1/2"]
    first, second = (cli._parser().parse_args(spec) for _ in range(2))
    assert first.match_phase == second.match_phase == ["2=1/2"]
    assert first.match_phase is not second.match_phase
