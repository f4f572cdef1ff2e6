"""Command-line interface: deterministic CSV scans and the verification suite.

Every command writes CSV with provenance comment lines (prefixed ``#``)
recording the package version, the command and its effective parameters
(in ``_PROVENANCE`` order), then a header row, then data rows with floats in
12-significant-digit scientific notation.  Each command hands ``_write_csv``
its data lines already joined: the character table joins each row from one
precomputed table of turn names, and the other commands join their
mixed-type rows cell by cell through ``_fmt`` (``_joined``).  No timestamps
are written, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage or parameter error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__, arith, eulerphase as ep, gammaphase as gp, lfunction as lf
from .arith import SPoint
from .errors import DomainError, ResourceLimitError, SingularityError, TruncationError

_P_MAX_DEFAULT = 10 ** 6
# the parameters a CSV records, in this order: those a command parses, with the values it
# resolves itself (the selected character's index, the default k_max) in their place;
# --out, --match-phase and --allow-large are not recorded
_PROVENANCE = ("q", "chi_index", "alpha", "t", "eps", "p_star", "p_max", "t_min", "t_max",
               "t_step", "gw_terms", "k_max", "criteria")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.11e}"
    return str(x)


def _joined(rows: list[list]) -> list[str]:
    return [",".join(map(_fmt, row)) for row in rows]


def _write_csv(args, header: list[str], data: list[str], **resolved) -> None:
    """Write the provenance lines, the header and the data lines, which come already joined."""
    params = {**vars(args), **resolved}
    lines = [f"# lphase {__version__}", f"# command: {args.command}"]
    lines += [f"# {k}={params[k]}" for k in _PROVENANCE if k in params]
    lines.append(",".join(header))
    lines += data
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _resolve_character(args) -> arith.DirichletCharacter:
    chars = arith.enumerate_characters(args.q)
    if getattr(args, "match_phase", None):
        wanted = {}
        for spec in args.match_phase:
            try:
                n_str, frac = spec.split("=", 1)
                wanted[int(n_str)] = Fraction(frac)
            except (ValueError, ZeroDivisionError) as exc:
                raise _UsageError(f"--match-phase expects n=num/den, got {spec!r} ({exc})")
        # chi(n) has turn F = num/den iff its log index r = k[n] is not -1 (chi(n) != 0)
        # and r/m = F, tested as r * den == num * m on Python ints
        m = chars[0].m
        hits = [c for c in chars
                if all((r := int(c.k[n % args.q])) >= 0 and r * F.denominator == F.numerator * m
                       for n, F in wanted.items())]
        if len(hits) != 1:
            raise _UsageError(
                f"--match-phase selects {len(hits)} characters mod {args.q}; "
                f"candidates: {[c.index for c in hits]}"
            )
        return hits[0]
    if args.chi_index is None:
        raise _UsageError("--chi-index (or --match-phase) is required")
    if not 0 <= args.chi_index < len(chars):
        raise _UsageError(f"--chi-index must be in [0, {len(chars) - 1}] for q={args.q}")
    return chars[args.chi_index]


def _primitive_character(args) -> arith.DirichletCharacter:
    chi = _resolve_character(args)
    if not chi.is_primitive or chi.is_principal:
        raise _UsageError("--chi-index must select a primitive non-principal character")
    return chi


def _table(args) -> tuple[arith.PrimeTable, ep.WindowParams]:
    # the prime table and window of a prime-sum command
    cap = arith._DEFAULT_P_BUDGET
    if args.p_max > cap and not args.allow_large:
        raise _UsageError(f"--p-max {args.p_max} exceeds the cap {cap}; pass --allow-large")
    return (arith.sieve_primes(args.p_max, p_budget=args.p_max),
            ep.WindowParams(p_star=args.p_star, p_max=args.p_max))


def _finite(text: str) -> float:
    # the argparse type of every float option: nan and +/-inf are usage errors
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _t_grid(args) -> np.ndarray:
    return np.round(lf._uniform_grid(args.t_min, args.t_max, args.t_step), 12)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _turn_names(m: int) -> list[str]:
    """str(Fraction(r, m)) for r in range(m), then "" (index -1: chi vanishes)."""
    names = []
    for r in range(m):
        g = math.gcd(r, m)
        names.append(str(r // g) if g == m else f"{r // g}/{m // g}")
    return names + [""]


def _cmd_characters(args) -> int:
    chars = arith.enumerate_characters(args.q)
    names = _turn_names(chars[0].m)
    header = ["chi_index", "conductor", "parity", "is_principal", "is_primitive"]
    header += [f"angle_turns_n{n}" for n in range(args.q)]
    rows = [f"{c.index},{c.conductor},{c.parity},{int(c.is_principal)},{int(c.is_primitive)},"
            + ",".join(map(names.__getitem__, c.k.tolist())) for c in chars]
    _write_csv(args, header, rows)
    return 0


def _cmd_gauss(args) -> int:
    rows = []
    for c in arith.enumerate_characters(args.q):
        tau = arith.gauss_sum(c)
        rows.append([c.index, int(c.is_primitive), tau.real, tau.imag,
                     abs(tau) ** 2, args.q - abs(tau) ** 2])
    _write_csv(args, ["chi_index", "is_primitive", "tau_re", "tau_im", "abs_tau_sq",
                      "q_minus_abs_tau_sq"], _joined(rows))
    return 0


def _cmd_figure_mixed(args) -> int:
    rows = []
    for t in _t_grid(args).tolist():
        row = [t]
        for alpha in (0, 1, 2):
            row.append(gp.mixed_second_derivative(t, alpha, n_terms=args.gw_terms))
        row += [(2 * a - 1) / (4.0 * t * t) for a in (0, 1, 2)]
        rows.append(row)
    _write_csv(args, ["t", "mixed_alpha0", "mixed_alpha1", "mixed_alpha2",
                      "ref_alpha0", "ref_alpha1", "ref_alpha2"], _joined(rows))
    return 0


def _cmd_figure_prefactor(args) -> int:
    params = gp.PrefactorParams.for_alpha(args.alpha, args.q)
    rows = []
    for t in _t_grid(args).tolist():
        val = gp.prefactor_dphase_dt(SPoint(args.eps, t), params, args.gw_terms)
        rows.append([t, val, gp._level(t, args.q)])
    _write_csv(args, ["t", "prefactor_dphase_dt", "asymptote_log_sqrt"], _joined(rows))
    return 0


def _cmd_figure_symmetries(args) -> int:
    chi = _resolve_character(args)
    table, window = _table(args)
    grid = _t_grid(args)
    sc = ep.scan(chi, args.eps, grid, table, window)
    rows = [[t, v, -gp._level(t, args.q)] for t, v in zip(sc.t_grid.tolist(), sc.values.tolist())]
    _write_csv(args, ["t", "windowed_ratio_exact", "minus_log_sqrt_level"], _joined(rows),
               chi_index=chi.index)
    return 0


def _cmd_table_odd(args) -> int:
    rows = []
    for q in (3, 4, 5, 7, 8, 9):
        t = gp.find_t_cross(gp.PrefactorParams.for_alpha(1, q), n_terms=args.gw_terms)
        rows.append([q, "always-positive" if t is None else t])
    _write_csv(args, ["q", "t_cross"], _joined(rows))
    return 0


def _cmd_scan_zeros(args) -> int:
    chi = _primitive_character(args)
    records = lf.find_zeros_on_line(chi, args.t_min, args.t_max, args.t_step)
    rows = [[("" if r.t_zero is None else r.t_zero), r.bracket[0], r.bracket[1],
             r.tol, r.sign_before, r.sign_after, int(r.suspected_multiple)]
            for r in records]
    _write_csv(args, ["t_zero", "bracket_lo", "bracket_hi", "tol",
                      "sign_before", "sign_after", "suspected_multiple"], _joined(rows),
               chi_index=chi.index)
    return 0


def _cmd_level_check(args) -> int:
    chi = _primitive_character(args)
    table, window = _table(args)
    res = ep.level_check(args.t, args.eps, chi, table, window)
    row = [res.t, res.eps, res.windowed, res.lhs, res.xi_phase_dt, res.defect,
           -gp._level(args.t, args.q)]
    _write_csv(args, ["t", "eps", "windowed_ratio", "lhs", "xi_phase_dt", "defect", "target_level"],
               _joined([row]), chi_index=chi.index)
    return 0


def _cmd_ledger(args) -> int:
    chi = _resolve_character(args)
    table, window = _table(args)
    k_max = args.k_max
    if k_max is None:
        k_max = ep.max_k_for_bound(args.t, chi, float(min(args.p_max, args.p_star)))
    led = ep.build_oscillation_ledger(args.t, args.eps, chi, table, window, k_max)
    rows = [[e.k, e.h, e.x_up, e.x_down, e.x_up_next,
             e.o_plus_sum, e.o_minus_sum, e.o_plus_li, e.o_minus_li]
            for e in led.entries]
    _write_csv(args, ["k", "h", "x_up", "x_down", "x_up_next",
                      "o_plus_sum", "o_minus_sum", "o_plus_li", "o_minus_li"], _joined(rows),
               chi_index=chi.index, k_max=k_max)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    ids = None
    if args.criteria:
        try:
            ids = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError:
            raise _UsageError("--criteria expects a comma-separated list of integers")
        known = {num for num, _, _, _ in verify.CRITERIA}
        if not set(ids) <= known:
            raise _UsageError(f"--criteria contains unknown ids: {sorted(set(ids) - known)}")
    results = verify.run_acceptance(ids)
    if args.out:
        _write_csv(args, ["criterion", "passed", "elapsed_s", "title", "detail"],
                   _joined([[r.cid, int(r.passed), r.elapsed, r.title.replace(",", ";"),
                             r.detail.replace(",", ";")] for r in results]),
                   criteria=args.criteria or "all")
    return 0 if all(r.passed for r in results) else 2


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def _add_character_opts(p):
    p.add_argument("--chi-index", type=int, default=None,
                   help="character index in the deterministic enumeration")
    p.add_argument("--match-phase", action="append", default=None, metavar="N=NUM/DEN",
                   help="select the character with phase_turns[N] = NUM/DEN (repeatable)")


def _add_prime_opts(p):
    p.add_argument("--p-star", type=_finite, default=float(_P_MAX_DEFAULT),
                   help="window prime scale p* (real, default 1e6)")
    p.add_argument("--p-max", type=int, default=_P_MAX_DEFAULT,
                   help="prime summation cutoff (default 1e6)")
    p.add_argument("--allow-large", action="store_true",
                   help="permit p_max beyond the 1e8 guardrail")


def _add_grid_opts(p, t_min, t_max, t_step):
    p.add_argument("--t-min", type=_finite, default=t_min)
    p.add_argument("--t-max", type=_finite, default=t_max)
    p.add_argument("--t-step", type=_finite, default=t_step)


def build_parser() -> _Parser:
    parser = _Parser(prog="lphase",
                     description="Dirichlet L-function phase scans and verification")
    parser.add_argument("--version", action="version", version=f"lphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, **q):
        # a subcommand run by fn, writing CSV to --out; keywords, if any, define its --q
        p = sub.add_parser(name, help=help)
        if q:
            p.add_argument("--q", type=int, **q)
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.set_defaults(fn=fn)
        return p

    command("characters", _cmd_characters, "exact character phase table mod q", required=True)
    command("gauss", _cmd_gauss, "Gauss sums and the |tau|^2 = q law", required=True)

    p = command("figure-mixed", _cmd_figure_mixed, "mixed-derivative curves for alpha = 0, 1, 2")
    _add_grid_opts(p, 0.25, 10.0, 0.25)
    p.add_argument("--gw-terms", type=int, default=2 * 10 ** 5)

    for name, alpha, q, parity in (("figure-q3", 1, 3, "odd"), ("figure-q5", 0, 5, "even")):
        p = command(name, _cmd_figure_prefactor, f"{parity} prefactor-phase derivative curve",
                    default=q)
        p.set_defaults(alpha=alpha)
        p.add_argument("--eps", type=_finite, default=0.0)
        _add_grid_opts(p, 0.05, 10.0, 0.05)
        p.add_argument("--gw-terms", type=int, default=2 * 10 ** 5)

    p = command("figure-symmetries", _cmd_figure_symmetries,
                "windowed estimator scan over a +/- t grid", required=True)
    _add_character_opts(p)
    p.add_argument("--eps", type=_finite, default=0.0)
    _add_grid_opts(p, -15.0, 15.0, 0.1)
    _add_prime_opts(p)

    p = command("table-odd", _cmd_table_odd, "crossing thresholds t_cross for q = 3..9")
    p.add_argument("--gw-terms", type=int, default=10 ** 6)

    p = command("scan-zeros", _cmd_scan_zeros, "critical-line zeros of eta by sign changes",
                required=True)
    _add_character_opts(p)
    _add_grid_opts(p, 0.0, 30.0, 0.05)

    p = command("level-check", _cmd_level_check,
                "windowed level against the xi phase derivative", required=True)
    _add_character_opts(p)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, default=0.0)
    _add_prime_opts(p)

    p = command("ledger", _cmd_ledger,
                "oscillation masses per (k, h) by sum and Li integral", required=True)
    _add_character_opts(p)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, default=0.0)
    p.add_argument("--k-max", type=int, default=None,
                   help="largest oscillation index (default: largest fitting p_max)")
    _add_prime_opts(p)

    p = command("verify", _cmd_verify, "run the acceptance suite (exit 2 on failure)")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion ids (default: all)")
    return parser


_parser = cache(build_parser)  # built on the first main call, not at import


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"lphase: usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ResourceLimitError, TruncationError, SingularityError) as exc:
        print(f"lphase: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
