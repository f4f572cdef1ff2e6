"""Span tracer for the traced benchmark run, and the per-layer metric table.

The tracer replaces the public functions of each lphase module with thin
wrappers that record a span (name, start, end, parent span, job id) and the
work counts of the call.  Nothing under ``src/`` changes: a function is
wrapped under its name in every lphase namespace that holds it, so
``lfunction.gamma_phase`` (imported by name from gammaphase) is traced as
well as ``gammaphase.gamma_phase``, and calls between functions of one
module go through the wrapped module global.

Spans and counts stay in memory during the run and are written out when it
ends; self times (a span's duration minus its children's) are derived
afterwards by `layer_values`.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

# ---------------------------------------------------------------------------
# per-layer metrics: name suffix -> (unit, better)
# ---------------------------------------------------------------------------

_SUFFIX = {
    "s": ("s", "lower"),
    "calls": ("count", "lower"),
    "primes": ("count", "lower"),
    "characters": ("count", "lower"),
    "points": ("count", "lower"),
    "entries": ("count", "lower"),
    "prime_terms": ("count", "lower"),
    "terms": ("count", "lower"),
    "hurwitz_evals": ("count", "lower"),
    "zeros": ("count", "higher"),
    "ns_per_prime_term": ("ns", "lower"),
    "ns_per_term": ("ns", "lower"),
    "evals_per_call": ("evals/call", "lower"),
    "eta_evals_per_zero": ("evals/zero", "lower"),
}

# (span, metric suffixes, end-to-end metrics it should move, workloads)
_LAYERS = [
    ("arith.sieve_primes", "s calls primes", "solve_s", "euler_scan critical_line"),
    ("arith.enumerate_characters", "s calls characters", "solve_s", "characters"),
    ("arith.gauss_sum", "s calls", "solve_s", "characters"),
    ("arith.conjugate", "s calls", "solve_s", "characters"),
    ("arith.primitive_inducer", "s calls", "solve_s", "characters"),
    ("eulerphase.windowed_ratio_exact", "s calls prime_terms ns_per_prime_term",
     "solve_s", "euler_scan critical_line"),
    ("eulerphase.windowed_ratio_approx", "s calls prime_terms ns_per_prime_term",
     "solve_s", "euler_scan"),
    ("eulerphase.scan", "s points", "solve_s", "euler_scan"),
    ("eulerphase.estimator_residual", "s calls", "solve_s", "critical_line"),
    ("eulerphase.build_oscillation_ledger", "s entries", "solve_s", "critical_line"),
    ("eulerphase.level_check", "s calls", "solve_s", "critical_line"),
    ("gammaphase.gw_log_gamma_phase", "s calls terms ns_per_term", "solve_s", "prefactor"),
    ("gammaphase.gw_dphase_dt", "s calls terms ns_per_term", "solve_s", "prefactor"),
    ("gammaphase.find_t_cross", "s calls evals_per_call", "solve_s", "prefactor"),
    ("gammaphase.mixed_second_derivative", "s calls evals_per_call", "solve_s", "prefactor"),
    ("gammaphase.stirling_phase", "s calls", "solve_s", "prefactor"),
    ("gammaphase.gamma_phase", "s points", "solve_s peak_rss_mb", "critical_line"),
    ("gammaphase.gamma_log_abs", "s points", "solve_s peak_rss_mb", "critical_line"),
    ("lfunction.l_on_grid", "s points hurwitz_evals", "solve_s peak_rss_mb", "critical_line"),
    ("lfunction.xi_on_grid", "s points", "solve_s peak_rss_mb", "critical_line"),
    ("lfunction.eta_on_grid", "s calls points", "solve_s peak_rss_mb", "critical_line"),
    ("lfunction.find_zeros_on_line", "s calls zeros eta_evals_per_zero", "solve_s",
     "critical_line"),
    ("lfunction.eps_slope_on_grid", "s points", "solve_s", "critical_line"),
    ("lfunction.angular_momentum_on_grid", "s points", "solve_s", "critical_line"),
    ("lfunction.angular_momentum_eps_slope", "s calls", "solve_s", "critical_line"),
    ("lfunction.xi_phase_dt", "s calls", "solve_s", "critical_line"),
    ("lfunction.l_eval", "s calls", "solve_s", "critical_line"),
]

# which workload runs each criterion and each CLI command
CRITERION_WORKLOAD = {
    1: "characters", 2: "characters", 3: "prefactor", 4: "prefactor", 5: "prefactor",
    6: "prefactor", 7: "critical_line", 8: "critical_line", 9: "critical_line",
    10: "critical_line", 11: "critical_line", 12: "critical_line", 13: "critical_line",
    14: "euler_scan", 15: "critical_line", 16: "euler_scan",
}
CLI_WORKLOAD = {
    "characters": "characters", "gauss": "characters", "table-odd": "prefactor",
    "figure-mixed": "prefactor", "figure-q3": "prefactor", "figure-q5": "prefactor",
    "figure-symmetries": "euler_scan", "scan-zeros": "critical_line",
    "level-check": "critical_line", "ledger": "critical_line",
}


def _metric_table() -> list[dict]:
    rows = []
    for span, suffixes, moves, workloads in _LAYERS:
        for suffix in suffixes.split():
            unit, better = _SUFFIX[suffix]
            rows.append({"name": f"{span}.{suffix}", "unit": unit, "better": better,
                         "moves": moves.split(), "workloads": workloads.split()})
    for cid, workload in CRITERION_WORKLOAD.items():
        rows.append({"name": f"verify.c{cid:02d}.s", "unit": "s", "better": "lower",
                     "moves": ["solve_s"], "workloads": [workload]})
    for command, workload in CLI_WORKLOAD.items():
        rows.append({"name": f"cli.{command}.s", "unit": "s", "better": "lower",
                     "moves": ["solve_s"], "workloads": [workload]})
    rows.append({"name": "trace.overhead_s", "unit": "s", "better": "lower",
                 "moves": [], "workloads": sorted(set(CRITERION_WORKLOAD.values()))})
    rows.append({"name": "check.bit_identical", "unit": "count", "better": "higher",
                 "moves": [], "workloads": sorted(set(CRITERION_WORKLOAD.values()))})
    return rows


LAYER_METRICS = _metric_table()

# ---------------------------------------------------------------------------
# work counters: (bound arguments, result, cache missed) -> {count: n}
# ---------------------------------------------------------------------------

GW_EVAL = "gammaphase.gw_dphase_dt"
ETA_EVAL = "lfunction.eta_on_grid"


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _primes_summed(a: dict) -> int:
    """Primes of the table below window.p_max and coprime to q (what the kernel sums)."""
    table, q, p_max = a["primes"], a["chi"].q, a["window"].p_max
    below = int(np.searchsorted(table.primes, p_max, side="left"))
    return below - sum(1 for f in _prime_factors(q) if f < p_max and f <= table.p_max)


def _points(key: str):
    return lambda a, r, missed: {"points": int(np.size(a[key]))}


_COUNTERS = {
    "arith.sieve_primes": lambda a, r, missed: {"primes": r.count()},
    "arith.enumerate_characters": lambda a, r, missed: {"characters": len(r) if missed else 0},
    "eulerphase.windowed_ratio_exact":
        lambda a, r, missed: {"prime_terms": 2 * _primes_summed(a)},
    "eulerphase.windowed_ratio_approx":
        lambda a, r, missed: {"prime_terms": _primes_summed(a)},
    "eulerphase.scan": _points("t_grid"),
    "eulerphase.build_oscillation_ledger": lambda a, r, missed: {"entries": len(r.entries)},
    "gammaphase.gw_log_gamma_phase": lambda a, r, missed: {"terms": a["n_terms"]},
    "gammaphase.gw_dphase_dt": lambda a, r, missed: {"terms": a["n_terms"]},
    "gammaphase.gamma_phase": _points("t"),
    "gammaphase.gamma_log_abs": _points("t"),
    "lfunction.l_on_grid": lambda a, r, missed: {
        "points": int(np.size(a["t_grid"])),
        "hurwitz_evals": int(np.size(a["t_grid"]))
        * sum(1 for turn in a["chi"].phase_turns if turn is not None)},
    "lfunction.xi_on_grid": _points("t_grid"),
    "lfunction.eta_on_grid": _points("t_grid"),
    "lfunction.eps_slope_on_grid": _points("t_grid"),
    "lfunction.angular_momentum_on_grid": _points("t_grid"),
    "lfunction.find_zeros_on_line":
        lambda a, r, missed: {"zeros": sum(1 for z in r if z.t_zero is not None)},
}


class Tracer:
    """Records spans and work counts of wrapped lphase functions in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()  # "span.count" -> total
        self.job_counts: dict[str, Counter] = defaultdict(Counter)
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n
        self.job_counts[self.job][key] += n

    def _wrap(self, owner, attr: str, orig, name, counter) -> None:
        tracer = self
        sig = inspect.signature(orig) if counter else None
        cache_info = getattr(orig, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                missed = cache_info is not None and cache_info().misses > misses
                for key, n in counter(bound.arguments, result, missed).items():
                    tracer._add(f"{name}.{key}", n)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def _wrap_everywhere(self, modules, home, attr: str, name, counter=None) -> None:
        """Wrap home.attr, and the same object in every module that imported it."""
        orig = getattr(home, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._wrap(module, key, orig, name, counter)

    def install(self) -> None:
        import lphase
        from lphase import arith, cli, eulerphase, gammaphase, lfunction, verify

        modules = [lphase, arith, eulerphase, gammaphase, lfunction, verify, cli]
        for span, _, _, _ in _LAYERS:
            module_name, func = span.split(".")
            if span == "arith.conjugate":
                orig = arith.DirichletCharacter.conjugate
                self._wrap(arith.DirichletCharacter, "conjugate", orig, span, None)
                continue
            home = {"arith": arith, "eulerphase": eulerphase, "gammaphase": gammaphase,
                    "lfunction": lfunction}[module_name]
            self._wrap_everywhere(modules, home, func, span, _COUNTERS.get(span))
        self._wrap_everywhere(modules, verify, "run_criterion",
                              lambda args, kwargs: f"verify.c{(args or [kwargs.get('cid')])[0]:02d}")
        self._wrap_everywhere(modules, cli, "main",
                              lambda args, kwargs: f"cli.{(args or [kwargs.get('argv')])[0][0]}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_values(spans: list[list], counts: dict) -> dict[str, float]:
    """Every metric of LAYER_METRICS derivable from one traced pass.

    ``s`` is self time summed over calls; unused layers read 0.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_calls: Counter = Counter()  # (parent name, child name) -> calls
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        calls[name] += 1
        if parent >= 0:
            child_calls[(spans[parent][0], name)] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for row in LAYER_METRICS:
        span, suffix = row["name"].rsplit(".", 1)
        if span in ("trace", "check"):
            continue
        if suffix == "s":
            value = self_s[span]
        elif suffix == "calls":
            value = calls[span]
        elif suffix == "ns_per_prime_term":
            value = 1e9 * ratio(self_s[span], counts.get(f"{span}.prime_terms", 0))
        elif suffix == "ns_per_term":
            value = 1e9 * ratio(self_s[span], counts.get(f"{span}.terms", 0))
        elif suffix == "evals_per_call":
            value = ratio(child_calls[(span, GW_EVAL)], calls[span])
        elif suffix == "eta_evals_per_zero":
            # one eta_on_grid call per scan covers the grid; the rest are bisection steps
            value = ratio(child_calls[(span, ETA_EVAL)] - calls[span],
                          counts.get(f"{span}.zeros", 0))
        else:
            value = counts.get(f"{span}.{suffix}", 0)
        out[row["name"]] = value
    return out
