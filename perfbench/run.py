"""Entry point of the lphase benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh interpreter (perfbench/worker.py) with OpenMP/OpenBLAS/MKL pinned to
one thread; passes repeat until the next one would end after --seconds
(at least one).  With --trace 0 the run reports the end-to-end metrics as
medians over its passes (solve_s as the sum of per-job medians); with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, including the tracing overhead.
Every metric is printed by name with its unit; the last line is one JSON
object.  The exit code is 1 when a correctness check fails, and 2 when the
checkout holds no lphase sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BUDGET_S = 170.0       # the whole run, set-up probes included
MIN_SETUP_SAMPLES = 3  # set-up is timed once per pass, topped up by import-only probes

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
TIMING_UNITS = ("s", "ns")  # per-layer metrics reported as medians; the rest must repeat


def _env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def _worker(args: list[str], out: Path, deadline: float) -> dict:
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)],
                          env=_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def _solve_s(passes: list[dict]) -> float:
    """Time to solution: each job's median wall time over the passes, summed.

    Per-job medians drop a slow stretch of the machine that hits one job in
    one pass, which the median of whole-pass times keeps when passes are few.
    """
    per_job = zip(*([job["seconds"] for job in p["jobs"]] for p in passes))
    return sum(statistics.median(times) for times in per_job)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["euler_scan", "prefactor", "critical_line", "characters"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    deadline = started + BUDGET_S
    if not (ROOT / "src" / "lphase" / "__init__.py").is_file():
        print(f"no lphase sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src" / "lphase", quiet=1)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        try:
            passes.append(_worker(["--workload", args.workload, "--seed", str(args.seed)]
                                  + (["--trace"] if traced else []),
                                  WORK / f"{tag}-p{len(passes)}.json", deadline))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"pass {len(passes)} did not complete: {exc}", file=sys.stderr)
            return 2
        last = time.monotonic() - t0
        needed = 2 if args.trace else 1
        if len(passes) >= needed and time.monotonic() + last > started + args.seconds:
            break
        if time.monotonic() + last > deadline:
            break
    setup = [p["setup_s"] for p in passes]
    while len(setup) < MIN_SETUP_SAMPLES and time.monotonic() + 5.0 < deadline:
        setup.append(_worker(["--setup-only"], WORK / f"{tag}-setup.json", deadline)["setup_s"])

    # correctness: every job's checks in every pass, and identical digests across passes
    attempted = failed = 0
    problems = []
    digests: dict[str, set] = {}
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            digests.setdefault(job["id"], set()).add(job["digest"])
            if not job["ok"]:
                failed += 1
                problems += [f"{job['id']}: {msg}" for msg in job["problems"]]
    for job_id, seen in digests.items():
        if len(seen) > 1:
            failed += 1
            problems.append(f"{job_id}: output differs between passes of one seed")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = {}
        for row in LAYER_METRICS:
            name = row["name"]
            if name == "trace.overhead_s":
                value = _solve_s(traced) - _solve_s(untraced)
            elif row["unit"] in TIMING_UNITS:
                value = statistics.median(p["layers"][name] for p in traced)
            else:
                seen = {p["layers"][name] for p in traced}
                if len(seen) > 1:
                    failed += 1
                    problems.append(f"work count {name} differs between passes: {sorted(seen)}")
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": row["unit"]}
    else:
        metrics = {
            "solve_s": {"value": _solve_s(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MiB"},
        }

    env = passes[0]["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes in "
          f"{time.monotonic() - started:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    shown = (traced or passes)[-1]
    for job in shown["jobs"]:
        work = {k: v for k, v in job.get("work", {}).items() if v}
        print(f"job {job['id']:<20} {job['seconds']:9.4f} s  size {json.dumps(job['size'])}"
              + (f"  work {json.dumps(work, sort_keys=True)}" if work else ""))
    bit_identical = sum(bool(j["bit_identical"]) for j in shown["jobs"])
    recorded = sum(j["bit_identical"] is not None for j in shown["jobs"])
    print(f"bit-identical with the recorded outputs: {bit_identical}/{recorded} fixed jobs")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    for msg in problems:
        print("FAILED " + msg.replace("\n", "\n    "), file=sys.stderr)

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": env, "passes": passes, "setup_samples": setup, "metrics": metrics,
               "attempted": attempted, "failed": failed, "problems": problems}
    (WORK / f"result-{tag}.json").write_text(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
