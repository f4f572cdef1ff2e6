"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out RESULT.json [--trace]
    python3 perfbench/worker.py --setup-only --out RESULT.json

The first thing the worker does is time the import of lphase, lphase.cli and
lphase.verify (the set-up every CLI call pays).  It then runs the workload's
jobs one after another (closed loop, one client), times the whole list
(solve_s) and each job, reads the process's peak RSS, and afterwards checks
every output, untimed and untraced.  With --trace the lphase functions are
wrapped by the tracer for the timed part and the spans are written next to
the result.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

_start = time.perf_counter()
import lphase  # noqa: E402
import lphase.cli  # noqa: E402,F401
import lphase.verify  # noqa: E402,F401
SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import jobs as workloads  # noqa: E402
from tracer import Tracer, layer_values  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lphase": lphase.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def digest(data) -> str:
    # json.dumps writes floats by repr, which round-trips float64 exactly
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _primes_below(p_max: int, q: int, cache: dict) -> int:
    if p_max not in cache:
        cache[p_max] = lphase.arith.sieve_primes(p_max).primes
    primes = cache[p_max]
    below = primes[primes < p_max]
    return int(np.count_nonzero(np.gcd(below, q) == 1))


def run_pass(workload: str, seed: int, trace: bool, out: Path) -> dict:
    expected_path = Path(__file__).with_name("expected") / f"{workload}.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    tmp = tempfile.mkdtemp(prefix="pass-", dir=out.parent)
    try:
        jobs = workloads.build(workload, seed, tmp)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        outputs, errors, seconds = {}, {}, {}
        start, cpu_start = time.perf_counter(), time.process_time()
        for job in jobs:
            if tracer:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                outputs[job.id] = job.run()
            except Exception:  # a failing job is counted, and the pass goes on
                errors[job.id] = traceback.format_exc(limit=4)
            seconds[job.id] = time.perf_counter() - t0
        solve_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.dump(out.with_suffix(".spans.json"))

        records, primes_cache = [], {}
        for job in jobs:
            rec = {"id": job.id, "seconds": seconds[job.id], "size": job.size}
            if tracer:
                rec["work"] = dict(tracer.job_counts.get(job.id, {}))
            size = job.size
            if isinstance(size.get("p_max"), int) and isinstance(size.get("q"), int):
                size["primes"] = _primes_below(size["p_max"], size["q"], primes_cache)
            if job.id in errors:
                rec.update(ok=False, problems=[errors[job.id]], digest=None, bit_identical=None)
                records.append(rec)
                continue
            problems = []
            try:
                data = job.data(outputs[job.id])
                rec["digest"] = digest(data)
                for check in job.checks:
                    problems += check(outputs[job.id])
                rec["bit_identical"] = None
                if job.compare:
                    ref = expected.get(job.id)
                    if ref is None:
                        problems.append(f"no recorded output in {expected_path.name}")
                    else:
                        problems += workloads.compare(job.compare, data, ref["data"])
                        rec["bit_identical"] = rec["digest"] == ref["digest"]
            except Exception:  # a check that raises is a failed check
                problems.append(traceback.format_exc(limit=4))
                rec.setdefault("digest", None)
                rec.setdefault("bit_identical", None)
            rec.update(ok=not problems, problems=problems)
            records.append(rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {"workload": workload, "seed": seed, "traced": trace, "setup_s": SETUP_S,
              "solve_s": solve_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "env": environment(),
              "jobs": records}
    if tracer:
        result["layers"] = layer_values(tracer.spans, tracer.counts)
        result["layers"]["check.bit_identical"] = sum(bool(r["bit_identical"]) for r in records)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(lphase.__file__).resolve().parents:
        print(f"lphase was imported from {lphase.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        result = {"setup_s": SETUP_S}
    else:
        result = run_pass(args.workload, args.seed, args.trace, args.out)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
