"""Self-checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The determinism test runs every workload twice, traced, with one seed and
asserts that the work counts and every job's output digest repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def _pass(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--trace", "--out", str(out)],
                   env=run._env(), cwd=ROOT, check=True, timeout=170)
    return json.loads(out.read_text())


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_work_counts_and_digests_repeat(workload, scratch):
    first = _pass(workload, 7, scratch / "a.json")
    second = _pass(workload, 7, scratch / "b.json")
    counts = [row["name"] for row in LAYER_METRICS
              if row["unit"] not in run.TIMING_UNITS and row["name"] in first["layers"]]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert [(j["id"], j["digest"]) for j in first["jobs"]] == \
           [(j["id"], j["digest"]) for j in second["jobs"]]
    assert all(j["ok"] for j in first["jobs"] + second["jobs"]), \
        [j["problems"] for j in first["jobs"] if not j["ok"]]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
           [(m["name"], m["unit"], m["better"]) for m in LAYER_METRICS]


def test_refuses_a_directory_without_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "characters",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("got, ref, same", [
    ("q=3: t_cross = 2.1062 within 2.0 +/- 0.05", "q=3: t_cross = 2.1062 within 2.0 +/- 0.05", True),
    ("q=3: t_cross = 2.1063 within 2.0 +/- 0.05", "q=3: t_cross = 2.1062 within 2.0 +/- 0.05", True),
    ("q=3: t_cross = 2.1072 within 2.0 +/- 0.05", "q=3: t_cross = 2.1062 within 2.0 +/- 0.05", False),
    ("max | |tau|^2 - q | = 3.55e-15 < 1e-9", "max | |tau|^2 - q | = 1.42e-14 < 1e-9", True),
    ("rho+ = 0.9876 < 1", "rho- = 0.9876 < 1", False),
])
def test_subcheck_lines_compare_at_printed_precision(got, ref, same):
    assert jobs._line_matches(got, ref) is same
