"""Record the outputs of the fixed-input jobs into expected/<workload>.json.

    python3 perfbench/record.py [WORKLOAD ...]

The recorded outputs are the reference the benchmark checks against.  They
were written at the commit that defined the benchmark; re-record only when a
change is meant to alter an output, and say so, since a change that claims a
speed-up may not edit the benchmark.
"""

import json
import sys
import tempfile
from pathlib import Path

from worker import digest  # first: it puts the checkout's src/ on sys.path

import jobs as workloads


def record(workload: str) -> None:
    out = {}
    work = Path(__file__).resolve().parents[1] / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for job in workloads.build(workload, 0, tmp):
            if job.compare:
                data = job.data(job.run())
                out[job.id] = {"digest": digest(data), "data": data}
    path = Path(__file__).with_name("expected") / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{path}: {len(out)} jobs")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
