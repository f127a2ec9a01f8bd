"""Self-test of the benchmark on tiny inputs (lenet, density 0.2).

Run from the repository root:

    python3 perfbench/selftest.py

It runs perfbench/run.py on the two lenet workloads with tracing off and
on, and checks that every metric BENCHMARK.json names is printed with its
unit and that the run passes. It then runs verify with the CLI's hidden
--corrupt-layer CONV2 flag and checks that the failure is counted and the
run is not reported as correct. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit code "
                         f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in ("verify-lenet-d20", "codec-lenet-d20"):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: reported {result['failed']} "
                                f"failed checks")
            if result["attempted"] < 1:
                problems.append(f"{label}: no checks attempted")
            printed = result["metrics"]
            for metric in spec[group]:
                got = printed.get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} in "
                                    f"{got['unit']}, not {metric['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{label}: {metric['name']} is "
                                    f"{got['value']}")
            extra = set(printed) - {m["name"] for m in spec[group]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    corrupt = run("verify-lenet-d20", 0, "--corrupt-layer", "CONV2")
    if corrupt["correct"] or corrupt["failed"] < 1:
        problems.append("--corrupt-layer CONV2 was reported as a pass")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
