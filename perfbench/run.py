"""polyemo benchmark: seeded workloads, end-to-end metrics, traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance-matrix --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For one workload it builds the inputs from the seed (timed on its own, as
``generation_s``), measures the workload in a fresh ``measure.py`` process,
and prints human-readable lines followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's public functions are wrapped in spans and the metrics are the
per-layer ones. ``--workload all`` runs every workload in turn, each in its
own process, and prints one line per workload.

The program is imported from ``src/``; without it the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = gen.prepare(workload, seed, work)
        generation_s = time.perf_counter() - started
        plan.update(seconds=seconds, trace=trace)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=2), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, "-W", "ignore", str(HERE / "measure.py"), str(plan_path)],
            cwd=ROOT,
            env=env,
            timeout=budget,
            check=True,
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["info"]["generation_s"] = generation_s
    return result


def report(workload: str, result: dict) -> None:
    info = result["info"]
    frac = result["failed"] / result["attempted"]
    print(f"[{workload}] generation_s {info['generation_s']:.4f} (input building, not part of setup_s)")
    print(f"[{workload}] attempted {result['attempted']} failed {result['failed']} failed_frac {frac:.6g}")
    for failure in info["failures"]:
        print(f"[{workload}] FAILED {failure}")
    print(f"[{workload}] outputs_digest {info['outputs_digest']}")
    print(f"[{workload}] environment {json.dumps(info['environment'], sort_keys=True)}")
    print(f"[{workload}] setup samples (import + load_config) {[round(v, 4) for v in info['setup_samples_s']]}")
    print(f"[{workload}] matrix walls {[round(v, 4) for v in info['matrix_walls_s']]}, requests {info['requests']}")
    print(f"[{workload}] f1 group minima {json.dumps(info['f1_group_minima'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyemo" / "__init__.py").is_file():
        print(f"benchmark: no program source at {ROOT / 'src' / 'polyemo'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    summary = {}
    for workload in gen.WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        report(workload, result)
        summary[workload] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    for workload, line in summary.items():
        print(f"{workload} {json.dumps(line)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
