"""Measure one prepared workload in a fresh process.

Usage: ``python3 perfbench/measure.py <plan.json>`` with ``src`` on
``PYTHONPATH``; ``run.py`` prepares the plan and starts this process. The
first thing it does is import ``polyemo``, so that import is timed cold.
It writes ``result.json`` next to the plan.
"""

from __future__ import annotations

import time

_started = time.perf_counter()
from polyemo import runner  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
MIN_REQUESTS = 100
# request loop stops early past this, so a slow program cannot overrun the run limit
REQUEST_LOOP_CAP_S = 90.0

# Minimum macro F1 per (representation, classifier), over languages and PCA
# arms: about 0.1 below the lowest value seen on the seed commit, so a seed
# never fails by chance while a broken learner still does.
F1_FLOORS = {
    "acceptance-matrix": {
        ("bow", "dt"): 0.60,
        ("bow", "voting"): 0.75,
        ("bow", "mlp"): 0.80,
        ("tfidf", "dt"): 0.60,
        ("tfidf", "voting"): 0.75,
        ("tfidf", "mlp"): 0.80,
        ("word-vectors", "dt"): 0.80,
        ("word-vectors", "voting"): 0.85,
        ("word-vectors", "mlp"): 0.85,
    },
    "wide-multilingual": {
        ("tfidf", "knn"): 0.55,
        ("tfidf", "svm"): 0.75,
        ("tfidf", "mlp"): 0.80,
        ("word-vectors", "knn"): 0.60,
        ("word-vectors", "svm"): 0.75,
        ("word-vectors", "mlp"): 0.75,
    },
    "predict-serve": {
        ("tfidf", "voting"): 0.75,
        ("tfidf", "mlp"): 0.80,
        ("word-vectors", "voting"): 0.70,
        ("word-vectors", "mlp"): 0.85,
    },
}


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def outputs_digest(out_dir: Path) -> str:
    """Digest of report.csv and every predictions file, by name and bytes."""
    h = hashlib.sha256()
    for p in [out_dir / "report.csv"] + sorted((out_dir / "predictions").glob("*.csv")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def blas_threads() -> str:
    """OpenBLAS thread count as the loaded library reports it, if it can be found."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def setup_samples(config_paths: list[str]) -> list[float]:
    """Import plus config loading, once here and again in fresh interpreters."""
    started = time.perf_counter()
    configs = [runner.load_config(p) for p in config_paths]
    samples = [IMPORT_S + time.perf_counter() - started]
    probe = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import polyemo\n"
        "from polyemo.runner import load_config\n"
        "for p in sys.argv[1:]:\n"
        "    load_config(p)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, "-c", probe, *config_paths],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples, configs


def check_cells(tally: Tally, table, cells, groups: dict) -> None:
    """Every cell must be ok; folds each cell's F1 into its group minimum."""
    for cell, row in zip(cells, table.rows):
        tally.check(row.status == "ok", f"cell {cell.name}: {row.status} {row.error}")
        key = (row.representation, row.classifier)
        groups[key] = min(groups.get(key, 1.0), row.f1_macro if row.status == "ok" else 0.0)


def check_floors(tally: Tally, workload: str, groups: dict) -> None:
    for key, floor in F1_FLOORS[workload].items():
        got = groups.get(key, 0.0)
        tally.check(got >= floor, f"F1 floor {key}: {got:.4f} < {floor}")


def timed_request(tally: Tally, model: Path, request: str, output: Path, expected: bytes, what: str) -> float:
    started = time.perf_counter()
    try:
        runner.predict_file(model, request, output)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        elapsed = time.perf_counter() - started
        tally.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - started
    tally.check(output.read_bytes() == expected, f"{what}: output differs from the training-time predictions")
    return elapsed


def parity(tally: Tally, plan, cfg, cells, work: Path) -> tuple[list[float], int]:
    """predict_file on each cell's whole test split must equal its predictions file.

    Returns the request latencies and the number of documents labeled.
    """
    latencies, docs = [], 0
    for cell in cells:
        request = plan["requests"][cell.language]
        expected = (cfg.out_dir / "predictions" / f"{cell.name}.csv").read_bytes()
        latency = timed_request(
            tally,
            cfg.out_dir / "models" / f"{cell.name}.npz",
            request["all"],
            work / "parity" / f"{cell.name}.csv",
            expected,
            f"parity {cell.name}",
        )
        latencies.append(latency)
        docs += request["docs"]
    return latencies, docs


def run_matrix_workload(plan, configs, tally: Tally, work: Path, seconds: float) -> dict:
    cfg = configs[0]
    cells = runner.enumerate_cells(cfg)
    base_out = cfg.out_dir
    walls, digests = [], []
    loop_started = time.perf_counter()
    while True:
        cfg.out_dir = base_out.with_name(f"{base_out.name}-{len(walls)}")
        started = time.perf_counter()
        table = runner.run_matrix(cfg)
        walls.append(time.perf_counter() - started)
        if len(walls) == 1:
            first_out = cfg.out_dir
            artifact_mb = tree_bytes(first_out) / 1e6
            groups = {}
            check_cells(tally, table, cells, groups)
            check_floors(tally, plan["workload"], groups)
        else:
            tally.check(table.all_ok, f"repeat {len(walls)}: a cell failed")
        digests.append(outputs_digest(cfg.out_dir))
        if len(walls) > 1:
            tally.check(digests[-1] == digests[0], f"repeat {len(walls)}: outputs differ from the first run")
        if time.perf_counter() - loop_started >= seconds:
            break
    cfg.out_dir = first_out
    kinds = plan["served_representations"]
    served = [cell for cell in cells if kinds is None or cell.representation.name in kinds]
    # serve every model back in whole passes for at least ``seconds``: one
    # pass is a few short requests, too few for steady percentiles
    latencies, docs = [], 0
    serve_started = time.perf_counter()
    while not latencies or time.perf_counter() - serve_started < seconds:
        pass_latencies, pass_docs = parity(tally, plan, cfg, served, work)
        latencies += pass_latencies
        docs += pass_docs
    return {
        "matrix_walls": walls,
        "latencies": latencies,
        "docs": docs,
        "artifact_mb": artifact_mb,
        "digest": digests[0],
        "groups": groups,
    }


def run_serve_workload(plan, configs, tally: Tally, work: Path, seconds: float) -> dict:
    started = time.perf_counter()
    tables = [runner.run_matrix(cfg) for cfg in configs]
    fit_s = time.perf_counter() - started

    served = []  # (cfg, cell) in the fixed interleaved request order
    groups = {}
    by_kind = {}
    for cfg, table in zip(configs, tables):
        cells = runner.enumerate_cells(cfg)
        check_cells(tally, table, cells, groups)
        for cell in cells:
            by_kind.setdefault(cell.classifier.name, []).append((cfg, cell))
    check_floors(tally, plan["workload"], groups)
    for kind in ("voting", "mlp"):
        served.extend(by_kind[kind])

    # expected bytes of every (model, batch) request, cut from the training-time predictions
    expected = {}
    for cfg, cell in served:
        lines = (cfg.out_dir / "predictions" / f"{cell.name}.csv").read_bytes().splitlines(keepends=True)
        by_id = {line.split(b",", 1)[0].decode(): line for line in lines[1:]}
        for k, batch in enumerate(plan["requests"][cell.language]["batches"]):
            expected[(cell.name, k)] = lines[0] + b"".join(by_id[i] for i in batch["ids"])

    latencies, docs = [], 0
    out_path = work / "request-out.csv"
    loop_started = time.perf_counter()
    n = 0
    while True:
        for cfg, cell in served:
            batches = plan["requests"][cell.language]["batches"]
            k = (n // len(served)) % len(batches)
            latencies.append(
                timed_request(
                    tally,
                    cfg.out_dir / "models" / f"{cell.name}.npz",
                    batches[k]["path"],
                    out_path,
                    expected[(cell.name, k)],
                    f"request {n} {cell.name} batch {k}",
                )
            )
            docs += len(batches[k]["ids"])
            n += 1
        elapsed = time.perf_counter() - loop_started
        if (n >= MIN_REQUESTS and elapsed >= seconds) or elapsed >= REQUEST_LOOP_CAP_S:
            break

    for cfg, cell in served:
        parity(tally, plan, cfg, [cell], work)
    return {
        "fit_s": fit_s,
        "matrix_walls": [fit_s],
        "latencies": latencies,
        "docs": docs,
        "artifact_mb": sum(tree_bytes(cfg.out_dir) for cfg in configs) / 1e6,
        "digest": "+".join(outputs_digest(cfg.out_dir) for cfg in configs),
        "groups": groups,
    }


def main() -> int:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    work = plan_path.parent
    workload, trace = plan["workload"], plan["trace"]
    samples, configs = setup_samples(plan["configs"])

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(run_id=f"{workload}-seed{plan['seed']}-{os.getpid()}")
        tracer.install()

    # a traced run does the least work a run may do (one matrix, one serve-back
    # pass, MIN_REQUESTS requests), so its per-layer counts depend on the seed only
    seconds = 0.0 if trace else plan["seconds"]
    tally = Tally()
    if workload == "predict-serve":
        res = run_serve_workload(plan, configs, tally, work, seconds)
        setup_s = statistics.median(samples) + res["fit_s"]
    else:
        res = run_matrix_workload(plan, configs, tally, work, seconds)
        setup_s = statistics.median(samples)
    latencies, docs = res["latencies"], res["docs"]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    latencies_ms = [t * 1e3 for t in latencies]
    end_to_end = {
        "matrix_s": (statistics.median(res["matrix_walls"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "artifact_mb": (res["artifact_mb"], "MB"),
        "request_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "request_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "serve_docs_per_s": (docs / sum(latencies), "1/s"),
    }
    info = {
        "environment": environment(),
        "outputs_digest": res["digest"],
        "setup_samples_s": samples,
        "matrix_walls_s": res["matrix_walls"],
        "requests": len(latencies),
        "f1_group_minima": {f"{r}/{c}": v for (r, c), v in sorted(res["groups"].items())},
        "failures": tally.failures[:20],
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(ROOT / ".perfbench_out" / f"spans-{workload}.jsonl")
        metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics().items()}
    else:
        metrics = end_to_end
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
