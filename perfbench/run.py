"""Benchmark of the treenash solver: one named workload per run.

Run from the root of a treenash checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory; nothing needs
building. This script writes the workload's games as JSON files (payoffs drawn
from ``--seed``), then measures them in a fresh single-threaded worker process
(worker.py) and prints a readable report followed, as the last line, by one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer numbers of one traced pass. Everything a
run writes goes to ``perfbench/out/<workload>-seed<N>-trace<T>/``: the games,
``job.json``, ``result.json`` (metrics, pass times, digests, environment) and,
when traced, ``spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, shape_edges

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set before numpy is imported, here and (inherited) in the worker, which also
# inherits PYTHONPATH pointing at the checkout's sources.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc raises its mmap threshold after each large free, so whether a big array
# lands in reusable heap or in fresh pages depends on allocation history, and
# the same star-wide games peaked at either 290 or 305 MB. Holding the threshold
# at its default start value (128 KiB) makes peak RSS follow live memory.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
# The whole run must end within 180 s; generation and start-up take the rest.
WORKER_TIMEOUT_S = 165


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="draws every game's payoffs")
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def instance_seeds(seed: int, count: int) -> list[int]:
    """One payoff and sampling seed per game of the pass, derived from the run's seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def write_games(workload, seeds: list[int], directory: Path) -> list[str]:
    from treenash.generator import random_normalized_game
    from treenash.serialize import save_game

    directory.mkdir(parents=True)
    files = []
    for i, (shape, seed) in enumerate(zip(workload.shapes, seeds)):
        n, edges = shape_edges(shape)
        game = random_normalized_game(
            n, workload.num_actions, workload.epsilon, topology=edges, rng_seed=seed
        )
        path = directory / f"game-{i}.json"
        save_game(str(path), game, workload.epsilon)
        files.append(str(path))
    return files


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own, else 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """Hash of the package sources, which identifies the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "treenash").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "worker_env": {var: os.environ[var] for var in (*THREAD_VARS, *MALLOC_ENV)},
    }


def report(workload, args, result: dict) -> None:
    """Readable lines for a person; programs read only the JSON last line."""
    passes = sorted(result["pass_s"])
    e2e = result["end_to_end"]
    n = result["instances"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: instance seeds {result['instance_seeds']}, b {result['b']}")
    print("environment " + json.dumps(result["environment"]))
    print(
        f"warm-up pass {result['warmup_s']:.4f} s (excluded); {len(passes)} timed passes "
        f"in {result['window_s']:.2f} s, min {passes[0]:.4f} max {passes[-1]:.4f} s"
    )
    notes = {
        "solve_s": f"median of {len(passes)} timed passes, each the sum of {n} solves",
        "setup_s": f"sum over {n} game files of each file's median load, from "
                   f"{sum(map(len, result['setup_samples_s']))} samples ({result['setup_calls']} loads)",
        "verify_s": f"sum over {n} profiles of each one's mean verify, from "
                    f"{sum(map(len, result['verify_samples_s']))} samples ({result['verify_calls']} verifies)",
        "peak_rss_mb": f"import-only baseline {result['import_rss_mb']:.2f} MB",
    }
    for name, metric in e2e.items():
        print(f"  {name:<14} {metric['value']:.6g} {metric['unit']:<5} {notes[name]}")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"  {'failed_frac':<14} {failed_frac:.6g} ratio ({result['failed']} of "
        f"{result['attempted']} solves failed, {result['incorrect']} with a wrong profile)"
    )
    for i, digest in enumerate(result["digests"]):
        print(f"digest instance {i}: {digest}")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for name, metric in result.get("per_layer", {}).items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    if "per_layer" in result:
        print("  (per-layer values sum over the traced pass; lp.matrix_bytes is computed from array sizes)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treenash" / "__init__.py").is_file():
        print(f"no treenash sources under {SRC}; run from a treenash checkout", file=sys.stderr)
        return 2
    python_path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    os.environ.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=python_path, **MALLOC_ENV)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if out.exists():
        shutil.rmtree(out)
    seeds = instance_seeds(args.seed, len(workload.shapes))
    job = {
        "src": str(SRC),
        "workload": workload.name,
        "instance_seeds": seeds,
        "games": write_games(workload, seeds, out / "games"),
        "seconds": args.seconds,
        "trace": args.trace,
        "result": str(out / "result.json"),
        "spans": str(out / "spans.json"),
    }
    job_path = out / "job.json"
    job_path.write_text(json.dumps(job, indent=1), encoding="utf-8")

    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not Path(job["result"]).is_file():
        print(f"worker failed with exit code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    result["environment"] = environment()
    Path(job["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")

    report(workload, args, result)
    correct = result["incorrect"] == 0
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
