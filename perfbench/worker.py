"""Measure one workload in a fresh process.

Started by run.py as ``python3 worker.py JOB.json`` with the checkout's
``src`` on PYTHONPATH. The job names the game files, which are written before
this process starts, and the file to write the result to. The order of work:

1. import the package and record the import-only peak RSS;
2. one warm-up pass of ``solver.solve`` (not timed: first ``linprog`` call,
   first-touch allocation);
3. timed passes until ``seconds`` have gone by, at least MIN_TIMED_PASSES.
   After each solve come set-up samples (``serialize.load_game`` on that
   game's file) and verify samples (``oracle.verify_profile`` on the profile
   just returned), alternating, until SAMPLE_SHARE of the solve's seconds is
   spent (see Sampler). The samples are thus spread over the window, as the
   solves are. On a shared 2-vCPU host the speed of the same calls switched
   between two levels about 1.6x apart, each held for a second or more, so a
   run's fastest sample, or its median sample, could land on either level and
   moved by 20-30% between processes. Set-up reports the median; verify
   reports the mean, which follows the share of time spent at each level and
   spread less (IQR/median over ten 25 s runs 0.16-0.18, against 0.20-0.29
   for the median);
4. with tracing on, one traced pass that runs the solve phase by phase.

Every returned profile goes through the correctness gate in checks.py, and
its digest must be the same in every pass.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import treenash
from treenash import oracle, serialize, solver
from treenash.game import regret, validate_and_root
from treenash.uniform import enumerate_uniform, support_size

import checks
import tracing
from workloads import WORKLOADS

MIN_TIMED_PASSES = 3
# Set-up and verify samples together take this share of the solve seconds.
SAMPLE_SHARE = 0.2
# A sample repeats its call until this many seconds have gone by, so that
# sub-millisecond calls (theory-path) are timed in bulk.
SAMPLE_FLOOR_S = 0.02
# SolveStats counters summed over the traced pass.
STATS_COUNTERS = (
    "membership_tests", "exhaustive_calls", "lp_calls", "lp_infeasible", "fallbacks",
    "rounding_calls", "rounding_samples", "rounding_accepts",
)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sample(fn) -> tuple[float, int, float]:
    """Call ``fn`` until SAMPLE_FLOOR_S have gone by; return the seconds per
    call, the calls made and the seconds spent."""
    repeats = 0
    start = time.perf_counter()
    while True:
        fn()
        repeats += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SAMPLE_FLOOR_S:
            return elapsed / repeats, repeats, elapsed


class Sampler:
    """Set-up and verify samples per game, taken between the timed solves.

    Each solve of game ``i`` earns SAMPLE_SHARE of its seconds as credit for
    that game; while the credit is positive, one set-up sample (load the
    game's file) and one verify sample (verify the profile just returned) are
    taken and their seconds charged to it. A pass's set-up (verify) time is the
    sum over its games of a statistic of each game's seconds per load (verify).
    """

    def __init__(self, files: list[str], epsilon: float) -> None:
        self.files = files
        self.epsilon = epsilon
        self.credit = [0.0] * len(files)
        self.setup: list[list[float]] = [[] for _ in files]
        self.verify: list[list[float]] = [[] for _ in files]
        self.setup_calls = self.verify_calls = 0

    def after_solve(self, i: int, game, profile, seconds: float) -> None:
        self.credit[i] += SAMPLE_SHARE * seconds
        while self.credit[i] > 0:
            per_call, calls, spent = sample(lambda: serialize.load_game(self.files[i]))
            self.setup[i].append(per_call)
            self.setup_calls += calls
            self.credit[i] -= spent
            per_call, calls, spent = sample(lambda: oracle.verify_profile(game, profile, self.epsilon))
            self.verify[i].append(per_call)
            self.verify_calls += calls
            self.credit[i] -= spent

    @staticmethod
    def total(per_game: list[list[float]], statistic) -> float:
        # A game whose every solve raised has no samples; it is counted in `failed`.
        return sum(statistic(values) for values in per_game if values)


class Tally:
    """Attempted and failed solves (raised, or failed the gate), the failures
    that were wrong outputs, the problems found and each instance's digest."""

    def __init__(self, instances: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []
        self.digests: list[str | None] = [None] * instances

    def check(self, label: str, instance: int, game, profile, regrets, epsilon: float, b: int) -> None:
        """Gate one returned profile and compare its digest with earlier passes."""
        self.attempted += 1
        verification = oracle.verify_profile(game, profile, epsilon)
        digest, problems = checks.gate(game, profile, regrets, verification, epsilon, b)
        if digest is not None:
            if self.digests[instance] is None:
                self.digests[instance] = digest
            elif digest != self.digests[instance]:
                problems.append(f"digest {digest} differs from {self.digests[instance]} of an earlier pass")
        if problems:
            self.failed += 1
            self.incorrect += 1
            self.problems.extend(f"{label} instance {instance}: {p}" for p in problems)

    def raised(self, label: str, instance: int, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label} instance {instance}: raised {type(exc).__name__}: {exc}")


def solve_pass(games, configs, grid, tally: Tally, label: str, sampler: Sampler | None = None) -> float:
    """Solve every game once, followed by the sampler's set-up and verify
    samples; return the summed solve seconds."""
    total = 0.0
    for i, (game, config) in enumerate(zip(games, configs)):
        start = time.perf_counter()
        try:
            certificate = solver.solve(game, config)
        except Exception as exc:  # a raised solve is a failed operation, not a crash
            total += time.perf_counter() - start
            tally.raised(label, i, exc)
            continue
        seconds = time.perf_counter() - start
        total += seconds
        tally.check(label, i, game, certificate.profile, certificate.regrets, config.epsilon, grid[i])
        if sampler is not None:
            sampler.after_solve(i, game, certificate.profile, seconds)
    return total


def phased_solve(tracer: tracing.Tracer, game, config, stats):
    """The phases of ``solver.solve``, called one by one so that each gets a span."""
    with tracer.span("game.validate_and_root"):
        rooted = validate_and_root(game, config.root)
    b = config.b_override
    if b is None:
        b = support_size(
            game.num_actions, game.num_players, config.epsilon, halve=config.size_for_half_epsilon
        )
    with tracer.span("uniform.enumerate_uniform"):
        uset = enumerate_uniform(game.num_actions, b, cap=config.enumeration_cap)
    with tracer.span("solver.build_tables"):
        tables = solver.build_tables(game, rooted, uset, config, stats)
    with tracer.span("solver.process_root"):
        root_index, root_extension = solver.process_root(game, rooted, uset, tables, config, stats)
    with tracer.span("solver.backtrack"):
        profile = solver.backtrack(rooted, tables, root_index, root_extension, uset)
    with tracer.span("game.regret"):
        regrets = np.array([regret(game, p, profile) for p in range(game.num_players)])
    return profile, regrets, tables, uset


def traced_pass(files, configs, grid, tally: Tally) -> tuple[tracing.Tracer, dict]:
    """Load and solve every game once with tracing on; return the tracer and
    the totals read off SolveStats and the tables."""
    tracer = tracing.Tracer()
    totals = dict.fromkeys(STATS_COUNTERS, 0)
    totals.update(max_residual=0.0, mask_true=0, mask_cells=0, witnesses=0, K=0)
    gc.collect()
    saved = tracing.install(tracer)
    try:
        for i, (path, config) in enumerate(zip(files, configs)):
            tracer.solve_id = i
            with tracer.span("serialize.load_game"):
                game, _ = serialize.load_game(path)
            stats = solver.SolveStats()
            try:
                with tracer.span("solve"):
                    profile, regrets, tables, uset = phased_solve(tracer, game, config, stats)
            except Exception as exc:  # counted like a raised solve
                tally.raised("traced", i, exc)
                continue
            # The digest must equal the one solve() gave for this instance.
            tally.check("traced", i, game, profile, regrets, config.epsilon, grid[i])
            for name in STATS_COUNTERS:
                totals[name] += getattr(stats, name)
            totals["max_residual"] = max(totals["max_residual"], stats.max_lp_residual)
            totals["mask_true"] += sum(int(mask.sum()) for mask in tables.masks.values())
            totals["mask_cells"] += sum(mask.size for mask in tables.masks.values())
            totals["witnesses"] += len(tables.extensions)
            totals["K"] = len(uset)
    finally:
        tracing.uninstall(saved)
    return tracer, totals


def layer_metrics(tracer: tracing.Tracer, totals: dict, solve_s: float, import_rss_mb: float) -> dict:
    t = tracer.total

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    traced_solve_s = t("solve")
    outside_solve = ("solve", "serialize.load_game", "game.construct")
    self_sum_s = sum(v[2] for (_, name), v in tracer.totals.items() if name not in outside_solve)
    tests = totals["membership_tests"]
    layer = [
        ("serialize.load_s", "s", t("serialize.load_game")),
        ("game.construct_s", "s", t("game.construct")),
        ("game.br_calls", "count", t("game.is_epsilon_best_response", 0)),
        ("game.br_s", "s", t("game.is_epsilon_best_response")),
        ("game.regret_s", "s", t("game.regret")),
        ("uniform.enumerate_s", "s", t("uniform.enumerate_uniform")),
        ("uniform.K", "count", totals["K"]),
        ("solver.membership_tests", "count", tests),
        ("solver.membership_s", "s", t("solver.membership_test")),
        ("solver.exhaustive_calls", "count", totals["exhaustive_calls"]),
        ("solver.exhaustive_self_s", "s", t("solver.exhaustive_membership", 2)),
        ("solver.tables_self_s", "s", t("solver.build_tables", 2)),
        ("solver.hit_ratio", "ratio", ratio(tracer.count("solver.membership_hits"), tests)),
        ("solver.mask_density", "ratio", ratio(totals["mask_true"], totals["mask_cells"])),
        ("solver.witnesses", "count", totals["witnesses"]),
        ("solver.process_root_s", "s", t("solver.process_root")),
        ("solver.backtrack_s", "s", t("solver.backtrack")),
        ("solver.root_tree_s", "s", t("game.validate_and_root")),
        ("lp.calls", "count", totals["lp_calls"]),
        ("lp.build_s", "s", t("lp.build_lp")),
        ("lp.solve_s", "s", t("lp.solve_feasibility")),
        ("lp.round_s", "s", t("lp.round_extension")),
        ("lp.infeasible", "count", totals["lp_infeasible"]),
        ("lp.fallbacks", "count", totals["fallbacks"]),
        ("lp.rounding_samples", "count", totals["rounding_samples"]),
        ("lp.accept_ratio", "ratio", ratio(totals["rounding_accepts"], totals["rounding_calls"])),
        ("lp.variables", "count", tracer.count("lp.variables", max)),
        ("lp.matrix_bytes", "bytes", tracer.count("lp.matrix_bytes", max)),
        ("lp.max_residual", "abs", totals["max_residual"]),
        ("trace.solve_s", "s", traced_solve_s),
        ("trace.overhead_s", "s", traced_solve_s - solve_s),
        ("trace.overhead_frac", "ratio", ratio(traced_solve_s - solve_s, solve_s)),
        ("trace.self_sum_s", "s", self_sum_s),
        ("trace.remainder_s", "s", traced_solve_s - self_sum_s),
        ("process.import_rss_mb", "MB", import_rss_mb),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in layer}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    if src not in Path(treenash.__file__).resolve().parents:
        print(f"treenash was imported from {treenash.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_rss_mb = max_rss_mb()

    workload = WORKLOADS[job["workload"]]
    files = job["games"]
    games = [serialize.load_game(path)[0] for path in files]
    configs = [
        solver.SolverConfig(
            epsilon=workload.epsilon,
            b_override=workload.b,
            lp_threshold=workload.lp_threshold,
            rng_seed=seed,
            thread_count=1,
        )
        for seed in job["instance_seeds"]
    ]
    grid = [
        workload.b if workload.b is not None
        else support_size(game.num_actions, game.num_players, workload.epsilon)
        for game in games
    ]
    tally = Tally(len(games))

    gc.collect()
    warmup_s = solve_pass(games, configs, grid, tally, "warm-up")
    sampler = Sampler(files, workload.epsilon)
    pass_s, iteration_s = [], []
    window_start = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        pass_s.append(solve_pass(games, configs, grid, tally, f"pass {len(pass_s) + 1}", sampler))
        iteration_s.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - window_start
        if len(pass_s) >= MIN_TIMED_PASSES and elapsed + statistics.median(iteration_s) > job["seconds"]:
            break
    solve_s = statistics.median(pass_s)

    result = {
        "workload": workload.name,
        "instances": len(games),
        "instance_seeds": job["instance_seeds"],
        "b": grid,
        "warmup_s": warmup_s,
        "pass_s": pass_s,
        "window_s": time.perf_counter() - window_start,
        "import_rss_mb": import_rss_mb,
        "setup_calls": sampler.setup_calls,
        "verify_calls": sampler.verify_calls,
        "setup_samples_s": sampler.setup,
        "verify_samples_s": sampler.verify,
        "end_to_end": {
            "solve_s": {"value": solve_s, "unit": "s"},
            # Sums over the games of a pass; see Sampler and the module docstring.
            "setup_s": {"value": Sampler.total(sampler.setup, statistics.median), "unit": "s"},
            "verify_s": {"value": Sampler.total(sampler.verify, statistics.mean), "unit": "s"},
            "peak_rss_mb": {"value": max_rss_mb(), "unit": "MB"},
        },
    }
    if job["trace"]:
        tracer, totals = traced_pass(files, configs, grid, tally)
        result["per_layer"] = layer_metrics(tracer, totals, solve_s, import_rss_mb)
        Path(job["spans"]).write_text(json.dumps(tracer.as_json()), encoding="utf-8")

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        incorrect=tally.incorrect,
        problems=tally.problems[:100],
        digests=tally.digests,
    )
    Path(job["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
