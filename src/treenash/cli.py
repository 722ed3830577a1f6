"""Command-line interface: generate, solve, verify, oracle, and bench.

Exit codes are part of the contract: 0 success, 1 verify-reject or nothing
found, 2 input error, 3 I/O failure, 4 no equilibrium at the configured scale,
5 scan cap exceeded, 6 internal error (a solver result failed its own checks),
7 out of memory (try a smaller --support-size). The environment variable
TREENASH_SEED supplies a default seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time

from .errors import (
    CapExceeded,
    InvalidEpsilon,
    InvalidGame,
    InvalidPlayerId,
    NoEquilibriumFound,
    NotATree,
    SchemaError,
    SetTooLarge,
    TreenashError,
)
from .game import check_normalized
from .generator import random_normalized_game
from .lp import DEFAULT_LP_TOLERANCE
from .oracle import all_equilibria, exhaustive_search, verify_profile
from .serialize import load_game, load_profile, save_game, save_profile
from .solver import DEFAULT_MAX_TRIES, SolveStats, SolverConfig, solve
from .uniform import enumerate_uniform

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NO_EQUILIBRIUM = 4
EXIT_CAP = 5
EXIT_INTERNAL = 6
EXIT_MEMORY = 7


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get("TREENASH_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"TREENASH_SEED is not an integer: {raw!r}") from exc


def _parse_threshold(text: str) -> int | float:
    if text.lower() in {"inf", "infinity"}:
        return math.inf
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


def _topology_edges(name: str, n: int) -> list[tuple[int, int]] | None:
    if name == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if name == "star":
        return [(0, i) for i in range(1, n)]
    return None  # random: drawn inside the generator from the run seed


def cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    game = random_normalized_game(
        args.players,
        args.actions,
        args.epsilon,
        topology=_topology_edges(args.topology, args.players),
        rng_seed=seed,
    )
    report = check_normalized(game, args.epsilon)
    print(report.summary(), file=sys.stderr)
    save_game(args.out, game, args.epsilon)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    game, _ = load_game(args.game)
    config = SolverConfig(
        epsilon=args.epsilon,
        b_override=args.support_size,
        lp_threshold=args.lp_threshold,
        max_tries=args.max_tries,
        lp_tolerance=args.lp_tolerance,
        rng_seed=_resolve_seed(args.seed),
        thread_count=args.threads,
    )
    stats = SolveStats()
    start = time.perf_counter()
    try:
        certificate = solve(game, config, stats=stats)
    except NoEquilibriumFound as exc:
        wall = time.perf_counter() - start
        print(f"no equilibrium at this scale; wall time {wall:.3f}s ({exc})")
        return EXIT_NO_EQUILIBRIUM
    except (CapExceeded, SetTooLarge) as exc:
        wall = time.perf_counter() - start
        print(f"scan cap exceeded; wall time {wall:.3f}s ({exc})")
        return EXIT_CAP
    wall = time.perf_counter() - start
    save_profile(
        args.out,
        certificate.profile,
        certificate.epsilon,
        certificate.regrets,
        support_size=stats.support_size,
        seed=config.rng_seed,
    )
    print(f"max regret {certificate.max_regret:.6g}; wall time {wall:.3f}s")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    game, _ = load_game(args.game)
    document = load_profile(args.profile)
    if len(document.strategies) != game.num_players or any(
        s.shape != (game.num_actions,) for s in document.strategies
    ):
        raise SchemaError(
            f"profile shape does not match game "
            f"(n={game.num_players}, m={game.num_actions})"
        )
    result = verify_profile(game, document.strategies, args.epsilon)
    print(
        json.dumps(
            {
                "accepted": result.accepted,
                "epsilon": args.epsilon,
                "max_regret": result.max_regret,
                "regrets": [float(r) for r in result.regrets],
            }
        )
    )
    return EXIT_OK if result.accepted else EXIT_NONE


def cmd_oracle(args: argparse.Namespace) -> int:
    game, _ = load_game(args.game)
    uset = enumerate_uniform(game.num_actions, args.support_size)
    if args.all:
        found = all_equilibria(game, args.epsilon, uset)
        print(
            json.dumps(
                {
                    "count": len(found),
                    "profiles": [
                        [uset.probs[i].tolist() for i in indices] for indices in found
                    ],
                }
            )
        )
        return EXIT_OK if found else EXIT_NONE
    profile = exhaustive_search(game, args.epsilon, uset)
    if profile is None:
        print(json.dumps({"found": False}))
        return EXIT_NONE
    print(json.dumps({"found": True, "strategies": [s.tolist() for s in profile]}))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    base_seed = _resolve_seed(args.seed)
    if args.repeats < 1:
        raise SchemaError(f"--repeats must be at least 1, got {args.repeats}")
    axes = {
        "--n-values": _parse_int_list(args.n_values),
        "--m-values": _parse_int_list(args.m_values),
        "--epsilon-values": _parse_float_list(args.epsilon_values),
        "--b-values": _parse_int_list(args.b_values),
    }
    # With no values at all the grid is empty on purpose (header-only CSV);
    # an empty list next to given ones would silently empty it.
    empty = [flag for flag, values in axes.items() if not values]
    if empty and len(empty) < len(axes):
        raise SchemaError(f"empty value list for {', '.join(empty)}")
    grid = list(itertools.product(*axes.values()))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "m", "epsilon", "b", "seed", "success", "wall_ms",
             "lp_calls", "resamples", "fallbacks", "max_regret"]
        )
        fh.flush()
        for n, m, epsilon, b in grid:
            for repeat in range(args.repeats):
                run_seed = base_seed + repeat
                game = random_normalized_game(n, m, epsilon, rng_seed=run_seed)
                config = SolverConfig(
                    epsilon=epsilon,
                    b_override=b,
                    lp_threshold=args.lp_threshold,
                    max_tries=args.max_tries,
                    rng_seed=run_seed,
                    thread_count=args.threads,
                )
                stats = SolveStats()
                start = time.perf_counter()
                success = 0
                max_regret = ""
                try:
                    certificate = solve(game, config, stats=stats)
                    success = 1
                    max_regret = repr(certificate.max_regret)
                except (NoEquilibriumFound, CapExceeded, SetTooLarge):
                    pass
                wall_ms = (time.perf_counter() - start) * 1000.0
                writer.writerow(
                    [n, m, epsilon, b, run_seed, success, f"{wall_ms:.3f}",
                     stats.lp_calls, stats.rounding_samples, stats.fallbacks, max_regret]
                )
                fh.flush()  # partial results survive an interrupt
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treenash",
        description="Approximate Nash equilibria of polymatrix games on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random normalized game as JSON")
    p_gen.add_argument("--players", type=int, required=True)
    p_gen.add_argument("--actions", type=int, required=True)
    p_gen.add_argument("--epsilon", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--topology", choices=["path", "star", "random"], default="random")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="compute an approximate equilibrium")
    p_solve.add_argument("--game", required=True)
    p_solve.add_argument("--epsilon", type=float, required=True)
    p_solve.add_argument("--support-size", type=int, default=None,
                         help="override the default multiset size b")
    p_solve.add_argument("--lp-threshold", type=_parse_threshold, default=None,
                         help="child count at which the LP route is tried first; 'inf' disables it")
    p_solve.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES)
    p_solve.add_argument("--lp-tolerance", type=float, default=DEFAULT_LP_TOLERANCE)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--threads", type=int, default=1)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a stored profile against a game")
    p_verify.add_argument("--game", required=True)
    p_verify.add_argument("--profile", required=True)
    p_verify.add_argument("--epsilon", type=float, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force search over grid profiles")
    p_oracle.add_argument("--game", required=True)
    p_oracle.add_argument("--epsilon", type=float, required=True)
    p_oracle.add_argument("--support-size", type=int, required=True)
    p_oracle.add_argument("--all", action="store_true", help="list every passing profile")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="run a solve grid and write a CSV")
    p_bench.add_argument("--n-values", default="", help="comma-separated player counts")
    p_bench.add_argument("--m-values", default="", help="comma-separated action counts")
    p_bench.add_argument("--epsilon-values", default="", help="comma-separated epsilons")
    p_bench.add_argument("--b-values", default="", help="comma-separated support sizes")
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--lp-threshold", type=_parse_threshold, default=None)
    p_bench.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES)
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidEpsilon, InvalidGame, InvalidPlayerId, NotATree, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoEquilibriumFound as exc:
        print(f"no equilibrium found: {exc}", file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    except (CapExceeded, SetTooLarge) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TreenashError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        print(f"out of memory; try a smaller --support-size ({exc})", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
