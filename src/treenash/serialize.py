"""Strict JSON interchange for games and strategy profiles.

Unknown fields are rejected so that misspelled configuration cannot slip
through silently. Floats rely on Python's shortest round-trip representation,
which reproduces the exact double on reload.

A game's edges are checked once for the whole file in C-level passes
(``_plain_payoff_values``: ``set(map(type, ...))`` and ``set(map(len, ...))``
over the entries, ids, matrices, rows and values), and every payoff entry is
parsed by one ``np.array`` call. Only when that check fails, or an integer
entry is too large for a float64, does the per-edge walk (``_check_edge``) run,
edge by edge, to name the first fault.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InvalidGame, SchemaError
from .game import SIMPLEX_TOL, TreePolymatrixGame, _LoadedEdges

_GAME_KEYS = ("num_players", "num_actions", "epsilon_normalization", "edges")
_EDGE_KEYS = ("u", "v", "payoff_u_v", "payoff_v_u")
_PROFILE_REQUIRED = ("strategies",)
_PROFILE_OPTIONAL = ("epsilon", "regrets", "support_size", "seed")


def _check_keys(data: dict, required, optional, context: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected an object")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"{context}: unknown fields {unknown}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise SchemaError(f"{context}: missing fields {missing}")


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{context}: expected an integer, got {value!r}")
    return value


def _as_number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{context}: integer too large for a float64") from None


def _check_matrix(value, m: int, context: str) -> None:
    if not isinstance(value, list) or len(value) != m:
        raise SchemaError(f"{context}: expected {m} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError(f"{context}, row {i}: expected {m} entries")
    for i, row in enumerate(value):
        for j, x in enumerate(row):
            _as_number(x, f"{context}[{i}][{j}]")


def _check_edge(entry, m: int, context: str) -> None:
    _check_keys(entry, _EDGE_KEYS, (), context)
    _as_int(entry["u"], f"{context}.u")
    _as_int(entry["v"], f"{context}.v")
    _check_matrix(entry["payoff_u_v"], m, f"{context}.payoff_u_v")
    _check_matrix(entry["payoff_v_u"], m, f"{context}.payoff_v_u")


def _plain_payoff_values(entries: list, m: int) -> list | None:
    """All payoff entries in one flat list, in (edges, 2, m, m) order, when every
    edge entry is as JSON decoding builds it: a dict of exactly the edge keys,
    ``int`` ids, and m lists of m ``int`` or ``float`` entries per matrix. Else
    None, and the caller runs ``_check_edge`` (which accepts all this accepts)
    on each entry, to name the first fault or to pass subclasses of these types.
    """
    if not (
        set(map(type, entries)) <= {dict}
        and set(map(frozenset, entries)) <= {frozenset(_EDGE_KEYS)}
        and set(map(type, chain.from_iterable(map(itemgetter("u", "v"), entries)))) <= {int}
    ):
        return None
    matrices = list(chain.from_iterable(map(itemgetter("payoff_u_v", "payoff_v_u"), entries)))
    if not (set(map(type, matrices)) <= {list} and set(map(len, matrices)) <= {m}):
        return None
    rows = list(chain.from_iterable(matrices))
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {m}):
        return None
    values = list(chain.from_iterable(rows))
    return values if set(map(type, values)) <= {int, float} else None


def game_to_dict(game: TreePolymatrixGame, epsilon_normalization: float) -> dict:
    return {
        "num_players": game.num_players,
        "num_actions": game.num_actions,
        "epsilon_normalization": float(epsilon_normalization),
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "payoff_u_v": e.payoff_u_v.tolist(),
                "payoff_v_u": e.payoff_v_u.tolist(),
            }
            for e in game.edges
        ],
    }


def game_from_dict(data: dict) -> tuple[TreePolymatrixGame, float]:
    """Build a game from its JSON document; return it with its epsilon_normalization.

    The edges pass one structural check in whole-list passes, and their
    matrices become one float64 array of shape (2 * edges, m, m), which the
    constructor takes with the ids in place of a list of ``Edge``s. When the
    check fails, or the array's conversion overflows, the per-edge walk
    raises SchemaError for the first fault in edge order; the constructor's
    InvalidGame comes back as ``SchemaError("game: ...")``.
    """
    _check_keys(data, _GAME_KEYS, (), "game")
    n = _as_int(data["num_players"], "game.num_players")
    m = _as_int(data["num_actions"], "game.num_actions")
    eps = _as_number(data["epsilon_normalization"], "game.epsilon_normalization")
    entries = data["edges"]
    if not isinstance(entries, list):
        raise SchemaError("game.edges: expected a list")
    values = _plain_payoff_values(entries, m)
    payoffs = None
    if values is not None:
        with suppress(OverflowError):  # an int beyond float64: the walk names the first
            payoffs = np.array(values, dtype=np.float64)
    if payoffs is None:
        for i, entry in enumerate(entries):
            _check_edge(entry, m, f"game.edges[{i}]")
        matrices = (e[k] for e in entries for k in ("payoff_u_v", "payoff_v_u"))
        values = [x for matrix in matrices for row in matrix for x in row]
        payoffs = np.array(values, dtype=np.float64)
    edges = []
    if entries:  # every matrix in one array, from which the game builds its edges
        ends = list(chain.from_iterable(map(itemgetter("u", "v"), entries)))
        edges = _LoadedEdges(ends, payoffs.reshape(len(ends), m, m))
    try:
        game = TreePolymatrixGame(num_players=n, num_actions=m, edges=edges)
    except InvalidGame as exc:
        raise SchemaError(f"game: {exc}") from exc
    return game, eps


@dataclass
class ProfileDocument:
    """A stored strategy profile; only the strategies are required on load."""

    strategies: list[np.ndarray]
    epsilon: float | None = None
    regrets: list[float] | None = None
    support_size: int | None = None
    seed: int | None = None


def profile_to_dict(
    strategies,
    epsilon: float,
    regrets,
    support_size: int | None,
    seed: int | None,
) -> dict:
    return {
        "epsilon": float(epsilon),
        "strategies": [[float(x) for x in s] for s in strategies],
        "regrets": [float(r) for r in regrets],
        "support_size": support_size,
        "seed": seed,
    }


def profile_from_dict(data: dict) -> ProfileDocument:
    _check_keys(data, _PROFILE_REQUIRED, _PROFILE_OPTIONAL, "profile")
    raw = data["strategies"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("profile.strategies: expected a non-empty list")
    widths = {len(s) if isinstance(s, list) else -1 for s in raw}
    if len(widths) != 1 or -1 in widths:
        raise SchemaError("profile.strategies: expected a rectangular list of lists")
    strategies = []
    for i, row in enumerate(raw):
        vec = np.array(
            [_as_number(x, f"profile.strategies[{i}][{j}]") for j, x in enumerate(row)],
            dtype=np.float64,
        )
        if not np.all(np.isfinite(vec)):
            raise SchemaError(f"profile.strategies[{i}]: non-finite probability")
        if np.any(vec < 0.0):
            raise SchemaError(f"profile.strategies[{i}]: negative probability")
        if abs(float(vec.sum()) - 1.0) > SIMPLEX_TOL:
            raise SchemaError(
                f"profile.strategies[{i}]: probabilities sum to {float(vec.sum())!r}"
            )
        strategies.append(vec)
    doc = ProfileDocument(strategies=strategies)
    if "epsilon" in data:
        doc.epsilon = _as_number(data["epsilon"], "profile.epsilon")
    if "regrets" in data:
        if not isinstance(data["regrets"], list):
            raise SchemaError("profile.regrets: expected a list")
        doc.regrets = [
            _as_number(x, f"profile.regrets[{i}]") for i, x in enumerate(data["regrets"])
        ]
    if "support_size" in data and data["support_size"] is not None:
        doc.support_size = _as_int(data["support_size"], "profile.support_size")
    if "seed" in data and data["seed"] is not None:
        doc.seed = _as_int(data["seed"], "profile.seed")
    return doc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            # an integer literal past Python's int-string conversion limit
            # (4300 digits by default), bytes that are not UTF-8, or arrays
            # and objects nested past Python's recursion limit
            raise SchemaError(f"{path}: {exc}") from exc


def load_game(path: str) -> tuple[TreePolymatrixGame, float]:
    return game_from_dict(_load_json(path))


def save_game(path: str, game: TreePolymatrixGame, epsilon_normalization: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game, epsilon_normalization), fh, indent=2)
        fh.write("\n")


def load_profile(path: str) -> ProfileDocument:
    return profile_from_dict(_load_json(path))


def save_profile(
    path: str,
    strategies,
    epsilon: float,
    regrets,
    support_size: int | None = None,
    seed: int | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(strategies, epsilon, regrets, support_size, seed), fh, indent=2)
        fh.write("\n")
