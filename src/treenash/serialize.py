"""Strict JSON interchange for games and strategy profiles.

Unknown fields are rejected so that misspelled configuration cannot slip
through silently. Floats rely on Python's shortest round-trip representation,
which reproduces the exact double on reload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGame, SchemaError
from .game import SIMPLEX_TOL, Edge, TreePolymatrixGame

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
    return float(value)


def _as_matrix(value, m: int, context: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != m:
        raise SchemaError(f"{context}: expected {m} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError(f"{context}, row {i}: expected {m} entries")
    # One pass over plain JSON numbers; the per-entry walk runs only to name
    # the first bad entry (or to accept number subclasses other than bool).
    if not all(type(x) is float or type(x) is int for row in value for x in row):
        for i, row in enumerate(value):
            for j, x in enumerate(row):
                _as_number(x, f"{context}[{i}][{j}]")
    return np.array(value, dtype=np.float64)


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
    _check_keys(data, _GAME_KEYS, (), "game")
    n = _as_int(data["num_players"], "game.num_players")
    m = _as_int(data["num_actions"], "game.num_actions")
    eps = _as_number(data["epsilon_normalization"], "game.epsilon_normalization")
    if not isinstance(data["edges"], list):
        raise SchemaError("game.edges: expected a list")
    edges = []
    for i, entry in enumerate(data["edges"]):
        context = f"game.edges[{i}]"
        _check_keys(entry, _EDGE_KEYS, (), context)
        edges.append(
            Edge(
                u=_as_int(entry["u"], f"{context}.u"),
                v=_as_int(entry["v"], f"{context}.v"),
                payoff_u_v=_as_matrix(entry["payoff_u_v"], m, f"{context}.payoff_u_v"),
                payoff_v_u=_as_matrix(entry["payoff_v_u"], m, f"{context}.payoff_v_u"),
            )
        )
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
