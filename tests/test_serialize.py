"""Tests for loading games: payoff matrix validation and its error paths."""

import json
import math
import re
from collections import OrderedDict

import numpy as np
import pytest

from helpers import identity_edge_game, path_edges, star_edges
from treenash.errors import InvalidGame, SchemaError
from treenash.game import Edge, TreePolymatrixGame
from treenash.generator import random_normalized_game
from treenash.serialize import (
    game_from_dict,
    game_to_dict,
    load_game,
    load_profile,
    profile_from_dict,
    save_game,
)


def game_data(m=3):
    return game_to_dict(identity_edge_game(m=m, scale=0.5), 0.5)


class TestPayoffMatrices:
    def test_integer_entries_are_numbers(self):
        data = game_data()
        data["edges"][0]["payoff_u_v"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        game, _ = game_from_dict(data)
        assert game.edges[0].payoff_u_v.tolist() == np.eye(3).tolist()

    @pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]])
    def test_bad_entry_on_a_later_row_names_its_path(self, bad):
        data = game_data()
        data["edges"][0]["payoff_v_u"][2][1] = bad
        with pytest.raises(SchemaError, match=re.escape("game.edges[0].payoff_v_u[2][1]")):
            game_from_dict(data)

    # 2**1024 - 2**970 is the least integer that rounds past the largest double
    @pytest.mark.parametrize("route", ["game_from_dict", "constructor"])
    def test_integers_load_up_to_the_float64_limit_and_no_further(self, route):
        largest = 2**1024 - 2**970 - 1

        def load(entry):
            data = game_data()
            data["edges"][0]["payoff_v_u"][2][1] = entry
            if route == "game_from_dict":
                return game_from_dict(data)[0]
            edges = [Edge(e["u"], e["v"], e["payoff_u_v"], e["payoff_v_u"]) for e in data["edges"]]
            return TreePolymatrixGame(data["num_players"], data["num_actions"], edges)

        game = load(largest)
        assert game.edges[0].payoff_v_u[2, 1] == np.finfo(np.float64).max
        error = SchemaError if route == "game_from_dict" else InvalidGame
        with pytest.raises(error, match="too large for a float64"):
            load(largest + 1)

    def test_short_row_names_its_index(self):
        data = game_data()
        data["edges"][0]["payoff_u_v"][1] = [0.0, 0.5]
        with pytest.raises(SchemaError, match=re.escape("game.edges[0].payoff_u_v, row 1")):
            game_from_dict(data)


# The star n=301, m=3 (300 edges, edge i joins 0 and i + 1) that every
# fault below is put into, once on edge 0 and once on edge 250.
STAR = json.dumps(
    game_to_dict(random_normalized_game(301, 3, 0.5, topology=star_edges(301), rng_seed=1), 0.5)
)


def _duplicate(edges, i):
    other = edges[1 if i == 0 else i - 1]
    edges[i]["u"], edges[i]["v"] = other["v"], other["u"]


def _entry(key, row, col, value):
    return lambda edges, i: edges[i][key][row].__setitem__(col, value)


FAULTS = {
    "not an object": lambda edges, i: edges.__setitem__(i, [edges[i]["u"], edges[i]["v"]]),
    "unknown key": lambda edges, i: edges[i].update(w=1),
    "missing key": lambda edges, i: edges[i].pop("payoff_v_u"),
    "u a bool": lambda edges, i: edges[i].update(u=False),
    "v a float": lambda edges, i: edges[i].update(v=float(edges[i]["v"])),
    "too few rows": lambda edges, i: edges[i]["payoff_u_v"].pop(),
    "short row": lambda edges, i: edges[i]["payoff_v_u"][1].pop(),
    "entry true": _entry("payoff_v_u", 2, 1, True),
    "entry a string": _entry("payoff_v_u", 2, 1, "0.5"),
    "entry null": _entry("payoff_u_v", 2, 1, None),
    "entry NaN": _entry("payoff_v_u", 2, 1, math.nan),
    "entry too large": _entry("payoff_u_v", 0, 2, 10**400),
    "entry negative": _entry("payoff_u_v", 1, 2, -0.25),
    "unknown player": lambda edges, i: edges[i].update(u=400 + i),
    "self-loop": lambda edges, i: edges[i].update(u=edges[i]["v"]),
    "duplicate edge": _duplicate,
}

# The full text of each error, as the per-edge loader reports it.
MESSAGES = [
    ("not an object", 0, "game.edges[0]: expected an object"),
    ("not an object", 250, "game.edges[250]: expected an object"),
    ("unknown key", 0, "game.edges[0]: unknown fields ['w']"),
    ("unknown key", 250, "game.edges[250]: unknown fields ['w']"),
    ("missing key", 0, "game.edges[0]: missing fields ['payoff_v_u']"),
    ("missing key", 250, "game.edges[250]: missing fields ['payoff_v_u']"),
    ("u a bool", 0, "game.edges[0].u: expected an integer, got False"),
    ("u a bool", 250, "game.edges[250].u: expected an integer, got False"),
    ("v a float", 0, "game.edges[0].v: expected an integer, got 1.0"),
    ("v a float", 250, "game.edges[250].v: expected an integer, got 251.0"),
    ("too few rows", 0, "game.edges[0].payoff_u_v: expected 3 rows"),
    ("too few rows", 250, "game.edges[250].payoff_u_v: expected 3 rows"),
    ("short row", 0, "game.edges[0].payoff_v_u, row 1: expected 3 entries"),
    ("short row", 250, "game.edges[250].payoff_v_u, row 1: expected 3 entries"),
    ("entry true", 0, "game.edges[0].payoff_v_u[2][1]: expected a number, got True"),
    ("entry true", 250, "game.edges[250].payoff_v_u[2][1]: expected a number, got True"),
    ("entry a string", 0, "game.edges[0].payoff_v_u[2][1]: expected a number, got '0.5'"),
    ("entry a string", 250, "game.edges[250].payoff_v_u[2][1]: expected a number, got '0.5'"),
    ("entry null", 0, "game.edges[0].payoff_u_v[2][1]: expected a number, got None"),
    ("entry null", 250, "game.edges[250].payoff_u_v[2][1]: expected a number, got None"),
    ("entry too large", 0, "game.edges[0].payoff_u_v[0][2]: integer too large for a float64"),
    (
        "entry too large",
        250,
        "game.edges[250].payoff_u_v[0][2]: integer too large for a float64",
    ),
    ("entry NaN", 0, "game: payoff matrix for (1, 0) has non-finite entries"),
    ("entry NaN", 250, "game: payoff matrix for (251, 0) has non-finite entries"),
    ("entry negative", 0, "game: payoff matrix for (0, 1) has negative entries"),
    ("entry negative", 250, "game: payoff matrix for (0, 251) has negative entries"),
    ("unknown player", 0, "game: edge (400, 1) references an unknown player"),
    ("unknown player", 250, "game: edge (650, 251) references an unknown player"),
    ("self-loop", 0, "game: self-loop at player 1"),
    ("self-loop", 250, "game: self-loop at player 251"),
    ("duplicate edge", 0, "game: duplicate edge (0, 2)"),
    ("duplicate edge", 250, "game: duplicate edge (250, 0)"),
]

# Two faults at once: the first in the loader's order is reported. Every
# edge's fields are checked before any construction check, edge by edge in
# key order, and the per-edge construction checks come before the
# whole-array finiteness and sign checks.
FIRST_OF_TWO = [
    ((("short row", 10), ("u a bool", 5)), "game.edges[5].u: expected an integer, got False"),
    (
        (("entry null", 250), ("missing key", 251)),
        "game.edges[250].payoff_u_v[2][1]: expected a number, got None",
    ),
    (
        (("entry NaN", 0), ("entry true", 299)),
        "game.edges[299].payoff_v_u[2][1]: expected a number, got True",
    ),
    ((("self-loop", 0), ("not an object", 299)), "game.edges[299]: expected an object"),
    (
        (("self-loop", 250), ("unknown player", 10)),
        "game: edge (410, 11) references an unknown player",
    ),
    ((("entry NaN", 0), ("duplicate edge", 250)), "game: duplicate edge (250, 0)"),
    (
        (("entry NaN", 10), ("entry too large", 250)),
        "game.edges[250].payoff_u_v[0][2]: integer too large for a float64",
    ),
    (
        (("entry too large", 250), ("entry too large", 251)),
        "game.edges[250].payoff_u_v[0][2]: integer too large for a float64",
    ),
    (
        (("entry negative", 3), ("entry NaN", 250)),
        "game: payoff matrix for (251, 0) has non-finite entries",
    ),
]


def faulty_star(faults):
    data = json.loads(STAR)
    for kind, i in faults:
        FAULTS[kind](data["edges"], i)
    return data


def load_via(route, data, tmp_path):
    if route == "game_from_dict":
        return game_from_dict(data)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    return load_game(str(path))


@pytest.mark.parametrize("route", ["game_from_dict", "load_game"])
class TestErrorsAtAnyEdge:
    @pytest.mark.parametrize("kind, i, message", MESSAGES)
    def test_one_fault_gives_its_full_message(self, route, kind, i, message, tmp_path):
        with pytest.raises(SchemaError) as excinfo:
            load_via(route, faulty_star([(kind, i)]), tmp_path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("faults, message", FIRST_OF_TWO)
    def test_of_two_faults_the_first_in_loader_order_is_reported(
        self, route, faults, message, tmp_path
    ):
        with pytest.raises(SchemaError) as excinfo:
            load_via(route, faulty_star(faults), tmp_path)
        assert str(excinfo.value) == message

    def test_the_unfaulted_star_loads(self, route, tmp_path):
        game, eps = load_via(route, faulty_star([]), tmp_path)
        assert (game.num_players, game.num_actions, len(game.edges), eps) == (301, 3, 300, 0.5)


ROUND_TRIPS = {
    "star n=301": lambda: random_normalized_game(301, 3, 0.5, topology=star_edges(301), rng_seed=1),
    "random tree n=32": lambda: random_normalized_game(32, 3, 0.5, rng_seed=7),
    "path n=3": lambda: random_normalized_game(3, 2, 0.8, topology=path_edges(3), rng_seed=1),
    "one player": lambda: random_normalized_game(1, 3, 0.5, rng_seed=1),
    "one action": lambda: random_normalized_game(5, 1, 0.5, rng_seed=2),
}


class TestConstruction:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_a_saved_game_loads_bit_for_bit_with_views_into_payoffs(self, name, tmp_path):
        made = ROUND_TRIPS[name]()
        save_game(str(tmp_path / "game.json"), made, 0.5)
        game, _ = load_game(str(tmp_path / "game.json"))
        assert game.payoffs.dtype == np.float64 and game.payoffs.shape == made.payoffs.shape
        assert game.payoffs.tobytes() == made.payoffs.tobytes()
        for field in ("owners", "neighbor_ids", "offsets"):
            assert getattr(game, field).tolist() == getattr(made, field).tolist()
        assert not game.payoffs.flags.writeable
        assert len(game.edges) == len(made.edges)
        for loaded, original in zip(game.edges, made.edges):
            assert (loaded.u, loaded.v) == (original.u, original.v)
            for view, expected in ((loaded.payoff_u_v, original.payoff_u_v),
                                   (loaded.payoff_v_u, original.payoff_v_u)):
                assert view.tobytes() == expected.tobytes()
                assert not view.flags.writeable
                assert view.base is game.payoffs and np.shares_memory(view, game.payoffs)

    def test_a_load_builds_each_edge_once(self, monkeypatch):
        # the loader hands the constructor its ids and stacked matrices, and
        # only the constructor builds an Edge, around views of payoffs
        import treenash.game as game_module
        import treenash.serialize as serialize_module

        built = []

        def counted(*args):
            built.append(args[:2])
            return Edge(*args)

        for module in (game_module, serialize_module):
            monkeypatch.setattr(module, "Edge", counted, raising=False)
        data = faulty_star([])
        game, _ = game_from_dict(data)
        assert built == [(e["u"], e["v"]) for e in data["edges"]]
        assert all(edge.payoff_u_v.base is game.payoffs for edge in game.edges)

    @pytest.mark.parametrize("change", ["ordered dict", "numpy float entry", "keys reordered"])
    def test_entries_beyond_plain_json_types_load_the_same(self, change):
        data = faulty_star([])
        entry = data["edges"][250]
        if change == "ordered dict":
            data["edges"][250] = OrderedDict(reversed(list(entry.items())))
        elif change == "numpy float entry":
            entry["payoff_v_u"][2][1] = np.float64(entry["payoff_v_u"][2][1])
        else:
            data["edges"][250] = dict(reversed(list(entry.items())))
        game, _ = game_from_dict(data)
        expected, _ = game_from_dict(faulty_star([]))
        assert game.payoffs.tobytes() == expected.payoffs.tobytes()
        assert [(e.u, e.v) for e in game.edges] == [(e.u, e.v) for e in expected.edges]

    def test_the_constructor_accepts_nested_lists_of_ints(self):
        game = TreePolymatrixGame(
            num_players=2,
            num_actions=2,
            edges=[Edge(1, 0, [[1, 0], [0, 2]], [[0, 3], [4, 0.5]])],
        )
        assert game.matrix(1, 0).tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert game.matrix(0, 1).tolist() == [[0.0, 3.0], [4.0, 0.5]]
        assert game.edges[0].payoff_u_v.dtype == np.float64
        assert (game.owners.tolist(), game.neighbor_ids.tolist()) == ([0, 1], [1, 0])

    def test_the_constructor_refuses_an_integer_too_large_for_a_float64(self):
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(2, 1, [Edge(0, 1, [[10**400]], [[0]])])
        assert str(excinfo.value) == "payoff matrix for (0, 1) has an entry too large for a float64"
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(3, 1, [Edge(0, 1, [[1]], [[0]]), Edge(2, 1, [[0]], [[-10**400]])])
        assert str(excinfo.value) == "payoff matrix for (1, 2) has an entry too large for a float64"


    def test_the_constructor_refuses_an_entry_that_is_not_a_number(self):
        for entry in ("a", {}, object(), 1 + 2j):
            with pytest.raises(InvalidGame) as excinfo:
                TreePolymatrixGame(2, 1, [Edge(0, 1, [[entry]], [[1.0]])])
            assert str(excinfo.value) == (
                "payoff matrix for (0, 1) has an entry that is not a number"
            ), entry
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(3, 1, [Edge(0, 1, [[1]], [[0]]), Edge(2, 1, [[0]], [["a"]])])
        assert str(excinfo.value) == "payoff matrix for (1, 2) has an entry that is not a number"
        # numpy raises the same ValueError for rows of unequal length
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(2, 2, [Edge(0, 1, [[1.0], [1.0, 2.0]], [[0, 0], [0, 0]])])
        assert str(excinfo.value) == "payoff matrix for (0, 1) has shape (2,), expected (2, 2)"


class TestJsonText:
    def test_an_integer_literal_past_the_int_string_limit_names_the_file(self, tmp_path):
        # Python refuses to convert integer strings of more than 4300 digits
        # (sys.get_int_max_str_digits), and json.load raises a plain
        # ValueError for them, not a JSONDecodeError
        data = game_data()
        data["edges"][0]["payoff_v_u"][2][1] = "LONG"
        long = "9" * 5001
        for load, text in (
            (load_game, json.dumps(data).replace('"LONG"', long)),
            (load_profile, '{"strategies": [[' + long + "]]}"),
        ):
            path = tmp_path / f"{load.__name__}.json"
            path.write_text(text)
            with pytest.raises(SchemaError) as excinfo:
                load(str(path))
            message = str(excinfo.value)
            assert message.startswith(f"{path}: ") and "4300" in message, message

    def test_nesting_past_the_recursion_limit_names_the_file(self, tmp_path):
        # json.load raises RecursionError for arrays and objects nested past
        # Python's recursion limit, which is neither a ValueError nor caught
        # by the command line's input-error handler
        depth = 100_000
        for load, text in (
            (load_game, "[" * depth + "]" * depth),
            (load_game, '{"a": ' * depth + "1" + "}" * depth),
            (load_profile, '{"strategies": ' + "[" * depth + "]" * depth + "}"),
        ):
            path = tmp_path / f"{load.__name__}.json"
            path.write_text(text)
            with pytest.raises(SchemaError) as excinfo:
                load(str(path))
            message = str(excinfo.value)
            assert message.startswith(f"{path}: ") and "recursion" in message, message

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_bytes(b'{"num_players": "\xff"}')
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
            load_game(str(path))


class TestProfileEntries:
    def test_an_integer_too_large_for_a_float64_names_its_entry(self):
        for key, data, context in (
            ("strategies", {"strategies": [[1, 0], [0, 10**400]]}, "profile.strategies[1][1]"),
            ("regrets", {"strategies": [[1, 0]], "regrets": [0, 10**400]}, "profile.regrets[1]"),
            ("epsilon", {"strategies": [[1, 0]], "epsilon": 10**400}, "profile.epsilon"),
        ):
            with pytest.raises(SchemaError) as excinfo:
                profile_from_dict(data)
            assert str(excinfo.value) == f"{context}: integer too large for a float64", key
