"""Tests for the command-line interface: flags, files, exit codes."""

import csv
import json
import math
import re

import pytest

from helpers import game_from_matrices, identity_edge_game, matching_pennies_game, zero_game
from treenash.cli import main
from treenash.errors import InternalSoundnessViolation, SchemaError
from treenash.generator import random_tree
from treenash.serialize import load_game, profile_from_dict, save_game, save_profile


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


def write_game(path, game, epsilon=0.5):
    save_game(str(path), game, epsilon)
    return str(path)


class TestGenerate:
    def test_writes_single_edge_game(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        code = run("generate", "--players", "2", "--actions", "2",
                   "--epsilon", "0.5", "--seed", "7", "--out", str(out))
        assert code == 0
        game, eps = load_game(str(out))
        assert game.num_players == 2
        assert game.num_actions == 2
        assert len(game.edges) == 1
        assert eps == 0.5
        assert "normalized" in capsys.readouterr().err

    def test_star_topology(self, tmp_path):
        out = tmp_path / "star.json"
        assert run("generate", "--players", "5", "--actions", "2", "--epsilon", "0.5",
                   "--seed", "1", "--topology", "star", "--out", str(out)) == 0
        game, _ = load_game(str(out))
        assert sorted((e.u, e.v) for e in game.edges) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_random_topology_matches_random_tree(self, tmp_path):
        out = tmp_path / "rand.json"
        assert run("generate", "--players", "6", "--actions", "2", "--epsilon", "0.5",
                   "--seed", "11", "--topology", "random", "--out", str(out)) == 0
        game, _ = load_game(str(out))
        assert sorted((e.u, e.v) for e in game.edges) == random_tree(6, 11)

    def test_invalid_flags_exit_2(self):
        assert run("generate", "--players", "2") == 2  # missing required flags

    def test_invalid_epsilon_exit_2(self, tmp_path):
        assert run("generate", "--players", "2", "--actions", "2",
                   "--epsilon", "1.5", "--out", str(tmp_path / "g.json")) == 2

    def test_io_failure_exit_3(self, tmp_path):
        assert run("generate", "--players", "2", "--actions", "2", "--epsilon", "0.5",
                   "--out", str(tmp_path / "missing" / "g.json")) == 3

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREENASH_SEED", "11")
        out_env = tmp_path / "env.json"
        assert run("generate", "--players", "6", "--actions", "2", "--epsilon", "0.5",
                   "--out", str(out_env)) == 0
        out_explicit = tmp_path / "explicit.json"
        assert run("generate", "--players", "6", "--actions", "2", "--epsilon", "0.5",
                   "--seed", "11", "--out", str(out_explicit)) == 0
        assert out_env.read_text() == out_explicit.read_text()
        # explicit --seed wins over the environment
        monkeypatch.setenv("TREENASH_SEED", "999")
        out_win = tmp_path / "win.json"
        assert run("generate", "--players", "6", "--actions", "2", "--epsilon", "0.5",
                   "--seed", "11", "--out", str(out_win)) == 0
        assert out_win.read_text() == out_explicit.read_text()


class TestSolveVerifyRoundTrip:
    def test_generate_solve_verify(self, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        profile_path = tmp_path / "profile.json"
        assert run("generate", "--players", "6", "--actions", "2", "--epsilon", "0.5",
                   "--seed", "3", "--out", str(game_path)) == 0
        code = run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--support-size", "2", "--seed", "3", "--out", str(profile_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "max regret" in out and "wall time" in out
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is True
        assert len(payload["regrets"]) == 6

    def test_solve_writes_documented_schema(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        assert run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--support-size", "1", "--seed", "0", "--out", str(profile_path)) == 0
        data = json.loads(profile_path.read_text())
        assert set(data) == {"epsilon", "strategies", "regrets", "support_size", "seed"}
        assert data["support_size"] == 1
        assert data["seed"] == 0
        assert data["strategies"] == [[1.0, 0.0], [1.0, 0.0]]

    def test_solve_no_equilibrium_exit_4(self, tmp_path, capsys):
        game_path = write_game(tmp_path / "mp.json", matching_pennies_game(), 0.4)
        code = run("solve", "--game", str(game_path), "--epsilon", "0.4",
                   "--support-size", "1", "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "wall time" in capsys.readouterr().out

    def test_solve_cap_exceeded_exit_5(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        code = run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--support-size", "100000000", "--out", str(tmp_path / "p.json"))
        assert code == 5

    def test_solve_cap_exceeded_on_a_batched_player_exit_5(self, tmp_path, capsys):
        # hub 1 has 20 leaves, below the LP threshold of 67, so its candidate
        # product holds 2**20 tuples. Its edge to the root pays its second
        # action 0.6 more, so its first strategy is never a 0.5-best
        # response: that cell walks the default exhaustive cap of 10**6
        # tuples without a hit
        zero = [[0.0, 0.0], [0.0, 0.0]]
        game = game_from_matrices(
            22, 2,
            [(0, 1, zero, [[0.0, 0.0], [0.6, 0.6]])] + [(1, leaf, zero, zero) for leaf in range(2, 22)],
        )
        game_path = write_game(tmp_path / "hub.json", game)
        code = run("solve", "--game", game_path, "--epsilon", "0.5",
                   "--support-size", "1", "--out", str(tmp_path / "p.json"))
        assert code == 5
        assert "player 1, strategy index 0: no hit among the first 1000000 tuples" in (
            capsys.readouterr().out
        )

    def test_solve_a_product_over_the_cap_whose_first_tuple_hits_exit_0(self, tmp_path):
        # the same hub in the zero game: a product of 2**20 tuples, over the
        # default exhaustive cap, whose first tuple hits
        edges = [(0, 1)] + [(1, leaf) for leaf in range(2, 22)]
        game_path = write_game(tmp_path / "hub.json", zero_game(22, edges))
        code = run("solve", "--game", game_path, "--epsilon", "0.5",
                   "--support-size", "1", "--out", str(tmp_path / "p.json"))
        assert code == 0

    def test_solve_a_candidate_product_past_float64_exit_0(self, tmp_path, capsys):
        # a star of 150 players at m=2 and eps 0.3: the theoretical b=3442
        # and the LP threshold 185, so the root scans its 149 children, and
        # the root cell's candidate product, up to 3443**149 tuples, lies
        # beyond float64's range (it crashed with OverflowError, exit 1)
        game_path, profile_path = tmp_path / "star.json", tmp_path / "profile.json"
        assert run("generate", "--players", "150", "--actions", "2", "--epsilon", "0.3",
                   "--topology", "star", "--seed", "1", "--out", str(game_path)) == 0
        assert run("solve", "--game", str(game_path), "--epsilon", "0.3",
                   "--out", str(profile_path)) == 0
        assert "max regret" in capsys.readouterr().out
        assert json.loads(profile_path.read_text())["support_size"] == 3442

    def test_solve_malformed_game_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_players": 2,\n  "oops"\n}')
        code = run("solve", "--game", str(bad), "--epsilon", "0.5",
                   "--out", str(tmp_path / "p.json"))
        assert code == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_an_integer_payoff_too_large_for_a_float64_exit_2(self, tmp_path, command, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        data = json.loads((tmp_path / "game.json").read_text())
        data["edges"][-1]["payoff_v_u"][1][0] = 10**400
        (tmp_path / "game.json").write_text(json.dumps(data))
        if command == "solve":
            code = run("solve", "--game", game_path, "--epsilon", "0.5",
                       "--out", str(tmp_path / "p.json"))
        else:
            save_profile(str(tmp_path / "p.json"), [[1.0, 0.0], [1.0, 0.0]], 0.5, [0.0, 0.0])
            code = run("verify", "--game", game_path, "--profile", str(tmp_path / "p.json"),
                       "--epsilon", "0.5")
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: game.edges[0].payoff_v_u[1][0]: integer too large for a float64\n"
        )

    def test_an_integer_literal_past_the_int_string_limit_exit_2_names_the_file(
        self, tmp_path, capsys
    ):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        data = json.loads((tmp_path / "game.json").read_text())
        data["edges"][-1]["payoff_v_u"][1][0] = "LONG"
        (tmp_path / "game.json").write_text(json.dumps(data).replace('"LONG"', "9" * 5001))
        code = run("solve", "--game", game_path, "--epsilon", "0.5",
                   "--out", str(tmp_path / "p.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {game_path}: ") and "4300" in err, err

    @pytest.mark.parametrize("command", ["solve", "verify-game", "verify-profile", "oracle"])
    def test_json_nested_past_the_recursion_limit_exit_2_names_the_file(
        self, command, tmp_path, capsys
    ):
        # json.load raises RecursionError, not a ValueError, for such nesting
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "p.json"
        save_profile(str(profile_path), [[1.0, 0.0], [1.0, 0.0]], 0.5, [0.0, 0.0])
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        if command == "solve":
            code = run("solve", "--game", str(deep), "--epsilon", "0.5",
                       "--out", str(tmp_path / "out.json"))
        elif command == "oracle":
            code = run("oracle", "--game", str(deep), "--epsilon", "0.5", "--support-size", "1")
        else:
            game, profile = (deep, profile_path) if command == "verify-game" else (game_path, deep)
            code = run("verify", "--game", str(game), "--profile", str(profile),
                       "--epsilon", "0.5")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {deep}: ") and "recursion" in err, err

    def test_internal_error_exit_6(self, tmp_path, monkeypatch, capsys):
        def broken_solve(*args, **kwargs):
            raise InternalSoundnessViolation("assembled profile failed verification")

        monkeypatch.setattr("treenash.cli.solve", broken_solve)
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        code = run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--support-size", "1", "--out", str(tmp_path / "p.json"))
        assert code == 6
        assert "internal error" in capsys.readouterr().err

    def test_out_of_memory_exit_7(self, tmp_path, monkeypatch, capsys):
        def exhausted_solve(*args, **kwargs):
            raise MemoryError("Unable to allocate 79.1 GiB")

        monkeypatch.setattr("treenash.cli.solve", exhausted_solve)
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        code = run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--out", str(tmp_path / "p.json"))
        assert code == 7
        assert "--support-size" in capsys.readouterr().err

    def test_lp_threshold_inf_accepted(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        assert run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   "--support-size", "1", "--lp-threshold", "inf",
                   "--out", str(tmp_path / "p.json")) == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-9"])
    def test_non_finite_or_non_positive_lp_tolerance_exit_2(self, tmp_path, tolerance, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        assert run("solve", "--game", str(game_path), "--epsilon", "0.5",
                   f"--lp-tolerance={tolerance}", "--out", str(tmp_path / "p.json")) == 2
        assert "lp_tolerance" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


class TestVerify:
    def test_reject_exit_1_with_regrets(self, tmp_path, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        save_profile(str(profile_path), [[1.0, 0.0], [0.0, 1.0]], 0.5, [0.0, 0.0])
        code = run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regrets"] == [1.0, 1.0]

    def test_bad_simplex_exit_2(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"strategies": [[0.5, 0.4], [1.0, 0.0]]}))
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 2

    def test_wrong_shape_exit_2(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"strategies": [[1.0, 0.0]]}))
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 2

    def test_nan_probability_exit_2(self, tmp_path, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"strategies": [[1.0, 0.0], [math.nan, math.nan]]}))
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 2
        assert "profile.strategies[1]: non-finite probability" in capsys.readouterr().err
        with pytest.raises(SchemaError, match=re.escape("profile.strategies[0]")):
            profile_from_dict({"strategies": [[math.nan, math.nan]]})

    def test_unknown_field_exit_2(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(
            json.dumps({"strategies": [[1.0, 0.0], [1.0, 0.0]], "extra": 1})
        )
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 2

    def test_unknown_game_field_exit_2(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        data = json.loads((tmp_path / "game.json").read_text())
        data["surprise"] = True
        (tmp_path / "game.json").write_text(json.dumps(data))
        profile_path = tmp_path / "profile.json"
        save_profile(str(profile_path), [[1.0, 0.0], [1.0, 0.0]], 0.5, [0.0, 0.0])
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0.5") == 2


    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_epsilon_exit_2(self, tmp_path, epsilon, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        save_profile(str(profile_path), [[1.0, 0.0], [0.0, 1.0]], 0.5, [0.0, 0.0])
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", epsilon) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err

    def test_zero_epsilon_is_an_exact_check(self, tmp_path, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        profile_path = tmp_path / "profile.json"
        save_profile(str(profile_path), [[1.0, 0.0], [1.0, 0.0]], 0.5, [0.0, 0.0])
        assert run("verify", "--game", str(game_path), "--profile", str(profile_path),
                   "--epsilon", "0") == 0
        assert json.loads(capsys.readouterr().out)["accepted"] is True


class TestOracle:
    def test_found_and_none(self, tmp_path, capsys):
        good = write_game(tmp_path / "good.json", identity_edge_game())
        assert run("oracle", "--game", good, "--epsilon", "0.1",
                   "--support-size", "1") == 0
        assert json.loads(capsys.readouterr().out)["found"] is True
        bad = write_game(tmp_path / "mp.json", matching_pennies_game(), 0.4)
        assert run("oracle", "--game", bad, "--epsilon", "0.4",
                   "--support-size", "1") == 1
        assert json.loads(capsys.readouterr().out)["found"] is False

    def test_all_lists_every_profile(self, tmp_path, capsys):
        good = write_game(tmp_path / "good.json", identity_edge_game())
        assert run("oracle", "--game", good, "--epsilon", "0.1",
                   "--support-size", "1", "--all") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert payload["profiles"] == [
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.0, 1.0], [0.0, 1.0]],
        ]

    def test_cap_exceeded_exit_5(self, tmp_path):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        assert run("oracle", "--game", game_path, "--epsilon", "0.5",
                   "--support-size", "100000000") == 5

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("listing", [[], ["--all"]], ids=["first", "all"])
    def test_non_finite_or_negative_epsilon_exit_2(self, tmp_path, epsilon, listing, capsys):
        game_path = write_game(tmp_path / "game.json", identity_edge_game())
        assert run("oracle", "--game", game_path, "--epsilon", epsilon,
                   "--support-size", "1", *listing) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err


class TestBench:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_grid_rows_and_success(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--n-values", "2,4,8", "--m-values", "2",
                   "--epsilon-values", "0.5", "--b-values", "2",
                   "--repeats", "3", "--seed", "5", "--out", str(out)) == 0
        rows = self.read_rows(out)
        assert len(rows) == 9
        for row in rows:
            if row["success"] == "1":
                assert float(row["max_regret"]) <= 0.5 + 1e-9

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run("bench", "--n-values", "", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[:4] == ["n", "m", "epsilon", "b"]

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exit_2(self, tmp_path, repeats, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--n-values", "2", "--m-values", "2", "--epsilon-values", "0.5",
                   "--b-values", "1", "--repeats", repeats, "--out", str(out)) == 2
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-values", "--m-values", "--epsilon-values", "--b-values"])
    def test_one_empty_value_list_exit_2(self, tmp_path, flag, capsys):
        values = {"--n-values": "2", "--m-values": "2", "--epsilon-values": "0.5", "--b-values": "1"}
        values[flag] = ""
        out = tmp_path / "bench.csv"
        argv = [part for item in values.items() for part in item]
        assert run("bench", *argv, "--out", str(out)) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_deterministic_columns(self, tmp_path):
        args = ["bench", "--n-values", "3,5", "--m-values", "2",
                "--epsilon-values", "0.5", "--b-values", "2", "--repeats", "2",
                "--seed", "9", "--threads", "1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        rows1, rows2 = self.read_rows(out1), self.read_rows(out2)
        for r1, r2 in zip(rows1, rows2):
            for key in ("n", "m", "epsilon", "b", "seed", "success",
                        "lp_calls", "resamples", "fallbacks", "max_regret"):
                assert r1[key] == r2[key]
