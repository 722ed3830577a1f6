"""Tests for loading games: payoff matrix validation and its error paths."""

import re

import numpy as np
import pytest

from helpers import identity_edge_game
from treenash.errors import SchemaError
from treenash.serialize import game_from_dict, game_to_dict


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

    def test_short_row_names_its_index(self):
        data = game_data()
        data["edges"][0]["payoff_u_v"][1] = [0.0, 0.5]
        with pytest.raises(SchemaError, match=re.escape("game.edges[0].payoff_u_v, row 1")):
            game_from_dict(data)
