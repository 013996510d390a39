"""Cell keys of game and outcome files: the round trip through the JSON
layout, and the four ways a key can be malformed, each with its message."""

import re

import pytest

from ribce.errors import SchemaViolation
from ribce.io import game_from_dict, game_to_dict, outcome_from_dict, outcome_to_dict

from sample_games import first_best_outcome, investment_game

GOOD = "fundA,fundB|thetaA"

BAD_KEYS = [
    ("fundA,fundB", "cell key 'fundA,fundB' lacks the |state separator"),
    ("fundA|thetaA", "cell key 'fundA|thetaA' names 1 actions"),
    ("fundA,fundB,market|thetaA", "cell key 'fundA,fundB,market|thetaA' names 3 actions"),
    ("fundA,fundB|thetaC", "cell key 'fundA,fundB|thetaC' names unknown state 'thetaC'"),
    ("fundA,fundC|thetaA", "cell key 'fundA,fundC|thetaA': 'fundC' is not an action of 'bob'"),
]


def test_cell_keys_round_trip():
    game = investment_game()
    outcome = first_best_outcome(game)
    data = game_to_dict(game)
    assert game_from_dict(data) == game
    assert outcome_from_dict(game, outcome_to_dict(outcome)) == outcome


@pytest.mark.parametrize("key, message", BAD_KEYS)
def test_bad_utility_key_rejected(key, message):
    data = game_to_dict(investment_game())
    table = data["utilities"]["bob"]
    table[key] = table.pop(GOOD)
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        game_from_dict(data)


@pytest.mark.parametrize("key, message", BAD_KEYS)
def test_bad_outcome_key_rejected(key, message):
    game = investment_game()
    data = outcome_to_dict(first_best_outcome(game))
    data["outcome"][key] = "0"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        outcome_from_dict(game, data)
