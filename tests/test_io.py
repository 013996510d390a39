"""Cell keys of game and outcome files: the round trip through the JSON
layout, the four ways a key can be malformed, each with its message, and the
names a key cannot carry."""

import re

import pytest

from ribce.errors import SchemaViolation
from ribce.games import BaseGame
from ribce.io import game_from_dict, game_to_dict, outcome_from_dict, outcome_to_dict
from ribce.rational import Rat

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


def _named_game(p1_actions, states):
    """A two-player game with ``p1_actions`` for p1, ("c",) for p2 and
    ``states`` under a uniform prior, every payoff 0."""
    actions = {"p1": tuple(p1_actions), "p2": ("c",)}
    cells = [((a, "c"), s) for a in actions["p1"] for s in states]
    return BaseGame(
        players=("p1", "p2"),
        states=tuple(states),
        prior={s: Rat(1, len(states)) for s in states},
        actions=actions,
        utilities={i: dict.fromkeys(cells, Rat(0)) for i in ("p1", "p2")},
    )


# A cell key joins the actions with "," and puts the state after the last
# "|": a name holding the separator its place uses cannot be read back, so it
# is refused both ways, naming the player or state and the name.
UNKEYABLE = [
    (("a,x", "b"), ("s",), "action 'a,x' of player 'p1' contains ','"),
    (("a", "b"), ("s", "t|u"), "state 't|u' contains '|'"),
]


@pytest.mark.parametrize("actions, states, message", UNKEYABLE)
def test_a_name_a_cell_key_cannot_carry_is_not_written(actions, states, message):
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        game_to_dict(_named_game(actions, states))


@pytest.mark.parametrize("actions, states, message", UNKEYABLE)
def test_a_name_a_cell_key_cannot_carry_is_not_read(actions, states, message):
    data = game_to_dict(_named_game(("a", "b"), ("s", "t")))
    data["actions"]["p1"] = list(actions)
    data["states"] = list(states)
    data["prior"] = {s: f"1/{len(states)}" for s in states}
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        game_from_dict(data)


def test_the_other_separator_in_a_name_round_trips():
    # "|" in an action and "," in a state leave the key readable.
    game = _named_game(("a|x", "b"), ("s", "t,u"))
    assert game_from_dict(game_to_dict(game)) == game
