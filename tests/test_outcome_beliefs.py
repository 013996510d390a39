"""``Outcome.beliefs``: one ``BeliefTables`` per (game, outcome), kept on
the outcome, so every check of an outcome builds each player's table once;
only ``games`` builds belief tables, and only ``games`` decides which mass
rows share a belief."""

import pathlib
import re

import ribce
from ribce.bce import is_bce, obedience_slack
from ribce.games import Outcome, gross_value, uninformed_value
from ribce.rational import Rat
from ribce.representation import belief_partition, build_canonical
from ribce.separation import (
    beliefs_equal,
    conditional_belief,
    is_sbce,
    is_separated,
    is_strict_bce,
)
from ribce.structure import separating_perturbation
from ribce.vanishing import is_measurable
from ribce.welfare import value_interval

from sample_games import coordination_3x3_segment_point, coordination_game_3x3


def _keys(built):
    return [(id(game), id(outcome), player) for game, outcome, player in built]


def test_public_calls_on_one_outcome_build_one_table_per_player(belief_tables_built):
    game = coordination_game_3x3()
    outcome = coordination_3x3_segment_point(Rat(1, 2))
    assert is_bce(game, outcome)
    assert not is_separated(game, outcome)
    assert not is_sbce(game, outcome)
    assert not is_strict_bce(game, outcome)
    assert obedience_slack(game, outcome, "p1", "a", "b") > 0
    assert conditional_belief(game, outcome, "p1", "b").br_set == ("a", "b", "c")
    assert beliefs_equal(game, outcome, "p2", "b", "c")
    for i in game.players:
        assert gross_value(game, outcome, i) >= uninformed_value(game, outcome, i)[0]
    value_interval(game, outcome)
    partition = belief_partition(game, outcome)
    assert is_measurable(game, outcome, partition)
    build_canonical(game, outcome)
    assert sorted(_keys(belief_tables_built)) == [
        (id(game), id(outcome), i) for i in game.players
    ]


def test_outcome_under_a_second_game_gets_its_own_tables(belief_tables_built):
    game = coordination_game_3x3()
    outcome = coordination_3x3_segment_point(Rat(1, 2))
    perturbed = separating_perturbation(game, outcome, Rat(1, 10))
    assert perturbed is not game
    tables, perturbed_tables = outcome.beliefs(game), outcome.beliefs(perturbed)
    assert tables.game is game and perturbed_tables.game is perturbed
    assert tables is not perturbed_tables
    assert not is_separated(game, outcome)
    assert is_sbce(perturbed, outcome)
    keys = _keys(belief_tables_built)
    assert len(keys) == len(set(keys)) == 2 * len(game.players)
    assert {key[0] for key in keys} == {id(game), id(perturbed)}


def test_equal_outcome_gets_its_own_tables(belief_tables_built):
    game = coordination_game_3x3()
    outcome = coordination_3x3_segment_point(Rat(1, 2))
    twin = Outcome(p=outcome.p)
    assert is_bce(game, outcome) and is_bce(game, twin)
    assert twin == outcome and repr(twin) == repr(outcome)
    assert twin.beliefs(game) is not outcome.beliefs(game)
    assert twin.beliefs(game).outcome is twin
    keys = _keys(belief_tables_built)
    assert len(keys) == len(set(keys)) == 2 * len(game.players)


def _callers_outside_games(pattern):
    """``file:line`` of every line of a ``ribce`` module other than ``games``
    that matches ``pattern``."""
    src = pathlib.Path(ribce.__file__).parent
    return [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        if path.name != "games.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_only_games_builds_belief_tables():
    assert _callers_outside_games(r"\b(belief_table|BeliefTables)\(") == []


def test_only_games_decides_equal_beliefs():
    # A table's ``same_belief(a, b)`` method reads its classes; a bare
    # ``same_belief(`` call or a primitive row of a table's masses would
    # decide equal beliefs a second way.
    assert _callers_outside_games(r"(?<![.\w])same_belief\(|primitive\(.*\.masses\b") == []
