"""``BeliefTable.classes``, ``distinct_pairs`` and ``same_belief``, and the
partition ``belief_partition``, ``is_measurable`` and the extreme-point test
read from them, against the pairwise cross-multiplied tests and the
first-match grouping loop they replaced (``belief_reference``), on random
games and on BCE vertices, their mixtures and outcomes built with equal
beliefs."""

import random
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

import belief_reference as ref
from ribce.bce import mix_outcomes
from ribce.errors import NotCoherent
from ribce.games import make_outcome
from ribce.rational import Rat
from ribce.representation import PartitionProfile, belief_partition
from ribce.structure import equal_beliefs_in_all_bce
from ribce.vanishing import is_measurable

from sample_games import random_game


def _vertex(draw, game):
    """The optimum of a random objective over the BCE polytope: a vertex."""
    poly = game.bce_polytope
    objective = {cell: Rat(draw(st.integers(-3, 3))) for cell in poly.variables}
    return poly.optimum(objective)[0]


def _grouped_outcome(draw, game):
    """An outcome, a BCE only by chance, under which one player's actions
    fall into drawn groups that share one belief each: every action's masses
    are a drawn weight (zero leaves it unplayed) times its group's row, and
    rescaling each state to its prior keeps the rows of a group
    proportional."""
    player = draw(st.sampled_from(game.players))
    cells = list(game.belief_cells(player))
    templates = []
    for _ in range(draw(st.integers(1, 2))):
        row = {cell: draw(st.integers(0, 2)) for cell in cells}
        for state in game.states:
            opp = draw(st.sampled_from([opp for opp, s in cells if s == state]))
            row[(opp, state)] += 1
        templates.append(row)
    weights = {a: draw(st.integers(0, 3)) for a in game.actions[player]}
    if not any(weights.values()):
        weights[game.actions[player][0]] = 1
    masses = {}
    for a, w in weights.items():
        template = templates[draw(st.integers(0, len(templates) - 1))]
        for (opp, state), x in template.items():
            if w * x:
                masses[(game.insert_action(player, a, opp), state)] = w * x
    totals = dict.fromkeys(game.states, 0)
    for (_, state), x in masses.items():
        totals[state] += x
    return make_outcome(
        game,
        {cell: game.prior[cell[1]] * Rat(x, totals[cell[1]]) for cell, x in masses.items()},
    )


def _outcome(draw, game):
    """A BCE vertex, a mixture of two, or an outcome with grouped beliefs."""
    kind = draw(st.sampled_from(("vertex", "mixture", "grouped")))
    if kind == "vertex":
        return _vertex(draw, game)
    if kind == "mixture":
        t = Rat(draw(st.integers(1, 3)), 4)
        return mix_outcomes(((1 - t, _vertex(draw, game)), (t, _vertex(draw, game))))
    return _grouped_outcome(draw, game)


def _game(draw):
    """A two-player ``random_game`` with 2-3 actions each and 1-3 states."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_game(rng, n_players=2, n_actions=(2, 3), n_states=draw(st.integers(1, 3)))


@st.composite
def cases(draw):
    game = _game(draw)
    return game, _outcome(draw, game)


@st.composite
def point_sets(draw):
    """A game and one to three outcomes on it, read as the vertex set."""
    game = _game(draw)
    return game, [_outcome(draw, game) for _ in range(draw(st.integers(1, 3)))]


@given(cases())
def test_classes_match_pairwise_reference(case):
    game, outcome = case
    want = ref.belief_partition(game, outcome)
    assert belief_partition(game, outcome).cells == want
    for i in game.players:
        table = outcome.beliefs(game)[i]
        actions = game.actions[i]
        support = ref.supported_actions(game, outcome, i)
        groups = [tuple(a for a in actions if a in cell) for cell in want[i]]
        assert list(table.classes.values()) == [g for g in groups if set(g) <= set(support)]
        for row, members in table.classes.items():
            assert gcd(*row) == 1
            assert all(ref.same_belief(row, table.masses[a]) for a in members)
        assert table.distinct_pairs() == [
            (a, b)
            for k, a in enumerate(support)
            for b in support[k + 1 :]
            if not ref.beliefs_equal(game, outcome, i, a, b)
        ]
        for a in actions:
            for b in actions:
                assert table.same_belief(a, b) == ref.beliefs_equal(game, outcome, i, a, b)
    coarsest = PartitionProfile(cells={i: (frozenset(game.actions[i]),) for i in game.players})
    assert is_measurable(game, outcome, coarsest) == all(
        ref.beliefs_equal(game, outcome, i, a, b)
        for i in game.players
        for a in game.actions[i]
        for b in game.actions[i]
    )


@given(point_sets())
def test_extreme_point_test_matches_pairwise_reference(case):
    game, vertices = case
    for i in game.players:
        for a in game.actions[i]:
            for b in game.actions[i]:
                if a == b:
                    continue
                want = ref.equal_beliefs_in_all_bce(game, i, a, b, vertices)
                try:
                    got = equal_beliefs_in_all_bce(game, i, a, b, vertices)
                except NotCoherent:
                    got = None
                assert got == want
