"""The int ``separating_perturbation`` against the Fraction construction it
replaced (``perturbation_reference``), and the separating LPs that order its
belief chain: none while at most two distinct beliefs remain to be ordered,
and the same order as the reference's hull-membership LPs."""

import json
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import perturbation_reference as ref
from ribce import rows as _rows
from ribce import structure as _structure
from ribce.bce import mix_outcomes
from ribce.games import utility_distance
from ribce.io import game_to_dict
from ribce.rational import Rat
from ribce.separation import is_separated
from ribce.structure import _peel_order, _separating_functional, separating_perturbation

from sample_games import (
    collinear_beliefs_game,
    collinear_beliefs_outcome,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    random_game,
)

EPSILONS = (Rat(1, 10), Rat(1, 100), Rat(1, 1000))


@st.composite
def perturbation_cases(draw):
    """A random game with 2-3 actions per player and 1-3 states, one of its
    BCE vertices or the mixture of two (the optima of random objectives
    over its BCE polytope), and an epsilon.  A mixture often gives a
    three-action player three distinct beliefs."""
    rng = draw(st.randoms(use_true_random=False))
    game = random_game(rng, n_actions=(2, 3), n_states=draw(st.integers(1, 3)))
    poly = game.bce_polytope
    ends = [
        poly.optimum({cell: Rat(draw(st.integers(-3, 3))) for cell in poly.variables})[0]
        for _ in range(2)
    ]
    t = draw(st.sampled_from((0, Rat(1, 3), Rat(1, 2))))
    outcome = mix_outcomes(((1 - t, ends[0]), (t, ends[1]))) if t else ends[0]
    return game, outcome, draw(st.sampled_from(EPSILONS))


@given(perturbation_cases())
def test_perturbation_matches_fraction_construction(case):
    game, outcome, epsilon = case
    got = separating_perturbation(game, outcome, epsilon)
    want = ref.separating_perturbation(game, outcome, epsilon)
    assert (got is game) == (want is game)
    for i in game.players:
        for cell in game.cells():
            assert got.u(i, *cell) == want.u(i, *cell)
    assert json.dumps(game_to_dict(got)) == json.dumps(game_to_dict(want))
    assert utility_distance(got, game) == ref.utility_distance(got, game)
    assert utility_distance(game, got) == utility_distance(got, game)


@pytest.fixture
def peel_lps(monkeypatch):
    """A list that gets one entry per ``_separating_functional`` call made
    inside ``structure._peel_order``; the chain's links are not counted."""
    calls, peeling = [], []
    peel, separate = _structure._peel_order, _structure._separating_functional

    def counting_peel(beliefs):
        peeling.append(beliefs)
        try:
            return peel(beliefs)
        finally:
            peeling.pop()

    def counting_separate(target, earlier):
        if peeling:
            calls.append(target)
        return separate(target, earlier)

    monkeypatch.setattr(_structure, "_peel_order", counting_peel)
    monkeypatch.setattr(_structure, "_separating_functional", counting_separate)
    return calls


def _two_action_case():
    rng = random.Random(0)
    game = random_game(rng, n_actions=2, n_states=2)
    objective = {cell: Rat(rng.randint(-3, 3)) for cell in game.cells()}
    return game, game.bce_polytope.optimum(objective)[0], Rat(1, 10)


# (case, separating LPs run to order the chain).  Each player of the 3x3 game has three
# supported actions, two of them with one belief.  Of the three collinear
# beliefs, the first is a vertex, which one LP shows; the two left are both
# vertices.
HULL_LPS = {
    "two_actions": (_two_action_case, 0),
    "3x3_p_half": (
        lambda: (
            coordination_game_3x3(),
            coordination_3x3_segment_point(Rat(1, 2)),
            Rat(1, 10),
        ),
        0,
    ),
    "collinear": (
        lambda: (collinear_beliefs_game(), collinear_beliefs_outcome(), Rat(1, 20)),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(HULL_LPS))
def test_hull_lps_only_for_three_or_more_beliefs(peel_lps, name):
    make, expected = HULL_LPS[name]
    game, outcome, epsilon = make()
    assert not is_separated(game, outcome)
    separating_perturbation(game, outcome, epsilon)
    assert len(peel_lps) == expected


def _posteriors(rows):
    return [[Rat(x, sum(row)) for x in row] for row in rows]


def test_peel_skips_a_first_belief_inside_the_hull():
    # (1/2, 1/2) is the midpoint of the other two: its best margin is 0.
    rows = [[1, 1], [2, 0], [0, 2]]
    assert _separating_functional(rows[0], rows[1:]) is None
    assert _peel_order(rows) == ref._peel_order(_posteriors(rows)) == [2, 0, 1]


@st.composite
def belief_rows(draw):
    """Three or more distinct primitive int mass rows, some of them
    positive combinations (so posteriors in the hull) of drawn ones, in a
    drawn order."""
    dim = draw(st.integers(2, 4))
    entry = st.integers(0, 4)
    base = draw(
        st.lists(
            st.lists(entry, min_size=dim, max_size=dim).filter(any), min_size=2, max_size=4
        )
    )
    weight = st.integers(1, 3)
    for _ in range(draw(st.integers(1, 3))):
        u, v = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        a, b = draw(weight), draw(weight)
        base.append([a * x + b * y for x, y in zip(u, v)])
    rows = list(dict.fromkeys(tuple(_rows.primitive(row)) for row in base))
    assume(len(rows) >= 3)
    return [list(row) for row in draw(st.permutations(rows))]


@given(belief_rows())
def test_peel_order_matches_hull_membership(rows):
    assert _peel_order(rows) == ref._peel_order(_posteriors(rows))
