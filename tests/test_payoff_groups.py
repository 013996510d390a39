"""The complete-information Nash test and the full-information cost bound,
read off the outcome's int masses (``games.payoffs_by_group``), against the
Fraction loops they replaced (``policy_reference``), on random games with
2-3 players, 2-3 actions and 1-3 states.  The outcomes are LP optima and
their mixtures, sparse random outcomes, per-state product outcomes and
per-state pure profiles, pure Nash profiles where a state has one."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import policy_reference as ref
import test_belief_tables as tables_test
from ribce.errors import DimensionMismatch
from ribce.games import Outcome, payoffs_by_group
from ribce.rational import ONE, Rat
from ribce.representation import _state_best_reply_value, build_canonical
from ribce.vanishing import is_complete_info_nash

from sample_games import A, investment_game


def _weights(draw, actions):
    """Int weights over ``actions``, at least one positive; often pure."""
    if draw(st.booleans()):
        weights = [0] * len(actions)
    else:
        weights = [draw(st.integers(0, 2)) for _ in actions]
    weights[draw(st.integers(0, len(actions) - 1))] += 1
    return weights


@st.composite
def product_outcomes(draw, game):
    """Per state, the product of one mixed action per player."""
    entries = {}
    for s in game.states:
        mixes = []
        for i in game.players:
            weights = _weights(draw, game.actions[i])
            mixes.append({a: Rat(w, sum(weights)) for a, w in zip(game.actions[i], weights)})
        for profile in game.profiles():
            q = game.prior[s]
            for mix, a in zip(mixes, profile):
                q *= mix[a]
            if q:
                entries[(profile, s)] = q
    return Outcome(p=entries)


def _pure_nash(game, profile, state):
    return all(
        game.u(i, profile, state)
        >= game.u(i, game.insert_action(i, b, game.opponent_profile(profile, i)), state)
        for i in game.players
        for b in game.actions[i]
    )


@st.composite
def pure_outcomes(draw, game):
    """Per state, one pure profile: the first pure Nash profile in a drawn
    order, or the first profile when the state has none."""
    entries = {}
    for s in game.states:
        order = draw(st.permutations(list(game.profiles())))
        profile = next((p for p in order if _pure_nash(game, p, s)), order[0])
        entries[(profile, s)] = game.prior[s]
    return Outcome(p=entries)


@st.composite
def cases(draw):
    game = draw(tables_test.games(min_players=2, max_states=3))
    family = draw(st.sampled_from((tables_test.outcomes, product_outcomes, pure_outcomes)))
    return game, draw(family(game))


@given(cases())
def test_nash_test_matches_fraction_loop(case):
    game, outcome = case
    (got, profile), (want, want_profile) = (
        is_complete_info_nash(game, outcome),
        ref.is_complete_info_nash(game, outcome),
    )
    assert got == want
    if got:
        assert list(profile.mixes.items()) == list(want_profile.mixes.items())
    else:
        assert profile is None


@given(cases())
def test_cost_bound_matches_fraction_loop(case):
    game, outcome = case
    rep = build_canonical(game, outcome)
    for i in game.players:
        assert _state_best_reply_value(game, outcome, i) == ref.state_best_reply_value(game, rep, i)


@given(tables_test.game_and_outcome())
def test_groups_by_own_action_are_the_belief_tables_value_rows(case):
    game, outcome = case
    for k, i in enumerate(game.players):
        groups, den = payoffs_by_group(game, outcome, i, lambda cell: cell[0][k])
        table = outcome.beliefs(game)[i]
        assert den == table.payoffs.scale * table.scale
        assert groups == {a: table.values(a) for a in table.support}


@pytest.mark.parametrize("cell", [(("zzz", A), "thetaA"), ((A, A), "thetaZ"), ((A,), "thetaA")])
def test_a_cell_outside_the_game_is_named(cell):
    g = investment_game(Rat(1, 10))
    out = Outcome(p={cell: ONE})
    with pytest.raises(DimensionMismatch, match="unknown cell"):
        is_complete_info_nash(g, out)
    with pytest.raises(DimensionMismatch, match="unknown cell"):
        payoffs_by_group(g, out, "ann", lambda cell: cell[1])
