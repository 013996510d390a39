import random

import pytest

from ribce.bce import is_bce, minimize_linear_over_bce
from ribce.errors import ZeroProbabilityRecommendation
from ribce.games import make_outcome
from ribce.rational import ZERO, Rat
from ribce.separation import (
    ConditionalBelief,
    beliefs_equal,
    conditional_belief,
    is_sbce,
    is_separated,
    is_strict_bce,
)

from belief_reference import _best_responses
from sample_games import (
    A,
    B,
    MKT,
    all_market_outcome,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    coordination_mixture_outcome,
    investment_game,
    random_game,
)


def test_product_outcome_beliefs_independent_of_recommendation():
    g = investment_game(0)
    quarter = Rat(1, 8)
    p = {}
    for x in (A, B):
        for y in (A, B):
            for s in g.states:
                p[((x, y), s)] = quarter
    out = make_outcome(g, p)
    assert beliefs_equal(g, out, "ann", A, B)
    cb_a = conditional_belief(g, out, "ann", A)
    cb_b = conditional_belief(g, out, "ann", B)
    assert cb_a.belief == cb_b.belief


def test_3x3_point_mass_belief():
    g3 = coordination_game_3x3()
    pt = coordination_3x3_segment_point(Rat(1, 3))
    cb = conditional_belief(g3, pt, "p1", "a")
    assert cb.belief[(("a",), "s")] == 1
    assert cb.br_set == ("a",)


def test_3x3_half_half_belief_with_tie():
    g3 = coordination_game_3x3()
    pt = coordination_3x3_segment_point(Rat(1, 3))
    cb = conditional_belief(g3, pt, "p1", "b")
    assert cb.belief[(("b",), "s")] == Rat(1, 2)
    assert cb.belief[(("c",), "s")] == Rat(1, 2)
    # the 5/2 = 5/2 = 5/2 three-way tie at this posterior
    assert "a" in cb.br_set and "b" in cb.br_set


def test_zero_probability_recommendation():
    g = investment_game(0)
    out = all_market_outcome(g)
    with pytest.raises(ZeroProbabilityRecommendation):
        conditional_belief(g, out, "ann", A)
    cb = conditional_belief(g, out, "ann", A, allow_zero=True)
    assert cb.is_zero and cb.br_set == (A, B, MKT)


def test_separation_of_segment_points():
    g3 = coordination_game_3x3()
    check = is_separated(g3, coordination_3x3_segment_point(Rat(1, 2)))
    assert not check
    assert check.witness == ("p1", "a", "b", "a")
    assert is_separated(g3, coordination_3x3_segment_point(0))
    assert is_separated(g3, coordination_3x3_segment_point(1))


def test_equal_beliefs_make_separation_vacuous():
    g = investment_game(0)
    out = all_market_outcome(g)
    assert is_separated(g, out)


def test_sbce_examples():
    g0 = investment_game(0)
    assert is_sbce(g0, all_market_outcome(g0))
    mix = coordination_mixture_outcome(g0, Rat(1, 3))
    assert is_bce(g0, mix)
    assert not is_sbce(g0, mix)


def test_prior_mixed_nash_is_sbce():
    # Independent play of a mixed Nash of the prior-averaged game: all
    # beliefs coincide, so separation is vacuous.
    g = investment_game(0)
    ninth = Rat(1, 9)
    p = {}
    for x in (A, B, MKT):
        for y in (A, B, MKT):
            for s in g.states:
                p[((x, y), s)] = ninth / 2
    out = make_outcome(g, p)
    assert is_separated(g, out)


def test_strict_bce_examples():
    g3 = coordination_game_3x3()
    pure = coordination_3x3_segment_point(1)
    mixed = coordination_3x3_segment_point(0)
    assert is_strict_bce(g3, pure)
    assert not is_strict_bce(g3, mixed)  # b vs c indifference


def test_dominant_action_game_strict():
    g = investment_game(Rat(1, 10))
    # both always coordinate on the better project: strict best responses
    from sample_games import first_best_outcome

    out = first_best_outcome(g)
    assert is_strict_bce(g, out)


def test_strict_implies_separated_on_random_bces():
    rng = random.Random(31)
    found_strict = 0
    for _ in range(40):
        g = random_game(rng)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        if is_strict_bce(g, p):
            found_strict += 1
            assert is_separated(g, p)
    assert found_strict > 0


def test_obedience_restated_on_beliefs():
    # For every BCE, each supported recommendation best-responds to its own
    # posterior.
    rng = random.Random(13)
    for _ in range(10):
        g = random_game(rng)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        for i in g.players:
            for a in p.support(g, i):
                assert a in conditional_belief(g, p, i, a).br_set


# The belief code as it stood before beliefs were read from belief tables,
# kept as the reference the current functions must reproduce exactly.


def _reference_conditional_belief(game, outcome, player, rec, allow_zero=False):
    k = game.player_index(player)
    mass = outcome.action_marginal(game, player, rec)
    cells = [(opp, state) for opp in game.opponent_profiles(player) for state in game.states]
    belief = {cell: ZERO for cell in cells}
    if not mass:
        if not allow_zero:
            raise ZeroProbabilityRecommendation(f"{player!r} never plays {rec!r}")
        return ConditionalBelief(player, rec, belief, tuple(game.actions[player]))
    for (profile, state), q in outcome.p.items():
        if q and profile[k] == rec:
            opp = profile[:k] + profile[k + 1 :]
            belief[(opp, state)] += q / mass
    return ConditionalBelief(player, rec, belief, _best_responses(game, player, belief))


def _reference_beliefs_equal(game, outcome, player, a, b):
    k = game.player_index(player)
    mass_a = outcome.action_marginal(game, player, a)
    mass_b = outcome.action_marginal(game, player, b)
    for opp in game.opponent_profiles(player):
        for state in game.states:
            cell_a = outcome.mass(opp[:k] + (a,) + opp[k:], state)
            cell_b = outcome.mass(opp[:k] + (b,) + opp[k:], state)
            if mass_a * cell_b != mass_b * cell_a:
                return False
    return True


def _random_outcome(rng, game, idle):
    """Sparse random outcome in which ``idle`` (player, action) never plays."""
    player, action = idle
    k = game.player_index(player)
    live = [p for p in game.profiles() if p[k] != action]
    entries = {}
    for state in game.states:
        weights = [rng.choice((0, 0, 1, 2, 5)) for _ in live]
        weights[rng.randrange(len(weights))] += 1
        total = sum(weights)
        for profile, w in zip(live, weights):
            if w:
                entries[(profile, state)] = game.prior[state] * Rat(w, total)
    return make_outcome(game, entries)


def test_belief_code_matches_reference_on_random_outcomes():
    rng = random.Random(2016)
    for n_players in (1, 2, 3):
        for _ in range(12):
            g = random_game(rng, n_players=n_players, n_actions=(2, 3))
            idle_player = rng.choice(g.players)
            out = _random_outcome(rng, g, (idle_player, g.actions[idle_player][-1]))
            for i in g.players:
                for a in g.actions[i]:
                    for allow_zero in (False, True):
                        try:
                            ref = _reference_conditional_belief(g, out, i, a, allow_zero)
                        except ZeroProbabilityRecommendation:
                            with pytest.raises(ZeroProbabilityRecommendation):
                                conditional_belief(g, out, i, a, allow_zero)
                            continue
                        got = conditional_belief(g, out, i, a, allow_zero)
                        assert list(got.belief.items()) == list(ref.belief.items())
                        assert all(q is ZERO for q in got.belief.values() if not q)
                        assert got.br_set == ref.br_set
                    for b in g.actions[i]:
                        assert beliefs_equal(g, out, i, a, b) == _reference_beliefs_equal(
                            g, out, i, a, b
                        )
            assert not out.action_marginal(g, idle_player, g.actions[idle_player][-1])
