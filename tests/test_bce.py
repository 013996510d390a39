import random

import pytest

import row_reference as ref
from ribce.bce import (
    is_bce,
    max_support_point,
    maximize_cell_over_bce,
    minimize_linear_over_bce,
    obedience_row,
    obedience_slack,
)
from ribce.errors import UnknownAction, ValidationError
from ribce.games import deviation_row, make_outcome
from ribce.lp import solve
from ribce.rational import ONE, Rat, ZERO
from ribce.vertices import enumerate_vertices
from ribce.bce import BcePolytope

from sample_games import (
    A,
    B,
    MKT,
    all_market_outcome,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    first_best_outcome,
    investment_game,
    matching_pennies,
    random_game,
)


def _gross_welfare_objective(game):
    return {
        (profile, state): sum(
            (game.u(i, profile, state) for i in game.players), ZERO
        )
        for (profile, state) in game.cells()
    }


def test_slack_with_identical_deviation_is_zero():
    g = investment_game(0)
    out = first_best_outcome(g)
    for action in (A, B, MKT):
        assert obedience_slack(g, out, "ann", action, action) == 0


def test_slack_first_best_vs_market():
    g = investment_game(0)
    assert obedience_slack(g, first_best_outcome(g), "ann", A, MKT) == 1


def test_slack_indifference_in_3x3():
    g3 = coordination_game_3x3()
    mixed = coordination_3x3_segment_point(0)
    assert obedience_slack(g3, mixed, "p1", "b", "a") == 0


def test_slack_unknown_action():
    g = investment_game(0)
    with pytest.raises(UnknownAction):
        obedience_slack(g, first_best_outcome(g), "ann", "nope", A)


def test_all_market_is_bce_only_without_perturbation():
    g0 = investment_game(0)
    gp = investment_game(Rat(1, 10))
    assert is_bce(g0, all_market_outcome(g0))
    check = is_bce(gp, all_market_outcome(gp))
    assert not check
    player, rec, dev, slack = check.witness
    assert rec == MKT and slack < 0


def test_complete_info_nash_outcomes_are_bce():
    g3 = coordination_game_3x3()
    for t in (0, 1):
        assert is_bce(g3, coordination_3x3_segment_point(t))


def test_minimize_gross_welfare_perturbed_intro():
    gp = investment_game(Rat(1, 10))
    outcome, value = minimize_linear_over_bce(gp, _gross_welfare_objective(gp))
    assert value == Rat(6, 5)
    assert is_bce(gp, outcome)


def test_minimize_gross_welfare_unperturbed_intro():
    g0 = investment_game(0)
    outcome, value = minimize_linear_over_bce(g0, _gross_welfare_objective(g0))
    assert value == 0
    # the all-market BCE attains it
    am = all_market_outcome(g0)
    assert sum((am.beliefs(g0)[i].gross() for i in g0.players), ZERO) == 0


def test_minimize_zero_objective():
    g = investment_game(Rat(1, 10))
    outcome, value = minimize_linear_over_bce(g, {})
    assert value == 0
    assert is_bce(g, outcome)


def test_max_support_point_unique_bce():
    mp = matching_pennies()
    out = max_support_point(mp)
    for profile in mp.profiles():
        assert out.mass(profile, "s") == Rat(1, 4)


def test_max_support_point_3x3_supports_everything():
    g3 = coordination_game_3x3()
    out = max_support_point(g3)
    assert out.beliefs(g3)["p1"].support == ("a", "b", "c")
    assert out.beliefs(g3)["p2"].support == ("a", "b", "c")
    assert is_bce(g3, out)


def test_max_support_contains_all_vertex_supports():
    rng = random.Random(23)
    for _ in range(6):
        g = random_game(rng, n_actions=2)
        poly = BcePolytope.of(g)
        out = max_support_point(g)
        cells_with_mass = {k for k, q in out.p.items() if q}
        for pt in enumerate_vertices(poly.variables, poly.constraints, poly.bounds):
            for cell, q in pt.items():
                if q:
                    assert cell in cells_with_mass


def test_uninformed_below_gross_on_optimizer_outputs():
    rng = random.Random(5)
    for _ in range(15):
        g = random_game(rng)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        assert is_bce(g, p)
        for i in g.players:
            assert p.beliefs(g)[i].uninformed()[0] <= p.beliefs(g)[i].gross()


def _sample_games():
    rng = random.Random(41)
    return [
        investment_game(0),
        investment_game(Rat(1, 10)),
        coordination_game_3x3(),
        matching_pennies(),
    ] + [random_game(rng) for _ in range(4)]


def test_maximize_cell_same_with_shared_polytope():
    # The game's polytope answers every objective after the first from its
    # stored phase 1, and each answer is the one a cold solve gives.
    for g in _sample_games():
        cold = BcePolytope.of(g)
        for cell in g.cells():
            shared, shared_value = maximize_cell_over_bce(g, cell)
            sol = solve(cold.lp({cell: ONE}, "max"))
            assert list(shared.p.items()) == list(cold.outcome_from_point(sol.point).p.items())
            assert shared_value == sol.value
        assert g.bce_polytope == cold
        assert repr(g.bce_polytope) == repr(cold)


def test_maximize_unknown_cell_rejected():
    g = investment_game(0)
    maximize_cell_over_bce(g, next(iter(g.cells())))
    with pytest.raises(ValidationError, match="unknown variable"):
        maximize_cell_over_bce(g, ((A, "nope"), "thetaA"))


def test_max_support_point_runs_phase_one_once(phase_one_calls):
    rng = random.Random(7)
    for _ in range(3):
        g = random_game(rng, n_players=2, n_actions=2, n_states=2)
        phase_one_calls.clear()
        out = max_support_point(g)
        assert is_bce(g, out)
        assert len(phase_one_calls) == 1


def test_int_rows_match_fraction_builders_on_random_games():
    rng = random.Random(13)
    for _ in range(30):
        game = random_game(
            rng, n_players=rng.choice((1, 2, 3)), n_actions=(2, 3), n_states=rng.randint(1, 3), span=2
        )
        for i in game.players:
            for a in game.actions[i]:
                ref.assert_same_row(deviation_row(game, i, a), ref.deviation_row(game, i, a))
                for b in game.actions[i]:
                    ref.assert_same_row(obedience_row(game, i, a, b), ref.obedience_row(game, i, a, b))
        poly = BcePolytope.of(game)
        want = ref.bce_constraints(game)
        assert len(poly.constraints) == len(want)
        for (row, relation, rhs), (want_row, want_relation, want_rhs) in zip(poly.constraints, want):
            ref.assert_same_row(row, want_row)
            assert (relation, rhs) == (want_relation, want_rhs)
