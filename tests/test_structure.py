import random

import pytest

from ribce.bce import BcePolytope, is_bce, minimize_linear_over_bce, obedience_row
from ribce.errors import NotABce, NotCoherent, ValidationError
from ribce.games import BaseGame, Outcome
from ribce.lp import solve
from ribce.rational import Rat
from ribce.separation import is_sbce, is_separated
from ribce.structure import (
    DENSE,
    EXACT,
    NOWHERE_DENSE,
    RANDOMIZED,
    bce_vertices,
    classify_density,
    equal_beliefs_in_all_bce,
    find_minimally_mixed,
    jeopardization_set,
    jeopardizes,
    separating_perturbation,
)

from sample_games import (
    A,
    B,
    MKT,
    collinear_beliefs_game,
    collinear_beliefs_outcome,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    coordination_mixture_outcome,
    investment_game,
    matching_pennies,
    random_game,
)


def test_every_action_jeopardizes_itself():
    g = investment_game(0)
    for action in (A, B, MKT):
        hit, value, _ = jeopardizes(g, "ann", action, action)
        assert hit and value == 0


def test_jeopardizes_same_with_shared_polytope():
    # Every jeopardization LP on a game runs on its one polytope; each
    # answer is the one a cold solve gives.
    rng = random.Random(43)
    games = [investment_game(Rat(1, 10)), coordination_game_3x3(), matching_pennies()]
    for g in games + [random_game(rng) for _ in range(4)]:
        cold = BcePolytope.of(g)
        for i in g.players:
            for target in g.actions[i]:
                for action in g.actions[i]:
                    hit, value, outcome = jeopardizes(g, i, action, target)
                    sol = solve(cold.lp(obedience_row(g, i, target, action), "max"))
                    assert (hit, value) == (sol.value == 0, sol.value)
                    want = cold.outcome_from_point(sol.point)
                    assert list(outcome.p.items()) == list(want.p.items())


def test_3x3_jeopardization_facts():
    g3 = coordination_game_3x3()
    hit, value, _ = jeopardizes(g3, "p1", "a", "b")
    assert hit and value == 0
    assert set(jeopardization_set(g3, "p1", "b")) >= {"a", "b"}
    assert jeopardization_set(g3, "p1", "a") == ("a",)


def test_weak_dominance_implies_jeopardization():
    # Funding a project weakly dominates the market in the unperturbed game.
    g = investment_game(0)
    hit, _, _ = jeopardizes(g, "ann", A, MKT)
    assert hit


def test_strictly_dominant_action_self_jeopardization_only():
    players = ("p1", "p2")
    # action "d" strictly dominates "c" for both players
    utilities = {}
    for k, i in enumerate(players):
        table = {}
        for x in ("c", "d"):
            for y in ("c", "d"):
                own = (x, y)[k]
                table[((x, y), "s")] = Rat(2) if own == "d" else Rat(0)
        utilities[i] = table
    g = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: ("c", "d") for i in players},
        utilities=utilities,
    )
    assert jeopardization_set(g, "p1", "d") == ("d",)


def test_matching_pennies_mutual_jeopardization():
    mp = matching_pennies()
    assert jeopardization_set(mp, "p1", "H") == ("H", "T")
    assert jeopardization_set(mp, "p1", "T") == ("H", "T")


def test_equal_beliefs_extreme_point_test():
    g3 = coordination_game_3x3()
    vertices = bce_vertices(g3)
    assert equal_beliefs_in_all_bce(g3, "p1", "b", "c", vertices)
    assert not equal_beliefs_in_all_bce(g3, "p1", "a", "b", vertices)


def test_equal_beliefs_not_coherent():
    gp = investment_game(Rat(1, 10))
    with pytest.raises(NotCoherent):
        equal_beliefs_in_all_bce(gp, "ann", MKT, A)


def test_equal_beliefs_product_polytope():
    # Matching pennies: the unique CE is independent play, all beliefs equal.
    mp = matching_pennies()
    vertices = bce_vertices(mp)
    assert len(vertices) == 1
    assert equal_beliefs_in_all_bce(mp, "p1", "H", "T", vertices)


def test_find_minimally_mixed_unique_bce():
    mp = matching_pennies()
    for mode in (EXACT, RANDOMIZED):
        out = find_minimally_mixed(mp, mode=mode)
        for profile in mp.profiles():
            assert out.mass(profile, "s") == Rat(1, 4)


def test_find_minimally_mixed_3x3_interior():
    g3 = coordination_game_3x3()
    out = find_minimally_mixed(g3, mode=EXACT)
    assert out.beliefs(g3)["p1"].support == ("a", "b", "c")
    # the (a, b) pair must be realized as distinct
    check = is_separated(g3, out)
    assert not check and check.witness[3] == "a"


def test_classify_density_3x3():
    g3 = coordination_game_3x3()
    for mode in (EXACT, RANDOMIZED):
        verdict = classify_density(g3, mode=mode)
        assert verdict.verdict == NOWHERE_DENSE
        outcome, player, a, b, shared = verdict.witness
        assert (player, a, b, shared) == ("p1", "a", "b", "a")
        verdict.verify(g3)


def test_classify_density_dense_cases():
    gp = investment_game(Rat(1, 10))
    verdict = classify_density(gp, mode=RANDOMIZED, seed=3, retries=8)
    assert verdict.verdict == DENSE
    verdict.verify(gp)

    mp = matching_pennies()
    verdict = classify_density(mp, mode=EXACT)
    assert verdict.verdict == DENSE
    verdict.verify(mp)


def test_classify_density_unperturbed_intro_nowhere_dense():
    # The all-market BCE plus project coordination violates separation, and
    # funding a project jeopardizes the market recommendation.
    g0 = investment_game(0)
    verdict = classify_density(g0, mode=RANDOMIZED, seed=0, retries=8)
    assert verdict.verdict == NOWHERE_DENSE
    verdict.verify(g0)


def test_exact_mode_mixes_in_witnesses_on_belief_coincidence():
    # Two actions with identical payoffs: every outcome is obedient, the four
    # deterministic outcomes are the polytope vertices, and their average
    # gives both actions the same posterior even though vertices do not.  The
    # exact candidate must mix a witness in to realize the distinct pair, and
    # the game is nowhere dense (the actions jeopardize each other while a
    # BCE realizes distinct beliefs).
    from ribce.structure import bce_vertices, equal_beliefs_in_all_bce
    from ribce.separation import beliefs_equal

    g = BaseGame(
        players=("dm",),
        states=("t1", "t2"),
        prior={"t1": Rat(1, 2), "t2": Rat(1, 2)},
        actions={"dm": ("a", "b")},
        utilities={
            "dm": {
                (("a",), "t1"): Rat(1),
                (("a",), "t2"): Rat(0),
                (("b",), "t1"): Rat(1),
                (("b",), "t2"): Rat(0),
            }
        },
    )
    vertices = bce_vertices(g)
    assert len(vertices) == 4
    assert not equal_beliefs_in_all_bce(g, "dm", "a", "b", vertices)
    out = find_minimally_mixed(g, mode=EXACT)
    assert not beliefs_equal(g, out, "dm", "a", "b")
    verdict = classify_density(g, mode=EXACT)
    assert verdict.verdict == NOWHERE_DENSE
    verdict.verify(g)


def test_exact_mode_respects_dimension_cap():
    # 3 players x 3 actions -> 27 outcome variables, past the default cap of
    # 24; exact mode must refuse rather than start enumerating.
    from itertools import product as iproduct

    from ribce.errors import DimensionCapExceeded
    from ribce.games import validate_game

    players = ("p1", "p2", "p3")
    acts = ("a", "b", "c")
    utilities = {
        i: {
            (prof, "s"): Rat(1)
            for prof in iproduct(acts, acts, acts)
        }
        for i in players
    }
    g = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: acts for i in players},
        utilities=utilities,
    )
    validate_game(g)
    with pytest.raises(DimensionCapExceeded):
        find_minimally_mixed(g, mode=EXACT)
    with pytest.raises(DimensionCapExceeded):
        classify_density(g, mode=EXACT)
    # randomized mode still works on the same game
    verdict = classify_density(g, mode=RANDOMIZED, seed=0, retries=4)
    verdict.verify(g)


def test_randomized_candidate_support_is_seed_independent():
    g3 = coordination_game_3x3()
    supports = set()
    for seed in (0, 1, 2):
        out = find_minimally_mixed(g3, seed=seed, retries=6)
        supports.add(tuple(out.beliefs(g3)[i].support for i in g3.players))
    assert len(supports) == 1


def test_density_search_shares_one_phase_one(phase_one_calls):
    rng = random.Random(11)
    verdicts = set()
    for _ in range(6):
        g = random_game(rng, n_actions=2)
        phase_one_calls.clear()
        verdict = classify_density(g, retries=4)
        # The search, the maximal-support point and the jeopardization LPs
        # share one polytope; a NowhereDense verdict re-checks on its own.
        assert len(phase_one_calls) == (1 if verdict.verdict == DENSE else 2)
        verdicts.add(verdict.verdict)
    assert verdicts == {DENSE, NOWHERE_DENSE}


def test_perturbation_requires_bce():
    g = investment_game(0)
    bad = Outcome(
        p={((MKT, A), "thetaA"): Rat(1, 2), ((MKT, B), "thetaB"): Rat(1, 2)}
    )
    with pytest.raises(NotABce):
        separating_perturbation(g, bad, Rat(1, 10))


def test_perturbation_identity_for_sbce():
    g = investment_game(0)
    from sample_games import first_best_outcome

    out = first_best_outcome(g)
    assert separating_perturbation(g, out, Rat(1, 10)) is g


def test_perturbation_3x3():
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    g3p = separating_perturbation(g3, p_half, Rat(1, 10))
    assert is_sbce(g3p, p_half)
    dist = max(
        abs(g3p.u(i, pr, s) - g3.u(i, pr, s))
        for i in g3.players
        for (pr, s) in g3.cells()
    )
    assert 0 < dist <= Rat(1, 10)


def test_perturbation_intro_coordination_mixture():
    g0 = investment_game(0)
    mix = coordination_mixture_outcome(g0, Rat(1, 3))
    g0p = separating_perturbation(g0, mix, Rat(1, 100))
    assert is_sbce(g0p, mix)
    dist = max(
        abs(g0p.u(i, pr, s) - g0.u(i, pr, s))
        for i in g0.players
        for (pr, s) in g0.cells()
    )
    assert dist <= Rat(1, 100)


def test_perturbation_rejects_nonpositive_epsilon():
    g = investment_game(0)
    mix = coordination_mixture_outcome(g, Rat(1, 3))
    with pytest.raises(ValidationError):
        separating_perturbation(g, mix, 0)


def test_perturbation_rejects_inexact_epsilon():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10.
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    with pytest.raises(ValidationError, match=r"epsilon must be an exact rational: 0\.1$"):
        separating_perturbation(g3, p_half, 0.1)


def test_perturbation_with_collinear_beliefs():
    # Three recommendations whose posteriors are collinear - the middle one
    # is the midpoint of the outer two and ties all actions.  The hull-peel
    # ordering must park the interior belief at the bottom of the chain.
    g = collinear_beliefs_game()
    p = collinear_beliefs_outcome()
    assert is_bce(g, p) and not is_separated(g, p)
    perturbed = separating_perturbation(g, p, Rat(1, 20))
    assert is_sbce(perturbed, p)
    # the tie-forcing constant action also makes the game nowhere dense
    verdict = classify_density(g, mode=EXACT)
    assert verdict.verdict == NOWHERE_DENSE
    verdict.verify(g)


def test_perturbation_postconditions_on_random_pairs():
    rng = random.Random(91)
    for _ in range(10):
        g = random_game(rng)
        objective = {cell: Rat(rng.randint(-5, 5)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        eps = Rat(1, rng.choice((20, 50, 100)))
        gp = separating_perturbation(g, p, eps)
        assert is_sbce(gp, p)
        dist = max(
            abs(gp.u(i, pr, s) - g.u(i, pr, s))
            for i in g.players
            for (pr, s) in g.cells()
        )
        assert dist <= eps
