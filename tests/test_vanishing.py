import random
import re
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ribce.bce import max_support_point, mix_outcomes
from ribce.errors import ValidationError
from ribce.games import Outcome
from ribce.lp import IntRow
from ribce.rational import ONE, Rat, ZERO
from ribce.representation import PartitionProfile, belief_partition
from ribce.separation import is_sbce
from ribce.structure import jeopardizes
from ribce.vanishing import (
    IS_VCE,
    NOT_VCE,
    UNDETERMINED,
    VceCertificate,
    _closure_obstruction,
    check_vce,
    is_complete_info_nash,
    is_decomposable,
    is_measurable,
)

from sample_games import (
    A,
    B,
    MKT,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    first_best_outcome,
    investment_game,
    random_game,
)


def test_first_best_is_complete_info_nash():
    g = investment_game(0)
    ok, profile = is_complete_info_nash(g, first_best_outcome(g))
    assert ok
    assert profile.mix("thetaA", "ann")[A] == 1


def test_correlated_outcome_is_not_product():
    g3 = coordination_game_3x3()
    ok, _ = is_complete_info_nash(g3, coordination_3x3_segment_point(Rat(1, 2)))
    assert not ok


def test_mixed_nash_is_complete_info_nash():
    g3 = coordination_game_3x3()
    ok, profile = is_complete_info_nash(g3, coordination_3x3_segment_point(0))
    assert ok
    assert profile.mix("s", "p1")["b"] == Rat(1, 2)


def test_product_but_not_equilibrium_rejected():
    g3 = coordination_game_3x3()
    # both players mix uniformly over all three actions: product, not Nash
    ninth = Rat(1, 9)
    out = Outcome(p={((x, y), "s"): ninth for x in ("a", "b", "c") for y in ("a", "b", "c")})
    ok, _ = is_complete_info_nash(g3, out)
    assert not ok


def test_measurability():
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    own = belief_partition(g3, p_half)
    assert is_measurable(g3, p_half, own)
    finest = PartitionProfile(
        cells={i: tuple(frozenset((a,)) for a in ("a", "b", "c")) for i in g3.players}
    )
    assert is_measurable(g3, p_half, finest)
    coarsest = PartitionProfile(
        cells={i: (frozenset(("a", "b", "c")),) for i in g3.players}
    )
    assert not is_measurable(g3, p_half, coarsest)


def test_decomposability():
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    part = belief_partition(g3, p_half)
    assert is_decomposable(g3, p_half, part, p_half)
    # same partition, but the within-cell ratio over {b, c} is broken
    q = Outcome(
        p={
            (("a", "a"), "s"): Rat(1, 2),
            (("b", "b"), "s"): Rat(1, 4),
            (("b", "c"), "s"): Rat(1, 4),
        }
    )
    assert not is_decomposable(g3, q, part, p_half)


def test_decomposability_across_denominators():
    # p_half's masses are over 8, q's over 30 and 18: the within-cell action
    # masses are compared cross-multiplied, so the denominators cancel.
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    part = belief_partition(g3, p_half)
    corners = (("b", "b"), ("b", "c"), ("c", "b"), ("c", "c"))
    same_ratios = Outcome(
        p=IntRow({(("a", "a"), "s"): 10, **{(pr, "s"): 5 for pr in corners}}, 30)
    )
    assert is_decomposable(g3, same_ratios, part, p_half)
    assert is_decomposable(g3, p_half, part, same_ratios)
    # measurable (each player's b and c share a belief), but c is played
    # twice as often as b
    skewed = Outcome(
        p=IntRow({(("a", "a"), "s"): 9, **{(pr, "s"): 2 ** pr.count("c") for pr in corners}}, 18)
    )
    assert is_measurable(g3, skewed, part)
    assert not is_decomposable(g3, skewed, part, p_half)
    assert not is_decomposable(g3, p_half, part, skewed)


def test_check_vce_mixed_nash_of_3x3():
    g3 = coordination_game_3x3()
    verdict = check_vce(g3, coordination_3x3_segment_point(0))
    assert verdict.kind == IS_VCE
    assert verdict.certificate is not None


def test_check_vce_interior_segment_point_rejected():
    g3 = coordination_game_3x3()
    verdict = check_vce(g3, coordination_3x3_segment_point(Rat(1, 2)))
    assert verdict.kind == NOT_VCE
    assert verdict.witness == ("p1", "a", "b", "a")


def test_check_vce_rejects_inexact_epsilon():
    g3 = coordination_game_3x3()
    with pytest.raises(ValidationError, match=r"epsilon must be an exact rational: 0\.001$"):
        check_vce(g3, coordination_3x3_segment_point(0), epsilon=0.001)


def test_check_vce_non_bce():
    g = investment_game(0)
    bad = Outcome(
        p={((MKT, A), "thetaA"): Rat(1, 2), ((MKT, B), "thetaB"): Rat(1, 2)}
    )
    verdict = check_vce(g, bad)
    assert verdict.kind == NOT_VCE


def test_check_vce_certificate_weights_must_sum_to_one():
    g3 = coordination_game_3x3()
    mixed = coordination_3x3_segment_point(0)
    cert = VceCertificate(
        partition=belief_partition(g3, mixed),
        weights=(Rat(9, 10),),
        components=(mixed,),
        sbce_witness=mixed,
        witness_distance=ZERO,
    )
    verdict = check_vce(g3, mixed, certificate=cert)
    assert verdict.kind == UNDETERMINED
    assert "9/10" in verdict.reason


@pytest.mark.parametrize(
    "weights, distance, field",
    [
        ((0.5, 0.5), ZERO, "weights[0]"),
        ((0.1, 0.9), ZERO, "weights[0]"),
        ((Rat(1, 10), 0.9), ZERO, "weights[1]"),
        ((Rat(1, 2), Rat(1, 2)), 0.0, "witness_distance"),
    ],
)
def test_check_vce_refuses_inexact_certificate_fields(weights, distance, field):
    g3 = coordination_game_3x3()
    mixed = coordination_3x3_segment_point(0)
    cert = VceCertificate(
        partition=belief_partition(g3, mixed),
        weights=weights,
        components=(mixed, mixed),
        sbce_witness=mixed,
        witness_distance=distance,
    )
    message = f"^certificate {re.escape(field)} is not an exact rational: "
    with pytest.raises(ValidationError, match=message):
        check_vce(g3, mixed, certificate=cert)


def test_check_vce_valid_convex_combination_certificate():
    # Mixing the two pure-coordination equilibria of a trivial game along a
    # common partition: certificate verification accepts it.
    players = ("p1", "p2")
    from ribce.games import BaseGame

    utilities = {}
    for k, i in enumerate(players):
        table = {}
        for prof in product(("l", "r"), repeat=2):
            table[(prof, "s")] = Rat(1) if prof[0] == prof[1] else Rat(0)
        utilities[i] = table
    g = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: ("l", "r") for i in players},
        utilities=utilities,
    )
    both_l = Outcome(p={(("l", "l"), "s"): ONE})
    both_r = Outcome(p={(("r", "r"), "s"): ONE})
    target = Outcome(p={(("l", "l"), "s"): Rat(1, 2), (("r", "r"), "s"): Rat(1, 2)})
    assert is_sbce(g, target)
    part = belief_partition(g, target)
    cert = VceCertificate(
        partition=part,
        weights=(Rat(1, 2), Rat(1, 2)),
        components=(both_l, both_r),
        sbce_witness=target,
        witness_distance=ZERO,
    )
    verdict = check_vce(g, target, certificate=cert)
    assert verdict.kind == IS_VCE, verdict.reason


def test_check_vce_sbce_without_nash_structure_is_undetermined():
    # A strictly correlated sBCE is in the closure trivially, but without a
    # decomposition certificate the stronger vanishing-cost claim stays open.
    players = ("p1", "p2")
    from ribce.games import BaseGame

    utilities = {}
    for k, i in enumerate(players):
        table = {}
        for prof in product(("l", "r"), repeat=2):
            table[(prof, "s")] = Rat(1) if prof[0] == prof[1] else Rat(0)
        utilities[i] = table
    g = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: ("l", "r") for i in players},
        utilities=utilities,
    )
    target = Outcome(p={(("l", "l"), "s"): Rat(1, 2), (("r", "r"), "s"): Rat(1, 2)})
    verdict = check_vce(g, target)
    assert verdict.kind == UNDETERMINED
    assert verdict.kind != NOT_VCE  # sBCE inputs are never NotVce


def test_check_vce_strict_pure_nash_random_games():
    rng = random.Random(47)
    confirmed = 0
    for _ in range(30):
        g = random_game(rng, n_actions=2)
        pure = {}
        ok = True
        for s in g.states:
            found = None
            for prof in g.profiles():
                strict = True
                for k, i in enumerate(g.players):
                    for b in g.actions[i]:
                        if b == prof[k]:
                            continue
                        dev = prof[:k] + (b,) + prof[k + 1 :]
                        if g.u(i, prof, s) <= g.u(i, dev, s):
                            strict = False
                            break
                    if not strict:
                        break
                if strict:
                    found = prof
                    break
            if found is None:
                ok = False
                break
            pure[s] = found
        if not ok:
            continue
        out = Outcome(p={(pure[s], s): g.prior[s] for s in g.states})
        verdict = check_vce(g, out, mode="randomized", seed=3, retries=8)
        assert verdict.kind == IS_VCE, verdict.reason
        confirmed += 1
    assert confirmed >= 5


def _reference_closure_obstruction(game, outcome):
    """The closure obstruction with one ``jeopardizes`` LP per test, and the
    number of LPs it ran."""
    lps = 0

    def hit(i, c, a):
        nonlocal lps
        lps += 1
        return jeopardizes(game, i, c, a)[0]

    for i in game.players:
        for a, b in outcome.beliefs(game)[i].distinct_pairs():
            for c in game.actions[i]:
                if hit(i, c, a) and hit(i, c, b):
                    return (i, a, b, c), lps
    return None, lps


def _bce_outcome(game, rng, mixed):
    """A BCE of the game: the maximizer of a drawn objective, or the midpoint
    of two such maximizers."""
    poly = game.bce_polytope

    def vertex():
        return poly.optimum({cell: Rat(rng.randint(-3, 3)) for cell in game.cells()}, "max")[0]

    if not mixed:
        return vertex()
    return mix_outcomes(((Rat(1, 2), vertex()), (Rat(1, 2), vertex())))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_actions=st.sampled_from((2, 3)),
    n_states=st.sampled_from((1, 2)),
    mixed=st.booleans(),
)
# closure_lps is cleared before the call each example counts
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_closure_obstruction_matches_all_lp_reference(
    closure_lps, seed, n_actions, n_states, mixed
):
    # Self-jeopardy and a positive slack at the outcome are decided without
    # an LP; every answer, witness included, is the all-LP scan's.
    rng = random.Random(seed)
    game = random_game(rng, n_actions=n_actions, n_states=n_states)
    outcome = _bce_outcome(game, rng, mixed)
    want, reference_lps = _reference_closure_obstruction(game, outcome)
    closure_lps.clear()
    assert _closure_obstruction(game, outcome) == want
    assert len(closure_lps) <= reference_lps
    assert len(set(closure_lps)) == len(closure_lps)
    # the LPs left are the ones whose slack at the outcome is zero
    for i, c, a in closure_lps:
        assert c != a and outcome.beliefs(game)[i].slack(a, c) == 0


def test_closure_obstruction_runs_fewer_lps(closure_lps):
    rng = random.Random(13)
    found = lps = reference_lps = 0
    for k in range(40):
        game = random_game(rng, n_actions=(2, 3), n_states=rng.choice((1, 2)))
        outcome = _bce_outcome(game, rng, mixed=k % 2 == 1)
        want, ref = _reference_closure_obstruction(game, outcome)
        before = len(closure_lps)
        assert _closure_obstruction(game, outcome) == want
        found += want is not None
        lps += len(closure_lps) - before
        reference_lps += ref
    assert found and lps < reference_lps / 2, (found, lps, reference_lps)


def test_closure_obstruction_decides_each_jeopardization_once(closure_lps):
    # An action sits in several of a player's distinct pairs, so the same
    # (player, action, target) comes up again; its LP runs once per
    # obstruction.  At the max-support point of these games 8 of the 29 LPs
    # were repeats before.
    lps = 0
    for s in range(60):
        game = random_game(random.Random(s), n_players=2, n_actions=3, n_states=2)
        outcome = max_support_point(game)
        closure_lps.clear()
        _closure_obstruction(game, outcome)
        assert len(set(closure_lps)) == len(closure_lps), s
        lps += len(closure_lps)
    assert lps == 21
