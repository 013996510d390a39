import random
from itertools import product

import pytest

from ribce.bce import is_bce, minimize_linear_over_bce
from ribce.errors import (
    DimensionMismatch,
    GameNotSymmetric,
    PriorNotFullSupport,
    PriorNotNormalized,
    TooManyPlayers,
)
from ribce.games import (
    BaseGame,
    Outcome,
    deviation_row,
    is_symmetric_game,
    is_symmetric_outcome,
    make_outcome,
    symmetrize,
    utility_distance,
    validate_game,
)
from ribce.rational import Rat, ZERO

import belief_reference as ref

from sample_games import (
    A,
    B,
    MKT,
    coordination_game_3x3,
    first_best_outcome,
    footnote_worst_gross_outcome,
    inferior_coordination_outcome,
    investment_game,
    random_game,
    random_symmetric_binary_game,
)


def _tiny_game(prior):
    players = ("p1", "p2")
    actions = {i: ("l", "r") for i in players}
    utilities = {
        i: {((a, b), s): Rat(1) for a in ("l", "r") for b in ("l", "r") for s in prior}
        for i in players
    }
    return BaseGame(
        players=players,
        states=tuple(prior),
        prior={s: Rat(q) for s, q in prior.items()},
        actions=actions,
        utilities=utilities,
    )


def test_validate_well_formed():
    validate_game(_tiny_game({"s1": Rat(1, 2), "s2": Rat(1, 2)}))


def test_prior_not_normalized():
    with pytest.raises(PriorNotNormalized):
        validate_game(_tiny_game({"s1": Rat(1, 2), "s2": Rat(1, 3)}))


def test_prior_not_full_support():
    with pytest.raises(PriorNotFullSupport):
        validate_game(_tiny_game({"s1": Rat(1), "s2": Rat(0)}))


def test_gross_value_first_best():
    g = investment_game(0)
    assert first_best_outcome(g).beliefs(g)["ann"].gross() == 2


def test_gross_value_footnote_bce():
    g = investment_game(Rat(1, 10))
    out = footnote_worst_gross_outcome(g)
    assert out.beliefs(g)["ann"].gross() == Rat(3, 5)
    assert out.beliefs(g)["bob"].gross() == Rat(3, 5)


def test_gross_value_degenerate_outcome():
    g = investment_game(0)
    out = make_outcome(
        g, {((A, B), "thetaA"): Rat(1, 2), ((B, B), "thetaB"): Rat(1, 2)}
    )
    expected = Rat(1, 2) * g.u("ann", (A, B), "thetaA") + Rat(1, 2) * g.u(
        "ann", (B, B), "thetaB"
    )
    assert out.beliefs(g)["ann"].gross() == expected


@pytest.mark.parametrize(
    "cell", [(("zzz", A), "thetaA"), ((A, A), "thetaZ"), ((A,), "thetaA")]
)
def test_values_name_a_cell_outside_the_game(cell):
    g = investment_game(Rat(1, 10))
    out = Outcome(p={cell: Rat(1)})
    for player in g.players:
        with pytest.raises(DimensionMismatch, match="unknown cell"):
            out.beliefs(g)[player].gross()


def test_uninformed_value_inferior_coordination():
    g = investment_game(Rat(1, 10))
    val, action = inferior_coordination_outcome(g).beliefs(g)["ann"].uninformed()
    assert val == Rat(1, 2)
    assert action == A  # lowest-index tie-break between the two blind funds


def test_uninformed_value_first_best_by_enumeration():
    # Oracle: enumerate the three constant deviations by hand.
    g = investment_game(0)
    out = first_best_outcome(g)
    blind_a = Rat(1, 2) * g.u("ann", (A, A), "thetaA") + Rat(1, 2) * g.u(
        "ann", (A, B), "thetaB"
    )
    blind_b = Rat(1, 2) * g.u("ann", (B, A), "thetaA") + Rat(1, 2) * g.u(
        "ann", (B, B), "thetaB"
    )
    market = ZERO
    val, _ = out.beliefs(g)["ann"].uninformed()
    assert val == max(blind_a, blind_b, market) == 1


def test_deviation_row_evaluates_to_deviation_value():
    rng = random.Random(5)
    for _ in range(12):
        g = random_game(rng, n_players=rng.choice((2, 3)), n_actions=(2, 3))
        objective = {cell: Rat(rng.randint(-3, 3)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        for i in g.players:
            for action in g.actions[i]:
                row = deviation_row(g, i, action)
                assert all(c for c in row.values())
                value = sum((c * p.mass(*cell) for cell, c in row.items()), ZERO)
                assert value == ref.deviation_value(g, p, i, action)


def test_uninformed_equals_gross_for_single_action():
    g = BaseGame(
        players=("p1",),
        states=("s",),
        prior={"s": Rat(1)},
        actions={"p1": ("only",)},
        utilities={"p1": {((("only",)), "s"): Rat(7)}},
    )
    out = Outcome(p={(("only",), "s"): Rat(1)})
    assert out.beliefs(g)["p1"].uninformed()[0] == out.beliefs(g)["p1"].gross() == 7


def test_symmetry_checks():
    assert is_symmetric_game(investment_game(0))
    assert is_symmetric_game(investment_game(Rat(1, 10)))
    # The 3x3 example game is not permutation-symmetric: u2(b,c)=5 but
    # u1(c,b)=1, so swapping players changes payoffs.
    assert not is_symmetric_game(coordination_game_3x3())


def test_symmetric_outcome_check():
    g = investment_game(0)
    sym = make_outcome(
        g,
        {
            ((A, B), "thetaA"): Rat(1, 4),
            ((B, A), "thetaA"): Rat(1, 4),
            ((MKT, MKT), "thetaB"): Rat(1, 2),
        },
    )
    asym = make_outcome(
        g, {((A, B), "thetaA"): Rat(1, 2), ((MKT, MKT), "thetaB"): Rat(1, 2)}
    )
    assert is_symmetric_outcome(g, sym)
    assert not is_symmetric_outcome(g, asym)


def test_symmetrize_requires_symmetric_game():
    g3 = coordination_game_3x3()
    out = Outcome(p={(("a", "a"), "s"): Rat(1)})
    with pytest.raises(GameNotSymmetric):
        symmetrize(g3, out)


def test_symmetrize_fixed_point_and_two_player_swap():
    g = investment_game(0)
    sym = make_outcome(
        g, {((MKT, MKT), "thetaA"): Rat(1, 2), ((MKT, MKT), "thetaB"): Rat(1, 2)}
    )
    assert symmetrize(g, sym).p == sym.p
    point = make_outcome(
        g, {((A, B), "thetaA"): Rat(1, 2), ((A, B), "thetaB"): Rat(1, 2)}
    )
    swapped = symmetrize(g, point)
    assert swapped.mass((A, B), "thetaA") == Rat(1, 4)
    assert swapped.mass((B, A), "thetaA") == Rat(1, 4)


def test_symmetrize_preserves_gross_and_never_raises_uninformed():
    rng = random.Random(17)
    for _ in range(20):
        g = random_symmetric_binary_game(rng, n_players=rng.choice((2, 3)))
        objective = {cell: Rat(rng.randint(-3, 3)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        q = symmetrize(g, p)
        assert is_symmetric_outcome(g, q)
        assert is_bce(g, q)
        gross_p = sum((p.beliefs(g)[i].gross() for i in g.players), ZERO)
        gross_q = sum((q.beliefs(g)[i].gross() for i in g.players), ZERO)
        assert gross_p == gross_q
        unin_p = sum((p.beliefs(g)[i].uninformed()[0] for i in g.players), ZERO)
        unin_q = sum((q.beliefs(g)[i].uninformed()[0] for i in g.players), ZERO)
        assert unin_q <= unin_p
        assert symmetrize(g, q).p == q.p  # idempotent


def test_symmetrize_player_cap(monkeypatch):
    from ribce import games as games_mod

    rng = random.Random(1)
    g = random_symmetric_binary_game(rng, n_players=2)
    p, _ = minimize_linear_over_bce(g, {})
    monkeypatch.setattr(games_mod, "MAX_SYMMETRIZE_PLAYERS", 1)
    with pytest.raises(TooManyPlayers):
        symmetrize(g, p)


def test_profile_layout_round_trips():
    # Player i's action sits at player_index(i); the opponents' profile is
    # the rest, in player order, and every helper agrees with that layout.
    rng = random.Random(7)
    for n_players in (1, 2, 3, 4):
        for _ in range(3):
            g = random_game(rng, n_players=n_players, n_actions=(1, 3))
            profiles = list(g.profiles())
            for i in g.players:
                k = g.player_index(i)
                assert g.opponents(i) == tuple(j for j in g.players if j != i)
                opps = list(g.opponent_profiles(i))
                assert opps == list(product(*(g.actions[j] for j in g.opponents(i))))
                assert list(g.belief_cells(i)) == [(o, s) for o in opps for s in g.states]
                for a in g.actions[i]:
                    own = [g.opponent_profile(p, i) for p in profiles if p[k] == a]
                    assert own == opps
                for profile in profiles:
                    opp = g.opponent_profile(profile, i)
                    assert opp == tuple(profile[g.player_index(j)] for j in g.opponents(i))
                    assert g.insert_action(i, profile[k], opp) == profile


def _one_player_game(actions, payoffs):
    return BaseGame(
        players=("p",),
        states=("s",),
        prior={"s": Rat(1)},
        actions={"p": actions},
        utilities={"p": {((a,), "s"): Rat(x) for a, x in zip(actions, payoffs)}},
    )


def test_utility_distance_reads_payoff_rows():
    g = _one_player_game(("a", "b"), (1, Rat(1, 3)))
    h = _one_player_game(("a", "b"), (Rat(3, 2), Rat(-1, 4)))
    assert utility_distance(g, h) == utility_distance(h, g) == Rat(7, 12)
    assert utility_distance(g, g) == 0
    g3 = investment_game(Rat(1, 10))
    assert utility_distance(g3, investment_game(0)) == max(
        abs(g3.u(i, *cell) - investment_game(0).u(i, *cell))
        for i in g3.players
        for cell in g3.cells()
    )


def test_utility_distance_rejects_other_actions_in_both_orders():
    # b adds an action c paying 5: a's cells are all b's, but not the other
    # way round, so neither order may read a distance.
    a = _one_player_game(("a", "b"), (1, 2))
    b = _one_player_game(("a", "b", "c"), (1, 2, 5))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch, match="actions of 'p' differ"):
            utility_distance(x, y)


def test_utility_distance_rejects_other_players_or_states():
    g = coordination_game_3x3()
    renamed = BaseGame(
        players=("p1", "q2"),
        states=g.states,
        prior=g.prior,
        actions={"p1": g.actions["p1"], "q2": g.actions["p2"]},
        utilities={"p1": g.utilities["p1"], "q2": g.utilities["p2"]},
    )
    with pytest.raises(DimensionMismatch, match="players differ"):
        utility_distance(g, renamed)
    other_state = BaseGame(
        players=g.players,
        states=("t",),
        prior={"t": Rat(1)},
        actions=g.actions,
        utilities={
            i: {(profile, "t"): x for (profile, _), x in g.utilities[i].items()}
            for i in g.players
        },
    )
    with pytest.raises(DimensionMismatch, match="states differ"):
        utility_distance(other_state, g)
