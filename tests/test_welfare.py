import random
from math import lcm

import pytest

from ribce.errors import GameNotSymmetric, InvalidParams, NotABce, NotBinaryAction
from ribce.games import BaseGame, make_outcome
from ribce.lp import IntRow
from ribce.rational import Rat
from ribce.regime import RegimeParams, build_regime_game
from ribce.welfare import (
    ARBITRARY_TECHNOLOGY,
    CLOSED,
    HALF_OPEN,
    POINT_ONLY,
    binary_symmetric_gap_test,
    gross_objective,
    value_interval,
    welfare_report,
    worst_case_exogenous,
    worst_case_rational_inattention,
)

from sample_games import (
    A,
    B,
    MKT,
    coordination_mixture_outcome,
    inferior_coordination_outcome,
    investment_game,
    random_game,
    random_symmetric_binary_game,
)
from test_bce import _gross_welfare_objective


def test_value_interval_inferior_coordination():
    g = investment_game(Rat(1, 10))
    vi = value_interval(g, inferior_coordination_outcome(g))
    for i in g.players:
        assert vi.per_player[i].lower == Rat(1, 2)
        assert vi.per_player[i].upper == 1
        assert vi.per_player[i].attainability == HALF_OPEN


def test_value_interval_point_only_when_constant_action_optimal():
    # All-market outcome of the unperturbed game: staying in the market is a
    # best reply to every recommendation, so gross equals uninformed.
    g = investment_game(0)
    out = make_outcome(
        g, {((MKT, MKT), "thetaA"): Rat(1, 2), ((MKT, MKT), "thetaB"): Rat(1, 2)}
    )
    vi = value_interval(g, out)
    for i in g.players:
        assert vi.per_player[i].attainability == POINT_ONLY
        assert vi.per_player[i].lower == vi.per_player[i].upper == 0


def test_value_interval_arbitrary_technology_closed():
    g = investment_game(Rat(1, 10))
    vi = value_interval(g, inferior_coordination_outcome(g), mode=ARBITRARY_TECHNOLOGY)
    assert all(pi.attainability == CLOSED for pi in vi.per_player.values())


def test_value_interval_requires_bce():
    g = investment_game(0)
    mix = coordination_mixture_outcome(g, Rat(1, 3))
    bad = make_outcome(
        g, {((MKT, A), "thetaA"): Rat(1, 2), ((MKT, B), "thetaB"): Rat(1, 2)}
    )
    with pytest.raises(NotABce):
        value_interval(g, bad)


def test_value_interval_rejects_unknown_mode():
    g = investment_game(Rat(1, 10))
    with pytest.raises(InvalidParams, match="unknown mode 'bogus'"):
        value_interval(g, inferior_coordination_outcome(g), mode="bogus")


def test_worst_cases_perturbed_intro():
    g = investment_game(Rat(1, 10))
    w_ex, p_ex = worst_case_exogenous(g)
    w_ri, p_ri = worst_case_rational_inattention(g)
    assert w_ex == Rat(6, 5)
    assert w_ri == 1
    rep = welfare_report(g)
    assert rep.gap == Rat(1, 5)


def test_worst_cases_constant_payoff_game():
    players = ("p1", "p2")
    from ribce.games import BaseGame

    utilities = {
        i: {((a, b), "s"): Rat(3) for a in ("l", "r") for b in ("l", "r")}
        for i in players
    }
    g = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: ("l", "r") for i in players},
        utilities=utilities,
    )
    assert worst_case_exogenous(g)[0] == 6
    assert worst_case_rational_inattention(g)[0] == 6


def test_worst_case_regime_boundary():
    params = RegimeParams(
        n=8, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)}
    )
    g = build_regime_game(params)
    assert worst_case_exogenous(g)[0] == Rat(-4, 5)
    assert worst_case_rational_inattention(g)[0] == Rat(-4, 5)


def test_gap_test_requires_symmetric_binary():
    from sample_games import coordination_game_3x3, matching_pennies

    with pytest.raises(GameNotSymmetric):
        binary_symmetric_gap_test(coordination_game_3x3())
    g = investment_game(0)  # symmetric but 3 actions
    with pytest.raises(NotBinaryAction):
        binary_symmetric_gap_test(g)


def test_gap_test_regime_deterministic_threshold():
    params = RegimeParams(n=4, k=Rat(1, 2), x=Rat(1), thresholds=(2,), prior={2: Rat(1)})
    g = build_regime_game(params)
    gap, diag = binary_symmetric_gap_test(g)
    assert gap is True


def test_gap_test_regime_boundary_case():
    params = RegimeParams(
        n=8, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)}
    )
    g = build_regime_game(params)
    gap, diag = binary_symmetric_gap_test(g)
    assert gap is False
    assert diag == {
        "relaxed_value": Rat(-4, 5),
        "per_action": {
            "0": {"min_probability": Rat(5, 16), "min_strict_br_slack": 0},
            "1": {"min_probability": Rat(3, 16), "min_strict_br_slack": 0},
        },
    }


def test_gap_test_regime_two_state_diagnostics():
    params = RegimeParams(
        n=5, k=Rat(1, 2), x=Rat(1), thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)}
    )
    gap, diag = binary_symmetric_gap_test(build_regime_game(params))
    assert gap is True
    assert diag == {
        "relaxed_value": Rat(-5, 4),
        "per_action": {
            "0": {"min_probability": Rat(13, 20), "min_strict_br_slack": Rat(7, 40)},
            "1": {"min_probability": Rat(3, 20), "min_strict_br_slack": Rat(7, 40)},
        },
    }


def test_gap_test_agrees_with_direct_comparison():
    rng = random.Random(29)
    gaps = 0
    for n_players in (2,) * 15 + (3,) * 6 + (4,) * 4:
        g = random_symmetric_binary_game(rng, n_players=n_players)
        gap, _ = binary_symmetric_gap_test(g)
        rep = welfare_report(g)
        assert gap == (rep.w_inattention < rep.w_exogenous)
        gaps += int(gap)
    # regime games exercise the strict-gap branch deterministically
    params = RegimeParams(n=4, k=Rat(1, 2), x=Rat(1), thresholds=(2,), prior={2: Rat(1)})
    g = build_regime_game(params)
    rep = welfare_report(g)
    assert binary_symmetric_gap_test(g)[0] == (rep.w_inattention < rep.w_exogenous) == True


def test_gap_test_runs_phase_one_once_per_constraint_set(phase_one_calls):
    rng = random.Random(31)
    games = [random_symmetric_binary_game(rng, n_players=n) for n in (2, 3, 4)]
    params = RegimeParams(
        n=5, k=Rat(1, 2), x=Rat(1), thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)}
    )
    games.append(build_regime_game(params))
    for g in games:
        phase_one_calls.clear()
        binary_symmetric_gap_test(g)
        # One on the relaxed rows, one on the optimal face for all four minima.
        assert len(phase_one_calls) == 2


def test_wlower_never_exceeds_wbar():
    rng = random.Random(71)
    for _ in range(10):
        g = random_symmetric_binary_game(rng, n_players=2)
        rep = welfare_report(g)
        assert rep.w_inattention <= rep.w_exogenous


def test_safe_action_externality_game_strict_divergence():
    # Two players, a safe action "0" and a risky action "1" whose payoff is
    # 2*(a_j - 1) in the low state and 2*(2 - a_j) in the high state.  The
    # outcome "all safe when low, all risky when high" is a strict sBCE that
    # uniquely minimizes uninformed welfare at 0, while every BCE keeps gross
    # welfare strictly positive: the two regimes' worst cases diverge.
    from itertools import product

    from ribce.games import BaseGame, Outcome, validate_game
    from ribce.separation import is_sbce, is_strict_bce
    from ribce.vanishing import IS_VCE, check_vce

    players = ("p1", "p2")
    states = ("lo", "hi")

    def u(own, other, state):
        if own == "0":
            return Rat(0)
        bump = Rat(1) if other == "1" else Rat(0)
        return 2 * (bump - 1) if state == "lo" else 2 * (2 - bump)

    utilities = {}
    for k, i in enumerate(players):
        utilities[i] = {
            (prof, s): u(prof[k], prof[1 - k], s)
            for prof in product(("0", "1"), repeat=2)
            for s in states
        }
    g = BaseGame(
        players=players,
        states=states,
        prior={s: Rat(1, 2) for s in states},
        actions={i: ("0", "1") for i in players},
        utilities=utilities,
    )
    validate_game(g)
    p_star = Outcome(p={(("0", "0"), "lo"): Rat(1, 2), (("1", "1"), "hi"): Rat(1, 2)})

    assert is_strict_bce(g, p_star) and is_sbce(g, p_star)
    w_ri, minimizer = worst_case_rational_inattention(g)
    assert w_ri == 0 and minimizer.p == p_star.p
    w_ex, _ = worst_case_exogenous(g)
    assert w_ex == 1 and w_ri < w_ex
    assert binary_symmetric_gap_test(g)[0] is True
    assert check_vce(g, p_star).kind == IS_VCE


def _rescaled(game, factors):
    """``game`` with each player's payoffs multiplied by its factor."""
    utilities = {
        i: {cell: game.u(i, *cell) * factors[i] for cell in game.cells()} for i in game.players
    }
    return BaseGame(game.players, game.states, game.prior, game.actions, utilities)


def test_gross_objective_matches_the_payoff_sum_per_cell():
    params = RegimeParams(
        n=6, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 4), prior={2: Rat(1, 3), 4: Rat(2, 3)}
    )
    games = [investment_game(Rat(1, 10)), build_regime_game(params)]
    factors = (Rat(1, 3), Rat(2, 5), Rat(7, 4))
    for seed in range(6):
        g = random_game(random.Random(seed), n_players=2 + seed % 2, n_states=1 + seed % 3)
        games.append(_rescaled(g, dict(zip(g.players, factors))))
    mixed_scales = 0
    for g in games:
        scales = [g.payoff_rows[i].scale for i in g.players]
        mixed_scales += len(set(scales)) > 1
        want = {cell: c for cell, c in _gross_welfare_objective(g).items() if c}
        got = gross_objective(g)
        assert isinstance(got, IntRow) and got.den == lcm(*scales)
        assert list(got.items()) == list(want.items())
    assert mixed_scales == 6
