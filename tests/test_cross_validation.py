"""Dual-route consistency checks across independently implemented paths."""

import random

from ribce.games import symmetrize
from ribce.rational import ZERO
from ribce.structure import EXACT, RANDOMIZED, classify_density
from ribce.vanishing import NOT_VCE, check_vce, is_complete_info_nash
from ribce.welfare import welfare_report, worst_case_exogenous
from ribce.bce import is_bce

from sample_games import random_game, random_symmetric_binary_game


def test_density_modes_agree():
    rng = random.Random(123)
    seen = set()
    for trial in range(20):
        game = (
            random_game(rng, n_actions=2, n_states=2)
            if trial % 2
            else random_symmetric_binary_game(rng, n_players=2)
        )
        exact = classify_density(game, mode=EXACT)
        randomized = classify_density(game, mode=RANDOMIZED, seed=trial, retries=10)
        exact.verify(game)
        randomized.verify(game)
        assert exact.verdict == randomized.verdict
        seen.add(exact.verdict)
    assert seen == {"dense", "nowhere_dense"}  # both branches exercised


def test_dense_games_never_reject_nash_outcomes():
    rng = random.Random(77)
    checked = 0
    for trial in range(25):
        game = random_game(rng, n_actions=2, n_states=2)
        if classify_density(game, mode=EXACT).verdict != "dense":
            continue
        # any pure complete-information Nash outcome must not come out NotVce
        from ribce.games import Outcome

        pure = {}
        usable = True
        for s in game.states:
            found = None
            for prof in game.profiles():
                if all(
                    game.u(i, prof, s)
                    >= game.u(i, prof[:k] + (b,) + prof[k + 1 :], s)
                    for k, i in enumerate(game.players)
                    for b in game.actions[i]
                ):
                    found = prof
                    break
            if found is None:
                usable = False
                break
            pure[s] = found
        if not usable:
            continue
        out = Outcome(p={(pure[s], s): game.prior[s] for s in game.states})
        ok, _ = is_complete_info_nash(game, out)
        if not ok or not is_bce(game, out):
            continue
        verdict = check_vce(game, out, mode=RANDOMIZED, seed=trial, retries=8)
        assert verdict.kind != NOT_VCE
        checked += 1
    assert checked >= 3


def test_symmetrizing_the_gross_minimizer_preserves_its_value():
    rng = random.Random(55)
    for _ in range(10):
        game = random_symmetric_binary_game(rng, n_players=2)
        value, minimizer = worst_case_exogenous(game)
        sym = symmetrize(game, minimizer)
        total = sum((sym.beliefs(game)[i].gross() for i in game.players), ZERO)
        assert total == value
        assert is_bce(game, sym)
