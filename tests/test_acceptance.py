"""Acceptance suite: one criterion per test, one PASS/FAIL line each, exact
tolerances throughout (rational equality, no epsilons)."""

import random
import time

from ribce.bce import BcePolytope, is_bce, max_support_point, minimize_linear_over_bce
from ribce.games import (
    Outcome,
    is_symmetric_game,
    make_outcome,
    symmetrize,
)
from ribce.rational import Rat, ZERO
from ribce.regime import (
    RegimeParams,
    UNINFORMED_WELFARE,
    build_regime_game,
    gap_closed_form,
    reduced_symmetric_lp,
    wlower_closed_form,
)
from ribce.representation import build_canonical, induced_outcome
from ribce.separation import is_sbce, is_separated, is_strict_bce
from ribce.structure import classify_density, separating_perturbation
from ribce.vanishing import IS_VCE, check_vce
from ribce.vertices import enumerate_vertices
from ribce.welfare import (
    binary_symmetric_gap_test,
    welfare_report,
    worst_case_exogenous,
    worst_case_rational_inattention,
)

from sample_games import (
    coordination_3x3_segment_point,
    coordination_game_3x3,
    investment_game,
    random_game,
    random_symmetric_binary_game,
)


def _report(number, label, elapsed, budget, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_acceptance_1_perturbed_intro_worst_cases():
    start = time.monotonic()
    game = investment_game(Rat(1, 10))
    w_ex, _ = worst_case_exogenous(game)
    w_ri, _ = worst_case_rational_inattention(game)
    ok = w_ex == Rat(6, 5) and w_ri == 1
    _report(1, "perturbed investment game: w_bar=6/5, w_lower=1", time.monotonic() - start, 1, ok)


def test_acceptance_2_three_by_three_structure():
    start = time.monotonic()
    game = coordination_game_3x3()
    poly = BcePolytope.of(game)
    vertices = enumerate_vertices(poly.variables, poly.constraints, poly.bounds)
    ok = len(vertices) == 2

    pure = coordination_3x3_segment_point(1)
    mixed = coordination_3x3_segment_point(0)
    vertex_outcomes = [
        {k: v for k, v in pt.items() if v} for pt in vertices
    ]
    expected = [dict(mixed.p), dict(pure.p)]
    ok = ok and all(vo in expected for vo in vertex_outcomes)

    ok = ok and is_sbce(game, pure) and is_sbce(game, mixed)
    ok = ok and not is_sbce(game, coordination_3x3_segment_point(Rat(1, 2)))
    for t in (Rat(1, 4), Rat(3, 4)):
        ok = ok and not is_sbce(game, coordination_3x3_segment_point(t))

    verdict = classify_density(game, mode="exact")
    ok = ok and verdict.verdict == "nowhere_dense"
    ok = ok and verdict.verify(game)
    _report(
        2,
        "3x3 game: 2 BCE vertices, sBCE = the two Nash outcomes, nowhere dense",
        time.monotonic() - start,
        5,
        ok,
    )


_REGIME_CASES = [
    RegimeParams(n=4, k=Rat(1, 2), x=Rat(1), thresholds=(2,), prior={2: Rat(1)}),
    RegimeParams(
        n=5, k=Rat(1, 2), x=Rat(1), thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)}
    ),
    RegimeParams(
        n=8, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)}
    ),
]


def test_acceptance_3_regime_closed_form_vs_lp():
    start = time.monotonic()
    ok = True
    for params in _REGIME_CASES:
        closed = wlower_closed_form(params)
        reduced, _ = reduced_symmetric_lp(params, UNINFORMED_WELFARE)
        full, _ = worst_case_rational_inattention(build_regime_game(params))
        expected = -params.n * params.x * params.k / (1 + params.x)
        ok = ok and closed == reduced == full == expected
    _report(
        3,
        "regime change: reduced LP = -n*x*k/(1+x) = full-game worst case (3 cases)",
        time.monotonic() - start,
        30,
        ok,
    )


def test_acceptance_4_claim_boundary():
    start = time.monotonic()
    boundary = _REGIME_CASES[2]
    ok = gap_closed_form(boundary) is False
    game = build_regime_game(boundary)
    w_ex, _ = worst_case_exogenous(game)
    w_ri, _ = worst_case_rational_inattention(game)
    ok = ok and w_ex == w_ri == Rat(-4, 5)

    strict = _REGIME_CASES[0]
    ok = ok and gap_closed_form(strict) is True
    game = build_regime_game(strict)
    w_ex, _ = worst_case_exogenous(game)
    w_ri, _ = worst_case_rational_inattention(game)
    ok = ok and w_ri < w_ex
    _report(
        4,
        "cutoff boundary: no gap at (n=8, {2,5}, k=3/5, x=1/5); strict gap at (n=4, {2})",
        time.monotonic() - start,
        60,
        ok,
    )


def _random_outcome(game, rng):
    p = {}
    for s in game.states:
        cells = [(profile, s) for profile in game.profiles()]
        weights = [rng.randint(0, 4) for _ in cells]
        if not sum(weights):
            weights[0] = 1
        total = sum(weights)
        for cell, w in zip(cells, weights):
            if w:
                p[cell] = game.prior[s] * Rat(w, total)
    return make_outcome(game, p)


def test_acceptance_5_property_suites():
    start = time.monotonic()
    ok = True

    # (a) 200 random games: optimizer outputs are BCEs, value ordering holds,
    # symmetrization preserves gross welfare and never raises uninformed
    # welfare on symmetric instances.
    rng = random.Random(2024)
    for trial in range(200):
        symmetric = trial % 4 == 0
        game = (
            random_symmetric_binary_game(rng, n_players=2)
            if symmetric
            else random_game(rng, n_actions=(2, 3), n_states=2)
        )
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in game.cells()}
        outputs = []
        p, _ = minimize_linear_over_bce(game, objective)
        outputs.append(p)
        if trial % 10 == 0:
            w_ex, p_ex = worst_case_exogenous(game)
            w_ri, p_ri = worst_case_rational_inattention(game)
            outputs.extend([p_ex, p_ri])
            ok = ok and w_ri <= w_ex
        if trial % 25 == 0:
            outputs.append(max_support_point(game))
        for out in outputs:
            ok = ok and bool(is_bce(game, out))
            for i in game.players:
                ok = ok and out.beliefs(game)[i].uninformed()[0] <= out.beliefs(game)[i].gross()
        if symmetric and is_symmetric_game(game):
            q = symmetrize(game, p)
            gross_before = sum((p.beliefs(game)[i].gross() for i in game.players), ZERO)
            gross_after = sum((q.beliefs(game)[i].gross() for i in game.players), ZERO)
            unin_before = sum(
                (p.beliefs(game)[i].uninformed()[0] for i in game.players), ZERO
            )
            unin_after = sum(
                (q.beliefs(game)[i].uninformed()[0] for i in game.players), ZERO
            )
            ok = ok and gross_before == gross_after and unin_after <= unin_before
        if not ok:
            break

    # (b) separating perturbation postconditions on 50 random (game, BCE) pairs.
    rng_b = random.Random(7)
    for _ in range(50):
        game = random_game(rng_b, n_actions=(2, 3), n_states=2)
        objective = {cell: Rat(rng_b.randint(-5, 5)) for cell in game.cells()}
        p, _ = minimize_linear_over_bce(game, objective)
        eps = Rat(1, rng_b.choice((10, 40, 100)))
        perturbed = separating_perturbation(game, p, eps)
        dist = max(
            abs(perturbed.u(i, profile, state) - game.u(i, profile, state))
            for i in game.players
            for (profile, state) in game.cells()
        )
        ok = ok and dist <= eps and is_sbce(perturbed, p)
        if not ok:
            break

    # (c) canonical round-trip equality on 100 random outcomes.
    rng_c = random.Random(8)
    for _ in range(100):
        game = random_game(rng_c, n_actions=(2, 3), n_states=2)
        out = _random_outcome(game, rng_c)
        ok = ok and induced_outcome(build_canonical(game, out), game).p == out.p
        if not ok:
            break

    # (d) every strict BCE found along the way is separated.
    rng_d = random.Random(9)
    strict_found = 0
    for _ in range(60):
        game = random_game(rng_d, n_actions=(2, 3), n_states=2)
        objective = {cell: Rat(rng_d.randint(-4, 4)) for cell in game.cells()}
        p, _ = minimize_linear_over_bce(game, objective)
        if is_strict_bce(game, p):
            strict_found += 1
            ok = ok and bool(is_separated(game, p))
    ok = ok and strict_found > 0

    # (e) vanishing-cost checks: the 3x3 mixed Nash and strict pure Nash
    # equilibria of random generic games come out IsVce.
    game3 = coordination_game_3x3()
    ok = ok and check_vce(game3, coordination_3x3_segment_point(0)).kind == IS_VCE
    rng_e = random.Random(10)
    confirmed = 0
    for _ in range(40):
        game = random_game(rng_e, n_actions=2, n_states=2)
        pure = {}
        usable = True
        for s in game.states:
            found = None
            for prof in game.profiles():
                if all(
                    game.u(i, prof, s)
                    > game.u(i, prof[:k] + (b,) + prof[k + 1 :], s)
                    for k, i in enumerate(game.players)
                    for b in game.actions[i]
                    if b != prof[k]
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
        verdict = check_vce(game, out, mode="randomized", seed=1, retries=8)
        ok = ok and verdict.kind == IS_VCE
        confirmed += 1
    ok = ok and confirmed >= 5

    _report(
        5,
        "property suites: BCE closure of optimizers, value ordering, symmetrization, "
        "perturbation, round-trips, strictness, vanishing-cost",
        time.monotonic() - start,
        300,
        ok,
    )


def test_acceptance_6_dual_route_welfare_consistency():
    start = time.monotonic()
    rng = random.Random(6)
    ok = True
    gaps_seen = 0
    for trial in range(50):
        if trial % 10 == 0:
            n = rng.choice((4, 5))
            thresholds = (2,) if n == 4 else (2, 3)
            prior = (
                {2: Rat(1)}
                if n == 4
                else {2: Rat(1, 2), 3: Rat(1, 2)}
            )
            game = build_regime_game(
                RegimeParams(
                    n=n,
                    k=Rat(rng.randint(1, 4), 5),
                    x=Rat(rng.randint(1, 3)),
                    thresholds=thresholds,
                    prior=prior,
                )
            )
        else:
            game = random_symmetric_binary_game(rng, n_players=rng.choice((2, 3)))
        gap, _ = binary_symmetric_gap_test(game)
        report = welfare_report(game)
        ok = ok and gap == (report.w_inattention < report.w_exogenous)
        gaps_seen += int(gap)
        if not ok:
            break
    ok = ok and gaps_seen > 0
    _report(
        6,
        "binary symmetric gap test agrees with direct LP comparison (50 games)",
        time.monotonic() - start,
        120,
        ok,
    )
