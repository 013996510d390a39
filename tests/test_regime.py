import json
import random
from dataclasses import replace
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribce import cli, lp, regime, welfare
from ribce.errors import InternalInvariantError, InvalidParams, NotSymmetricOutcome, TooManyPlayers
from ribce.games import Outcome, is_symmetric_game
from ribce.rational import ZERO, Rat
from ribce.regime import (
    ATTACK,
    EPIGRAPH,
    GROSS_WELFARE,
    MAX_REGIME_PLAYERS,
    STAY,
    UNINFORMED_WELFARE,
    CountKernel,
    CountOptimum,
    CountSpace,
    RegimeParams,
    build_regime_game,
    certify_full_game,
    check_optimality_conditions,
    count_space,
    gap_closed_form,
    kernel_satisfies_optimality,
    kernel_to_outcome,
    lift_to_full_game,
    reduced_symmetric_lp,
    regime_space,
    wlower_closed_form,
)
from ribce.welfare import (
    binary_symmetric_gap_test,
    welfare_report,
    worst_case_exogenous,
    worst_case_rational_inattention,
)
from count_reference import (
    dropped_columns,
    gross_count_program,
    reference_count_space,
    regime_reference,
    restrict,
    scanned_changes,
    uninformed_program,
)
from row_reference import assert_same_row
from sample_games import random_symmetric_binary_game
from sample_lps import with_objective


def _params(n=4, k=Rat(1, 2), x=Rat(1), thresholds=(2,), prior=None):
    prior = prior or {2: Rat(1)}
    return RegimeParams(n=n, k=k, x=x, thresholds=thresholds, prior=prior)


def test_param_validation():
    with pytest.raises(InvalidParams):
        _params(n=3)
    with pytest.raises(InvalidParams):
        _params(thresholds=(1,), prior={1: Rat(1)})
    with pytest.raises(InvalidParams):
        _params(thresholds=(3,), prior={3: Rat(1)})
    with pytest.raises(InvalidParams):
        _params(k=Rat(3, 2))
    with pytest.raises(InvalidParams):
        _params(x=Rat(0))
    with pytest.raises(InvalidParams):
        _params(prior={2: Rat(1, 2)})


def test_inexact_params_rejected_naming_the_field():
    # A float threshold used to be truncated and a float k silently turned
    # into its binary expansion.
    with pytest.raises(InvalidParams, match="^k "):
        RegimeParams(
            n=9, k=0.1, x=1, thresholds=(2.7, 3), prior={2.7: Rat(1, 2), 3: Rat(1, 2)}
        )
    half = Rat(1, 2)
    cases = [
        ("n", dict(n=9.0)),
        ("n", dict(n=True)),
        ("x", dict(x=0.5)),
        ("x", dict(x="1/2")),
        ("thresholds", dict(thresholds=(2.0, 3), prior={2: half, 3: half})),
        ("thresholds", dict(thresholds=(True, 3), prior={2: half, 3: half})),
        ("prior key", dict(thresholds=(2, 3), prior={2.0: half, 3: half})),
        ("prior key", dict(thresholds=(2, 3), prior={False: half, 3: half})),
        (r"prior\[3\]", dict(thresholds=(2, 3), prior={2: half, 3: 0.5})),
    ]
    for field, changes in cases:
        args = dict(n=5, k=half, x=Rat(1), thresholds=(2,), prior={2: Rat(1)})
        args.update(changes)
        with pytest.raises(InvalidParams, match=f"^{field} must be"):
            RegimeParams(**args)


def test_exact_params_accepted_and_coerced_to_rat():
    params = RegimeParams(n=5, k=Rat(1, 2), x=1, thresholds=[2], prior={2: 1})
    assert params.x == Rat(1) and type(params.x) is Rat
    assert params.prior == {2: Rat(1)} and type(params.prior[2]) is Rat
    params = RegimeParams(
        n=5, k=Rat(1, 2), x=Rat(1), thresholds=[3, 2], prior={3: Rat(3, 4), 2: Rat(1, 4)}
    )
    assert params.thresholds == (2, 3)
    assert params.prior == {2: Rat(1, 4), 3: Rat(3, 4)}


def test_repeated_threshold_rejected():
    # A repeated threshold would be counted twice in E[theta].
    prior = {6: Rat(1, 4), 7: Rat(3, 4)}
    with pytest.raises(InvalidParams, match="^repeated threshold 6$"):
        RegimeParams(n=9, k=Rat(9, 10), x=Rat(1, 3), thresholds=(6, 6, 7), prior=prior)
    with pytest.raises(InvalidParams, match="^repeated threshold 7$"):
        RegimeParams(n=9, k=Rat(9, 10), x=Rat(1, 3), thresholds=(7, 6, 7), prior=prior)
    params = RegimeParams(n=9, k=Rat(9, 10), x=Rat(1, 3), thresholds=(6, 7), prior=prior)
    assert gap_closed_form(params) is True


def test_build_game_shape_and_symmetry():
    params = _params()
    g = build_regime_game(params)
    assert len(list(g.profiles())) == 16
    assert all(len(g.actions[i]) == 2 for i in g.players)
    assert is_symmetric_game(g)


def test_payoff_table_cells():
    params = _params()
    g = build_regime_game(params)
    all_attack = (ATTACK,) * 4
    no_attack = (STAY,) * 4
    # successful attack: speculators get 1 - k
    assert g.u("i1", all_attack, 2) == 1 - params.k
    # failed attack: passive investors get 0
    assert g.u("i1", no_attack, 2) == 0
    # successful attack hits passive investors with -x
    three = (STAY, ATTACK, ATTACK, ATTACK)
    assert g.u("i1", three, 2) == -params.x
    # failed attack costs speculators k
    one = (ATTACK, STAY, STAY, STAY)
    assert g.u("i1", one, 2) == -params.k


def test_closed_form_values():
    assert wlower_closed_form(_params(n=4, k=Rat(1, 2), x=Rat(1))) == -1
    p8 = _params(
        n=8, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)}
    )
    assert wlower_closed_form(p8) == Rat(-4, 5)


def test_closed_form_monotone_in_k_and_x():
    base = wlower_closed_form(_params(k=Rat(1, 2), x=Rat(1)))
    assert wlower_closed_form(_params(k=Rat(3, 4), x=Rat(1))) < base
    assert wlower_closed_form(_params(k=Rat(1, 2), x=Rat(2))) < base


def test_gap_closed_form_cases():
    # deterministic threshold: always a strict gap
    assert gap_closed_form(_params()) is True
    # adjacent thresholds (spread 1 < 3): strict gap for any k, x, prior
    p_adj = _params(thresholds=(2, 3), prior={2: Rat(1, 3), 3: Rat(2, 3)}, n=5)
    assert gap_closed_form(p_adj) is True
    # boundary: spread 3 with both bounds tight
    p_boundary = _params(
        n=8, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)}
    )
    assert gap_closed_form(p_boundary) is False


def test_reduced_lp_matches_closed_form_and_full_lp():
    cases = [
        (
            _params(n=4, k=Rat(1, 2), x=Rat(1)),
            {(0, 2): Rat(3, 4), (3, 2): Rat(1, 4)},
            {(0, 2): Rat(3, 5), (2, 2): Rat(2, 5)},
        ),
        (
            _params(n=5, k=Rat(1, 2), x=Rat(1), thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)}),
            {(0, 2): Rat(1, 2), (3, 2): Rat(1, 2), (0, 3): Rat(1)},
            {(0, 2): Rat(5, 14), (1, 3): Rat(1), (2, 2): Rat(9, 14)},
        ),
    ]
    for params, kernel_u, kernel_g in cases:
        uninformed = reduced_symmetric_lp(params, UNINFORMED_WELFARE)
        value, kernel = uninformed
        assert value == wlower_closed_form(params)
        assert kernel == CountKernel(n=params.n, q=kernel_u)
        exogenous = reduced_symmetric_lp(params, GROSS_WELFARE)
        gross, kernel = exogenous
        assert kernel == CountKernel(n=params.n, q=kernel_g)
        # Each answer carries its own optimality certificate.
        assert uninformed.solution.verify()
        assert exogenous.solution.verify()
        g = build_regime_game(params)
        assert gross == worst_case_exogenous(g)[0]
        assert value == worst_case_rational_inattention(g)[0]


def test_reduced_lp_kernel_satisfies_optimality_conditions():
    params = _params(n=5, thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)})
    _, kernel = reduced_symmetric_lp(params, UNINFORMED_WELFARE)
    assert kernel_satisfies_optimality(params, kernel)


def test_all_or_none_kernel_conditions():
    params = _params()
    kappa = params.kappa
    # all attack with probability kappa, nobody otherwise
    good = CountKernel(n=4, q={(4, 2): kappa, (0, 2): 1 - kappa})
    assert kernel_satisfies_optimality(params, good)
    always = CountKernel(n=4, q={(4, 2): Rat(1)})
    assert not kernel_satisfies_optimality(params, always)
    never = CountKernel(n=4, q={(0, 2): Rat(1)})
    assert not kernel_satisfies_optimality(params, never)


def test_outcome_level_optimality_conditions():
    params = _params()
    g = build_regime_game(params)
    kappa = params.kappa
    good = CountKernel(n=4, q={(4, 2): kappa, (0, 2): 1 - kappa})
    outcome = kernel_to_outcome(params, good, g)
    assert check_optimality_conditions(params, outcome, g)
    always = kernel_to_outcome(params, CountKernel(n=4, q={(4, 2): Rat(1)}), g)
    assert not check_optimality_conditions(params, always, g)
    asym = Outcome(p={((ATTACK, STAY, STAY, STAY), 2): Rat(1)})
    with pytest.raises(NotSymmetricOutcome):
        check_optimality_conditions(params, asym, g)


def test_gap_closed_form_agrees_with_lp_route_on_sweep():
    # The cutoff inequality must match the direct comparison of the two
    # count-space worst-case LPs across threshold sets of size 1, 2, and 3.
    import itertools

    checked = 0
    for n in (5, 7, 8):
        thr_sets = list(itertools.combinations(range(2, n - 1), 2))
        thr_sets += list(itertools.combinations(range(2, n - 1), 3))
        thr_sets += [(t,) for t in range(2, n - 1)]
        for thr in thr_sets:
            for k, x in ((Rat(1, 2), Rat(1)), (Rat(3, 5), Rat(1, 5)), (Rat(9, 10), Rat(1, 10))):
                m = len(thr)
                prior = dict(zip(thr, (Rat(1, m),) * m))
                params = RegimeParams(n=n, k=k, x=x, thresholds=thr, prior=prior)
                closed = gap_closed_form(params)
                wl, _ = reduced_symmetric_lp(params, UNINFORMED_WELFARE)
                wg, _ = reduced_symmetric_lp(params, GROSS_WELFARE)
                assert closed == (wl < wg), (n, thr, k, x)
                checked += 1
    assert checked > 100


def test_zero_attack_kernel_zero_welfare():
    params = _params(n=5, thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)})
    kernel = CountKernel(n=5, q={(0, 2): Rat(1), (0, 3): Rat(1)})
    # evaluate both objectives directly: no attack ever succeeds, no one pays
    g = build_regime_game(params)
    outcome = kernel_to_outcome(params, kernel, g)

    assert sum(outcome.beliefs(g)[i].gross() for i in g.players) == 0
    # deviating to attack alone never reaches a threshold >= 2
    assert sum(outcome.beliefs(g)[i].uninformed()[0] for i in g.players) == 0


def _assert_same_space(space, ref):
    """``space``'s rows are ``ref``'s restricted to the space's corner
    columns, and every column it drops is the average of its neighbours in
    every reference row."""
    kept = set(space.variables)
    dropped = set(dropped_columns(space, ref))
    assert space.variables == tuple(var for var in ref.variables if var not in dropped)
    assert list(space.bounds.items()) == [(var, b) for var, b in ref.bounds.items() if var in kept]
    kept.add(EPIGRAPH)

    def on_corners(row):
        return {var: c for var, c in row.items() if var in kept}

    assert len(space.constraints) == len(ref.constraints)
    for (row, sense, rhs), (ref_row, ref_sense, ref_rhs) in zip(space.constraints, ref.constraints):
        assert_same_row(row, on_corners(ref_row))
        assert (sense, rhs) == (ref_sense, ref_rhs)
    for rec in (0, 1):
        assert_same_row(space.mass(rec), on_corners(ref.mass(rec)))
        assert_same_row(space.obedience(rec), on_corners(ref.obedience(rec)))
    assert_same_row(space.gross(), on_corners(ref.gross()))
    epigraph, ref_epigraph = space.epigraph(), ref.epigraph()
    assert len(epigraph) == len(ref_epigraph) == 2
    for (row, sense, rhs), (ref_row, ref_sense, ref_rhs) in zip(epigraph, ref_epigraph):
        assert_same_row(row, on_corners(ref_row))
        assert (sense, rhs) == (ref_sense, ref_rhs)


def _corners(n, states, payoff):
    """The (m, theta) columns kept by the rule: m is 0 or n, or the payoff
    pair (action 0, action 1) of theta changes somewhere among the opponent
    counts max(0, m-2) .. min(n-1, m+1)."""
    corners = []
    for theta in states:
        for m in range(n + 1):
            opps = range(max(0, m - 2), min(n - 1, m + 1) + 1)
            window = {(payoff(0, opp, theta), payoff(1, opp, theta)) for opp in opps}
            if m in (0, n) or len(window) > 1:
                corners.append((m, theta))
    return tuple(corners)


def _check_against_reference(n, states, prior, payoff, changes, start=()):
    space = count_space(n, states, prior, payoff, changes, start)
    _assert_same_space(space, reference_count_space(n, states, prior, payoff))
    assert space.variables == _corners(n, states, payoff)
    return space


def test_count_space_matches_fraction_reference_on_random_tables():
    rng = random.Random(20260)
    for _ in range(40):
        n = rng.randint(4, 120)
        states = tuple(f"s{k}" for k in range(rng.randint(1, 3)))
        weights = [rng.randint(1, 7) for _ in states]
        prior = {s: Rat(w, sum(weights)) for s, w in zip(states, weights)}
        # Mixed denominators and zero entries; some tables are constant in
        # own action, so their obedience rows are empty.
        constant = rng.random() < 0.1
        table = {
            (own, opp, s): Rat(rng.choice((0, rng.randint(-9, 9))), rng.choice((1, 2, 3, 5, 12)))
            for own in (0, 1)
            for opp in range(n)
            for s in states
        }
        if constant:
            table = {(own, opp, s): table[0, opp, s] for own, opp, s in table}

        def payoff(own, opp, s):
            return table[own, opp, s]

        _check_against_reference(n, states, prior, payoff, scanned_changes(n, states, payoff))
    # Plain int payoffs and prior are read the same way.
    def linear(own, opp, s):
        return own * opp - 2

    _check_against_reference(5, (0,), {0: 1}, linear, scanned_changes(5, (0,), linear))


def test_count_space_matches_fraction_reference_on_regime_and_gap_readout(monkeypatch):
    seen = []

    def checked(n, states, prior, payoff, changes, start=()):
        # Change points found in closed form or by the caller's scan are
        # those of a scan of the whole table.
        assert {s: list(changes[s]) for s in states} == scanned_changes(n, states, payoff)
        seen.append(n)
        return _check_against_reference(n, states, prior, payoff, changes, start)

    monkeypatch.setattr(regime, "count_space", checked)
    monkeypatch.setattr(welfare, "count_space", checked)
    for n, k, x, prior in (
        (4, Rat(1, 2), Rat(1), {2: Rat(1)}),
        (9, Rat(3, 5), Rat(1, 5), {2: Rat(1, 3), 5: Rat(2, 3)}),
        (60, Rat(9, 10), Rat(7, 3), {2: Rat(1, 4), 30: Rat(1, 6), 57: Rat(7, 12)}),
    ):
        params = RegimeParams(n=n, k=k, x=x, thresholds=tuple(prior), prior=prior)
        assert isinstance(regime_space(params), CountSpace)
    rng = random.Random(7)
    two_states = _params(n=5, thresholds=(2, 3), prior={2: Rat(1, 3), 3: Rat(2, 3)})
    games = [build_regime_game(two_states)]
    games += [
        random_symmetric_binary_game(rng, n_players=p, n_states=s)
        for p, s in ((2, 1), (3, 2), (4, 3))
    ]
    for game in games:
        binary_symmetric_gap_test(game)
    assert seen == [4, 9, 60, 5, 2, 3, 4]


def test_regime_space_built_once_per_job(monkeypatch, capsys):
    spaces, builds = [], []
    build_space = regime.count_space
    monkeypatch.setattr(
        regime, "count_space", lambda *args: spaces.append(build_space(*args)) or spaces[-1]
    )
    build_row = CountSpace._obedience_row
    monkeypatch.setattr(
        CountSpace, "_obedience_row", lambda self, rec: builds.append(rec) or build_row(self, rec)
    )
    argv = ["regime", "--n", "7", "--k", "1/2", "--x", "1/5"]
    assert cli.main(argv + ["--states", "2,4", "--prior", "1/3,2/3"]) == 0
    capsys.readouterr()
    assert len(spaces) == 1
    assert sorted(builds) == [0, 1]


def test_reduced_lp_on_a_given_space_matches_its_own():
    prior = {2: Rat(1, 2), 5: Rat(1, 2)}
    params = _params(n=9, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5), prior=prior)
    space = regime_space(params)
    for objective in (UNINFORMED_WELFARE, GROSS_WELFARE):
        shared = reduced_symmetric_lp(params, objective, space)
        assert shared == reduced_symmetric_lp(params, objective)


def _reference_kernel_to_outcome(params, kernel):
    # One scan of all 2^n profiles per kernel entry.
    p = {}
    for (m, theta), q in kernel.q.items():
        if not q:
            continue
        share = q * params.prior[theta] / comb(params.n, m)
        for profile in product((STAY, ATTACK), repeat=params.n):
            if sum(1 for a in profile if a == ATTACK) == m:
                p[(profile, theta)] = share
    return Outcome(p=p)


def test_kernel_to_outcome_matches_profile_scan():
    params = _params(n=6, thresholds=(2, 3), prior={2: Rat(1, 3), 3: Rat(2, 3)})
    game = build_regime_game(params)
    # Counts out of order, one repeated across states, and a zero entry.
    q = {(4, 3): Rat(1, 2), (0, 2): Rat(1, 4), (1, 3): Rat(1, 2), (6, 2): Rat(3, 4)}
    kernel = CountKernel(n=6, q={**q, (2, 3): ZERO})
    outcome = kernel_to_outcome(params, kernel, game)
    assert isinstance(outcome.p, lp.IntRow)
    assert list(outcome.p.items()) == list(_reference_kernel_to_outcome(params, kernel).p.items())
    for objective in (UNINFORMED_WELFARE, GROSS_WELFARE):
        _, kernel = reduced_symmetric_lp(params, objective)
        outcome = kernel_to_outcome(params, kernel, game)
        assert outcome.p == _reference_kernel_to_outcome(params, kernel).p


def test_build_regime_game_fails_fast_above_the_cap(monkeypatch):
    n = MAX_REGIME_PLAYERS + 1
    params = _params(n=n, thresholds=(2, 5), prior={2: Rat(1, 2), 5: Rat(1, 2)})
    monkeypatch.setattr(regime, "product", None)  # building any profile would fail
    with pytest.raises(TooManyPlayers, match=f"= {2**n * 2} profile-state cells"):
        build_regime_game(params)


# The full check: the count-space optimum and its duals lifted onto the full
# game's own programs, proved there by ``lp.check_certificate``.


@st.composite
def regime_params(draw):
    n = draw(st.integers(4, 7))
    thresholds = draw(st.lists(st.integers(2, n - 2), min_size=1, max_size=3, unique=True))
    k_den = draw(st.integers(2, 9))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(thresholds), max_size=len(thresholds)))
    return RegimeParams(
        n=n,
        k=Rat(draw(st.integers(1, k_den - 1)), k_den),
        x=Rat(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
        thresholds=tuple(thresholds),
        prior={t: Rat(w, sum(weights)) for t, w in zip(thresholds, weights)},
    )


@given(regime_params())
def test_certified_full_game_values_equal_the_full_solve(params):
    space = regime_space(params)
    uninformed = reduced_symmetric_lp(params, UNINFORMED_WELFARE, space)
    gross = reduced_symmetric_lp(params, GROSS_WELFARE, space)
    game = build_regime_game(params)
    report = welfare_report(build_regime_game(params))
    assert certify_full_game(params, gross, game) == report.w_exogenous
    assert certify_full_game(params, uninformed, game) == report.w_inattention


def _random_params(rng):
    n = rng.randint(4, 6)
    thresholds = sorted(rng.sample(range(2, n - 1), min(rng.randint(1, 2), n - 3)))
    k_den = rng.randint(2, 9)
    weights = [rng.randint(1, 5) for _ in thresholds]
    return RegimeParams(
        n=n,
        k=Rat(rng.randint(1, k_den - 1), k_den),
        x=Rat(rng.randint(1, 9), rng.randint(1, 9)),
        thresholds=tuple(thresholds),
        prior={t: Rat(w, sum(weights)) for t, w in zip(thresholds, weights)},
    )


@pytest.mark.parametrize("seed", range(12))
def test_count_space_matches_the_full_game_and_the_standalone_programs(seed):
    params = _random_params(random.Random(f"count-vs-full-{seed}"))
    space = regime_space(params)
    uninformed = reduced_symmetric_lp(params, UNINFORMED_WELFARE, space)
    gross = reduced_symmetric_lp(params, GROSS_WELFARE, space)
    game = build_regime_game(params)
    assert gross.value == worst_case_exogenous(game)[0]
    assert uninformed.value == worst_case_rational_inattention(game)[0]
    # The gross program on its own rows, without EPIGRAPH and the epigraph
    # rows, has the same optimum, on the corners and at full width.
    full = regime_reference(params)
    assert gross.value == lp.solve(gross_count_program(space)).value
    assert gross.value == lp.solve(gross_count_program(full)).value
    # The free epigraph variable at cost 0 leaves both epigraph duals 0.
    assert gross.solution.duals()[-2:] == (ZERO, ZERO)
    # The space's program is the full-width program on the corner columns,
    # its rows in this order.
    program = uninformed_program(full)
    corners = restrict(program, space.variables + (EPIGRAPH,))
    assert space.program == replace(corners, objective={})
    for optimum in (uninformed, gross):
        assert optimum.solution.program is space.program
    assert uninformed.solution.objective == corners.objective
    # Both answers start from the space's proposed basis, not phase 1: the
    # values are a cold solve's of the full-width program, each answer
    # proves itself optimal, and the RI kernel meets the optimality
    # conditions.
    assert uninformed.value == lp.solve(program).value
    assert gross.value == lp.solve(replace(program, objective=full.gross())).value
    assert uninformed.solution.verify()
    assert gross.solution.verify()
    assert kernel_satisfies_optimality(params, uninformed.kernel)


def _large_params(rng):
    """Regime parameters over the range ``regime`` runs in count space: n
    from 4 to 203 (n <= 8 a quarter of the time, so that the full game can
    be built), 1-4 thresholds, k in (0, 1) and x from 1/10 to 4."""
    n = rng.randint(4, 8) if rng.random() < 0.25 else rng.randint(9, 203)
    thresholds = sorted(rng.sample(range(2, n - 1), min(rng.randint(1, 4), n - 3)))
    k_den = rng.randint(2, 20)
    weights = [rng.randint(1, 9) for _ in thresholds]
    return RegimeParams(
        n=n,
        k=Rat(rng.randint(1, k_den - 1), k_den),
        x=Rat(rng.randint(1, 40), 10),
        thresholds=tuple(thresholds),
        prior={t: Rat(w, sum(weights)) for t, w in zip(thresholds, weights)},
    )


def _cutoff_kernel(params):
    """The cutoff kernel, from the prior's CDF: theta+1 investors attack in
    each state whose CDF is below kappa, nobody in each state above the
    first whose CDF reaches it, and in that state theta+1 attack with the
    probability that makes an attack succeed with probability kappa."""
    q, below = {}, ZERO
    for theta in params.thresholds:
        pi = params.prior[theta]
        if below is None:
            q[(0, theta)] = Rat(1)
        elif below + pi < params.kappa:
            q[(theta + 1, theta)] = Rat(1)
            below += pi
        else:
            share = (params.kappa - below) / pi
            q.update({(0, theta): 1 - share, (theta + 1, theta): share})
            below = None
    return CountKernel(n=params.n, q={key: mass for key, mass in q.items() if mass})


def _assert_cutoff_start(params, feasible_starts, optimize_pivots):
    """Both answers start from the cutoff kernel, accepted by the exact
    check with no phase 1, and the acquired-information answer is that
    kernel with no pivot, at the closed form.  A cold solve of the same
    program, each answer's own certificate, the cutoff inequality and,
    where the full game can be built, the lifted certificates agree."""
    space = regime_space(params)
    uninformed = reduced_symmetric_lp(params, UNINFORMED_WELFARE, space)
    gross = reduced_symmetric_lp(params, GROSS_WELFARE, space)
    assert feasible_starts == ["basis"]
    assert optimize_pivots[0] == 0
    assert uninformed.kernel == _cutoff_kernel(params)
    assert uninformed.value == wlower_closed_form(params)
    assert kernel_satisfies_optimality(params, uninformed.kernel)
    for optimum in (uninformed, gross):
        sol = optimum.solution
        assert optimum.value == lp.solve(with_objective(sol.program, sol.objective)).value
        assert optimum.solution.verify()
    assert gap_closed_form(params) == (uninformed.value < gross.value)
    if params.n <= 8:
        game = build_regime_game(params)
        assert certify_full_game(params, uninformed, game) == uninformed.value
        assert certify_full_game(params, gross, game) == gross.value


@pytest.mark.parametrize("seed", range(40))
def test_nobody_attacks_basis_is_accepted_and_optimal(seed, feasible_starts, optimize_pivots):
    # The count program starts from its closed-form basis, the cutoff
    # kernel, with no phase 1 and no pivot to the acquired-information
    # optimum, over the range ``regime`` runs in.
    params = _large_params(random.Random(f"nobody-attacks-{seed}"))
    _assert_cutoff_start(params, feasible_starts, optimize_pivots)


def _family_params(rng, family):
    """Regime parameters of one family, n from 4 to 10^5 (n <= 8 a quarter
    of the time, so that the full game can be built) and 1-4 thresholds:
    "spread" draws the thresholds anywhere, "adjacent" as a run of
    consecutive ones, and "kappa-on-cdf" draws x and then k so that kappa
    is exactly the prior's CDF at a threshold other than the last."""
    n = rng.randint(4, 8) if rng.random() < 0.25 else round(9 * (10**5 / 9) ** rng.random())
    if family == "kappa-on-cdf":
        n = max(n, 5)
    count = min(rng.randint(2 if family == "kappa-on-cdf" else 1, 4), n - 3)
    if family == "adjacent":
        first = rng.randint(2, n - 1 - count)
        thresholds = list(range(first, first + count))
    else:
        thresholds = sorted(rng.sample(range(2, n - 1), count))
    weights = [rng.randint(1, 9) for _ in thresholds]
    prior = {t: Rat(w, sum(weights)) for t, w in zip(thresholds, weights)}
    if family == "kappa-on-cdf":
        cdf = sum(weights[: rng.randint(1, count - 1)]) / Rat(sum(weights))
        x = (1 / cdf - 1) * Rat(rng.randint(1, 9), 10)
        k = cdf * (1 + x)
    else:
        k_den = rng.randint(2, 20)
        k, x = Rat(rng.randint(1, k_den - 1), k_den), Rat(rng.randint(1, 40), 10)
    return RegimeParams(n=n, k=k, x=x, thresholds=tuple(thresholds), prior=prior)


@pytest.mark.parametrize("family", ["spread", "adjacent", "kappa-on-cdf"])
@pytest.mark.parametrize("seed", range(15))
def test_cutoff_start_is_the_acquired_information_optimum(
    family, seed, feasible_starts, optimize_pivots
):
    params = _family_params(random.Random(f"cutoff-{family}-{seed}"), family)
    if family == "kappa-on-cdf":
        assert params.kappa == params.cutoff[1]
    _assert_cutoff_start(params, feasible_starts, optimize_pivots)
    if params.n <= 2000:
        # The closed-form change points keep the corners a scan keeps.
        payoff = regime._payoff(params)
        changes = scanned_changes(params.n, params.thresholds, payoff)
        scanned = count_space(params.n, params.thresholds, params.prior, payoff, changes)
        assert regime_space(params).program == scanned.program


def test_kappa_and_cutoff_are_computed_once_per_params():
    prior = {2: Rat(1, 4), 5: Rat(1, 4), 7: Rat(1, 2)}
    params = _params(n=9, k=Rat(3, 5), x=Rat(1, 5), thresholds=(2, 5, 7), prior=prior)
    assert params.kappa is params.kappa == Rat(1, 2)
    assert params.cutoff is params.cutoff == (5, Rat(1, 2))
    assert replace(params, x=Rat(1, 10)).cutoff == (7, Rat(1))


def _step_table(rng):
    """(n, states, prior, payoff) of a random symmetric binary game whose
    payoffs are a step function of the opponent count: per state 0-4 cuts
    in 1..n-1, and one random payoff pair (action 0, action 1) per step."""
    n = rng.randint(4, 60)
    states = tuple(f"s{k}" for k in range(rng.randint(1, 3)))
    weights = [rng.randint(1, 7) for _ in states]
    prior = {s: Rat(w, sum(weights)) for s, w in zip(states, weights)}
    table = {}
    for s in states:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, 4)))
        for start, end in zip([0] + cuts, cuts + [n]):
            pair = tuple(Rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in (0, 1))
            table.update(((opp, s), pair) for opp in range(start, end))
    return n, states, prior, lambda own, opp, s: table[opp, s][own]


def _gap_quantities(space):
    """(status, value) of the gap test's relaxed program over ``space`` (a
    cold solve), then of the minima of mass(rec) and obedience(rec), for rec
    0 and 1, over its optimal face (one phase 1)."""
    variables = space.variables + (EPIGRAPH,)
    constraints = space.constraints + space.epigraph()
    uninformed = {EPIGRAPH: Rat(space.n)}
    relaxed = lp.solve(
        lp.LinearProgram(variables, uninformed, constraints=constraints, bounds=space.bounds)
    )
    face_rows = constraints + [(uninformed, lp.EQUAL, relaxed.value)]
    face = lp.Polyhedron(lp.LinearProgram(variables, {}, constraints=face_rows, bounds=space.bounds))
    rows = [row for rec in (0, 1) for row in (space.mass(rec), space.obedience(rec))]
    minima = [face.optimize(row) for row in rows]
    return [(sol.status, sol.value) for sol in (relaxed, *minima)]


@pytest.mark.parametrize("seed", range(40))
def test_corner_space_agrees_with_the_full_width_programs(seed):
    # Two routes to the same answers: the corner space against the
    # full-width Fraction reference, on a regime game and on a random
    # step-function table.
    rng = random.Random(f"corners-{seed}")
    params = _large_params(rng)
    space = regime_space(params)
    full = regime_reference(params)
    assert len(space.variables) <= 6 * len(params.thresholds)
    dropped_columns(space, full)
    program = uninformed_program(full)
    uninformed = reduced_symmetric_lp(params, UNINFORMED_WELFARE, space)
    gross = reduced_symmetric_lp(params, GROSS_WELFARE, space)
    for optimum, costs in ((uninformed, program.objective), (gross, full.gross())):
        cold = lp.solve(replace(program, objective=costs))
        assert cold.is_optimal and optimum.value == cold.value
        assert optimum.solution.verify()
    assert kernel_satisfies_optimality(params, uninformed.kernel)
    gap = _gap_quantities(full)
    assert _gap_quantities(space) == gap
    if params.n <= 8:
        game = build_regime_game(params)
        assert certify_full_game(params, uninformed, game) == uninformed.value
        assert certify_full_game(params, gross, game) == gross.value
        _, diagnostics = binary_symmetric_gap_test(game)
        keys = ("min_probability", "min_strict_br_slack")
        minima = [diagnostics["per_action"][a][key] for a in (STAY, ATTACK) for key in keys]
        assert [diagnostics["relaxed_value"], *minima] == [value for _, value in gap]

    n, states, prior, payoff = _step_table(rng)
    space = count_space(n, states, prior, payoff, scanned_changes(n, states, payoff))
    full = reference_count_space(n, states, prior, payoff)
    dropped_columns(space, full)
    program = uninformed_program(full)
    objectives = (({EPIGRAPH: Rat(n)}, program.objective), (space.gross(), full.gross()))
    for costs, full_costs in objectives:
        sol = space.feasible.optimize(costs)
        cold = lp.solve(replace(program, objective=full_costs))
        assert (sol.status, sol.value) == (cold.status, cold.value)
        assert sol.verify()
    assert _gap_quantities(space) == _gap_quantities(full)


@pytest.mark.parametrize(
    "thresholds, sizes",
    [
        ((5, 9), {20: 12, 200: 12, 2000: 12, 10**6: 12}),
        # The median regime job of the benchmark's digest seed.
        ((13, 102), {114: 12}),
    ],
)
def test_regime_program_keeps_six_counts_per_state_at_any_n(thresholds, sizes):
    for n, columns in sizes.items():
        prior = {t: Rat(1, len(thresholds)) for t in thresholds}
        params = _params(n=n, k=Rat(1, 2), x=Rat(1, 10), thresholds=thresholds, prior=prior)
        program = regime_space(params).program
        assert program.variables[-1] == EPIGRAPH
        assert len(program.variables) == columns + 1
        # The first state's corners: 0, theta-2 .. theta+1, and n.
        theta = thresholds[0]
        corners = (0, *range(theta - 2, theta + 2), n)
        assert program.variables[:6] == tuple((m, theta) for m in corners)


def test_table_without_equal_neighbouring_pairs_keeps_every_count():
    n, states = 9, ("a", "b")
    prior = {"a": Rat(1, 4), "b": Rat(3, 4)}
    # Both payoffs change at every opponent count.
    def payoff(own, opp, s):
        return Rat(opp * (2 * own - 1), 1 + own)

    space = count_space(n, states, prior, payoff, scanned_changes(n, states, payoff))
    assert space.variables == tuple((m, s) for s in states for m in range(n + 1))
    assert len(space.program.variables) == 2 * (n + 1) + 1


@pytest.mark.parametrize("stay", [Rat(-1), Rat(-1, 2)])
def test_count_space_whose_proposal_fails_falls_back_to_phase_one(stay, feasible_starts):
    # The proposal is the kernel on which nobody attacks: q(0, theta) for
    # each theta, the obedience slacks, EPIGRAPH at the payoff of always
    # staying and the slack of the attack epigraph row.  Staying pays
    # ``stay`` < 0 and attacking -1/2 below the threshold, so EPIGRAPH would
    # be basic at a negative value (at -1, obedience(0)'s slack too): the
    # exact check refuses the proposal and phase 1 runs.
    def payoff(own, opp, theta):
        return (Rat(1, 2) if opp + 1 >= theta else Rat(-1, 2)) if own else stay

    proposal = (("lo", (0, 2)), ("lo", (0, 4)), ("slack", 2), ("slack", 3))
    proposal += (("pos", EPIGRAPH), ("slack", 5))
    changes = {2: (1,), 4: (3,)}
    space = count_space(7, (2, 4), {2: Rat(1, 3), 4: Rat(2, 3)}, payoff, changes, proposal)
    polyhedron = space.feasible
    assert feasible_starts == ["phase 1"]
    for costs in ({EPIGRAPH: Rat(7)}, space.gross()):
        cold = lp.solve(replace(space.program, objective=costs))
        assert cold.is_optimal and polyhedron.optimize(costs) == cold


def _n6_params():
    prior = {2: Rat(1, 2), 3: Rat(1, 2)}
    return _params(n=6, k=Rat(1, 2), x=Rat(1, 10), thresholds=(2, 3), prior=prior)


@pytest.mark.parametrize("objective", [GROSS_WELFARE, UNINFORMED_WELFARE])
def test_lifted_pair_is_the_full_programs_certificate(objective):
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, objective)
    assert isinstance(optimum, CountOptimum) and optimum == (optimum.value, optimum.kernel)
    game = build_regime_game(params)
    program, costs, point, duals = lift_to_full_game(params, optimum, game)
    # Marginals, then obedience and, for the epigraph LP, epigraph rows.
    rows_per_player = 4 if objective == UNINFORMED_WELFARE else 2
    assert len(duals) == len(program.constraints) == 2 + rows_per_player * params.n
    lp.check_certificate(program, costs, "min", point, optimum.value, duals)
    # The program is the one the welfare code solves, and its optimum under
    # the lifted objective has the lifted value.
    if objective == GROSS_WELFARE:
        assert program is game.bce_polytope.program
    assert lp.solve(with_objective(program, costs)).value == optimum.value
    # b·y is the count value: only the marginal rows have a nonzero rhs.
    assert sum(y * con.rhs for y, con in zip(duals, program.constraints)) == optimum.value


def _obedience_rows(params):
    """Indices of the full program's obedience rows, after one marginal row
    per state."""
    first = len(params.thresholds)
    return range(first, first + 2 * params.n)


def test_negated_obedience_multiplier_is_refused():
    # Obedience binds at the gross worst case (at this uninformed one it
    # does not, and every obedience multiplier is 0).
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, GROSS_WELFARE)
    game = build_regime_game(params)
    program, costs, point, duals = lift_to_full_game(params, optimum, game)
    r = next(r for r in _obedience_rows(params) if duals[r])
    tampered = duals[:r] + (-duals[r],) + duals[r + 1 :]
    message = f"^dual of constraint {r} has the wrong sign$"
    with pytest.raises(InternalInvariantError, match=message):
        lp.check_certificate(program, costs, "min", point, optimum.value, tampered)


def test_kernel_mass_moved_to_another_count_is_refused():
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, GROSS_WELFARE)
    game = build_regime_game(params)
    # Move the mass of one supported count to the all-attack count of its
    # state, whose gross value differs.
    (m, theta), q = next((key, q) for key, q in optimum.kernel.q.items() if key[0] != params.n)
    moved = dict(optimum.kernel.q)
    del moved[(m, theta)]
    moved[(params.n, theta)] = moved.get((params.n, theta), ZERO) + q
    tampered = CountOptimum(GROSS_WELFARE, optimum.solution, CountKernel(n=params.n, q=moved))
    message = "^(constraint violated|objective value mismatch)"
    with pytest.raises(InternalInvariantError, match=message):
        certify_full_game(params, tampered, game)


@pytest.mark.parametrize("objective", [GROSS_WELFARE, UNINFORMED_WELFARE])
def test_value_off_by_a_thousandth_is_refused(objective):
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, objective)
    program, costs, point, duals = lift_to_full_game(params, optimum, build_regime_game(params))
    with pytest.raises(InternalInvariantError, match="^objective value mismatch$"):
        lp.check_certificate(program, costs, "min", point, optimum.value + Rat(1, 1000), duals)


def test_full_check_at_n10_certifies_the_count_values(capsys):
    # n=10 took 7.7 s when the full programs were solved, most of it in the
    # Bland fallback after a stall; the certificate check takes a fraction
    # of a second.
    argv = ["regime", "--n", "10", "--k", "1/2", "--x", "1/10"]
    assert cli.main(argv + ["--states", "2,4", "--prior", "1/2,1/2", "--full-check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["full_game"] == report["worst_case"]
    assert report["full_game"]["rational_inattention"] == report["w_lower_closed_form"]


def test_full_check_validates_each_program_once(capsys, programs_validated, answers):
    # A full-check job validates its count program, then the full game's
    # BCE program and its epigraph program, each once when built: both
    # count answers carry the count program, and nothing is copied.
    argv = ["regime", "--n", "6", "--k", "1/2", "--x", "1/10", "--states", "2,3"]
    assert cli.main(argv + ["--prior", "1/2,1/2", "--full-check"]) == 0
    capsys.readouterr()
    count, full, epigraph = programs_validated
    assert count.variables[-1] == EPIGRAPH and count.objective == {}
    assert len(full.variables) == 2**6 * 2 and full.objective == {}
    assert epigraph.variables == full.variables + tuple(("t", f"i{j}") for j in range(1, 7))
    assert len(answers) == 2 and all(sol.program is count for sol in answers)
