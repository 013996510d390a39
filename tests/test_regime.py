import pytest

from ribce.errors import InvalidParams, NotSymmetricOutcome
from ribce.games import Outcome, is_symmetric_game
from ribce.rational import Rat
from ribce.regime import (
    ATTACK,
    GROSS_WELFARE,
    STAY,
    UNINFORMED_WELFARE,
    CountKernel,
    RegimeParams,
    build_regime_game,
    check_optimality_conditions,
    gap_closed_form,
    kernel_satisfies_optimality,
    kernel_to_outcome,
    reduced_symmetric_lp,
    wlower_closed_form,
)
from ribce.welfare import worst_case_exogenous, worst_case_rational_inattention


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
            {(0, 2): Rat(1, 2), (0, 3): Rat(1), (5, 2): Rat(1, 2)},
            {(0, 2): Rat(5, 14), (1, 3): Rat(1), (2, 2): Rat(9, 14)},
        ),
    ]
    for params, kernel_u, kernel_g in cases:
        value, kernel = reduced_symmetric_lp(params, UNINFORMED_WELFARE)
        assert value == wlower_closed_form(params)
        assert kernel == CountKernel(n=params.n, q=kernel_u)
        gross, kernel = reduced_symmetric_lp(params, GROSS_WELFARE)
        assert kernel == CountKernel(n=params.n, q=kernel_g)
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
    from ribce.games import gross_value, uninformed_value

    assert sum(gross_value(g, outcome, i) for i in g.players) == 0
    # deviating to attack alone never reaches a threshold >= 2
    assert sum(uninformed_value(g, outcome, i)[0] for i in g.players) == 0
