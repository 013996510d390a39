import json
import random
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribce import cli, lp, regime, welfare
from ribce.errors import InternalInvariantError, InvalidParams, NotSymmetricOutcome, TooManyPlayers
from ribce.games import Outcome, is_symmetric_game
from ribce.rational import ONE, ZERO, Rat
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
from row_reference import assert_same_row
from sample_games import random_symmetric_binary_game


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

    assert sum(outcome.beliefs(g)[i].gross() for i in g.players) == 0
    # deviating to attack alone never reaches a threshold >= 2
    assert sum(outcome.beliefs(g)[i].uninformed()[0] for i in g.players) == 0


def _reference_count_space(n, states, prior, payoff):
    """``count_space`` as it was on Fraction arithmetic, cell by cell: the
    reference the int-numerator rows must equal entry for entry."""
    v = {
        (own, opp, theta): payoff(own, opp, theta)
        for theta in states
        for own in (0, 1)
        for opp in range(n)
    }
    share = [Rat(m, n) for m in range(n + 1)]
    variables = tuple((m, theta) for theta in states for m in range(n + 1))

    def recommended(rec, value):
        coeffs = {}
        for theta in states:
            pi = prior[theta]
            for opp in range(n):
                m = opp + rec
                val = pi * share[m if rec else n - m] * value(opp, theta)
                if val:
                    coeffs[(m, theta)] = val
        return coeffs

    def mass(rec):
        return recommended(rec, lambda opp, theta: ONE)

    def obedience(rec):
        return recommended(rec, lambda opp, theta: v[rec, opp, theta] - v[1 - rec, opp, theta])

    def weighted_sum(weight, own1, own0):
        coeffs = {}
        for theta in states:
            pi = prior[theta]
            for m in range(n + 1):
                val = ZERO
                if m:
                    val += weight[m] * v[own1, m - 1, theta]
                if m < n:
                    val += weight[n - m] * v[own0, m, theta]
                val *= pi
                if val:
                    coeffs[(m, theta)] = val
        return coeffs

    def gross():
        return weighted_sum(range(n + 1), 1, 0)

    def epigraph():
        rows = []
        for a in (0, 1):
            coeffs = {key: -val for key, val in weighted_sum(share, a, a).items()}
            coeffs[EPIGRAPH] = ONE
            rows.append((coeffs, lp.GREATER, ZERO))
        return rows

    return SimpleNamespace(
        variables=variables,
        bounds={var: (ZERO, None) for var in variables},
        constraints=[
            ({(m, theta): ONE for m in range(n + 1)}, lp.EQUAL, ONE) for theta in states
        ],
        mass=mass,
        obedience=obedience,
        gross=gross,
        epigraph=epigraph,
    )


def _assert_same_space(space, ref):
    assert space.variables == ref.variables
    assert list(space.bounds.items()) == list(ref.bounds.items())
    assert len(space.constraints) == len(ref.constraints)
    for (row, sense, rhs), (ref_row, ref_sense, ref_rhs) in zip(space.constraints, ref.constraints):
        assert_same_row(row, ref_row)
        assert (sense, rhs) == (ref_sense, ref_rhs)
    for rec in (0, 1):
        assert_same_row(space.mass(rec), ref.mass(rec))
        assert_same_row(space.obedience(rec), ref.obedience(rec))
    assert_same_row(space.gross(), ref.gross())
    epigraph, ref_epigraph = space.epigraph(), ref.epigraph()
    assert len(epigraph) == len(ref_epigraph) == 2
    for (row, sense, rhs), (ref_row, ref_sense, ref_rhs) in zip(epigraph, ref_epigraph):
        assert_same_row(row, ref_row)
        assert (sense, rhs) == (ref_sense, ref_rhs)


def _check_against_reference(n, states, prior, payoff):
    space = count_space(n, states, prior, payoff)
    _assert_same_space(space, _reference_count_space(n, states, prior, payoff))
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
        _check_against_reference(n, states, prior, lambda own, opp, s: table[own, opp, s])
    # Plain int payoffs and prior are read the same way.
    _check_against_reference(5, (0,), {0: 1}, lambda own, opp, s: own * opp - 2)


def test_count_space_matches_fraction_reference_on_regime_and_gap_readout(monkeypatch):
    seen = []

    def checked(n, states, prior, payoff):
        seen.append(n)
        return _check_against_reference(n, states, prior, payoff)

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


def _n6_params():
    prior = {2: Rat(1, 2), 3: Rat(1, 2)}
    return _params(n=6, k=Rat(1, 2), x=Rat(1, 10), thresholds=(2, 3), prior=prior)


@pytest.mark.parametrize("objective", [GROSS_WELFARE, UNINFORMED_WELFARE])
def test_lifted_pair_is_the_full_programs_certificate(objective):
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, objective)
    assert isinstance(optimum, CountOptimum) and optimum == (optimum.value, optimum.kernel)
    game = build_regime_game(params)
    program, point, duals = lift_to_full_game(params, optimum, game)
    # Marginals, then obedience and, for the epigraph LP, epigraph rows.
    rows_per_player = 4 if objective == UNINFORMED_WELFARE else 2
    assert len(duals) == len(program.constraints) == 2 + rows_per_player * params.n
    lp.check_certificate(program, point, optimum.value, duals)
    # The program is the one the welfare code solves, and its own optimum
    # has the lifted value.
    assert lp.solve(program).value == optimum.value
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
    program, point, duals = lift_to_full_game(params, optimum, game)
    r = next(r for r in _obedience_rows(params) if duals[r])
    tampered = duals[:r] + (-duals[r],) + duals[r + 1 :]
    message = f"^dual of constraint {r} has the wrong sign$"
    with pytest.raises(InternalInvariantError, match=message):
        lp.check_certificate(program, point, optimum.value, tampered)


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
    tampered = CountOptimum(
        GROSS_WELFARE, optimum.lp, optimum.solution, CountKernel(n=params.n, q=moved)
    )
    message = "^(constraint violated|objective value mismatch)"
    with pytest.raises(InternalInvariantError, match=message):
        certify_full_game(params, tampered, game)


@pytest.mark.parametrize("objective", [GROSS_WELFARE, UNINFORMED_WELFARE])
def test_value_off_by_a_thousandth_is_refused(objective):
    params = _n6_params()
    optimum = reduced_symmetric_lp(params, objective)
    program, point, duals = lift_to_full_game(params, optimum, build_regime_game(params))
    with pytest.raises(InternalInvariantError, match="^objective value mismatch$"):
        lp.check_certificate(program, point, optimum.value + Rat(1, 1000), duals)


def test_full_check_at_n10_certifies_the_count_values(capsys):
    # n=10 took 7.7 s when the full programs were solved, most of it in the
    # Bland fallback after a stall; the certificate check takes a fraction
    # of a second.
    argv = ["regime", "--n", "10", "--k", "1/2", "--x", "1/10"]
    assert cli.main(argv + ["--states", "2,4", "--prior", "1/2,1/2", "--full-check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["full_game"] == report["worst_case"]
    assert report["full_game"]["rational_inattention"] == report["w_lower_closed_form"]
