import random
from itertools import product

import pytest

from ribce import lp
from ribce.errors import DimensionMismatch, NotSeparatedBce, ValidationError
from ribce.games import make_outcome
from ribce.rational import ONE, Rat, ZERO
from ribce.representation import (
    belief_partition,
    blackwell_dominates,
    build_canonical,
    cost_certificate,
    induced_outcome,
)

from sample_games import (
    A,
    B,
    MKT,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    first_best_outcome,
    inferior_coordination_outcome,
    investment_game,
    random_game,
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


def test_partition_product_outcome_single_cell():
    g = investment_game(0)
    ninth = Rat(1, 18)
    p = {((x, y), s): ninth for x in (A, B, MKT) for y in (A, B, MKT) for s in g.states}
    out = make_outcome(g, p)
    part = belief_partition(g, out)
    assert part.cells["ann"] == (frozenset((A, B, MKT)),)


def test_partition_3x3_half_point():
    g3 = coordination_game_3x3()
    part = belief_partition(g3, coordination_3x3_segment_point(Rat(1, 2)))
    assert set(part.cells["p1"]) == {frozenset(("a",)), frozenset(("b", "c"))}


def test_partition_strict_bce_singletons():
    g = investment_game(0)
    part = belief_partition(g, first_best_outcome(g))
    assert frozenset((A,)) in part.cells["ann"]
    assert frozenset((B,)) in part.cells["ann"]
    assert frozenset((MKT,)) in part.cells["ann"]  # off-support cell


def test_canonical_round_trip_examples():
    g3 = coordination_game_3x3()
    p_half = coordination_3x3_segment_point(Rat(1, 2))
    rep = build_canonical(g3, p_half)
    assert len(rep.correlation_states) == 4  # two cells per player
    assert induced_outcome(rep, g3).p == p_half.p

    g = investment_game(0)
    fb = first_best_outcome(g)
    assert induced_outcome(build_canonical(g, fb), g).p == fb.p


def test_canonical_round_trip_deterministic_outcome():
    g = investment_game(0)
    out = make_outcome(
        g, {((A, B), "thetaA"): Rat(1, 2), ((B, B), "thetaB"): Rat(1, 2)}
    )
    rep = build_canonical(g, out)
    assert induced_outcome(rep, g).p == out.p


def test_canonical_round_trip_random_outcomes():
    rng = random.Random(7)
    for _ in range(30):
        g = random_game(rng)
        out = _random_outcome(g, rng)
        rep = build_canonical(g, out)
        assert induced_outcome(rep, g).p == out.p


def test_signal_space_richness():
    g3 = coordination_game_3x3()
    rep = build_canonical(g3, coordination_3x3_segment_point(Rat(1, 2)))
    n_corr_states = len(rep.correlation_states) * 1  # one payoff state
    for i in g3.players:
        assert len(rep.signals[i]) > len(g3.actions[i])
        assert len(rep.signals[i]) > n_corr_states


def test_cost_certificate_values():
    g = investment_game(Rat(1, 10))
    out = inferior_coordination_outcome(g)
    cert = cost_certificate(g, out, Rat(1))
    for i in g.players:
        entry = cert.per_player[i]
        assert entry["equilibrium_cost"] == Rat(1, 2)
        assert entry["upper_bound"] >= entry["equilibrium_cost"]


def test_cost_certificate_zero_when_values_coincide():
    g = investment_game(0)
    from sample_games import all_market_outcome

    out = all_market_outcome(g)
    cert = cost_certificate(g, out, Rat(1))
    assert all(c["equilibrium_cost"] == 0 for c in cert.per_player.values())


def test_cost_certificate_ordering_invariants():
    rng = random.Random(19)
    from ribce.bce import minimize_linear_over_bce
    from ribce.separation import is_sbce

    checked = 0
    for _ in range(20):
        g = random_game(rng)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in g.cells()}
        p, _ = minimize_linear_over_bce(g, objective)
        if not is_sbce(g, p):
            continue
        lam = Rat(rng.randint(1, 4), 4)
        cert = cost_certificate(g, p, lam)
        for i in g.players:
            entry = cert.per_player[i]
            assert entry["equilibrium_cost"] >= 0
            assert entry["equilibrium_cost"] <= entry["upper_bound"]
            lo, _ = p.beliefs(g)[i].uninformed()
            hi = p.beliefs(g)[i].gross()
            assert entry["equilibrium_cost"] == lam * (hi - lo)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "lam, message",
    [
        (0.1, "lambda for 'ann' must be an exact rational in (0,1]: 0.1"),
        ({"bob": Rat(1, 2)}, "lambda for 'ann' is missing"),
        ({"ann": Rat(1, 2)}, "lambda for 'bob' is missing"),
        ({"ann": Rat(1, 2), "bob": 0.5}, "lambda for 'bob' must be an exact rational in (0,1]: 0.5"),
        (Rat(3, 2), "lambda for 'ann' must be an exact rational in (0,1]: 3/2"),
        ({"ann": Rat(1), "bob": 0}, "lambda for 'bob' must be an exact rational in (0,1]: 0"),
    ],
)
def test_cost_certificate_rejects_bad_lambda(lam, message):
    g = investment_game(Rat(1, 10))
    out = inferior_coordination_outcome(g)
    with pytest.raises(ValidationError) as info:
        cost_certificate(g, out, lam)
    assert str(info.value) == message


def test_cost_certificate_requires_sbce():
    g3 = coordination_game_3x3()
    with pytest.raises(NotSeparatedBce):
        cost_certificate(g3, coordination_3x3_segment_point(Rat(1, 2)), Rat(1))


def _experiment(signals, kernel):
    return {"signals": tuple(signals), "kernel": kernel}


def _setup_blackwell():
    signals = ("s1", "s2", "s3")
    zeta = {("z", "t1"): ONE, ("z", "t2"): ONE}
    prior = {"t1": Rat(1, 2), "t2": Rat(1, 2)}
    full = _experiment(
        signals, {(("z", "t1"), "s1"): ONE, (("z", "t2"), "s2"): ONE}
    )
    noise = {
        (("z", "t1"), "s1"): Rat(1, 2),
        (("z", "t1"), "s2"): Rat(1, 2),
        (("z", "t2"), "s1"): Rat(1, 2),
        (("z", "t2"), "s2"): Rat(1, 2),
    }
    uninformative = _experiment(signals, noise)
    return signals, zeta, prior, full, uninformative


def test_blackwell_reflexive_and_fully_revealing():
    signals, zeta, prior, full, uninformative = _setup_blackwell()
    assert blackwell_dominates(full, full, zeta, prior)
    assert blackwell_dominates(uninformative, uninformative, zeta, prior)
    assert blackwell_dominates(full, uninformative, zeta, prior)
    assert not blackwell_dominates(uninformative, full, zeta, prior)


def test_blackwell_transitive_on_garbling_chain():
    signals, zeta, prior, full, uninformative = _setup_blackwell()
    partial = _experiment(
        signals,
        {
            (("z", "t1"), "s1"): Rat(3, 4),
            (("z", "t1"), "s2"): Rat(1, 4),
            (("z", "t2"), "s1"): Rat(1, 4),
            (("z", "t2"), "s2"): Rat(3, 4),
        },
    )
    assert blackwell_dominates(full, partial, zeta, prior)
    assert blackwell_dominates(partial, uninformative, zeta, prior)
    assert blackwell_dominates(full, uninformative, zeta, prior)


def test_blackwell_rows_follow_the_kernels_first_seen_order(monkeypatch):
    # The garbling rows of each (z, theta) condition come in the order the
    # conditions first appear in ``xi``'s kernel, whatever the hash seed.
    order = (5, 2, 0, 4, 1, 3)
    signals = ("s1", "s2")
    zeta = {("z", f"t{k}"): ONE for k in order}
    prior = {f"t{k}": Rat(1, len(order)) for k in order}
    xi = _experiment(signals, {(("z", f"t{k}"), "s1"): ONE for k in order})
    kernel = {}
    for k in order:
        kernel[(("z", f"t{k}"), "s1")] = Rat(k, 10)
        kernel[(("z", f"t{k}"), "s2")] = 1 - Rat(k, 10)
    xi_prime = _experiment(signals, kernel)
    handed = []

    def capture(variables, constraints, bounds=None):
        handed.append(list(constraints))
        return None

    monkeypatch.setattr(lp, "feasible_point", capture)
    assert not blackwell_dominates(xi, xi_prime, zeta, prior)
    [constraints] = handed
    garbling = constraints[len(signals):]
    want = [q for k in order for q in (Rat(k, 10), 1 - Rat(k, 10))]
    assert [rhs for _, _, rhs in garbling] == want


def test_blackwell_dimension_mismatch():
    signals, zeta, prior, full, uninformative = _setup_blackwell()
    other = _experiment(("a", "b"), {(("z", "t1"), "a"): ONE, (("z", "t2"), "b"): ONE})
    with pytest.raises(DimensionMismatch):
        blackwell_dominates(full, other, zeta, prior)


def test_blackwell_ignores_off_support_correlation_states():
    signals = ("s1", "s2", "s3")
    zeta = {("z", "t1"): ONE, ("z", "t2"): ONE, ("dead", "t1"): ZERO, ("dead", "t2"): ZERO}
    prior = {"t1": Rat(1, 2), "t2": Rat(1, 2)}
    full = _experiment(
        signals,
        {
            (("z", "t1"), "s1"): ONE,
            (("z", "t2"), "s2"): ONE,
            # contradictory rows on the dead state would block a garbling
            (("dead", "t1"), "s2"): ONE,
            (("dead", "t2"), "s1"): ONE,
        },
    )
    copy = _experiment(
        signals,
        {
            (("z", "t1"), "s1"): ONE,
            (("z", "t2"), "s2"): ONE,
            (("dead", "t1"), "s1"): ONE,
            (("dead", "t2"), "s2"): ONE,
        },
    )
    assert blackwell_dominates(full, copy, zeta, prior)
