"""Shared game builders for the test suite.

The investment game: two investors pick project A, project B, or the market.
Coordinating on the better project pays 2, on the worse project 1, anything
else 0; the perturbed variant docks epsilon from whoever sits in the market.
The 3x3 coordination game has a unique payoff state, one pure and one mixed
Nash equilibrium, and a BCE set equal to the segment between them.
"""

import random
from itertools import product

from ribce.games import BaseGame, Outcome, make_outcome, validate_game
from ribce.rational import Rat

A, B, MKT = "fundA", "fundB", "market"


def investment_game(epsilon=0):
    eps = Rat(epsilon)
    players = ("ann", "bob")
    states = ("thetaA", "thetaB")
    actions = {i: (A, B, MKT) for i in players}
    better = {"thetaA": A, "thetaB": B}

    def payoff(own, other, state):
        if own == MKT:
            return -eps
        if own == other:
            return Rat(2) if better[state] == own else Rat(1)
        return Rat(0)

    utilities = {}
    for k, i in enumerate(players):
        table = {}
        for profile in product(actions[players[0]], actions[players[1]]):
            own, other = profile[k], profile[1 - k]
            for state in states:
                table[(profile, state)] = payoff(own, other, state)
        utilities[i] = table
    game = BaseGame(
        players=players,
        states=states,
        prior={s: Rat(1, 2) for s in states},
        actions=actions,
        utilities=utilities,
    )
    validate_game(game)
    return game


def first_best_outcome(game):
    return make_outcome(
        game,
        {((A, A), "thetaA"): Rat(1, 2), ((B, B), "thetaB"): Rat(1, 2)},
    )


def all_market_outcome(game):
    return make_outcome(
        game,
        {((MKT, MKT), "thetaA"): Rat(1, 2), ((MKT, MKT), "thetaB"): Rat(1, 2)},
    )


def inferior_coordination_outcome(game):
    """Both always fund the project the state disfavors."""
    return make_outcome(
        game,
        {((B, B), "thetaA"): Rat(1, 2), ((A, A), "thetaB"): Rat(1, 2)},
    )


def footnote_worst_gross_outcome(game):
    """Inferior-project coordination w.p. 3/5, symmetric miscoordination
    w.p. 1/5 + 1/5, conditional on each state."""
    p = {}
    for state, worse in (("thetaA", B), ("thetaB", A)):
        other = A if worse == B else B
        p[((worse, worse), state)] = Rat(3, 10)
        p[((A, B), state)] = p.get(((A, B), state), Rat(0)) + Rat(1, 10)
        p[((B, A), state)] = p.get(((B, A), state), Rat(0)) + Rat(1, 10)
    return make_outcome(game, p)


def coordination_mixture_outcome(game, market_weight):
    """Perfect coordination: with ``market_weight`` both sit in the market,
    otherwise both fund the better project."""
    w = Rat(market_weight)
    p = {}
    for state, best in (("thetaA", A), ("thetaB", B)):
        if w:
            p[((MKT, MKT), state)] = w / 2
        if w != 1:
            p[((best, best), state)] = (1 - w) / 2
    return make_outcome(game, p)


def coordination_game_3x3():
    players = ("p1", "p2")
    acts = ("a", "b", "c")
    matrix = {
        ("a", "a"): (8, 8),
        ("a", "b"): (3, 7),
        ("a", "c"): (2, 6),
        ("b", "a"): (7, 3),
        ("b", "b"): (5, 1),
        ("b", "c"): (0, 5),
        ("c", "a"): (6, 2),
        ("c", "b"): (1, 4),
        ("c", "c"): (4, 0),
    }
    utilities = {i: {} for i in players}
    for profile, (u1, u2) in matrix.items():
        utilities["p1"][(profile, "s")] = Rat(u1)
        utilities["p2"][(profile, "s")] = Rat(u2)
    game = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: acts for i in players},
        utilities=utilities,
    )
    validate_game(game)
    return game


def coordination_3x3_segment_point(t):
    """p^t = t*(pure Nash at (a,a)) + (1-t)*(mixed Nash on {b,c}^2)."""
    t = Rat(t)
    p = {}
    if t:
        p[(("a", "a"), "s")] = t
    if t != 1:
        for x in ("b", "c"):
            for y in ("b", "c"):
                p[((x, y), "s")] = (1 - t) / 4
    return Outcome(p=p)


def collinear_beliefs_game():
    """One decision maker, two equally likely states, three actions: ``a``
    pays in t1, ``b`` in t2 and ``c`` pays 1/2 in both."""
    game = BaseGame(
        players=("dm",),
        states=("t1", "t2"),
        prior={"t1": Rat(1, 2), "t2": Rat(1, 2)},
        actions={"dm": ("a", "b", "c")},
        utilities={
            "dm": {
                (("a",), "t1"): Rat(1),
                (("a",), "t2"): Rat(0),
                (("b",), "t1"): Rat(0),
                (("b",), "t2"): Rat(1),
                (("c",), "t1"): Rat(1, 2),
                (("c",), "t2"): Rat(1, 2),
            }
        },
    )
    validate_game(game)
    return game


def collinear_beliefs_outcome():
    """A BCE of ``collinear_beliefs_game`` with three distinct posteriors on
    a line: (3/4, 1/4) on ``a``, (1/4, 3/4) on ``b`` and their midpoint on
    ``c``, where every action ties."""
    return Outcome(
        p={
            (("a",), "t1"): Rat(3, 16),
            (("a",), "t2"): Rat(1, 16),
            (("b",), "t1"): Rat(1, 16),
            (("b",), "t2"): Rat(3, 16),
            (("c",), "t1"): Rat(1, 4),
            (("c",), "t2"): Rat(1, 4),
        }
    )


def matching_pennies():
    players = ("p1", "p2")
    acts = ("H", "T")
    utilities = {i: {} for i in players}
    for profile in product(acts, acts):
        match = profile[0] == profile[1]
        utilities["p1"][(profile, "s")] = Rat(1) if match else Rat(-1)
        utilities["p2"][(profile, "s")] = Rat(-1) if match else Rat(1)
    game = BaseGame(
        players=players,
        states=("s",),
        prior={"s": Rat(1)},
        actions={i: acts for i in players},
        utilities=utilities,
    )
    validate_game(game)
    return game


def random_game(rng: random.Random, n_players=2, n_actions=(2, 3), n_states=2, span=4):
    """Random rational-payoff game: utilities are integers/denominator pairs
    drawn from a small grid, prior is a random full-support rational vector."""
    players = tuple(f"p{k + 1}" for k in range(n_players))
    states = tuple(f"s{k + 1}" for k in range(n_states))
    lo, hi = (n_actions, n_actions) if isinstance(n_actions, int) else n_actions
    actions = {
        i: tuple(chr(ord("a") + j) for j in range(rng.randint(lo, hi))) for i in players
    }
    weights = [rng.randint(1, 5) for _ in states]
    total = sum(weights)
    prior = {s: Rat(w, total) for s, w in zip(states, weights)}
    utilities = {}
    for i in players:
        table = {}
        for profile in product(*(actions[j] for j in players)):
            for state in states:
                table[(profile, state)] = Rat(rng.randint(-span, span), rng.choice((1, 2)))
        utilities[i] = table
    game = BaseGame(
        players=players, states=states, prior=prior, actions=actions, utilities=utilities
    )
    validate_game(game)
    return game


def random_symmetric_binary_game(rng: random.Random, n_players=2, n_states=2, span=4):
    """Symmetric binary-action game: utilities depend on own action, the count
    of opponents playing action "y", and the state."""
    players = tuple(f"p{k + 1}" for k in range(n_players))
    states = tuple(f"s{k + 1}" for k in range(n_states))
    actions = {i: ("x", "y") for i in players}
    weights = [rng.randint(1, 5) for _ in states]
    total = sum(weights)
    prior = {s: Rat(w, total) for s, w in zip(states, weights)}
    table_by_count = {
        (own, m, state): Rat(rng.randint(-span, span), rng.choice((1, 2)))
        for own in ("x", "y")
        for m in range(n_players)
        for state in states
    }
    utilities = {}
    for k, i in enumerate(players):
        table = {}
        for profile in product(*(("x", "y"),) * n_players):
            for state in states:
                m = sum(1 for j, a in enumerate(profile) if j != k and a == "y")
                table[(profile, state)] = table_by_count[(profile[k], m, state)]
        utilities[i] = table
    game = BaseGame(
        players=players, states=states, prior=prior, actions=actions, utilities=utilities
    )
    validate_game(game)
    return game
