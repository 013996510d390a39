"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, out_dir)`` draws every game, outcome and parameter
from ``random.Random(f"{workload}:{seed}")``, writes games and outcomes as
JSON through ``ribce.io.game_to_dict`` / ``outcome_to_dict`` into
``out_dir``, and writes ``jobs.json``: the ordered job list, each job with
its command line (or library call) and the facts its output is checked
against.

Draws are stratified: each workload has a fixed list of job slots (sizes,
player counts, game shapes, parameter bands) and the seed fills in payoffs,
priors and parameters inside each slot.  Job costs are heavy-tailed in the
parameters (see the slot comments), so the bands are what keeps the work of
a pass, and the median job, nearly the same at every seed.

Run as a script, it is the benchmark's set-up step:

    python3 perfbench/workloads.py --workload small-games --seed 0 --out DIR
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ribce.bce import minimize_linear_over_bce  # noqa: E402
from ribce.games import BaseGame, make_outcome, validate_game  # noqa: E402
from ribce.io import game_to_dict, outcome_to_dict  # noqa: E402
from ribce.rational import Rat  # noqa: E402
from ribce.regime import RegimeParams, build_regime_game  # noqa: E402

WORKLOADS = ("regime-symmetric", "small-games", "exact-vertices")


def _q(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _rat(value):
    return Rat(value.numerator, value.denominator)


def _prior(rng, count):
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


class _Writer:
    """Collects jobs and writes their input files under one directory."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.jobs = []

    def write(self, name, payload):
        with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return name

    def game(self, game, outcome=None):
        """Write a game (and an outcome); returns the file names."""
        tag = f"{len(self.jobs):03d}"
        names = [self.write(f"game{tag}.json", game_to_dict(game))]
        if outcome is not None:
            names.append(self.write(f"outcome{tag}.json", outcome_to_dict(outcome)))
        return names

    def job(self, kind, argv=None, call=None, check=None):
        self.jobs.append(
            {
                "id": f"{len(self.jobs):03d}-{kind}",
                "kind": kind,
                "argv": argv,
                "call": call,
                "check": check or {},
            }
        )
        return self.jobs[-1]["id"]


# ---------------------------------------------------------------------------
# Games and outcomes (payoffs drawn as Fractions, converted once to Rat)


def _game(players, states, prior, actions, utilities):
    game = BaseGame(
        players=tuple(players),
        states=tuple(states),
        prior={s: _rat(q) for s, q in zip(states, prior)},
        actions={i: tuple(actions[i]) for i in players},
        utilities={i: {c: _rat(v) for c, v in t.items()} for i, t in utilities.items()},
    )
    validate_game(game)
    return game


def _outcome(game, entries):
    return make_outcome(game, {cell: _rat(q) for cell, q in entries.items() if q})


def _random_utilities(rng, actions, states, span=4):
    return {
        i: {
            (profile, s): Fraction(rng.randint(-span, span), rng.choice((1, 2)))
            for profile in product(actions["p1"], actions["p2"])
            for s in states
        }
        for i in ("p1", "p2")
    }


def random_game(rng, shape):
    """Asymmetric two-player game of ``shape = (|A1|, |A2|, |states|)``."""
    n1, n2, ns = shape
    states = tuple(f"s{k + 1}" for k in range(ns))
    actions = {"p1": tuple("abc"[:n1]), "p2": tuple("xyz"[:n2])}
    utilities = _random_utilities(rng, actions, states)
    return _game(("p1", "p2"), states, _prior(rng, ns), actions, utilities)


def weak_nash_game(rng, shape):
    """Random game with, per state, a drawn profile that is a weak Nash
    equilibrium of that state's complete-information game: each player's
    payoff there is raised to tie her best deviation.  Returns the game and
    the outcome playing those profiles."""
    n1, n2, ns = shape
    states = tuple(f"s{k + 1}" for k in range(ns))
    actions = {"p1": tuple("abc"[:n1]), "p2": tuple("xyz"[:n2])}
    utilities = _random_utilities(rng, actions, states)
    prior = _prior(rng, ns)
    chosen = {}
    for s in states:
        profile = (rng.choice(actions["p1"]), rng.choice(actions["p2"]))
        chosen[s] = profile
        for k, i in enumerate(("p1", "p2")):
            utilities[i][(profile, s)] = max(
                utilities[i][(profile[:k] + (a,) + profile[k + 1:], s)] for a in actions[i]
            )
    game = _game(("p1", "p2"), states, prior, actions, utilities)
    return game, _outcome(game, {(chosen[s], s): q for s, q in zip(states, prior)})


def investment_game(epsilon, better=Fraction(2), prior_a=Fraction(1, 2)):
    """The paper's investment game: two investors fund project A, project B
    or sit in the market.  Matching on the project the state favours pays
    ``better``, matching on the other pays 1, anything else 0, and the
    market pays ``-epsilon``."""
    players = ("ann", "bob")
    states = ("thetaA", "thetaB")
    acts = ("fundA", "fundB", "market")
    favoured = {"thetaA": "fundA", "thetaB": "fundB"}
    utilities = {i: {} for i in players}
    for k, i in enumerate(players):
        for profile in product(acts, acts):
            own, other = profile[k], profile[1 - k]
            for s in states:
                if own == "market":
                    val = -epsilon
                elif own == other:
                    val = better if favoured[s] == own else Fraction(1)
                else:
                    val = Fraction(0)
                utilities[i][(profile, s)] = val
    return _game(players, states, (prior_a, 1 - prior_a), {i: acts for i in players}, utilities)


def investment_mixed_nash(game, better=Fraction(2), prior_a=Fraction(1, 2)):
    """In each state both investors mix the two projects, funding the
    favoured one with probability 1/(1 + better): the state's mixed Nash
    equilibrium."""
    q = 1 / (1 + better)
    p = {}
    for s, good, bad, mass in (("thetaA", "fundA", "fundB", prior_a),
                               ("thetaB", "fundB", "fundA", 1 - prior_a)):
        mix = {good: q, bad: 1 - q}
        for a1, q1 in mix.items():
            for a2, q2 in mix.items():
                p[((a1, a2), s)] = mass * q1 * q2
    return _outcome(game, p)


def investment_bce(rng, game, coordination):
    """One of the paper's investment-game BCEs: coordination on the
    favoured project mixed (with a drawn weight) with both sitting in the
    market, which is a BCE when the market is free, or the footnote's worst
    gross outcome."""
    if coordination:
        w = Fraction(rng.randint(1, 5), 6)
        p = {}
        for s, best in (("thetaA", "fundA"), ("thetaB", "fundB")):
            p[(("market", "market"), s)] = w / 2
            p[((best, best), s)] = (1 - w) / 2
        return _outcome(game, p)
    p = {}
    for s, worse in (("thetaA", "fundB"), ("thetaB", "fundA")):
        p[((worse, worse), s)] = Fraction(3, 10)
        p[(("fundA", "fundB"), s)] = Fraction(1, 10)
        p[(("fundB", "fundA"), s)] = Fraction(1, 10)
    return _outcome(game, p)


def coordination_game_3x3():
    """One state, a pure Nash equilibrium at (a, a), a mixed one on {b, c}^2,
    and a BCE set equal to the segment between them.  Returns the game and
    its mixed equilibrium."""
    matrix = {
        ("a", "a"): (8, 8), ("a", "b"): (3, 7), ("a", "c"): (2, 6),
        ("b", "a"): (7, 3), ("b", "b"): (5, 1), ("b", "c"): (0, 5),
        ("c", "a"): (6, 2), ("c", "b"): (1, 4), ("c", "c"): (4, 0),
    }
    utilities = {"p1": {}, "p2": {}}
    for profile, (u1, u2) in matrix.items():
        utilities["p1"][(profile, "s")] = Fraction(u1)
        utilities["p2"][(profile, "s")] = Fraction(u2)
    acts = ("a", "b", "c")
    game = _game(("p1", "p2"), ("s",), (Fraction(1),), {"p1": acts, "p2": acts}, utilities)
    mixed = {((x, y), "s"): Fraction(1, 4) for x in "bc" for y in "bc"}
    return game, _outcome(game, mixed)


def matching_pennies():
    """Returns the game and its mixed equilibrium."""
    utilities = {"p1": {}, "p2": {}}
    for profile in product("HT", "HT"):
        match = 1 if profile[0] == profile[1] else -1
        utilities["p1"][(profile, "s")] = Fraction(match)
        utilities["p2"][(profile, "s")] = Fraction(-match)
    acts = ("H", "T")
    game = _game(("p1", "p2"), ("s",), (Fraction(1),), {"p1": acts, "p2": acts}, utilities)
    return game, _outcome(game, {(cell, "s"): Fraction(1, 4) for cell in product("HT", "HT")})


def symmetric_binary_game(rng, n_players, n_states=2, span=4):
    """Symmetric binary-action game: a player's payoff depends on her action,
    the number of opponents playing "y", and the state."""
    players = tuple(f"p{k + 1}" for k in range(n_players))
    states = tuple(f"s{k + 1}" for k in range(n_states))
    by_count = {
        (own, m, s): Fraction(rng.randint(-span, span), rng.choice((1, 2)))
        for own in "xy"
        for m in range(n_players)
        for s in states
    }
    utilities = {i: {} for i in players}
    for k, i in enumerate(players):
        for profile in product("xy", repeat=n_players):
            m = sum(1 for j, a in enumerate(profile) if j != k and a == "y")
            for s in states:
                utilities[i][(profile, s)] = by_count[(profile[k], m, s)]
    actions = {i: ("x", "y") for i in players}
    return _game(players, states, _prior(rng, n_states), actions, utilities)


def _vertex(rng, game):
    objective = {}
    for cell in game.cells():
        c = rng.randint(-6, 6)
        if c:
            objective[cell] = Rat(c)
    outcome, _ = minimize_linear_over_bce(game, objective)
    return outcome


def mixed_vertex_outcome(rng, game):
    """A BCE: the midpoint of two obedience-polytope vertices, each the
    minimizer of a seeded linear objective.  Vertices are often pure Nash
    outcomes, which would send the randomized VCE check into a density run
    for some seeds and not others; their midpoint seldom is."""
    a, b = _vertex(rng, game), _vertex(rng, game)
    half = Fraction(1, 2)
    return _outcome(game, {c: half * Fraction(a.mass(*c)) + half * Fraction(b.mass(*c))
                           for c in game.cells()})


# ---------------------------------------------------------------------------
# regime-symmetric


def _regime_params(rng, n, n_states, x=None):
    """(thresholds, prior, k, x) for an n-investor regime game; ``x`` is
    drawn unless given."""
    thresholds = sorted(rng.sample(range(2, n - 1), n_states))
    prior = _prior(rng, n_states)
    k = Fraction(rng.randint(5, 9), 10)
    if x is None:
        x = Fraction(rng.randint(2, 4), 20)
    return thresholds, prior, k, x


def _regime_argv(n, thresholds, prior, k, x, full):
    argv = [
        "regime", "--n", str(n), "--k", _q(k), "--x", _q(x),
        "--states", ",".join(str(t) for t in thresholds),
        "--prior", ",".join(_q(q) for q in prior),
    ]
    return argv + ["--full-check"] if full else argv


def _regime_check(n, thresholds, prior, k, x):
    return {"n": n, "k": _q(k), "x": _q(x), "thresholds": thresholds,
            "prior": [_q(q) for q in prior]}


# The externality x sets the pivot count of the epigraph LP: at n = 6 about
# 40 pivots at x = 1/5 and 550 at x = 6.  So x is kept in [1/10, 1/5], and
# each full check gets its own x from that band, and k is drawn from
# [1/2, 9/10].  Larger games are left out: a full check at n = 7 takes
# 1.5-3 s, at n = 8 4-14 s, and the gap test at n = 6 3 s, and n <= 6 runs
# the same code.  A job's cost still moves by up to 2x with the drawn
# prior, thresholds and payoffs, so every heavy kind has several jobs,
# which keeps the work of a pass within a few percent from seed to seed.
FULL_CHECK_X = tuple(Fraction(x, 20) for x in (2, 3, 4, 2, 3, 4))
FULL_CHECK_N = 6
GAP_REGIME_SLOTS = ((5, 1), (5, 2), (5, 1), (5, 2))  # (n, number of threshold states)
GAP_RANDOM_PLAYERS = (3, 4, 3, 4)
# Count-space jobs: cheap solves at sizes no profile space reaches.  They
# are over two thirds of the jobs, so the median job is one of them.  All have
# two threshold states and take x in turn from the full checks' values, so
# their cost grows smoothly with n and the jobs around the median cost
# about the same; cycling one to three states made neighbouring jobs
# differ by up to 4x.
COUNT_SPACE_SIZES = tuple(range(20, 201, 4))
COUNT_SPACE_STATES = 2


def regime_symmetric(rng, w):
    n = FULL_CHECK_N
    for x in FULL_CHECK_X:
        params = _regime_params(rng, n, 2, x)
        w.job("regime_full", argv=_regime_argv(n, *params, full=True),
              check=_regime_check(n, *params))
    for n, ns in GAP_REGIME_SLOTS:
        thresholds, prior, k, x = _regime_params(rng, n, ns)
        params = RegimeParams(n=n, k=_rat(k), x=_rat(x), thresholds=thresholds,
                              prior={t: _rat(q) for t, q in zip(thresholds, prior)})
        (name,) = w.game(build_regime_game(params))
        w.job("gap_regime", call={"game": name},
              check=_regime_check(n, thresholds, prior, k, x))
    for n in GAP_RANDOM_PLAYERS:
        (name,) = w.game(symmetric_binary_game(rng, n))
        # The gap verdict is checked against the two worst cases that the
        # welfare job right after it reports for the same game.
        gap_id = w.job("gap_random", call={"game": name})
        w.job("welfare", argv=["welfare", name], check={"gap_of": gap_id})
    for slot, base in enumerate(COUNT_SPACE_SIZES):
        n = base + rng.randint(0, 3)
        x = FULL_CHECK_X[slot % len(FULL_CHECK_X)]
        params = _regime_params(rng, n, COUNT_SPACE_STATES, x)
        w.job("regime_count", argv=_regime_argv(n, *params, full=False),
              check=_regime_check(n, *params))


# ---------------------------------------------------------------------------
# small-games

# (actions of p1, actions of p2, states): 8 or 12 cells, with the number of
# games of each.  A game's job times move by a third (coefficient of
# variation) with its payoffs, so the batch has many cheap games rather
# than a few costly ones: a random game with three actions for one player
# costs 0.4 s in analyze and vce, twice a (2, 2, 3) game, and random
# 18-cell games range over 3x.  The investment games are the three-action,
# 18-cell case.
SMALL_GAME_SHAPES = (((2, 2, 2), 36), ((2, 2, 3), 36))
INVESTMENT_VARIANTS = 2
DENSITY_RETRIES = "8"


def small_games(rng, w):
    games = []
    for shape, count in SMALL_GAME_SHAPES:
        for _ in range(count):
            game = random_game(rng, shape)
            games.append((game, mixed_vertex_outcome(rng, game)))
    for variant in range(INVESTMENT_VARIANTS):
        # The first variant is the paper's unperturbed game with a
        # coordination outcome, the second a perturbed one with the
        # footnote's outcome.
        epsilon = Fraction(rng.randint(1, 4), rng.choice((5, 10, 20))) if variant else Fraction(0)
        game = investment_game(epsilon)
        games.append((game, investment_bce(rng, game, coordination=not variant)))
    for game, outcome in games:
        g, o = w.game(game, outcome)
        seed = str(rng.randint(0, 999))
        w.job("analyze", argv=["analyze", g, o, "--seed", seed, "--retries", DENSITY_RETRIES])
        w.job("check_outcome", argv=["check-outcome", g, o])
        # Three perturbations per game: the perturb jobs are then the
        # middle 43% of the job times, between check-outcome and canonical
        # (2.5 ms) and vce and analyze, so the median job is a perturb job
        # whatever the seed.  With one, the median fell between canonical
        # and perturb (5 ms) jobs.
        for denominator in (10, 100, 1000):
            epsilon = _q(Fraction(1, denominator))
            w.job("perturb", argv=["perturb", g, o, "--epsilon", epsilon],
                  check={"epsilon": epsilon, "game": g})
        w.job("canonical", argv=["canonical", g, o])
        w.job("vce", argv=["vce", g, o, "--mode", "randomized", "--seed", seed,
                           "--retries", DENSITY_RETRIES])


# ---------------------------------------------------------------------------
# exact-vertices

# Unperturbed investment variants (a drawn payoff for the favoured project
# and a drawn prior) cost 0.17-0.21 s in exact density and 0.29-0.35 s in
# exact VCE, whatever the draw.  They are the middle of the job-time
# distribution, so the median job is stable.  Perturbed variants are the
# costly end: with ε > 0 the sBCE set is dense, and the exact VCE check of
# the mixed equilibrium runs exact density too.  Their cost triples with the
# payoff and prior, so only ε is drawn there.
EXACT_UNPERTURBED_VARIANTS = 6
EXACT_PERTURBED_VARIANTS = 1
EXACT_RANDOM_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 2))


def exact_vertices(rng, w):
    def add(game, outcome, density=None, vce=None):
        g, o = w.game(game, outcome)
        w.job("density_exact", argv=["density", g, "--mode", "exact"], check={"verdict": density})
        w.job("vce_exact", argv=["vce", g, o, "--mode", "exact"], check={"verdict": vce})

    add(*coordination_game_3x3(), density="nowhere_dense", vce="is_vce")
    add(*matching_pennies(), density="dense")
    for variant in range(EXACT_UNPERTURBED_VARIANTS):
        # The first variant is the paper's game.
        better = Fraction(rng.randint(4, 6), 2) if variant else Fraction(2)
        prior_a = Fraction(rng.randint(1, 4), 5) if variant else Fraction(1, 2)
        game = investment_game(Fraction(0), better, prior_a)
        add(game, investment_mixed_nash(game, better, prior_a),
            density=None if variant else "nowhere_dense")
    for _ in range(EXACT_PERTURBED_VARIANTS):
        game = investment_game(Fraction(rng.randint(1, 4), 20))
        add(game, investment_mixed_nash(game), density="dense", vce="is_vce")
    for shape in EXACT_RANDOM_SHAPES:
        add(*weak_nash_game(rng, shape))


BUILDERS = {
    "regime-symmetric": regime_symmetric,
    "small-games": small_games,
    "exact-vertices": exact_vertices,
}


def build(workload, seed, out_dir):
    """Write the workload's inputs and ``jobs.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    writer = _Writer(out_dir)
    BUILDERS[workload](random.Random(f"{workload}:{seed}"), writer)
    manifest = {"workload": workload, "seed": seed, "jobs": writer.jobs}
    writer.write("jobs.json", manifest)
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    build(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
