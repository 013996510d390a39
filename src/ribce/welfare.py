"""Per-outcome value intervals and worst-case welfare under both knowledge
regimes.

Exogenous information hands players the gross value of an outcome; acquired
information pins each player between the uninformed value (ignore every
recommendation, play the best constant action) and the gross value, both
read off the outcome's own belief tables (``Outcome.beliefs``), which its
obedience check reads too.  The two worst cases over the game's polytope
(``BaseGame.bce_polytope``) are a plain LP and an epigraph LP; the gap
between them is what separates the two regimes for a planner.
"""

from dataclasses import dataclass
from math import lcm

from . import lp as _lp
from .bce import is_bce, minimize_linear_over_bce
from .errors import (
    GameNotSymmetric,
    InternalInvariantError,
    InvalidParams,
    NotABce,
    NotBinaryAction,
)
from .games import BaseGame, Outcome, deviation_row, is_symmetric_game
from .rational import ONE, ZERO, Rat
from .regime import EPIGRAPH, count_space

RATIONAL_INATTENTION = "rational_inattention"
ARBITRARY_TECHNOLOGY = "arbitrary_technology"

POINT_ONLY = "point_only"
HALF_OPEN = "half_open"
CLOSED = "closed"


@dataclass(frozen=True)
class PlayerInterval:
    lower: object  # uninformed value
    upper: object  # gross value
    attainability: str


@dataclass(frozen=True)
class ValueInterval:
    mode: str
    per_player: dict  # player -> PlayerInterval


@dataclass(frozen=True)
class WelfareReport:
    w_exogenous: object
    exogenous_minimizer: Outcome
    w_inattention: object
    inattention_minimizer: Outcome

    @property
    def gap(self):
        return self.w_exogenous - self.w_inattention


def value_interval(game: BaseGame, outcome: Outcome, mode=RATIONAL_INATTENTION) -> ValueInterval:
    """Attainable net payoffs per player from this equilibrium outcome.

    Requires a BCE; an unknown ``mode`` raises ``InvalidParams``.  Under
    flexible costly acquisition the interval is [uninformed, gross) unless
    the endpoints coincide; if arbitrary (possibly non-monotone) technologies
    are allowed, the interval closes.
    """
    if mode not in (RATIONAL_INATTENTION, ARBITRARY_TECHNOLOGY):
        raise InvalidParams(f"unknown mode {mode!r}")
    check = is_bce(game, outcome)
    if not check:
        raise NotABce(f"value intervals require obedience; violated at {check.witness}")
    tables = outcome.beliefs(game)
    per_player = {}
    for i in game.players:
        lo, _ = tables[i].uninformed()
        hi = tables[i].gross()
        if mode == ARBITRARY_TECHNOLOGY:
            kind = CLOSED
        else:
            kind = POINT_ONLY if lo == hi else HALF_OPEN
        per_player[i] = PlayerInterval(lower=lo, upper=hi, attainability=kind)
    return ValueInterval(mode=mode, per_player=per_player)


def gross_objective(game: BaseGame) -> _lp.IntRow:
    """Total gross value as a linear functional of the outcome: each cell's
    sum of every player's payoff there, zero cells left out, read off the
    payoff rows (``BaseGame.payoff_rows``) as ints over the lcm of the
    players' payoff scales.  The objective of ``worst_case_exogenous``."""
    payoffs = game.payoff_rows
    den = lcm(*[p.scale for p in payoffs.values()])
    cells = game.cell_tuple
    totals = [0] * len(cells)
    for k, i in enumerate(game.players):
        rows, index, up = payoffs[i].rows, payoffs[i].index, den // payoffs[i].scale
        totals = [t + up * rows[cell[0][k]][c] for t, cell, c in zip(totals, cells, index)]
    return _lp.IntRow({cell: t for cell, t in zip(cells, totals) if t}, den)


def worst_case_exogenous(game: BaseGame):
    """min over the BCE set of total gross value; returns (value, minimizer)."""
    outcome, value = minimize_linear_over_bce(game, gross_objective(game))
    return value, outcome


def epigraph_lp(game: BaseGame) -> _lp.LinearProgram:
    """The program of ``worst_case_rational_inattention``: min sum_i t_i over
    the game's BCE polytope, its rows first, then one row
    t_i >= ``deviation_row(game, i, a)`` per player i and action a, in
    player and action order, with each t_i = ("t", i) free."""
    poly = game.bce_polytope
    constraints = list(poly.constraints)
    for i in game.players:
        for a in game.actions[i]:
            row = deviation_row(game, i, a)
            nums = {cell: -x for cell, x in row.nums.items()}
            nums[("t", i)] = row.den
            constraints.append((_lp.IntRow(nums, row.den), _lp.GREATER, ZERO))
    return _lp.LinearProgram(
        variables=poly.variables + tuple(("t", i) for i in game.players),
        objective={("t", i): ONE for i in game.players},
        sense="min",
        constraints=constraints,
        bounds=dict(poly.bounds),
    )


def worst_case_rational_inattention(game: BaseGame):
    """min over the BCE set of total uninformed value, via epigraph variables
    t_i >= every constant-action deviation payoff (``epigraph_lp``); returns
    (value, minimizer)."""
    sol = _lp.solve(epigraph_lp(game))
    if not sol.is_optimal:
        raise InternalInvariantError(f"uninformed-welfare LP is {sol.status}")
    outcome = game.bce_polytope.outcome_from_point(sol.point)
    check = is_bce(game, outcome)
    if not check:
        raise InternalInvariantError(f"optimizer left the BCE set: {check.witness}")
    # Tightness: at the optimum each t_i equals the max deviation payoff.
    tables = outcome.beliefs(game)
    total = sum((tables[i].uninformed()[0] for i in game.players), ZERO)
    if total != sol.value:
        raise InternalInvariantError("epigraph variables not tight at optimum")
    return sol.value, outcome


def welfare_report(game: BaseGame) -> WelfareReport:
    w_ex, p_ex = worst_case_exogenous(game)
    w_ri, p_ri = worst_case_rational_inattention(game)
    if w_ri > w_ex:
        raise InternalInvariantError("uninformed worst case exceeded gross worst case")
    return WelfareReport(
        w_exogenous=w_ex,
        exogenous_minimizer=p_ex,
        w_inattention=w_ri,
        inattention_minimizer=p_ri,
    )


def binary_symmetric_gap_test(game: BaseGame):
    """Decides w_inattention < w_exogenous for symmetric binary-action games
    without computing either worst case.

    Solves the relaxed program: minimize total uninformed value over all
    symmetric outcomes, ignoring obedience.  The gap is strict iff every
    relaxed minimizer supports both actions and gives each recommendation a
    strictly unique best response; both "for all minimizers" conditions
    reduce to strict positivity of per-quantity minima over the optimal face.

    Symmetric outcomes are kernels over the count of players taking the
    second action, so every program runs in count space (``regime.count_space``)
    on each state's corner counts (at most n+1; the others are averages of
    their neighbours and change none of the five values) and one epigraph
    variable.  One scan of the table reads the payoffs at one representative
    profile per (own action, opponent count, state) and finds the change
    points the corners come from.  The four per-action minima share the
    optimal face's phase 1.

    Returns (gap_strict, diagnostic dict).
    """
    if not is_symmetric_game(game):
        raise GameNotSymmetric("gap test requires a symmetric game")
    if any(len(game.actions[i]) != 2 for i in game.players):
        raise NotBinaryAction("gap test requires binary actions")

    # Symmetric outcomes make every player's conditions identical; the first
    # player stands for them all.
    i = game.players[0]
    n = len(game.players)
    actions = game.actions[i]

    def payoff(own, opp, state):
        profile = (actions[own],) + (actions[1],) * opp + (actions[0],) * (n - 1 - opp)
        return game.u(i, profile, state)

    # One scan of the table: the payoff pair (action 0, action 1) at each
    # opponent count and state, and the counts where it changes.
    pairs, changes = {}, {}
    for state in game.states:
        row = [(payoff(0, opp, state), payoff(1, opp, state)) for opp in range(n)]
        pairs[state] = row
        changes[state] = [opp for opp in range(1, n) if row[opp] != row[opp - 1]]
    space = count_space(
        n, game.states, game.prior, lambda own, opp, state: pairs[state][opp][own], changes
    )
    variables = space.variables + (EPIGRAPH,)
    constraints = space.constraints + space.epigraph()
    uninformed = {EPIGRAPH: Rat(n)}

    def minimize(feasible, objective, name):
        sol = feasible.optimize(objective)
        if not sol.is_optimal:
            raise InternalInvariantError(f"{name} LP is {sol.status}")
        return sol.value

    symmetric = _lp.Polyhedron(_lp.LinearProgram(variables, {}, "min", constraints, space.bounds))
    relaxed = minimize(symmetric, uninformed, "relaxed symmetric")
    face_rows = constraints + [(uninformed, _lp.EQUAL, relaxed)]
    face = _lp.Polyhedron(_lp.LinearProgram(variables, {}, "min", face_rows, space.bounds))

    diagnostics = {"relaxed_value": relaxed, "per_action": {}}
    gap = True
    for rec in (0, 1):
        min_mass = minimize(face, space.mass(rec), "optimal-face")
        min_slack = minimize(face, space.obedience(rec), "optimal-face")
        diagnostics["per_action"][actions[rec]] = {
            "min_probability": min_mass,
            "min_strict_br_slack": min_slack,
        }
        if min_mass <= 0 or min_slack <= 0:
            gap = False
    return gap, diagnostics
