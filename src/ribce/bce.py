"""Obedience constraints, BCE membership, and optimization over the BCE set.

The BCE polytope of a game lives in outcome space: nonnegativity, one
prior-marginal equality per state, and one obedience row per ordered action
pair of each player.  It is never empty (a mediator replicating any Nash
equilibrium of the prior-averaged game is obedient), so every optimizer here
returns an exact optimum, read out by ``BcePolytope.optimum`` on the game's
``BaseGame.bce_polytope``: an outcome whose masses are the LP point's nonzero
int numerators over its denominator.

Membership of one outcome is decided on ints: ``is_bce`` and
``obedience_slack`` read each player's belief table (``Outcome.beliefs``),
whose row V[rec] gives every slack of ``rec`` at once.
"""

from dataclasses import dataclass, field
from math import lcm
from typing import NamedTuple, Optional

from . import lp as _lp
from .errors import InternalInvariantError, UnknownAction
from .games import BaseGame, Outcome, check_action, mass_parts, validate_outcome
from .rational import ONE, ZERO, Rat


def obedience_slack(game: BaseGame, outcome: Outcome, player, rec, dev):
    """Payoff advantage of obeying recommendation ``rec`` over deviating to
    ``dev``, weighted by the cells where ``rec`` is recommended.  Nonnegative
    for every ordered pair exactly when the outcome is a BCE."""
    check_action(game, player, rec)
    check_action(game, player, dev)
    return outcome.beliefs(game)[player].slack(rec, dev)


def obedience_row(game: BaseGame, player, rec, dev) -> _lp.IntRow:
    """Coefficients of the obedience slack of (rec -> dev) as a linear
    functional of the outcome, over the cells where ``rec`` is recommended:
    the difference of the two payoff rows (``BaseGame.payoff_rows``), over
    the payoff scale, in belief-cell order."""
    check_action(game, player, rec)
    check_action(game, player, dev)
    payoffs = game.payoff_rows[player]
    nums = {}
    for cell, a, b in zip(payoffs.keys[rec], payoffs.rows[rec], payoffs.rows[dev]):
        if a != b:
            nums[cell] = a - b
    return _lp.IntRow(nums, payoffs.scale)


class BceCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (player, rec, dev, slack) for the first violation

    def __bool__(self):
        return self.ok


def is_bce(game: BaseGame, outcome: Outcome) -> BceCheck:
    """True iff every obedience slack is >= 0; reports the first violation
    in (player, rec, dev) order."""
    tables = outcome.beliefs(game)
    for i in game.players:
        table = tables[i]
        for rec, vec in table.masses.items():
            if not any(vec):
                continue
            vals = table.values(rec)
            for dev, val in vals.items():
                if val > vals[rec]:
                    return BceCheck(False, (i, rec, dev, table.slack(rec, dev)))
    return BceCheck(True, None)


@dataclass
class BcePolytope:
    """LP skeleton of a game's BCE set: one validated ``program`` over the
    (profile, state) cells, with no objective, built once by ``of``.

    ``solve`` optimizes a linear objective over the set.  Phase 1 reads only
    the constraints, so the first ``solve`` runs it on ``program`` and keeps
    the feasible tableau (an ``lp.Polyhedron``) for every later objective;
    each answer carries ``program`` and is the one ``lp.solve`` gives for
    ``program`` under that objective.  That state is left out of ``repr``
    and ``==``, and assumes the program no longer changes.
    ``BaseGame.bce_polytope`` keeps one per game.
    """

    game: BaseGame
    program: _lp.LinearProgram
    _feasible: Optional[_lp.Polyhedron] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, game: BaseGame) -> "BcePolytope":
        variables = game.cell_tuple
        width = len(game.states)
        constraints = []
        for s, state in enumerate(game.states):
            coeffs = _lp.IntRow(dict.fromkeys(variables[s::width], 1), 1)
            constraints.append((coeffs, _lp.EQUAL, game.prior[state]))
        for i in game.players:
            for rec in game.actions[i]:
                for dev in game.actions[i]:
                    if rec != dev:
                        constraints.append((obedience_row(game, i, rec, dev), _lp.GREATER, ZERO))
        bounds = dict.fromkeys(variables, (ZERO, None))
        return cls(game=game, program=_lp.LinearProgram(variables, {}, "min", constraints, bounds))

    # The program's variables, rows and bounds.
    variables = property(lambda self: self.program.variables)
    constraints = property(lambda self: self.program.constraints)
    bounds = property(lambda self: self.program.bounds)

    def solve(self, objective: dict, sense: str = "min") -> _lp.LpSolution:
        if self._feasible is None:
            self._feasible = _lp.phase_one(self.program)
        return self._feasible.optimize(objective, sense)

    def optimum(self, objective: dict, sense: str = "min"):
        """(optimizer as an outcome, optimal value) of ``solve``."""
        sol = self.solve(objective, sense)
        if not sol.is_optimal:
            raise InternalInvariantError(f"BCE polytope should never be {sol.status}")
        return self.outcome_from_point(sol.point), sol.value

    def outcome_from_point(self, point) -> Outcome:
        """The validated outcome at an LP point over (at least) the polytope's
        variables: its nonzero int numerators, in variable order, over the
        point's denominator."""
        nums, den = _lp.int_parts(point)
        out = Outcome(p=_lp.IntRow({v: x for v in self.variables if (x := nums[v])}, den))
        validate_outcome(self.game, out)
        return out


def minimize_linear_over_bce(game: BaseGame, objective: dict):
    """Exact minimizer and value of a linear functional on the BCE set.

    ``objective`` maps (profile, state) cells to coefficients; missing cells
    count as zero.
    """
    poly = game.bce_polytope
    for key in objective:
        if key not in game.cell_index:
            raise UnknownAction(f"objective references unknown cell {key!r}")
    outcome, value = poly.optimum(objective)
    check = is_bce(game, outcome)
    if not check:
        raise InternalInvariantError(f"optimizer left the BCE set: {check.witness}")
    return outcome, value


def maximize_cell_over_bce(game: BaseGame, cell):
    return game.bce_polytope.optimum({cell: ONE}, "max")


def max_support_point(game: BaseGame) -> Outcome:
    """A BCE whose support contains the support of every BCE.

    Averages, with equal weights, one maximizer of each cell's probability;
    the average of feasible points supports the union of their supports and
    sits in the relative interior of the BCE set.
    """
    points = [maximize_cell_over_bce(game, cell)[0] for cell in game.bce_polytope.variables]
    weight = Rat(1, len(points))
    out = mix_outcomes((weight, point) for point in points)
    validate_outcome(game, out)
    check = is_bce(game, out)
    if not check:
        raise InternalInvariantError(f"max-support average left the BCE set: {check.witness}")
    return out


def mix_outcomes(pairs) -> Outcome:
    """Exact weighted sum of outcomes from (weight, outcome) pairs, on ints.
    Each outcome's int masses (``games.mass_parts``) are put over one common
    denominator, the lcm of weight denominator times outcome denominator
    over the pairs, and summed as ints.  Cells appear in first-seen order
    (among nonzero masses); cells with zero total mass are dropped.  The
    result's masses are an ``lp.IntRow`` over that denominator."""
    parts = [(weight, *mass_parts(outcome)) for weight, outcome in pairs]
    scales = [weight.denominator * den for weight, _, den in parts]
    common = lcm(*scales)
    acc = {}
    for (weight, nums, _), scale in zip(parts, scales):
        k = weight.numerator * (common // scale)
        for key, x in nums.items():
            if x:
                acc[key] = acc.get(key, 0) + k * x
    return Outcome(p=_lp.IntRow({key: x for key, x in acc.items() if x}, common))
