"""Obedience constraints, BCE membership, and optimization over the BCE set.

The BCE polytope of a game lives in outcome space: nonnegativity, one
prior-marginal equality per state, and one obedience row per ordered action
pair of each player.  It is never empty (a mediator replicating any Nash
equilibrium of the prior-averaged game is obedient), so every optimizer here
returns an exact optimum with its minimizer.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import lp as _lp
from .errors import InternalInvariantError, UnknownAction
from .games import BaseGame, Outcome, check_action, validate_outcome
from .rational import ONE, ZERO, Rat


def obedience_slack(game: BaseGame, outcome: Outcome, player, rec, dev):
    """Payoff advantage of obeying recommendation ``rec`` over deviating to
    ``dev``, weighted by the cells where ``rec`` is recommended.  Nonnegative
    for every ordered pair exactly when the outcome is a BCE."""
    check_action(game, player, rec)
    check_action(game, player, dev)
    k = game.player_index(player)
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q and profile[k] == rec:
            swapped = game.replace_action(profile, player, dev)
            total += (game.u(player, profile, state) - game.u(player, swapped, state)) * q
    return total


def obedience_row(game: BaseGame, player, rec, dev) -> dict:
    """Coefficients of the obedience slack of (rec -> dev) as a linear
    functional of the outcome, over the cells where ``rec`` is recommended."""
    coeffs = {}
    for opp in game.opponent_profiles(player):
        profile = game.insert_action(player, rec, opp)
        swapped = game.insert_action(player, dev, opp)
        for state in game.states:
            diff = game.u(player, profile, state) - game.u(player, swapped, state)
            if diff:
                coeffs[(profile, state)] = diff
    return coeffs


class BceCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (player, rec, dev, slack) for the first violation

    def __bool__(self):
        return self.ok


def is_bce(game: BaseGame, outcome: Outcome) -> BceCheck:
    """True iff every obedience slack is >= 0; reports the first violation."""
    for i in game.players:
        for rec in game.actions[i]:
            for dev in game.actions[i]:
                if rec == dev:
                    continue
                slack = obedience_slack(game, outcome, i, rec, dev)
                if slack < 0:
                    return BceCheck(False, (i, rec, dev, slack))
    return BceCheck(True, None)


@dataclass
class BcePolytope:
    """LP skeleton of a game's BCE set; variables are the (profile, state) cells."""

    game: BaseGame
    variables: tuple
    constraints: list
    bounds: dict

    @classmethod
    def of(cls, game: BaseGame) -> "BcePolytope":
        variables = tuple(game.cells())
        constraints = []
        for state in game.states:
            coeffs = {(profile, state): ONE for profile in game.profiles()}
            constraints.append((coeffs, _lp.EQUAL, game.prior[state]))
        for i in game.players:
            for rec in game.actions[i]:
                for dev in game.actions[i]:
                    if rec != dev:
                        constraints.append((obedience_row(game, i, rec, dev), _lp.GREATER, ZERO))
        bounds = {v: (ZERO, None) for v in variables}
        return cls(game=game, variables=variables, constraints=constraints, bounds=bounds)

    def lp(self, objective: dict, sense: str = "min") -> _lp.LinearProgram:
        return _lp.LinearProgram(
            variables=self.variables,
            objective=objective,
            sense=sense,
            constraints=list(self.constraints),
            bounds=dict(self.bounds),
        )

    def outcome_from_point(self, point: dict) -> Outcome:
        out = Outcome(p={v: point[v] for v in self.variables if point[v]})
        validate_outcome(self.game, out)
        return out


def minimize_linear_over_bce(game: BaseGame, objective: dict):
    """Exact minimizer and value of a linear functional on the BCE set.

    ``objective`` maps (profile, state) cells to coefficients; missing cells
    count as zero.
    """
    poly = BcePolytope.of(game)
    for key in objective:
        if key not in poly.bounds:
            raise UnknownAction(f"objective references unknown cell {key!r}")
    sol = _lp.solve(poly.lp(objective, "min"))
    if not sol.is_optimal:
        raise InternalInvariantError(f"BCE polytope should never be {sol.status}")
    outcome = poly.outcome_from_point(sol.point)
    check = is_bce(game, outcome)
    if not check:
        raise InternalInvariantError(f"optimizer left the BCE set: {check.witness}")
    return outcome, sol.value


def maximize_cell_over_bce(game: BaseGame, cell, poly: Optional[BcePolytope] = None):
    poly = poly or BcePolytope.of(game)
    sol = _lp.solve(poly.lp({cell: ONE}, "max"))
    if not sol.is_optimal:
        raise InternalInvariantError(f"BCE polytope should never be {sol.status}")
    return poly.outcome_from_point(sol.point), sol.value


def max_support_point(game: BaseGame) -> Outcome:
    """A BCE whose support contains the support of every BCE.

    Averages, with equal weights, one maximizer of each cell's probability;
    the average of feasible points supports the union of their supports and
    sits in the relative interior of the BCE set.
    """
    poly = BcePolytope.of(game)
    points = [maximize_cell_over_bce(game, cell, poly)[0] for cell in poly.variables]
    weight = Rat(1, len(points))
    out = mix_outcomes((weight, point) for point in points)
    validate_outcome(game, out)
    check = is_bce(game, out)
    if not check:
        raise InternalInvariantError(f"max-support average left the BCE set: {check.witness}")
    return out


def mix_outcomes(pairs) -> Outcome:
    """Exact weighted sum of outcomes from (weight, outcome) pairs.  Cells
    appear in first-seen order; cells with zero total mass are dropped."""
    acc = {}
    for weight, outcome in pairs:
        for key, q in outcome.p.items():
            if q:
                acc[key] = acc.get(key, ZERO) + weight * q
    return Outcome(p={k: v for k, v in acc.items() if v})
