"""The Fraction construction of ``separating_perturbation`` and the Fraction
``utility_distance`` it was checked with, before the int belief tables and
payoff rows, kept as references the int code must reproduce exactly (the
same perturbed utilities, cell for cell).  The chain is peeled with one
hull-membership LP per candidate, as it was."""

from ribce import lp as _lp
from ribce.bce import is_bce
from ribce.errors import InternalInvariantError, NotABce, ValidationError
from ribce.games import BaseGame
from ribce.rational import ONE, ZERO, Rat
from ribce.separation import is_sbce, is_separated


def utility_distance(a, b):
    return max(
        abs(a.u(i, profile, state) - b.u(i, profile, state))
        for i in a.players
        for (profile, state) in a.cells()
    )


def _hull_membership(point, others):
    if not others:
        return False
    variables = tuple(range(len(others)))
    constraints = [({j: ONE for j in variables}, _lp.EQUAL, ONE)]
    for c in range(len(point)):
        coeffs = {j: others[j][c] for j in variables if others[j][c]}
        constraints.append((coeffs, _lp.EQUAL, point[c]))
    bounds = {j: (ZERO, None) for j in variables}
    return _lp.feasible_point(variables, constraints, bounds) is not None


def _peel_order(beliefs):
    remaining = list(range(len(beliefs)))
    order = [None] * len(beliefs)
    next_slot = len(beliefs) - 1
    while remaining:
        peeled = None
        for idx in remaining:
            others = [beliefs[j] for j in remaining if j != idx]
            if not _hull_membership(beliefs[idx], others):
                peeled = idx
                break
        if peeled is None:
            raise InternalInvariantError("no extreme point among distinct beliefs")
        order[next_slot] = peeled
        next_slot -= 1
        remaining.remove(peeled)
    return order


def _separating_functional(target, earlier):
    dim = len(target)
    hvars = tuple(("h", c) for c in range(dim))
    variables = hvars + (("margin",),)
    constraints = []
    for q in earlier:
        coeffs = {("margin",): -ONE}
        for c in range(dim):
            diff = target[c] - q[c]
            if diff:
                coeffs[("h", c)] = diff
        constraints.append((coeffs, _lp.GREATER, ZERO))
    bounds = {("h", c): (-ONE, ONE) for c in range(dim)}
    bounds[("margin",)] = (ZERO, Rat(2))
    lp = _lp.LinearProgram(
        variables=variables,
        objective={("margin",): ONE},
        sense="max",
        constraints=constraints,
        bounds=bounds,
    )
    sol = _lp.solve(lp)
    if not sol.is_optimal or sol.value <= 0:
        raise InternalInvariantError("strict separation of an extreme point failed")
    h = [sol.point[("h", c)] for c in range(dim)]
    shift = max(sum((hc * qc for hc, qc in zip(h, q)), ZERO) for q in earlier)
    return [hc - shift for hc in h]


def separating_perturbation(game, outcome, epsilon):
    if _lp._inexact(epsilon):
        raise ValidationError(f"epsilon must be an exact rational: {epsilon!r}")
    epsilon = Rat(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    check = is_bce(game, outcome)
    if not check:
        raise NotABce(f"perturbation requires a BCE; violated at {check.witness}")
    if is_separated(game, outcome):
        return game

    tables = outcome.beliefs(game)

    bonus = {}
    max_abs = ZERO
    for i in game.players:
        table = tables[i]
        support = table.support
        cells = tuple(game.belief_cells(i))
        belief_of = {}
        distinct = []
        for a in support:
            mass = table.totals[a]
            vec = tuple(Rat(m, mass) if m else ZERO for m in table.masses[a])
            belief_of[a] = vec
            if vec not in distinct:
                distinct.append(vec)
        order = _peel_order(distinct)
        chain = [distinct[idx] for idx in order]
        n_i = len(chain)

        funcs = [[ONE] * len(cells)]
        for m in range(1, n_i):
            funcs.append(_separating_functional(chain[m], chain[:m]))

        dots = [
            [sum((fc * qc for fc, qc in zip(funcs[l], chain[m])), ZERO) for m in range(n_i)]
            for l in range(n_i)
        ]
        ts = [ONE] * n_i
        for l in range(n_i - 1):
            bound = ONE
            for m in range(l + 1, n_i):
                if dots[l][m] > 0:
                    bound = min(bound, dots[m][m] / (2 * dots[l][m]))
            ts[l] = bound
        scales = [ONE] * n_i
        running = ONE
        for l in range(n_i - 1, -1, -1):
            running = running * ts[l]
            scales[l] = running

        chain_index = {vec: m for m, vec in enumerate(chain)}
        for a in support:
            m = chain_index[belief_of[a]]
            row = {}
            for cell, f in zip(cells, funcs[m]):
                val = scales[m] * f
                if val:
                    row[cell] = val
                    if abs(val) > max_abs:
                        max_abs = abs(val)
            bonus[(i, a)] = row

    step = ONE
    while step * max_abs > epsilon:
        step /= 2

    utilities = {}
    for i in game.players:
        k = game.player_index(i)
        row = {}
        for (profile, state) in game.cells():
            base = game.u(i, profile, state)
            extra = bonus.get((i, profile[k]), None)
            if extra:
                opp = game.opponent_profile(profile, i)
                base = base + step * extra.get((opp, state), ZERO)
            row[(profile, state)] = base
        utilities[i] = row
    perturbed = BaseGame(
        players=game.players,
        states=game.states,
        prior=dict(game.prior),
        actions=dict(game.actions),
        utilities=utilities,
    )

    if utility_distance(perturbed, game) > epsilon:
        raise InternalInvariantError("perturbation exceeded the requested distance")
    if not is_sbce(perturbed, outcome):
        raise InternalInvariantError("perturbed game failed to separate the outcome")
    return perturbed
