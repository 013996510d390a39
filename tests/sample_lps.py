"""Seeded random linear programs for the solver tests.

Each family aims at one behaviour of the two-phase simplex: ``mixed_lp``
draws relations, bounds and objective freely (all three statuses occur);
``degenerate_lp`` puts many constraints through one vertex;
``redundant_lp`` adds an equality implied by two others, so phase 1 drops
a row; ``infeasible_lp`` contains two contradicting rows; ``unbounded_lp``
has a recession direction that the objective improves along.

``beale_lp`` is Beale's cycling example.  ``with_objective`` writes the
program a cold ``lp.solve`` of another objective over the same rows runs.
"""

from dataclasses import replace

from ribce.lp import EQUAL, GREATER, LESS, Constraint, LinearProgram
from ribce.rational import ZERO, Rat


def _q(rng, span=5):
    return Rat(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def _names(n):
    return tuple(f"x{j}" for j in range(n))


def _objective(rng, variables):
    return {v: _q(rng) for v in variables if rng.random() < 0.8}


def mixed_lp(rng):
    """Random relations and rhs; each variable bounded below, above, on both
    sides (possibly fixed) or free."""
    variables = _names(rng.randint(1, 5))
    constraints = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: _q(rng) for v in variables if rng.random() < 0.7}
        constraints.append(Constraint(coeffs, rng.choice((LESS, EQUAL, GREATER)), _q(rng, 8)))
    bounds = {}
    for v in variables:
        kind = rng.randrange(4)
        lo = _q(rng)
        if kind == 0:
            bounds[v] = (lo, None)
        elif kind == 1:
            bounds[v] = (None, lo)
        elif kind == 2:
            bounds[v] = (lo, lo + rng.randint(0, 6))
    return LinearProgram(variables, _objective(rng, variables), rng.choice(("min", "max")), constraints, bounds)


def degenerate_lp(rng):
    """Many rows tight at one point with zero coordinates, in a box."""
    n = rng.randint(2, 4)
    variables = _names(n)
    x0 = [Rat(rng.choice((0, 0, 1, 2))) for _ in variables]
    constraints = []
    for _ in range(rng.randint(n + 1, 2 * n + 2)):
        coeffs = {v: Rat(rng.randint(-3, 3)) for v in variables}
        rhs = sum((c * x for c, x in zip(coeffs.values(), x0)), Rat(0))
        constraints.append(Constraint(coeffs, rng.choice((LESS, GREATER)), rhs))
    bounds = {v: (Rat(0), Rat(4)) for v in variables}
    return LinearProgram(variables, _objective(rng, variables), rng.choice(("min", "max")), constraints, bounds)


def redundant_lp(rng):
    """Two equalities through a nonnegative point plus a combination of them."""
    n = rng.randint(2, 5)
    variables = _names(n)
    x0 = [Rat(rng.randint(0, 3), rng.choice((1, 2))) for _ in variables]

    def through_x0(coeffs, relation=EQUAL):
        rhs = sum((coeffs.get(v, 0) * x for v, x in zip(variables, x0)), Rat(0))
        return Constraint(coeffs, relation, rhs)

    r1 = {v: _q(rng, 3) for v in variables}
    r2 = {v: _q(rng, 3) for v in variables}
    a, b = Rat(rng.randint(1, 3)), Rat(rng.randint(-3, 3))
    r3 = {v: a * r1[v] + b * r2[v] for v in variables}
    constraints = [through_x0(r1), through_x0(r2), through_x0(r3)]
    rng.shuffle(constraints)
    if rng.random() < 0.5:
        constraints.append(through_x0({v: _q(rng, 3) for v in variables}, LESS))
    hi = Rat(6) if rng.random() < 0.7 else None
    bounds = {v: (Rat(0), hi) for v in variables}
    return LinearProgram(variables, _objective(rng, variables), rng.choice(("min", "max")), constraints, bounds)


def infeasible_lp(rng):
    """A mixed program plus a row and its contradiction."""
    lp = mixed_lp(rng)
    coeffs = {v: _q(rng) for v in lp.variables}
    rhs = _q(rng)
    lp.constraints += [
        Constraint(coeffs, LESS, rhs),
        Constraint(coeffs, GREATER, rhs + Rat(rng.randint(1, 3), rng.randint(1, 4))),
    ]
    rng.shuffle(lp.constraints)
    return lp


def unbounded_lp(rng):
    """Nonnegative variables, covering rows only, and a max objective that
    grows along the all-ones direction."""
    variables = _names(rng.randint(1, 4))
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {v: Rat(rng.randint(0, 4)) for v in variables}
        constraints.append(Constraint(coeffs, GREATER, _q(rng)))
    objective = {v: Rat(rng.randint(1, 4), rng.randint(1, 3)) for v in variables}
    bounds = {v: (Rat(0), None) for v in variables}
    return LinearProgram(variables, objective, "max", constraints, bounds)


FAMILIES = {
    "mixed": mixed_lp,
    "degenerate": degenerate_lp,
    "redundant": redundant_lp,
    "infeasible": infeasible_lp,
    "unbounded": unbounded_lp,
}


def beale_lp():
    """Beale's example (1955), on which Dantzig pricing with a textbook
    leaving rule cycles from the slack basis: its optimum is -5/4 at
    x4 = x6 = 1."""
    variables = ("x4", "x5", "x6", "x7")
    constraints = [
        Constraint({"x4": Rat(1, 4), "x5": Rat(-8), "x6": Rat(-1), "x7": Rat(9)}, LESS, ZERO),
        Constraint({"x4": Rat(1, 2), "x5": Rat(-12), "x6": Rat(-1, 2), "x7": Rat(3)}, LESS, ZERO),
        Constraint({"x6": Rat(1)}, LESS, Rat(1)),
    ]
    objective = {"x4": Rat(-3, 4), "x5": Rat(20), "x6": Rat(-1, 2), "x7": Rat(6)}
    bounds = {v: (ZERO, None) for v in variables}
    return LinearProgram(variables, objective, "min", constraints, bounds)



def with_objective(program, objective, sense="min"):
    """A new program over ``program``'s variables, rows and bounds, under
    ``objective`` and ``sense``: the one a cold ``lp.solve`` of that
    objective runs.  For an answer ``sol``, ``with_objective(sol.program,
    sol.objective, sol.sense)`` is the program it solved."""
    return replace(program, objective=objective, sense=sense)
