"""The Fraction loops that mixed, validated and read out outcomes and LP
points before they moved onto int numerators over one denominator, kept as
references the int code must reproduce exactly: the same masses in the same
key order, the same errors with the same messages, and the same point and
value."""

from ribce import lp as _lp
from ribce.errors import DimensionMismatch, ValidationError
from ribce.games import Outcome
from ribce.rational import ZERO, Rat


def mix_outcomes(pairs) -> Outcome:
    acc = {}
    for weight, outcome in pairs:
        for key, q in outcome.p.items():
            if q:
                acc[key] = acc.get(key, ZERO) + weight * q
    return Outcome(p={k: v for k, v in acc.items() if v})


def validate_outcome(game, outcome) -> None:
    cells = set(game.cells())
    for key, q in outcome.p.items():
        if key not in cells:
            raise DimensionMismatch(f"unknown cell {key!r}")
        if q < 0:
            raise ValidationError(f"negative probability at {key!r}")
    for state in game.states:
        mass = sum((q for (profile, s), q in outcome.p.items() if s == state), ZERO)
        if mass != game.prior[state]:
            raise DimensionMismatch(
                f"state {state!r} marginal {mass} != prior {game.prior[state]}"
            )


def solve(lp: _lp.LinearProgram, rule: str):
    """(point, value) of ``lp.solve`` by the former ``Rat`` read-out: each
    variable at its bound (or zero), moved by every basic value rhs/p; None
    unless the program is optimal."""
    poly = _lp.Polyhedron(lp, rule=rule)
    if poly.status != _lp.FEASIBLE:
        return None
    cols = poly._cols
    n = len(cols)
    obj = _lp._objective_row(poly._terms, n, _lp._objective_parts(lp.objective), lp.sense)
    tab = _lp._Tableau(list(poly._rows), n, list(poly._basis))
    tab.T.append(tab.cost_row(obj))
    if tab.run(rule) == _lp.UNBOUNDED:
        return None
    point = {}
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        point[v] = lo if lo is not None else ZERO if hi is None else hi
    for r, bj in enumerate(tab.basis):
        row = tab.T[r]
        x = Rat(row[n], row[bj])
        kind, v = cols[bj]
        if not x or kind == "slack":
            continue
        base = point[v]
        if kind in ("lo", "pos"):
            point[v] = base + x if base else x
        else:
            point[v] = base - x if base else -x
    value = sum((lp.objective[v] * point[v] for v in lp.objective if point[v]), ZERO)
    return point, value
