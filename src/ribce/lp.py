"""Exact rational linear programming.

Two-phase dense simplex, exact throughout.  Everything downstream
(obedience polytopes, worst-case welfare, jeopardization, separating
hyperplanes, garbling feasibility) reduces to `solve`.

The program is rewritten in standard form straight into a fraction-free
tableau: one sparse pass over each constraint's coefficients writes its row
of Python ints, scaled by the lcm of the row's denominators, which is the
primitive row that is a positive multiple of the rational one
(``rows.primitive``); no dense rational matrix is built.  A pivot combines
rows without dividing (``rows.pivot_eliminate``).  A positive row scale
changes no sign and no ratio, so the pivots, the basis and the answer are
those of the rational tableau; rationals come back only when the basic
values are read out.  ``LpSolution.verify`` pivots the claimed basis into a
fresh standard form on the same tableau.

The default pivot rule is Dantzig pricing that switches to Bland's rule once
a phase stalls on degenerate pivots; Bland's rule guarantees termination,
Dantzig keeps iteration counts sane on the larger welfare programs.
``rule="bland"`` forces pure Bland; any other rule is rejected.  Either way
the solver is deterministic: entering ties break on the lowest column index,
leaving ties on the lowest basic column index.
"""

from dataclasses import dataclass, field
from math import lcm
from typing import Optional

from . import rows as _rows
from .errors import InternalInvariantError, ValidationError
from .rational import ZERO, Rat

LESS = "<="
EQUAL = "="
GREATER = ">="

_RELATIONS = (LESS, EQUAL, GREATER)

# Degenerate pivots tolerated before a phase falls back to Bland's rule.
_STALL_LIMIT = 40

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    relation: str
    rhs: object

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {self.relation!r}")


@dataclass
class LinearProgram:
    """min/max of a linear objective subject to linear constraints and bounds.

    ``variables`` fixes the column order (and with it determinism of the
    solve).  Bounds map a variable to a (lower, upper) pair where ``None``
    means unbounded on that side; unlisted variables are free.  Every
    coefficient, rhs and bound is an exact rational (``Rat`` or ``int``);
    ``solve`` rejects anything else with a ``ValidationError``.
    """

    variables: tuple
    objective: dict
    sense: str = "min"
    constraints: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValidationError("duplicate variable names")
        if self.sense not in ("min", "max"):
            raise ValidationError(f"unknown sense {self.sense!r}")
        for v in self.objective:
            if v not in declared:
                raise ValidationError(f"objective references unknown variable {v!r}")
        normalized = []
        for con in self.constraints:
            if not isinstance(con, Constraint):
                con = Constraint(*con)
            for v in con.coeffs:
                if v not in declared:
                    raise ValidationError(f"constraint references unknown variable {v!r}")
            normalized.append(con)
        self.constraints = normalized
        for v in self.bounds:
            if v not in declared:
                raise ValidationError(f"bound on unknown variable {v!r}")

    def dump(self) -> str:
        """Plain-text rendering, for debugging."""
        key = lambda item: str(item[0])
        lines = [
            f"{self.sense} "
            + " + ".join(f"{c}*{v}" for v, c in sorted(self.objective.items(), key=key))
        ]
        for con in self.constraints:
            lhs = " + ".join(f"{c}*{v}" for v, c in sorted(con.coeffs.items(), key=key))
            lines.append(f"  {lhs} {con.relation} {con.rhs}")
        for v, (lo, hi) in self.bounds.items():
            lines.append(f"  {lo if lo is not None else '-inf'} <= {v} <= {hi if hi is not None else 'inf'}")
        return "\n".join(lines)


@dataclass
class LpSolution:
    status: str
    point: Optional[dict] = None
    value: object = None
    basis: Optional[tuple] = None
    dropped_rows: tuple = ()  # redundant standard-form rows removed in phase 1

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def verify(self, lp: LinearProgram) -> bool:
        """Re-check the certificate from scratch: exact primal feasibility of
        the point and dual feasibility (nonnegative reduced costs) of the
        basis, pivoted into a fresh standard-form tableau, not the solver's.
        Raises InternalInvariantError on any failure."""
        if self.status != OPTIMAL:
            return True
        point = self.point
        for v in lp.variables:
            lo, hi = lp.bounds.get(v, (None, None))
            x = point[v]
            if lo is not None and x < lo:
                raise InternalInvariantError(f"{v} below lower bound")
            if hi is not None and x > hi:
                raise InternalInvariantError(f"{v} above upper bound")
        for con in lp.constraints:
            lhs = sum((c * point[v] for v, c in con.coeffs.items()), ZERO)
            ok = (
                lhs <= con.rhs
                if con.relation == LESS
                else lhs >= con.rhs
                if con.relation == GREATER
                else lhs == con.rhs
            )
            if not ok:
                raise InternalInvariantError(f"constraint violated: {con}")
        value = sum((c * point[v] for v, c in lp.objective.items()), ZERO)
        if value != self.value:
            raise InternalInvariantError("objective value mismatch")
        _verify_dual(lp, self)
        return True


def _verify_dual(lp: LinearProgram, sol: LpSolution) -> None:
    # Pivot the basis into the surviving rows, one free row per column.  Rows,
    # objective and every pivoted row are positive multiples of the rational
    # ones, so each reduced cost has its rational sign.
    cols, rows, obj = _standard_form(lp)
    n = len(cols)
    dropped = set(sol.dropped_rows)
    surviving = [row[:n] + row[-1:] for r, row in enumerate(rows) if r not in dropped]
    index = {label: j for j, label in enumerate(cols)}
    try:
        bjs = [index[label] for label in sol.basis]
    except KeyError as exc:
        raise InternalInvariantError(f"unknown basis column {exc}") from exc
    if len(bjs) != len(surviving):
        raise InternalInvariantError("basis does not match surviving rows")
    tab = _Tableau(surviving, n, [None] * len(surviving))
    free = list(range(tab.m))
    for bj in bjs:
        r = next((r for r in free if tab.T[r][bj]), None)
        if r is None:
            raise InternalInvariantError("singular basis matrix")
        free.remove(r)
        tab.pivot(r, bj)
    for label, reduced in zip(cols, tab.cost_row(obj)):
        if reduced < 0:
            raise InternalInvariantError(f"dual infeasible at column {label}")


def _inexact(x) -> bool:
    """True for a value without an exact numerator and denominator."""
    return not (hasattr(x, "numerator") and hasattr(x, "denominator"))


def _not_exact(field, x) -> ValidationError:
    return ValidationError(f"{field} is not an exact rational: {x!r}")


def _row_error(lp: LinearProgram, r: int, exc: Exception) -> ValidationError:
    """The input error behind an exception raised while row ``r`` was
    built: the first entry of that row without an exact numerator and
    denominator.  Re-raises ``exc`` when every entry is exact."""
    con = lp.constraints[r]
    for v, c in con.coeffs.items():
        if _inexact(c):
            return _not_exact(f"constraint {r}: coefficient of {v!r}", c)
    if _inexact(con.rhs):
        return _not_exact(f"constraint {r}: rhs", con.rhs)
    raise exc


def _standard_form(lp: LinearProgram):
    """Rewrite as min c·y, A y = b (b >= 0), y >= 0, straight into ints.

    Returns (column labels, phase-1 rows, objective), or None when a bound
    pair is inconsistent.  Columns are the structural ones (``lo``/``hi``
    for a variable shifted by a bound, ``pos``/``neg`` for a free one) in
    variable order, then one ``slack`` per inequality row.  Rows are the
    constraints, then ``y <= hi - lo`` for each doubly bounded variable.  Row
    ``r`` is the list of Python ints ``[A_r, artificial, b_r]`` with one
    artificial column per row, negated first if its shifted rhs is
    negative.  It is written scaled by the lcm L of the row's denominators,
    its artificial entry being L, which makes it ``rows.primitive`` of the
    rational row with a unit artificial: for each prime dividing L, the entry
    whose denominator holds that prime's highest power is not divisible by
    it.  The objective is a positive multiple of the rational one, negated
    for ``max``.  Column labels are structural, so a certificate can be
    re-derived later.

    Every coefficient, rhs and bound must carry an exact ``numerator`` and
    ``denominator``; anything else raises ``ValidationError`` naming it.
    """
    cols = []
    terms = {}  # var -> ((column, sign), ...)
    shifts = {}  # var -> its bound, when the bound is not zero
    bound_rows = []  # (column, hi - lo)
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        for side, x in (("lower", lo), ("upper", hi)):
            if x is not None and _inexact(x):
                raise _not_exact(f"{side} bound of {v!r}", x)
        if lo is not None and hi is not None and hi < lo:
            return None
        j = len(cols)
        if lo is not None:
            cols.append(("lo", v))
            terms[v] = ((j, 1),)
            if lo:
                shifts[v] = lo
            if hi is not None:
                bound_rows.append((j, hi - lo))
        elif hi is not None:
            cols.append(("hi", v))
            terms[v] = ((j, -1),)
            if hi:
                shifts[v] = hi
        else:
            cols += [("pos", v), ("neg", v)]
            terms[v] = ((j, 1), (j + 1, -1))

    constraints = lp.constraints
    slack = len(cols)
    for r, con in enumerate(constraints):
        if con.relation != EQUAL:
            cols.append(("slack", r))
    first_bound = len(constraints)
    cols += [("slack", first_bound + k) for k in range(len(bound_rows))]
    n = len(cols)
    m = first_bound + len(bound_rows)
    width = n + m + 1

    rows = []
    for r, con in enumerate(constraints):
        coeffs = con.coeffs
        try:
            rhs = con.rhs
            if shifts:
                for v, c in coeffs.items():
                    s = shifts.get(v)
                    if s is not None and c:
                        rhs = rhs - c * s
            scale = lcm(*[c.denominator for c in coeffs.values()], rhs.denominator)
            flip = rhs < 0
            row = [0] * width
            for v, c in coeffs.items():
                x = int(c.numerator * (scale // c.denominator))
                if flip:
                    x = -x
                for j, sign in terms[v]:
                    row[j] = x if sign > 0 else -x
            rhs_int = int(rhs.numerator * (scale // rhs.denominator))
        except (AttributeError, TypeError) as exc:
            raise _row_error(lp, r, exc) from None
        if con.relation != EQUAL:
            row[slack] = -scale if (con.relation == GREATER) != flip else scale
            slack += 1
        row[n + r] = scale
        row[-1] = -rhs_int if flip else rhs_int
        rows.append(row)
    for r, (j, gap) in enumerate(bound_rows, first_bound):
        scale = int(gap.denominator)
        row = [0] * width
        row[j] = row[slack] = row[n + r] = scale
        row[-1] = int(gap.numerator)
        slack += 1
        rows.append(row)

    obj = [0] * n
    objective = lp.objective
    try:
        scale = lcm(*[c.denominator for c in objective.values()])
        sense = 1 if lp.sense == "min" else -1
        for v, c in objective.items():
            x = sense * int(c.numerator * (scale // c.denominator))
            for j, sign in terms[v]:
                obj[j] = x if sign > 0 else -x
    except (AttributeError, TypeError):
        for v, c in objective.items():
            if _inexact(c):
                raise _not_exact(f"objective coefficient of {v!r}", c) from None
        raise
    return cols, rows, obj


class _Tableau:
    """Dense fraction-free simplex tableau.

    Row r is a list of Python ints, a positive multiple of its rational row
    (``_standard_form`` writes it primitive, and ``rows.pivot_eliminate``
    keeps it so), and the basic entry ``T[r][basis[r]]`` is positive.  While a phase
    runs its cost row rides as the last row, so each pivot updates it with the
    rest.  Every choice reads signs and ratios within a row or of one column
    across rows, which a positive row scale leaves alone: the pivots are
    those of the rational tableau.
    """

    def __init__(self, rows, n, basis):
        """The int ``rows`` over ``n`` columns and the rhs, ``basis[r]`` the
        basic column of row r.  Takes ``rows`` and ``basis`` over as its own."""
        self.m = len(rows)
        self.n = n
        self.T = rows
        self.basis = basis

    def pivot(self, r, j):
        _rows.pivot_eliminate(self.T, r, j)
        self.basis[r] = j

    def cost_row(self, obj):
        """Reduced costs of the int row ``obj`` against the current basis, as a
        primitive int row (a positive multiple of the rational one)."""
        cost = list(obj) + [0]
        T = self.T
        pivots = [(r, cost[bj], T[r][bj]) for r, bj in enumerate(self.basis) if cost[bj]]
        scale = lcm(*[p for _, _, p in pivots])
        out = [scale * c for c in cost]
        for r, f, p in pivots:
            k = f * (scale // p)
            out = [o - k * t for o, t in zip(out, T[r])]
        return _rows.primitive(out)

    def run(self, rule):
        """Minimize the cost row ``T[m]``; mutates the tableau in place.  Basic
        columns have reduced cost exactly zero, so any column with cost < 0 is
        nonbasic."""
        T = self.T
        m = self.m
        n = self.n
        basis = self.basis
        bland = rule == "bland"
        stall = 0
        while True:
            cost = T[m]
            enter = -1
            if bland:
                for j in range(n):
                    if cost[j] < 0:
                        enter = j
                        break
            else:
                best = 0
                for j in range(n):
                    if cost[j] < best:
                        best = cost[j]
                        enter = j
            if enter < 0:
                return OPTIMAL
            # Ratio test: rhs / a is scale-free; compare rhs_r / a_r against
            # the leader's by cross products.
            leave = -1
            for r in range(m):
                a = T[r][enter]
                if a > 0:
                    rhs = T[r][n]
                    if leave >= 0:
                        mine, lead = rhs * lead_a, lead_rhs * a
                        if mine > lead or (mine == lead and basis[r] > basis[leave]):
                            continue
                    leave, lead_a, lead_rhs = r, a, rhs
            if leave < 0:
                return UNBOUNDED
            degenerate = lead_rhs == 0
            self.pivot(leave, enter)
            if not bland:
                if degenerate:
                    stall += 1
                    if stall > _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def values(self):
        """Basic column -> its exact value in the current basic solution."""
        n = self.n
        out = {}
        for r, bj in enumerate(self.basis):
            row = self.T[r]
            if row[bj] <= 0:
                raise InternalInvariantError(f"basic entry of row {r} is not positive")
            out[bj] = Rat(row[n], row[bj])
        return out


def solve(lp: LinearProgram, rule: str = "dantzig") -> LpSolution:
    """Exact optimum with a certified basis; deterministic for a fixed rule,
    ``"dantzig"`` or ``"bland"`` (any other raises ``ValidationError``)."""
    if rule not in ("dantzig", "bland"):
        raise ValidationError(f"unknown pivot rule {rule!r}")
    std = _standard_form(lp)
    if std is None:
        return LpSolution(status=INFEASIBLE)
    cols, rows, obj = std
    m = len(rows)
    n = len(cols)

    # Phase 1: minimize the sum of the artificials, which start as the basis.
    tab = _Tableau(rows, n + m, list(range(n, n + m)))
    tab.T.append(tab.cost_row([0] * n + [1] * m))
    if tab.run(rule) != OPTIMAL:  # pragma: no cover
        raise InternalInvariantError("phase 1 cannot be unbounded")
    tab.T.pop()
    # Each basic rhs is >= 0 and its row is positively scaled.
    if any(tab.T[r][-1] > 0 for r in range(m) if tab.basis[r] >= n):
        return LpSolution(status=INFEASIBLE)

    # Drive leftover zero-value artificials out of the basis.
    keep = []
    dropped = []
    for r in range(tab.m):
        if tab.basis[r] >= n:
            j = next((jj for jj in range(n) if tab.T[r][jj]), None)
            if j is None:
                dropped.append(r)  # redundant row
                continue
            tab.pivot(r, j)
        keep.append(r)
    if dropped:
        tab.T = [tab.T[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        tab.m = len(keep)

    # Phase 2 on the structural columns: no artificial is basic any more.
    tab.T = [row[:n] + row[-1:] for row in tab.T]
    tab.n = n
    tab.T.append(tab.cost_row(obj))
    if tab.run(rule) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    yvals = {cols[bj]: y for bj, y in tab.values().items()}
    point = {}
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        if lo is not None:
            point[v] = lo + yvals.get(("lo", v), ZERO)
        elif hi is not None:
            point[v] = hi - yvals.get(("hi", v), ZERO)
        else:
            point[v] = yvals.get(("pos", v), ZERO) - yvals.get(("neg", v), ZERO)
    value = sum((c * point[v] for v, c in lp.objective.items()), ZERO)
    basis_labels = tuple(cols[j] for j in tab.basis)
    return LpSolution(
        status=OPTIMAL,
        point=point,
        value=value,
        basis=basis_labels,
        dropped_rows=tuple(dropped),
    )


def feasible_point(variables, constraints, bounds=None) -> Optional[dict]:
    """A point of the polyhedron, or None when it is empty."""
    lp = LinearProgram(
        variables=tuple(variables),
        objective={},
        sense="min",
        constraints=list(constraints),
        bounds=dict(bounds or {}),
    )
    sol = solve(lp)
    return sol.point if sol.is_optimal else None
