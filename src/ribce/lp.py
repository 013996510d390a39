"""Exact rational linear programming.

Two-phase dense simplex over exact rationals.  Everything downstream
(obedience polytopes, worst-case welfare, jeopardization, separating
hyperplanes, garbling feasibility) reduces to `solve`.

The default pivot rule is Dantzig pricing that switches to Bland's rule once
a phase stalls on degenerate pivots; Bland's rule guarantees termination,
Dantzig keeps iteration counts sane on the larger welfare programs.
``rule="bland"`` forces pure Bland.  Either way the solver is deterministic:
entering ties break on the lowest column index, leaving ties on the lowest
basic column index.
"""

from dataclasses import dataclass, field
from typing import Optional

from . import rows as _rows
from .errors import InternalInvariantError, ValidationError
from .rational import ONE, ZERO, Rat

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
    means unbounded on that side; unlisted variables are free.
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
        basis.  Raises InternalInvariantError on any failure."""
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
    cols, col_rows, b, obj = _standard_form(lp)
    m = len(b)
    surviving = [r for r in range(m) if r not in set(sol.dropped_rows)]
    index = {label: j for j, label in enumerate(cols)}
    try:
        bjs = [index[label] for label in sol.basis]
    except KeyError as exc:
        raise InternalInvariantError(f"unknown basis column {exc}") from exc
    size = len(surviving)
    if len(bjs) != size:
        raise InternalInvariantError("basis does not match surviving rows")
    # Solve B^T y = c_B exactly via Gaussian elimination (restricted to the
    # surviving rows; dropped rows are implied by them), so that y·B = c_B.
    aug = [
        [col_rows[bjs[r]][surviving[c]] for c in range(size)] + [obj[bjs[r]]]
        for r in range(size)
    ]
    _gauss_jordan(aug, size)
    y = [aug[r][size] for r in range(size)]
    for j, label in enumerate(cols):
        column = [col_rows[j][r] for r in surviving]
        reduced = obj[j] - _rows.dot(y, column)
        if reduced < 0:
            raise InternalInvariantError(f"dual infeasible at column {label}")


def _gauss_jordan(aug, size) -> None:
    """Reduce the first ``size`` columns of the augmented rows ``aug`` to the
    identity, in place; the trailing columns then hold the solution."""
    for col in range(size):
        piv = next((r for r in range(col, size) if aug[r][col]), None)
        if piv is None:
            raise InternalInvariantError("singular basis matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        _rows.row_scale(aug[col], ONE / aug[col][col])
        for r in range(size):
            if r != col and aug[r][col]:
                _rows.row_eliminate(aug[r], aug[r][col], aug[col])


def _standard_form(lp: LinearProgram):
    """Rewrite as min c·y, A y = b (b >= 0), y >= 0.

    Returns (column labels, per-column row vectors, rhs vector, objective
    vector), or None when a bound pair is inconsistent.  Column labels are
    structural, so a certificate can be re-derived later.
    """
    cols = []
    col_terms = {}  # var -> [(col index, sign)]
    shifts = {}
    extra_rows = []

    def add_col(label):
        cols.append(label)
        return len(cols) - 1

    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        if lo is not None and hi is not None and hi < lo:
            return None
        if lo is not None:
            j = add_col(("lo", v))
            col_terms[v] = [(j, ONE)]
            shifts[v] = lo
            if hi is not None:
                extra_rows.append(({j: ONE}, LESS, hi - lo))
        elif hi is not None:
            j = add_col(("hi", v))
            col_terms[v] = [(j, -ONE)]
            shifts[v] = hi
        else:
            jp = add_col(("pos", v))
            jn = add_col(("neg", v))
            col_terms[v] = [(jp, ONE), (jn, -ONE)]
            shifts[v] = ZERO

    rows_data = []
    for con in lp.constraints:
        coeffs = {}
        rhs = Rat(con.rhs)
        for v, c in con.coeffs.items():
            if not c:
                continue
            rhs -= c * shifts[v]
            for j, sign in col_terms[v]:
                coeffs[j] = coeffs.get(j, ZERO) + c * sign
        rows_data.append((coeffs, con.relation, rhs))
    for coeffs, rel, rhs in extra_rows:
        rows_data.append((dict(coeffs), rel, rhs))

    for r, (coeffs, rel, rhs) in enumerate(rows_data):
        if rel == LESS:
            coeffs[add_col(("slack", r))] = ONE
        elif rel == GREATER:
            coeffs[add_col(("slack", r))] = -ONE

    ncols = len(cols)
    b = []
    col_rows = [[ZERO] * len(rows_data) for _ in range(ncols)]
    for r, (coeffs, rel, rhs) in enumerate(rows_data):
        flip = rhs < 0
        b.append(-rhs if flip else rhs)
        for j, c in coeffs.items():
            col_rows[j][r] = -c if flip else c

    sense_sign = ONE if lp.sense == "min" else -ONE
    obj = [ZERO] * ncols
    for v, c in lp.objective.items():
        for j, sign in col_terms[v]:
            obj[j] = obj[j] + sense_sign * c * sign
    return cols, col_rows, b, obj


class _Tableau:
    """Dense simplex tableau; rows are Python lists handled by the row kernels."""

    def __init__(self, col_rows, b, ncols):
        m = len(b)
        self.m = m
        self.n = ncols
        self.T = [[col_rows[j][r] for j in range(ncols)] + [b[r]] for r in range(m)]
        self.basis = [-1] * m

    def pivot(self, r, j):
        T = self.T
        _rows.row_scale(T[r], ONE / T[r][j])
        _rows.pivot_eliminate(T, r, j)
        self.basis[r] = j

    def cost_row(self, obj):
        """Reduced costs of ``obj`` against the current basis."""
        cost = list(obj) + [ZERO]
        for r, bj in enumerate(self.basis):
            if cost[bj]:
                _rows.row_eliminate(cost, cost[bj], self.T[r])
        return cost

    def run(self, cost, allowed, rule):
        """Minimize; mutates tableau and cost row in place.  Basic columns have
        reduced cost exactly zero, so any column with cost < 0 is nonbasic."""
        T = self.T
        n = self.n
        bland = rule == "bland"
        stall = 0
        while True:
            enter = -1
            if bland:
                for j in range(n):
                    if allowed[j] and cost[j] < 0:
                        enter = j
                        break
            else:
                best = ZERO
                for j in range(n):
                    if allowed[j] and cost[j] < best:
                        best = cost[j]
                        enter = j
            if enter < 0:
                return OPTIMAL
            leave = -1
            ratio = None
            for r in range(self.m):
                a = T[r][enter]
                if a > 0:
                    q = T[r][n] / a
                    if ratio is None or q < ratio or (q == ratio and self.basis[r] < self.basis[leave]):
                        ratio = q
                        leave = r
            if leave < 0:
                return UNBOUNDED
            degenerate = ratio == 0
            self.pivot(leave, enter)
            if cost[enter]:
                _rows.row_eliminate(cost, cost[enter], T[leave])
            if not bland:
                if degenerate:
                    stall += 1
                    if stall > _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0


def solve(lp: LinearProgram, rule: str = "dantzig") -> LpSolution:
    """Exact optimum with a certified basis; deterministic for a fixed rule."""
    std = _standard_form(lp)
    if std is None:
        return LpSolution(status=INFEASIBLE)
    cols, col_rows, b, obj = std
    m = len(b)
    n = len(cols)

    # Phase 1: artificial columns form the starting basis.
    for r in range(m):
        cols.append(("art", r))
        art = [ZERO] * m
        art[r] = ONE
        col_rows.append(art)
    tab = _Tableau(col_rows, b, n + m)
    tab.basis = list(range(n, n + m))
    phase1_obj = [ZERO] * n + [ONE] * m
    cost = tab.cost_row(phase1_obj)
    allowed = [True] * (n + m)
    if tab.run(cost, allowed, rule) != OPTIMAL:  # pragma: no cover
        raise InternalInvariantError("phase 1 cannot be unbounded")
    infeas = sum(
        (tab.T[r][-1] for r in range(tab.m) if tab.basis[r] >= n), ZERO
    )
    if infeas > 0:
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

    # Phase 2 with artificial columns frozen out.
    for j in range(n, n + m):
        allowed[j] = False
    cost = tab.cost_row(obj + [ZERO] * m)
    if tab.run(cost, allowed, rule) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    yvals = {}
    for r, bj in enumerate(tab.basis):
        yvals[cols[bj]] = tab.T[r][-1]
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
