"""Exact rational linear programming.

Two-phase dense simplex, exact throughout.  Everything downstream
(obedience polytopes, worst-case welfare, jeopardization, separating
hyperplanes, garbling feasibility, the regime count programs) starts a
``Polyhedron`` on a program's constraints and bounds, then calls
``Polyhedron.optimize``.

The simplex is split where it first reads the objective.  A ``Polyhedron``
reads only the constraints and bounds: it writes the standard form once,
starts from the basis the caller proposes when an exact check accepts it
and by phase 1 otherwise, and keeps the feasible tableau.
``Polyhedron.optimize`` writes the objective row, runs phase 2 on a copy of
that tableau and reads out the point, so one start serves every objective
over the same constraints.  ``solve(lp)`` optimizes ``lp``'s own objective
from phase 1: a program is validated once, when built, and never copied;
the polyhedron keeps it, and each answer carries it with its objective and
sense.

A coefficient row is any mapping from variable to exact rational.  The
row builders (``regime.CountSpace``, ``bce.obedience_row``,
``games.deviation_row``, ``BcePolytope.of`` and the epigraph rows of
``welfare``) hand over an ``IntRow``: int numerators over one positive int
denominator, the ints they already hold, with no ``Rat`` made per entry.
Every reader inside this module takes a row apart with ``int_parts``, which
returns an ``IntRow``'s own fields and puts any other mapping over the lcm
of its denominators; readers outside it see exact rationals either way.

The program is rewritten in standard form straight into a fraction-free
tableau: one sparse pass over each constraint's numerators writes its row of
Python ints, divided by their common content, which is the primitive row
that is a positive multiple of the rational one (``rows.primitive``); no
dense rational matrix is built.  A pivot combines rows without dividing
(``rows.pivot_eliminate``).  A positive row scale changes no sign and no
ratio, so the pivots, the basis and the answer are those of the rational
tableau.

The read-out stays on ints too.  ``Polyhedron.optimize`` returns the point
as an ``IntRow`` over every variable, in variable order, zeros included:
the bound base point, put over one denominator once per polyhedron, plus
each basic value rhs/p over the lcm of those denominators, with no ``Rat``
made per variable.  The objective value is one int dot product of the
objective's numerators with the point's; it is the one ``Rat`` made.
Callers read the point through ``int_parts`` (outcomes, the count kernel)
or as a mapping of exact rationals.

Certificates are on demand.  ``LpSolution.duals()`` is the one dual
computation: one exact dual per constraint of an optimal answer, read off
the reduced costs of the artificial columns once the basis is pivoted,
fraction-free, into a fresh standard form that keeps them (``_pivot_in``,
which also pivots in a polyhedron's proposed start).  Nothing in
``solve``, ``Polyhedron`` or ``optimize`` computes them.  ``check_certificate``
is the one optimality check: it proves a point and duals optimal for an
objective over a program's own rows, in one int pass over the nonzero
entries: bounds, rows, dual signs, every reduced cost, and c·x = dual
objective = the claimed value.  ``LpSolution.verify`` is that check on
the answer's own duals, and a lifted certificate (the regime full check) is
checked there without any tableau.

The default pivot rule is Dantzig pricing that switches to Bland's rule once
a phase stalls on degenerate pivots; Bland's rule guarantees termination,
Dantzig keeps iteration counts sane on the larger welfare programs.
``rule="bland"`` forces pure Bland; any other rule is rejected.  Either way
the solver is deterministic: entering ties break on the lowest column index,
leaving ties on the lowest basic column index.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import gcd, lcm
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
FEASIBLE = "feasible"  # a Polyhedron's status when it has a feasible basis


def _check_rule(rule):
    if rule not in ("dantzig", "bland"):
        raise ValidationError(f"unknown pivot rule {rule!r}")


def _check_objective(declared, objective, sense):
    if sense not in ("min", "max"):
        raise ValidationError(f"unknown sense {sense!r}")
    for v in objective:
        if v not in declared:
            raise ValidationError(f"objective references unknown variable {v!r}")


class IntRow(Mapping):
    """A read-only coefficient row stored as int numerators over one
    positive int denominator: ``row[v]`` is ``Rat(nums[v], den)``.

    ``nums`` maps each variable to its int numerator, in the row's key
    order.  The builders leave zero entries out, and ``den`` need not be
    the least common denominator.  Read as a mapping, the row yields exact
    rationals, and it equals the dict of them.  The row takes ``nums`` over
    as its own, and nothing may change it afterwards.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int):
        if isinstance(den, bool) or not isinstance(den, int) or den <= 0:
            raise ValidationError(f"row denominator must be a positive int, not {den!r}")
        self.nums = nums
        self.den = den

    def __getitem__(self, v):
        return Rat(self.nums[v], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self):
        return len(self.nums)

    def __repr__(self):
        return f"IntRow({self.nums!r}, {self.den!r})"


def int_parts(coeffs):
    """(nums, den): the int numerators of a coefficient mapping over one
    positive int denominator.  An ``IntRow`` gives its own fields; any other
    mapping of exact rationals is put over the lcm of its denominators.  An
    entry without ``numerator`` and ``denominator`` raises AttributeError."""
    if isinstance(coeffs, IntRow):
        return coeffs.nums, coeffs.den
    den = lcm(*[c.denominator for c in coeffs.values()])
    return {v: int(c.numerator * (den // c.denominator)) for v, c in coeffs.items()}, den


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
    ``solve`` rejects anything else with a ``ValidationError``.  A
    coefficient row (the objective or a constraint's) is a dict or an
    ``IntRow``.
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
        _check_objective(declared, self.objective, self.sense)
        normalized = []
        for con in self.constraints:
            if not isinstance(con, Constraint):
                con = Constraint(*con)
            if not declared.issuperset(con.coeffs):
                v = next(v for v in con.coeffs if v not in declared)
                raise ValidationError(f"constraint references unknown variable {v!r}")
            normalized.append(con)
        self.constraints = normalized
        if not declared.issuperset(self.bounds):
            v = next(v for v in self.bounds if v not in declared)
            raise ValidationError(f"bound on unknown variable {v!r}")


@dataclass
class LpSolution:
    """An answer of ``Polyhedron.optimize``: ``objective`` under ``sense``
    over the constraints and bounds of ``program``, the polyhedron's own
    program (left out of ``repr`` and ``==``), which ``duals`` reads."""

    status: str
    program: LinearProgram = field(repr=False, compare=False)
    objective: Mapping
    sense: str
    point: Optional[Mapping] = None  # an ``IntRow`` over every variable
    value: object = None
    basis: Optional[tuple] = None
    dropped_rows: tuple = ()  # redundant standard-form rows removed in phase 1

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def verify(self) -> bool:
        """Re-check an optimal answer from scratch: ``check_certificate`` on
        the point, the value and the answer's own ``duals``, which are
        computed on a fresh standard-form tableau, not the solver's.  Raises
        InternalInvariantError naming the first condition that fails; any
        other answer returns True."""
        if self.status != OPTIMAL:
            return True
        duals = self.duals()
        check_certificate(self.program, self.objective, self.sense, self.point, self.value, duals)
        return True

    def duals(self) -> tuple:
        """One exact rational per constraint of ``program``, for this
        optimal answer: the dual multipliers y of its basis.  The
        basis is pivoted into a fresh standard-form tableau whose rows keep
        their artificial columns, one fraction-free pivot per basic column
        on a free row that holds it, the rows dropped in phase 1 tried last;
        the rows stay positive multiples of the rational ones, so each
        reduced cost has its rational sign, and those of the artificial
        columns, negated unless the standard form flipped the row, are the
        duals.  With d = c - yA the reduced costs,
        c·x = y·Ax + d·x, and ``check_certificate`` proves the answer optimal
        from y.  The rows left free are the redundant ones, which get 0: the
        rows dropped in phase 1.  A basis that does not fit the rows (an
        unknown or repeated column, or a free row left nonzero on a
        structural column) raises InternalInvariantError.  Computed only
        here, on demand: ``solve`` and ``optimize`` never read the duals."""
        if self.status != OPTIMAL:
            raise ValidationError(f"duals need an optimal answer, not an {self.status} one")
        cols, rows, terms, _, flips = _standard_form(self.program)
        n = len(cols)
        dropped = set(self.dropped_rows)
        free = [r for r in range(len(rows)) if r not in dropped] + sorted(dropped)
        tab, free = _pivot_in(rows, n + len(rows), cols, self.basis, free)
        if any(any(tab.T[r][:n]) for r in free):
            raise InternalInvariantError("basis does not match surviving rows")
        keep = [r for r in range(tab.m) if tab.basis[r] is not None]
        tab = _Tableau([tab.T[r] for r in keep], tab.n, [tab.basis[r] for r in keep])
        # The artificial column of row r has entry 1 in the rational row,
        # which is the constraint times -1 when the standard form flipped it,
        # so its reduced cost is minus that row's dual.  The objective row is
        # the objective times k = den/gcd, negated for max.
        nums, den = parts = _objective_parts(self.objective)
        obj = _objective_row(terms, n, parts, self.sense)
        reduced, scale = tab.reduced_costs(obj + [0] * (tab.n - n))
        scale *= den // gcd(den, *nums.values())
        if self.sense != "min":
            scale = -scale
        return tuple(Rat(z if flip else -z, scale) for z, flip in zip(reduced[n:], flips))


def check_certificate(lp: LinearProgram, objective, sense, point, value, duals) -> None:
    """Prove ``value`` the optimum of ``objective`` under ``sense`` over
    ``lp``'s rows and bounds (not its objective) at ``point``, exactly, in
    one pass over the nonzero entries; raises InternalInvariantError naming
    the first condition that fails.

    ``point`` maps variables to exact rationals (one it leaves out is 0).
    The primal part checks every bound and row at the point, then
    c·x = ``value``.  With ``duals``, one exact rational y_r per constraint
    (``LpSolution.duals``), it then checks, with s = 1 for ``min`` and -1
    for ``max``:

    - dual signs: s·y_r >= 0 on a ``>=`` row and <= 0 on a ``<=`` row;
    - reduced costs: d = c - yA may have s·d_v > 0 only if v has a lower
      bound, and s·d_v < 0 only if it has an upper one;
    - the dual objective: b·y, plus d_v times that bound for each nonzero
      d_v, equals ``value`` (with zero lower bounds and no upper ones, that
      is b·y = ``value``).

    Weak duality then bounds every feasible point's objective by ``value``
    on the optimal side.  Points, rows, the objective and the duals are read
    as int numerators over one denominator each (``int_parts``), and every
    comparison is one of ints; no ``Rat`` is made per entry.
    """
    xnums, xden = int_parts(point)
    x = xnums.get
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        if lo is not None and x(v, 0) * lo.denominator < lo.numerator * xden:
            raise InternalInvariantError(f"{v} below lower bound")
        if hi is not None and x(v, 0) * hi.denominator > hi.numerator * xden:
            raise InternalInvariantError(f"{v} above upper bound")
    rows = []
    for con in lp.constraints:
        nums, den = int_parts(con.coeffs)
        rhs = con.rhs
        # lhs - rhs, times den·xden·rhs.denominator > 0.
        lhs = sum([c * x(v, 0) for v, c in nums.items()])
        gap = lhs * rhs.denominator - rhs.numerator * den * xden
        ok = gap <= 0 if con.relation == LESS else gap >= 0 if con.relation == GREATER else gap == 0
        if not ok:
            raise InternalInvariantError(f"constraint violated: {con}")
        rows.append((nums, den))
    onums, oden = _objective_parts(objective)
    cx = sum([c * x(v, 0) for v, c in onums.items()])
    if cx * value.denominator != value.numerator * oden * xden:
        raise InternalInvariantError("objective value mismatch")
    if len(duals) != len(rows):
        raise InternalInvariantError(f"{len(duals)} duals for {len(rows)} constraints")
    ynums, yden = int_parts(dict(enumerate(duals)))
    s = 1 if sense == "min" else -1
    for r, con in enumerate(lp.constraints):
        y = s * ynums[r]
        if (con.relation == GREATER and y < 0) or (con.relation == LESS and y > 0):
            raise InternalInvariantError(f"dual of constraint {r} has the wrong sign")
    # d = c - yA over L·yden, L the lcm of the objective's denominator and
    # those of the rows with y_r != 0.
    live = [(ynums[r], nums, den) for r, (nums, den) in enumerate(rows) if ynums[r]]
    scale = lcm(oden, *[den for _, _, den in live])
    up = scale // oden * yden
    d = {v: c * up for v, c in onums.items()}
    for y, nums, den in live:
        f = y * (scale // den)
        for v, c in nums.items():
            d[v] = d.get(v, 0) - f * c
    scale *= yden
    dual_value = sum((y * con.rhs for y, con in zip(duals, lp.constraints) if y), ZERO)
    for v in lp.variables:
        z = d.get(v, 0)
        if z:
            lo, hi = lp.bounds.get(v, (None, None))
            bound = lo if s * z > 0 else hi
            if bound is None:
                side = "lower" if s * z > 0 else "upper"
                raise InternalInvariantError(
                    f"reduced cost of {v} points at a missing {side} bound"
                )
            if bound:
                dual_value += Rat(z, scale) * bound
    if dual_value != value:
        raise InternalInvariantError("dual objective mismatch")


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

    Returns (column labels, phase-1 rows, column terms, shifts, flips), or
    None when a bound pair is inconsistent.  The column terms map each
    variable to its (column, sign) pairs; ``_objective_row`` writes an
    objective over them.  The shifts map each variable whose base (its lower
    bound, else its upper bound, else zero) is not zero to that base.  The
    flips hold one bool per constraint: whether its row was negated.
    Columns are the structural ones (``lo``/``hi`` for a variable shifted by
    a bound, ``pos``/``neg`` for a free one) in variable order, then one
    ``slack`` per inequality row.  Rows are the constraints, then
    ``y <= hi - lo`` for each doubly bounded variable.  Row ``r`` is the list
    of Python ints ``[A_r, artificial, b_r]`` with one artificial column per
    row, negated first if its shifted rhs is negative.  It is written from
    the constraint's numerators over one denominator (``int_parts``): with
    the rhs over a common multiple L of both denominators, the numerators,
    L for the artificial and the rhs numerator are divided by their gcd.
    That makes the row ``rows.primitive`` of the rational row with a unit
    artificial, whatever denominator the row came over, so an ``IntRow``
    and the dict of its rationals write the same ints.  Column labels are
    structural, so a certificate can be re-derived later.

    Every coefficient, rhs and bound must carry an exact ``numerator`` and
    ``denominator``; anything else raises ``ValidationError`` naming it.
    Whether a value has them is a property of its type, so the bounds are
    checked once per distinct pair of bound types.
    """
    cols = []
    terms = {}  # var -> ((column, sign), ...)
    shifts = {}  # var -> its bound, when the bound is not zero
    bound_rows = []  # (column, hi - lo)
    exact_kinds = set()  # (type(lo), type(hi)) pairs already checked
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        kinds = (type(lo), type(hi))
        if kinds not in exact_kinds:
            for side, x in (("lower", lo), ("upper", hi)):
                if x is not None and _inexact(x):
                    raise _not_exact(f"{side} bound of {v!r}", x)
            exact_kinds.add(kinds)
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
    flips = []
    for r, con in enumerate(constraints):
        try:
            nums, den = int_parts(con.coeffs)
            rhs = con.rhs
            if shifts:
                # Each shifted variable is measured from its base.
                shift = sum((x * shifts[v] for v, x in nums.items() if x and v in shifts), ZERO)
                if shift:
                    rhs = rhs - shift / den
            scale = lcm(den, rhs.denominator)
            rhs_int = int(rhs.numerator * (scale // rhs.denominator))
            flip = rhs < 0
            flips.append(flip)
        except (AttributeError, TypeError) as exc:
            raise _row_error(lp, r, exc) from None
        up = scale // den
        g = gcd(gcd(den, *nums.values()) * up, rhs_int)
        if flip:
            up = -up
            rhs_int = -rhs_int
        row = [0] * width
        for v, x in nums.items():
            x = x * up // g
            for j, sign in terms[v]:
                row[j] = x if sign > 0 else -x
        unit = scale // g
        if con.relation != EQUAL:
            row[slack] = -unit if (con.relation == GREATER) != flip else unit
            slack += 1
        row[n + r] = unit
        row[-1] = rhs_int // g
        rows.append(row)
    for r, (j, gap) in enumerate(bound_rows, first_bound):
        scale = int(gap.denominator)
        row = [0] * width
        row[j] = row[slack] = row[n + r] = scale
        row[-1] = int(gap.numerator)
        slack += 1
        rows.append(row)

    return cols, rows, terms, shifts, flips


def _objective_parts(objective):
    """``int_parts`` of the objective; an inexact coefficient raises
    ``ValidationError`` naming it."""
    try:
        return int_parts(objective)
    except (AttributeError, TypeError):
        for v, c in objective.items():
            if _inexact(c):
                raise _not_exact(f"objective coefficient of {v!r}", c) from None
        raise


def _objective_row(terms, n, parts, sense):
    """The int objective row over the ``n`` standard-form columns that
    ``terms`` maps the variables to: ``parts``, the objective's numerators
    over one denominator (``_objective_parts``), divided by their common
    content with that denominator, negated for ``max``.  That is the
    objective scaled by the lcm of its reduced denominators, whatever
    denominator it came over."""
    nums, den = parts
    g = gcd(den, *nums.values())
    if sense != "min":
        g = -g
    obj = [0] * n
    for v, x in nums.items():
        x //= g
        for j, s in terms[v]:
            obj[j] = x if s > 0 else -x
    return obj


class _Tableau:
    """Dense fraction-free simplex tableau.

    Row r is a list of Python ints, a positive multiple of its rational row
    (``_standard_form`` writes it primitive, and ``rows.pivot_eliminate``
    keeps it so), and the basic entry ``T[r][basis[r]]`` is positive.  While a phase
    runs its cost row rides as the last row, so each pivot updates it with the
    rest.  Every choice reads signs and ratios within a row or of one column
    across rows, which a positive row scale leaves alone: the pivots are
    those of the rational tableau.  A pivot puts new row lists in ``T``
    and never writes into an old one.
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
        return _rows.primitive(self.reduced_costs(obj)[0])

    def reduced_costs(self, obj):
        """(row, scale): ``scale`` > 0 times the reduced costs of the int row
        ``obj`` over every column, and the rhs entry, as ints."""
        cost = list(obj) + [0]
        T = self.T
        pivots = [(r, cost[bj], T[r][bj]) for r, bj in enumerate(self.basis) if cost[bj]]
        scale = lcm(*[p for _, _, p in pivots])
        out = [scale * c for c in cost]
        for r, f, p in pivots:
            k = f * (scale // p)
            out = [o - k * t for o, t in zip(out, T[r])]
        return out, scale

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
                # An empty program has no column to price: (0,) lets none
                # enter, at less cost than min's ``default`` keyword.
                best = min(cost[:n] or (0,))
                if best < 0:
                    enter = cost.index(best)
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


def _pivot_in(rows, n, cols, basis, free):
    """Pivot the columns labelled ``basis`` into the int standard-form
    ``rows`` (``n`` columns and the rhs), fraction-free, one pivot per label
    in order, each on the first row of ``free`` not yet taken that is
    nonzero in its column.  Returns the tableau, whose basic entries are
    positive, and the rows left free, in order.  A label that names no
    column of ``cols`` raises InternalInvariantError "unknown basis column",
    and one that no free row holds (a repeated or dependent column)
    "singular basis matrix"."""
    index = {label: j for j, label in enumerate(cols)}
    try:
        bjs = [index[label] for label in basis]
    except KeyError as exc:
        raise InternalInvariantError(f"unknown basis column {exc}") from exc
    free = list(free)
    tab = _Tableau(rows, n, [None] * len(rows))
    for bj in bjs:
        r = next((r for r in free if tab.T[r][bj]), None)
        if r is None:
            raise InternalInvariantError("singular basis matrix")
        free.remove(r)
        tab.pivot(r, bj)
    return tab, free


class Polyhedron:
    """The constraints and bounds of ``program`` with a feasible basis,
    ready to be optimized under any objective; the program's objective is
    not read.  ``rule`` is ``"dantzig"`` or ``"bland"`` and holds for both
    phases; any other raises ``ValidationError``.

    ``start`` proposes a basis, one standard-form column label per row as in
    ``LpSolution.basis``: ``("lo", v)`` or ``("hi", v)`` for a
    variable measured from its lower or upper bound, ``("pos", v)`` or
    ``("neg", v)`` for a part of a free one, and ``("slack", r)`` for the
    slack of inequality row r, the rows being the constraints in order, then
    ``v <= hi`` for each doubly bounded variable.  The proposed columns are
    pivoted into the standard form, fraction-free, one pivot per label on
    the first free row that is nonzero in its column (``LpSolution.duals``
    pivots a basis the same way).  The proposal is accepted if every label
    names a column and there is one per row, if every pivot finds a row, so
    that B is nonsingular, and if every rhs is then >= 0, so that
    B⁻¹b >= 0, decided on ints; an accepted start drops no row and runs no
    phase 1.  An empty or refused ``start`` runs phase 1 from the artificial
    basis: a wrong proposal costs time, never an answer.  (Bixby,
    "Implementing the simplex method: the initial basis", ORSA J. Comput.
    1992.)

    ``status`` is ``FEASIBLE`` or ``INFEASIBLE``.  The program, the feasible
    tableau over the structural columns, its basis and the dropped rows are
    stored once and never changed: ``optimize`` runs phase 2 on a copy, so
    from phase 1's basis it makes the pivots, and gives the answer, of a
    cold ``solve`` with that objective, and from a proposed basis an answer
    with a cold solve's status and value, at an optimal vertex that may
    differ.  So is the base point every read-out starts from: each variable
    at its lower bound, else at its upper bound, else at zero, as int
    numerators over one denominator.
    """

    def __init__(self, program: LinearProgram, start=(), rule: str = "dantzig"):
        _check_rule(rule)
        self._program = program
        self._declared = frozenset(program.variables)
        self._rule = rule
        self._terms = None
        std = _standard_form(program)
        if std is None:
            self.status = INFEASIBLE
            return
        cols, rows, self._terms, shifts, _ = std
        self._cols = cols
        # A basic column moves its variable by +-(its value) off the base
        # point; a slack column moves none.
        position = {v: k for k, v in enumerate(program.variables)}
        self._moves = [None] * len(cols)
        for v, pairs in self._terms.items():
            for j, sign in pairs:
                self._moves[j] = (position[v], sign)
        den = self._base_den = lcm(*[x.denominator for x in shifts.values()])
        self._base = [0] * len(program.variables)
        for v, x in shifts.items():
            self._base[position[v]] = x.numerator * (den // x.denominator)
        n = len(cols)
        if start and len(start) == len(rows):
            structural = [row[:n] + row[-1:] for row in rows]
            try:
                tab, _ = _pivot_in(structural, n, cols, start, range(len(rows)))
            except InternalInvariantError:
                tab = None
            # Each basic entry is positive, so B⁻¹b >= 0 is every rhs >= 0.
            if tab is not None and all(row[n] >= 0 for row in tab.T):
                self.status = FEASIBLE
                self._dropped = ()
                self._rows, self._basis = tab.T, tab.basis
                return
        self._phase_one(rows)

    def _phase_one(self, rows):
        """Phase 1 on the standard-form ``rows``, from the artificial basis:
        sets the status and, when feasible, the tableau over the structural
        columns, its basis and the dropped rows."""
        n = len(self._cols)
        m = len(rows)
        # Phase 1: minimize the sum of the artificials, which start as the basis.
        tab = _Tableau(rows, n + m, list(range(n, n + m)))
        tab.T.append(tab.cost_row([0] * n + [1] * m))
        if tab.run(self._rule) != OPTIMAL:  # pragma: no cover
            raise InternalInvariantError("phase 1 cannot be unbounded")
        tab.T.pop()
        # Each basic rhs is >= 0 and its row is positively scaled.
        if any(tab.T[r][-1] > 0 for r in range(m) if tab.basis[r] >= n):
            self.status = INFEASIBLE
            return

        # Drive leftover zero-value artificials out of the basis.
        keep = []
        dropped = []
        for r in range(tab.m):
            if tab.basis[r] >= n:
                j = next((jj for jj in range(n) if tab.T[r][jj]), None)
                if j is None:
                    # The row whose artificial is still basic here is redundant.
                    dropped.append(tab.basis[r] - n)
                    continue
                tab.pivot(r, j)
            keep.append(r)
        self.status = FEASIBLE
        self._dropped = tuple(dropped)
        # Phase 2 runs on the structural columns: no artificial is basic any more.
        self._rows = [tab.T[r][:n] + tab.T[r][-1:] for r in keep]
        self._basis = [tab.basis[r] for r in keep]

    def optimize(self, objective: dict, sense: str = "min") -> LpSolution:
        """Exact optimum of ``objective`` (variable -> exact rational) over
        the polyhedron, with a certified basis; ``sense`` is ``"min"`` or
        ``"max"``.  The stored feasible tableau is left as it was, and the
        answer carries the polyhedron's program: none is built here.  The
        program's own objective and sense were checked when it was built, so
        only another objective or sense is checked here."""
        program = self._program
        if objective is not program.objective or sense != program.sense:
            _check_objective(self._declared, objective, sense)
        if self._terms is None:
            return LpSolution(INFEASIBLE, program, objective, sense)
        cols = self._cols
        n = len(cols)
        # Written before the status is read, so an inexact objective is
        # rejected over infeasible constraints too.
        onums, oden = parts = _objective_parts(objective)
        obj = _objective_row(self._terms, n, parts, sense)
        if self.status == INFEASIBLE:
            return LpSolution(INFEASIBLE, program, objective, sense)
        # A pivot replaces rows and never changes one in place, so a new list
        # of the stored rows is a tableau of its own.
        tab = _Tableau(list(self._rows), n, list(self._basis))
        tab.T.append(tab.cost_row(obj))
        if tab.run(self._rule) == UNBOUNDED:
            return LpSolution(UNBOUNDED, program, objective, sense)

        # A nonbasic column is zero, so only basic columns with a nonzero
        # value move a variable off its base; row r's value is rhs/p, which
        # is a/q in lowest terms.
        moves = []
        for r, bj in enumerate(tab.basis):
            row = tab.T[r]
            p = row[bj]
            if p <= 0:
                raise InternalInvariantError(f"basic entry of row {r} is not positive")
            rhs = row[n]
            move = self._moves[bj]
            if rhs and move is not None:
                g = gcd(rhs, p)
                moves.append((move, rhs // g, p // g))
        base_den = self._base_den
        den = lcm(base_den, *[q for _, _, q in moves])
        up = den // base_den
        point = [x * up for x in self._base] if up > 1 else list(self._base)
        for (k, sign), a, q in moves:
            point[k] += sign * a * (den // q)
        point = IntRow(dict(zip(program.variables, point)), den)
        pnums = point.nums
        value = Rat(sum([x * pnums[v] for v, x in onums.items()]), oden * den)
        basis = tuple(cols[j] for j in tab.basis)
        return LpSolution(OPTIMAL, program, objective, sense, point, value, basis, self._dropped)


def solve(lp: LinearProgram, rule: str = "dantzig") -> LpSolution:
    """Exact optimum with a certified basis; deterministic for a fixed rule,
    ``"dantzig"`` or ``"bland"`` (any other raises ``ValidationError``).
    The answer carries ``lp`` itself."""
    return Polyhedron(lp, rule=rule).optimize(lp.objective, lp.sense)


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
