import random

import pytest

from ribce import lp as _lp
from ribce import rows
from ribce.bce import BcePolytope
from ribce.errors import ValidationError
from ribce.lp import LinearProgram, solve
from ribce.rational import ONE, ZERO, Rat
from ribce.vertices import enumerate_vertices

from sample_games import random_game
from sample_lps import FAMILIES


def test_max_with_upper_bound():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        sense="max",
        constraints=[({"x": Rat(1)}, "<=", Rat(3))],
    )
    sol = solve(lp)
    assert sol.is_optimal and sol.value == 3
    sol.verify(lp)


def test_infeasible():
    lp = LinearProgram(
        variables=("x",),
        objective={},
        constraints=[({"x": Rat(1)}, ">=", Rat(1)), ({"x": Rat(1)}, "<=", Rat(0))],
    )
    assert solve(lp).status == _lp.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        sense="max",
        bounds={"x": (Rat(0), None)},
    )
    assert solve(lp).status == _lp.UNBOUNDED


def test_equalities_handled_natively():
    lp = LinearProgram(
        variables=("x", "y"),
        objective={"x": Rat(1), "y": Rat(1)},
        constraints=[
            ({"x": Rat(1), "y": Rat(1)}, ">=", Rat(1)),
            ({"x": Rat(1), "y": Rat(-1)}, "=", Rat(1, 3)),
        ],
        bounds={"x": (Rat(0), None), "y": (Rat(0), None)},
    )
    sol = solve(lp)
    assert sol.value == 1 and sol.point["x"] == Rat(2, 3)
    sol.verify(lp)


def test_redundant_rows_dropped_and_still_verifiable():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        constraints=[({"x": Rat(1)}, "=", Rat(1)), ({"x": Rat(2)}, "=", Rat(2))],
    )
    sol = solve(lp)
    assert sol.value == 1 and sol.dropped_rows
    sol.verify(lp)


@pytest.mark.parametrize("rule", ["Bland", "blnad", "", None])
def test_unknown_rule_rejected(rule):
    lp = LinearProgram(variables=("x",), objective={"x": Rat(1)}, bounds={"x": (Rat(0), None)})
    with pytest.raises(ValidationError, match="unknown pivot rule"):
        solve(lp, rule=rule)


def test_unknown_variable_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(variables=("x",), objective={"y": Rat(1)})


def test_free_variables_split():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        sense="min",
        constraints=[({"x": Rat(1)}, ">=", Rat(-5))],
    )
    sol = solve(lp)
    assert sol.value == -5
    sol.verify(lp)


def test_both_rules_agree_on_value():
    rng = random.Random(2)
    for _ in range(15):
        game = random_game(rng)
        poly = BcePolytope.of(game)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in poly.variables}
        a = solve(poly.lp(objective, "min"), rule="dantzig")
        b = solve(poly.lp(objective, "min"), rule="bland")
        assert a.status == b.status == _lp.OPTIMAL
        assert a.value == b.value


def test_simplex_matches_vertex_enumeration_oracle():
    # Independent oracle: enumerate all vertices by double description and
    # take the best objective value over them.
    rng = random.Random(9)
    for _ in range(12):
        game = random_game(rng, n_actions=2, n_states=2)
        poly = BcePolytope.of(game)
        objective = {cell: Rat(rng.randint(-3, 3)) for cell in poly.variables}
        sol = solve(poly.lp(objective, "min"))
        sol.verify(poly.lp(objective, "min"))
        vertices = enumerate_vertices(poly.variables, poly.constraints, poly.bounds)
        assert vertices, "BCE polytope is never empty"
        best = min(
            sum((objective[v] * pt[v] for v in poly.variables), Rat(0)) for pt in vertices
        )
        assert sol.value == best


def test_solution_point_satisfies_all_constraints_exactly():
    rng = random.Random(4)
    game = random_game(rng)
    poly = BcePolytope.of(game)
    objective = {cell: Rat(rng.randint(-4, 4)) for cell in poly.variables}
    lp = poly.lp(objective, "min")
    sol = solve(lp)
    for con in lp.constraints:
        lhs = sum((c * sol.point[v] for v, c in con.coeffs.items()), Rat(0))
        if con.relation == "<=":
            assert lhs <= con.rhs
        elif con.relation == ">=":
            assert lhs >= con.rhs
        else:
            assert lhs == con.rhs


def _reference_standard_form(lp):
    """The former dense rational standard form, kept as the reference for
    ``lp._standard_form``: (column labels, per-column row vectors, rhs
    vector, objective vector), or None on an inconsistent bound pair."""
    cols, col_terms, shifts, extra_rows = [], {}, {}, []

    def add_col(label):
        cols.append(label)
        return len(cols) - 1

    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        if lo is not None and hi is not None and hi < lo:
            return None
        if lo is not None:
            j = add_col(("lo", v))
            col_terms[v], shifts[v] = [(j, ONE)], lo
            if hi is not None:
                extra_rows.append(({j: ONE}, "<=", hi - lo))
        elif hi is not None:
            col_terms[v], shifts[v] = [(add_col(("hi", v)), -ONE)], hi
        else:
            col_terms[v] = [(add_col(("pos", v)), ONE), (add_col(("neg", v)), -ONE)]
            shifts[v] = ZERO

    rows_data = []
    for con in lp.constraints:
        coeffs, rhs = {}, Rat(con.rhs)
        for v, c in con.coeffs.items():
            if not c:
                continue
            rhs -= c * shifts[v]
            for j, sign in col_terms[v]:
                coeffs[j] = coeffs.get(j, ZERO) + c * sign
        rows_data.append((coeffs, con.relation, rhs))
    rows_data += [(dict(coeffs), rel, rhs) for coeffs, rel, rhs in extra_rows]
    for r, (coeffs, rel, rhs) in enumerate(rows_data):
        if rel != "=":
            coeffs[add_col(("slack", r))] = ONE if rel == "<=" else -ONE

    b, col_rows = [], [[ZERO] * len(rows_data) for _ in cols]
    for r, (coeffs, rel, rhs) in enumerate(rows_data):
        flip = rhs < 0
        b.append(-rhs if flip else rhs)
        for j, c in coeffs.items():
            col_rows[j][r] = -c if flip else c
    sense_sign = ONE if lp.sense == "min" else -ONE
    obj = [ZERO] * len(cols)
    for v, c in lp.objective.items():
        for j, sign in col_terms[v]:
            obj[j] += sense_sign * c * sign
    return cols, col_rows, b, obj


def _assert_matches_reference(lp):
    reference = _reference_standard_form(lp)
    built = _lp._standard_form(lp)
    if reference is None:
        assert built is None
        return
    cols, col_rows, b, obj = reference
    got_cols, got_rows, got_obj = built
    assert got_cols == cols
    m = len(b)
    assert len(got_rows) == m
    for r, row in enumerate(got_rows):
        artificial = [ZERO] * m
        artificial[r] = ONE
        want = rows.primitive([col[r] for col in col_rows] + artificial + [b[r]])
        assert row == want
        assert all(type(x) is int for x in row)
    # Any positive multiple of the objective gives the same reduced-cost signs.
    assert all(type(x) is int for x in got_obj)
    assert rows.primitive(got_obj) == rows.primitive(obj)


def _edge_lps():
    x, y = "x", "y"
    return {
        "no constraints": LinearProgram(
            variables=(x, y),
            objective={x: Rat(1, 2), y: Rat(-3)},
            bounds={x: (Rat(1, 3), Rat(5, 2)), y: (None, Rat(2))},
        ),
        "plain ints": LinearProgram(
            variables=(x, y),
            objective={x: 2, y: -1},
            sense="max",
            constraints=[({x: 3, y: -2}, "<=", 7), ({x: 1, y: 1}, ">=", -4)],
            bounds={x: (-1, 6), y: (0, None)},
        ),
        "explicit zero": LinearProgram(
            variables=(x, y),
            objective={x: Rat(0), y: Rat(1)},
            constraints=[({x: Rat(0), y: Rat(2, 3)}, ">=", Rat(1, 5))],
            bounds={x: (Rat(2), None), y: (None, None)},
        ),
        "fixed variable": LinearProgram(
            variables=(x, y),
            objective={x: Rat(1), y: Rat(1)},
            constraints=[({x: Rat(1), y: Rat(1, 4)}, "=", Rat(3))],
            bounds={x: (Rat(5, 2), Rat(5, 2)), y: (Rat(0), None)},
        ),
        "upper bound only, negative shifted rhs": LinearProgram(
            variables=(x,),
            objective={x: Rat(1)},
            sense="max",
            constraints=[({x: Rat(3, 2)}, ">=", Rat(1))],
            bounds={x: (None, Rat(4))},
        ),
        "hi below lo": LinearProgram(
            variables=(x, y),
            objective={x: Rat(1)},
            constraints=[({x: Rat(1), y: Rat(1)}, "<=", Rat(1))],
            bounds={x: (Rat(0), None), y: (Rat(1), Rat(1, 2))},
        ),
    }


def test_standard_form_matches_dense_reference():
    for name, family in FAMILIES.items():
        rng = random.Random(name)
        for _ in range(40):
            _assert_matches_reference(family(rng))
    edges = _edge_lps()
    for lp in edges.values():
        _assert_matches_reference(lp)
    # The upper-bound-only case really flips its row: 3/2 (4 - y) >= 1.
    cols, built, _ = _lp._standard_form(edges["upper bound only, negative shifted rhs"])
    assert cols == [("hi", "x"), ("slack", 0)] and built == [[3, 2, 2, 10]]
    assert solve(edges["hi below lo"]).status == _lp.INFEASIBLE
    for name, lp in edges.items():
        sol = solve(lp)
        if sol.is_optimal:
            sol.verify(lp)
    assert solve(edges["fixed variable"]).point == {"x": Rat(5, 2), "y": Rat(2)}


@pytest.mark.parametrize(
    "objective, constraint, bounds, field",
    [
        ({"x": Rat(1)}, ({"x": 0.5, "y": Rat(1)}, "<=", Rat(1)), {}, "constraint 0: coefficient of 'x'"),
        ({"x": 1.0}, ({"x": Rat(1)}, "<=", Rat(1)), {}, "objective coefficient of 'x'"),
        ({"x": Rat(1)}, ({"x": Rat(1)}, "<=", Rat(1)), {"y": (Rat(0), 2.5)}, "upper bound of 'y'"),
        ({"x": Rat(1)}, ({"x": Rat(1)}, "<=", 0.1), {}, "constraint 0: rhs"),
    ],
)
def test_inexact_input_rejected(objective, constraint, bounds, field):
    lp = LinearProgram(
        variables=("x", "y"),
        objective=objective,
        sense="max",
        constraints=[constraint],
        bounds={"x": (Rat(0), None), **bounds},
    )
    with pytest.raises(ValidationError, match=f"^{field} is not an exact rational"):
        solve(lp)


def _reference_verify_dual(lp, sol):
    """The former rational dual check, kept as the reference for
    ``lp._verify_dual``: solve B^T y = c_B by Gauss–Jordan over
    ``Fraction``s on the surviving standard-form rows, then test every
    reduced cost c_j - y·A_j."""
    cols, std_rows, obj = _lp._standard_form(lp)
    surviving = [row for r, row in enumerate(std_rows) if r not in set(sol.dropped_rows)]
    index = {label: j for j, label in enumerate(cols)}
    try:
        bjs = [index[label] for label in sol.basis]
    except KeyError as exc:
        raise _lp.InternalInvariantError(f"unknown basis column {exc}") from exc
    size = len(surviving)
    if len(bjs) != size:
        raise _lp.InternalInvariantError("basis does not match surviving rows")
    aug = [[Rat(row[bj]) for row in surviving] + [Rat(obj[bj])] for bj in bjs]
    for col in range(size):
        piv = next((r for r in range(col, size) if aug[r][col]), None)
        if piv is None:
            raise _lp.InternalInvariantError("singular basis matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * s for x, s in zip(aug[r], aug[col])]
    y = [aug[r][size] for r in range(size)]
    for j, label in enumerate(cols):
        if obj[j] - sum((yr * row[j] for yr, row in zip(y, surviving)), ZERO) < 0:
            raise _lp.InternalInvariantError(f"dual infeasible at column {label}")


def _outcome(check, lp, sol):
    try:
        check(lp, sol)
    except _lp.InternalInvariantError as exc:
        return str(exc)
    return "ok"


def _kind(outcome):
    """An outcome without the column it names."""
    for prefix in ("dual infeasible", "unknown basis column"):
        if outcome.startswith(prefix):
            return prefix
    return outcome


def _claims(lp, rng):
    """(kind, program, claimed solution) triples for the dual check: the
    optimum of ``lp`` and of the same constraints under a second objective,
    the latter's basis claimed for ``lp`` (feasible, not always optimal),
    then one of these bases with a duplicated label, one label short and an
    unknown label, and a random set of standard-form columns for ``lp``."""
    claims = []
    sol = solve(lp)
    if sol.is_optimal:
        claims.append(("optimal", lp, sol))
    second = LinearProgram(
        lp.variables,
        {v: Rat(rng.randint(-4, 4), rng.randint(1, 3)) for v in lp.variables},
        "max" if lp.sense == "min" else "min",
        lp.constraints,
        lp.bounds,
    )
    other = solve(second)
    if other.is_optimal:
        claims.append(("optimal", second, other))
        # The point is feasible and the value is the one it gives under lp's
        # own objective, so only the dual check can reject it.
        value = sum((c * other.point[v] for v, c in lp.objective.items()), ZERO)
        claim = _lp.LpSolution(_lp.OPTIMAL, other.point, value, other.basis, other.dropped_rows)
        claims.append(("second objective", lp, claim))
    base = sol if sol.is_optimal else other if other.is_optimal else None
    if base is not None and base.basis:
        labels = base.basis
        derived = {"one short": labels[:-1], "unknown": labels[:-1] + (("ghost", 0),)}
        if len(labels) > 1:
            derived["duplicated"] = labels[:-1] + labels[:1]
        for kind, basis in derived.items():
            claim = _lp.LpSolution(_lp.OPTIMAL, None, None, basis, base.dropped_rows)
            claims.append((kind, lp if sol.is_optimal else second, claim))
    std = _lp._standard_form(lp)
    if std is not None:
        cols, std_rows, _ = std
        basis = tuple(rng.sample(cols, min(len(cols), len(std_rows))))
        claims.append(("random", lp, _lp.LpSolution(_lp.OPTIMAL, None, None, basis, ())))
    return claims


def test_dual_check_matches_gauss_jordan_reference():
    seen = {}
    for family_name, family in FAMILIES.items():
        rng = random.Random(f"dual {family_name}")
        for _ in range(40):
            for kind, lp, claim in _claims(family(rng), rng):
                want = _outcome(_reference_verify_dual, lp, claim)
                assert _outcome(_lp._verify_dual, lp, claim) == want, (family_name, kind)
                if claim.point is not None:
                    assert _outcome(_lp.LpSolution.verify, claim, lp) == want
                seen.setdefault(kind, set()).add(_kind(want))
    assert seen["optimal"] == {"ok"}
    assert seen["second objective"] == {"ok", "dual infeasible"}
    assert seen["duplicated"] == {"singular basis matrix"}
    assert seen["one short"] == {"basis does not match surviving rows"}
    assert seen["unknown"] == {"unknown basis column"}
    assert seen["random"] >= {"ok", "dual infeasible", "singular basis matrix"}
