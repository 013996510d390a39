import pathlib
import random
import re
from dataclasses import replace
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ribce
from ribce import lp as _lp
from ribce import rows
from ribce.bce import BcePolytope, maximize_cell_over_bce, minimize_linear_over_bce
from ribce.errors import ValidationError
from ribce.lp import IntRow, LinearProgram, solve
from ribce.rational import ONE, ZERO, Rat
from ribce.vertices import enumerate_vertices
from ribce.welfare import epigraph_lp, gross_objective

from sample_games import (
    coordination_game_3x3,
    investment_game,
    matching_pennies,
    random_game,
    random_symmetric_binary_game,
)
from sample_lps import FAMILIES, beale_lp, with_objective


def test_max_with_upper_bound():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        sense="max",
        constraints=[({"x": Rat(1)}, "<=", Rat(3))],
    )
    sol = solve(lp)
    assert sol.is_optimal and sol.value == 3
    sol.verify()


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
    sol.verify()


def test_redundant_rows_dropped_and_still_verifiable():
    lp = LinearProgram(
        variables=("x",),
        objective={"x": Rat(1)},
        constraints=[({"x": Rat(1)}, "=", Rat(1)), ({"x": Rat(2)}, "=", Rat(2))],
    )
    sol = solve(lp)
    assert sol.value == 1 and sol.dropped_rows
    sol.verify()


@pytest.mark.parametrize("rule", ["Bland", "blnad", "", None])
def test_unknown_rule_rejected(rule):
    lp = LinearProgram(variables=("x",), objective={"x": Rat(1)}, bounds={"x": (Rat(0), None)})
    with pytest.raises(ValidationError, match="unknown pivot rule"):
        solve(lp, rule=rule)
    with pytest.raises(ValidationError, match="unknown pivot rule"):
        _lp.Polyhedron(lp, (("lo", "x"),), rule=rule)


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
    sol.verify()


def test_both_rules_agree_on_value():
    rng = random.Random(2)
    for _ in range(15):
        game = random_game(rng)
        poly = BcePolytope.of(game)
        objective = {cell: Rat(rng.randint(-4, 4)) for cell in poly.variables}
        a = solve(with_objective(poly.program, objective), rule="dantzig")
        b = solve(with_objective(poly.program, objective), rule="bland")
        assert a.status == b.status == _lp.OPTIMAL
        assert a.value == b.value


def test_simplex_matches_vertex_enumeration_oracle(answers):
    # Independent oracle: enumerate all vertices by double description and
    # take the best objective value over them.  The library's optimizers run
    # on the game's shared polytope, and each answer proves itself optimal.
    rng = random.Random(9)
    for _ in range(12):
        game = random_game(rng, n_actions=2, n_states=2)
        poly = game.bce_polytope
        vertices = enumerate_vertices(poly.variables, poly.constraints, poly.bounds)
        assert vertices, "BCE polytope is never empty"
        objective = {cell: Rat(rng.randint(-3, 3)) for cell in poly.variables}
        answers.clear()
        _, value = minimize_linear_over_bce(game, objective)
        best = min(sum((objective[v] * pt[v] for v in poly.variables), ZERO) for pt in vertices)
        assert value == best
        for cell in poly.variables:
            _, value = maximize_cell_over_bce(game, cell)
            assert value == max(pt[cell] for pt in vertices), cell
        assert len(answers) == 1 + len(poly.variables)
        for sol in answers:
            assert sol.program is poly.program
            assert sol.verify()


def test_solution_point_satisfies_all_constraints_exactly():
    rng = random.Random(4)
    game = random_game(rng)
    poly = BcePolytope.of(game)
    objective = {cell: Rat(rng.randint(-4, 4)) for cell in poly.variables}
    lp = with_objective(poly.program, objective)
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
    got_cols, got_rows, terms, _, _ = built
    got_obj = _lp._objective_row(terms, len(got_cols), _lp._objective_parts(lp.objective), lp.sense)
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
    cols, built, _, _, _ = _lp._standard_form(edges["upper bound only, negative shifted rhs"])
    assert cols == [("hi", "x"), ("slack", 0)] and built == [[3, 2, 2, 10]]
    assert solve(edges["hi below lo"]).status == _lp.INFEASIBLE
    for name, lp in edges.items():
        sol = solve(lp)
        if sol.is_optimal:
            sol.verify()
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


def test_bounds_checked_once_per_kind_of_pair(monkeypatch):
    # Exactness is a property of a value's type: one check per distinct
    # (type(lo), type(hi)) pair, and still the first variable carrying an
    # inexact bound is named, even when it equals an exact bound seen before.
    checked = []
    original = _lp._inexact
    monkeypatch.setattr(_lp, "_inexact", lambda x: checked.append(x) or original(x))
    names = tuple(f"x{k}" for k in range(6))

    def lp(bounds):
        return LinearProgram(
            variables=names,
            objective={"x0": Rat(1)},
            sense="min",
            constraints=[({v: Rat(1) for v in names}, "=", Rat(1))],
            bounds=bounds,
        )

    assert solve(lp({v: (Rat(0), None) for v in names})).is_optimal
    assert checked == [Rat(0)]
    checked.clear()
    boxed = {v: (Rat(0), Rat(1)) for v in names}
    assert solve(lp({**boxed, "x5": (Rat(0), None)})).is_optimal
    assert checked == [Rat(0), Rat(1), Rat(0)]
    for bounds, field in [
        ({**boxed, "x3": (0.0, Rat(1)), "x4": (0.0, Rat(1))}, "lower bound of 'x3'"),
        ({**boxed, "x2": (Rat(0), 1.0)}, "upper bound of 'x2'"),
    ]:
        with pytest.raises(ValidationError, match=f"^{field} is not an exact rational"):
            solve(lp(bounds))


def _reference_verify_dual(sol):
    """The former rational dual check, kept as the reference for
    ``LpSolution.verify`` and ``duals``: solve B^T y = c_B by Gauss–Jordan
    over ``Fraction``s on the surviving standard-form rows of the answer's
    program, then test every reduced cost c_j - y·A_j of its objective."""
    cols, std_rows, terms, _, _ = _lp._standard_form(sol.program)
    obj = _lp._objective_row(terms, len(cols), _lp._objective_parts(sol.objective), sol.sense)
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


def _outcome(check, sol):
    try:
        check(sol)
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
    """(kind, claimed solution) pairs for the dual check, each a real answer
    or one tampered with by ``dataclasses.replace``: the optimum of ``lp``
    and of the same constraints under a second objective, the latter's
    point and basis claimed for ``lp``'s objective (feasible, not always
    optimal), then one of these answers without a point, with a duplicated
    label, one label short and an unknown label."""
    claims = []
    sol = solve(lp)
    if sol.is_optimal:
        claims.append(("optimal", sol))
    objective = {v: Rat(rng.randint(-4, 4), rng.randint(1, 3)) for v in lp.variables}
    other = _lp.Polyhedron(lp).optimize(objective, "max" if lp.sense == "min" else "min")
    if other.is_optimal:
        claims.append(("optimal", other))
        # The point is feasible and the value is the one it gives under lp's
        # own objective, so only the dual check can reject it.
        value = sum((c * other.point[v] for v, c in lp.objective.items()), ZERO)
        claim = replace(other, objective=lp.objective, sense=lp.sense, value=value)
        claims.append(("second objective", claim))
    base = sol if sol.is_optimal else other if other.is_optimal else None
    if base is not None and base.basis:
        labels = base.basis
        derived = {"one short": labels[:-1], "unknown": labels[:-1] + (("ghost", 0),)}
        if len(labels) > 1:
            derived["duplicated"] = labels[:-1] + labels[:1]
        for kind, basis in derived.items():
            claims.append((kind, replace(base, point=None, value=None, basis=basis)))
    return claims


def test_dual_check_matches_gauss_jordan_reference():
    seen = {}
    for family_name, family in FAMILIES.items():
        rng = random.Random(f"dual {family_name}")
        for _ in range(40):
            for kind, claim in _claims(family(rng), rng):
                want = _outcome(_reference_verify_dual, claim)
                if claim.point is None:
                    # A basis that does not fit the rows: ``duals`` refuses
                    # it with the reference's message.
                    assert _outcome(_lp.LpSolution.duals, claim) == want, (family_name, kind)
                else:
                    # ``verify`` names the condition of ``check_certificate``
                    # that fails, so only the verdicts are compared.
                    got = _outcome(_lp.LpSolution.verify, claim)
                    assert (got == "ok") == (want == "ok"), (family_name, kind, got, want)
                seen.setdefault(kind, set()).add(_kind(want))
    assert seen["optimal"] == {"ok"}
    assert seen["second objective"] == {"ok", "dual infeasible"}
    assert seen["duplicated"] == {"singular basis matrix"}
    assert seen["one short"] == {"basis does not match surviving rows"}
    assert seen["unknown"] == {"unknown basis column"}


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
def test_verify_accepts_every_optimal_answer_of_redundant_programs(rule):
    # Phase 1 drops the rows it proves redundant; ``verify`` must fit the
    # basis to the rows that remain, whichever tableau row held them.
    optimal = 0
    for seed in range(300):
        lp = FAMILIES["redundant"](random.Random(f"redundant-{seed}"))
        sol = solve(lp, rule=rule)
        if sol.is_optimal:
            assert sol.verify(), seed
            optimal += 1
    assert optimal


def _answer(sol):
    point = None if sol.point is None else list(sol.point.items())
    return sol.status, point, sol.value, sol.basis, sol.dropped_rows


def _objectives(lp, rng):
    """The program's own objective, the zero objective and three random
    ones, each in both senses."""
    other = "max" if lp.sense == "min" else "min"
    drawn = [
        {v: Rat(rng.randint(-4, 4), rng.randint(1, 3)) for v in lp.variables if rng.random() < 0.7}
        for _ in range(3)
    ]
    out = [(lp.objective, lp.sense), (lp.objective, other)]
    for objective in [{}] + drawn:
        out += [(objective, "min"), (objective, "max")]
    return out


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_phase_one_reuse_matches_cold_solve(family, rule):
    statuses = set()
    for seed in range(12):
        lp = FAMILIES[family](random.Random(f"{family}-{seed}"))
        region = _lp.Polyhedron(lp, rule=rule)
        for objective, sense in _objectives(lp, random.Random(f"objectives {family}-{seed}")):
            program = with_objective(lp, objective, sense)
            warm = region.optimize(objective, sense)
            assert _answer(warm) == _answer(solve(program, rule)), (seed, objective, sense)
            assert _answer(region.optimize(objective, sense)) == _answer(warm)
            if warm.is_optimal:
                assert warm.verify()
            statuses.add(warm.status)
    expected = {
        "infeasible": {_lp.INFEASIBLE},
        "unbounded": {_lp.OPTIMAL, _lp.UNBOUNDED},
    }.get(family, {_lp.OPTIMAL})
    assert statuses >= expected


def _reference_basis_check(lp, basis):
    """Why ``Polyhedron`` must refuse ``basis`` as the start of ``lp``, or
    "ok": on the dense rational standard form, every label must name a
    column, one per row, and Gauss–Jordan over ``Fraction``s must find B
    nonsingular and B⁻¹b >= 0."""
    cols, col_rows, b, _ = _reference_standard_form(lp)
    index = {label: j for j, label in enumerate(cols)}
    if any(label not in index for label in basis):
        return "unknown"
    m = len(b)
    if len(basis) != m:
        return "count"
    aug = [[col_rows[index[label]][r] for label in basis] + [b[r]] for r in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            return "singular"
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * s for x, s in zip(aug[r], aug[col])]
    return "ok" if all(aug[r][m] >= 0 for r in range(m)) else "negative"


def _proposals(lp, cold, rule):
    """(kind, basis) proposals for ``lp``: the cold answer's own basis when
    it is optimal, a feasible basis (the zero objective's optimal one), and
    from the first of them (the last m columns if neither exists, m the
    number of rows), an unknown label, a repeated column, one column short,
    and its first m - 1 labels with each column outside it."""
    feasible = solve(with_objective(lp, {}), rule)
    cols, rows = _lp._standard_form(lp)[:2]
    out = []
    if cold.is_optimal:
        out.append(("cold", cold.basis))
    if feasible.is_optimal:
        out.append(("feasible", feasible.basis))
    # With no feasible basis, the last m columns stand in.
    base = out[0][1] if out else tuple(cols[len(cols) - len(rows) :])
    out += [("unknown", base[:-1] + (("ghost", 0),)), ("short", base[:-1])]
    if len(base) > 1:
        out.append(("repeated", base[:-1] + base[:1]))
    head = base[: len(rows) - 1]
    out += [("swap", head + (label,)) for label in cols if label not in base]
    return out


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_from_basis_accepts_exactly_the_feasible_bases(family, rule, feasible_starts):
    # A proposal that passes the exact checks starts phase 2 with no phase
    # 1, and gives a cold solve's status and value (and, from the cold
    # optimal basis, its point and columns); any other falls back to phase 1
    # and gives the cold answer itself.
    seen = set()
    for seed in range(12):
        lp = FAMILIES[family](random.Random(f"{family}-{seed}"))
        cold = solve(lp, rule)
        for kind, basis in _proposals(lp, cold, rule):
            feasible_starts.clear()
            region = _lp.Polyhedron(lp, basis, rule)
            answer = region.optimize(lp.objective, lp.sense)
            why = _reference_basis_check(lp, basis)
            assert feasible_starts == ["basis" if why == "ok" else "phase 1"], (seed, kind)
            if kind == "cold" and not cold.dropped_rows:
                assert why == "ok", seed
            seen.add((kind, why))
            if why != "ok":
                assert _answer(answer) == _answer(cold), (seed, kind)
                continue
            assert (answer.status, answer.value) == (cold.status, cold.value), (seed, kind)
            if answer.is_optimal:
                assert answer.dropped_rows == ()
                assert answer.verify()
            if kind == "cold":
                assert answer.point == cold.point and set(answer.basis) == set(cold.basis)
    refused = {why for _, why in seen} - {"ok"}
    assert {"unknown", "count", "singular"} <= refused
    if family in ("redundant", "infeasible"):
        # The redundant family's phase 1 drops a row, so its optimal basis
        # is a column short, and the dependent rows make every square B
        # singular; the infeasible family has no feasible basis at all.
        assert "ok" not in {why for _, why in seen}
    else:
        assert ("cold", "ok") in seen or ("feasible", "ok") in seen
    if family in ("mixed", "degenerate"):
        assert ("cold", "ok") in seen and "negative" in refused


def test_phase_one_infeasible_for_every_objective():
    rng = random.Random(31)
    programs = [FAMILIES["infeasible"](rng) for _ in range(10)] + [_edge_lps()["hi below lo"]]
    for lp in programs:
        region = _lp.Polyhedron(lp)
        assert region.status == _lp.INFEASIBLE
        for objective, sense in _objectives(lp, rng):
            assert region.optimize(objective, sense).status == _lp.INFEASIBLE


def test_phase_one_unbounded_along_improving_ray():
    rng = random.Random(32)
    for _ in range(10):
        lp = FAMILIES["unbounded"](rng)
        region = _lp.Polyhedron(lp)
        assert region.status == _lp.FEASIBLE
        # The objective has positive weights on nonnegative variables: it
        # grows without bound along the all-ones ray and is bounded below.
        assert region.optimize(lp.objective, "max").status == _lp.UNBOUNDED
        assert region.optimize(lp.objective, "min").is_optimal
        assert region.optimize(lp.objective, "max").status == _lp.UNBOUNDED


@pytest.mark.parametrize(
    "objective, sense, message",
    [
        ({"y": Rat(1)}, "min", "objective references unknown variable 'y'"),
        ({"x": Rat(1)}, "maximize", "unknown sense 'maximize'"),
        ({"x": 0.5}, "max", "objective coefficient of 'x' is not an exact rational"),
    ],
)
def test_optimize_rejects_what_linear_program_rejects(objective, sense, message):
    rows = [({"x": Rat(1)}, "<=", Rat(3))]
    region = _lp.Polyhedron(LinearProgram(("x",), {}, constraints=rows, bounds={"x": (ZERO, None)}))
    with pytest.raises(ValidationError, match=f"^{message}"):
        region.optimize(objective, sense)
    assert region.optimize({"x": Rat(1)}, "max").value == 3


def test_solve_checks_the_programs_own_objective_once(monkeypatch):
    # A program's objective and sense are checked when it is built; optimize
    # checks only an objective object or a sense that is not the program's.
    checked = []
    check = _lp._check_objective
    monkeypatch.setattr(_lp, "_check_objective", lambda *args: checked.append(args) or check(*args))
    rows = [({"x": Rat(1)}, "<=", Rat(3))]
    program = LinearProgram(("x",), {"x": Rat(1)}, "max", rows, {"x": (ZERO, None)})
    assert len(checked) == 1
    assert solve(program).value == 3
    assert len(checked) == 1
    region = _lp.Polyhedron(program)
    assert region.optimize(dict(program.objective), "max").value == 3
    assert region.optimize(program.objective, "min").value == 0
    assert len(checked) == 3
    message = "^objective references unknown variable 'y'$"
    with pytest.raises(ValidationError, match=message):
        LinearProgram(("x",), {"y": Rat(1)}, constraints=rows)
    with pytest.raises(ValidationError, match=message):
        region.optimize({"y": Rat(1)}, "max")


def test_unknown_variables_are_named_first_in_key_order():
    rows = [({"x": Rat(1), "z": Rat(1), "y": Rat(1)}, "<=", Rat(3))]
    with pytest.raises(ValidationError, match="^constraint references unknown variable 'z'$"):
        LinearProgram(variables=("x",), objective={}, constraints=rows)
    bounds = {"x": (ZERO, None), "w": (ZERO, None), "v": (ZERO, None)}
    with pytest.raises(ValidationError, match="^bound on unknown variable 'w'$"):
        LinearProgram(variables=("x",), objective={}, bounds=bounds)


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
def test_beale_cycling_example_terminates(monkeypatch, rule):
    """Beale's example (1955) cycles under Dantzig pricing when phase 2
    starts from the slack basis.  Phase 1 here starts from the artificial
    basis and hands phase 2 another one, and either rule reaches the optimum
    in fewer pivots than ``_STALL_LIMIT`` (5 under Dantzig pricing, 6 under
    Bland's rule): the stall fallback to Bland's rule does not engage."""
    pivots = []
    pivot = _lp._Tableau.pivot
    monkeypatch.setattr(_lp._Tableau, "pivot", lambda tab, r, j: pivots.append(j) or pivot(tab, r, j))
    program = beale_lp()
    sol = solve(program, rule)
    assert len(pivots) == {"dantzig": 5, "bland": 6}[rule] < _lp._STALL_LIMIT
    assert sol.is_optimal and sol.value == Rat(-5, 4)
    assert dict(sol.point) == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}
    assert sol.verify()


def test_phase_one_rejects_bad_input():
    # A program's rows and bounds are validated when it is built; phase 1
    # checks the rule and rejects what only the standard form can read.
    with pytest.raises(ValidationError, match="unknown pivot rule 'Bland'"):
        _lp.Polyhedron(LinearProgram(("x",), {}), rule="Bland")
    with pytest.raises(ValidationError, match="constraint references unknown variable 'y'"):
        _lp.Polyhedron(LinearProgram(("x",), {}, constraints=[({"y": Rat(1)}, "<=", Rat(3))]))
    with pytest.raises(ValidationError, match="bound on unknown variable 'y'"):
        _lp.Polyhedron(LinearProgram(("x",), {}, bounds={"y": (Rat(0), None)}))
    with pytest.raises(ValidationError, match="^constraint 0: rhs is not an exact rational"):
        _lp.Polyhedron(LinearProgram(("x",), {}, constraints=[({"x": Rat(1)}, "<=", 0.1)]))


# Rationals with mixed denominators; zero and negative values are common.
RATS = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 10)))


@st.composite
def int_row_programs(draw):
    """(program over dicts, the same program over ``IntRow``s): random rows
    with zero entries, all three relations, negative rhs, shifted and free
    variables, each ``IntRow`` over a random multiple of its least common
    denominator."""
    variables = tuple(f"x{k}" for k in range(draw(st.integers(1, 4))))

    def coeff_row():
        keys = draw(st.lists(st.sampled_from(variables), unique=True, max_size=len(variables)))
        return {v: draw(RATS) for v in keys}

    def as_int_row(row):
        den = lcm(*(c.denominator for c in row.values())) * draw(st.integers(1, 6))
        return IntRow({v: int(c * den) for v, c in row.items()}, den)

    bounds = {}
    for v in variables:
        lo, hi = draw(RATS), draw(RATS)
        kind = draw(st.sampled_from(("free", "lower", "upper", "both")))
        if kind == "both":
            bounds[v] = (min(lo, hi), max(lo, hi))
        elif kind != "free":
            bounds[v] = (lo, None) if kind == "lower" else (None, hi)
    rows = [
        (coeff_row(), draw(st.sampled_from((_lp.LESS, _lp.EQUAL, _lp.GREATER))), draw(RATS))
        for _ in range(draw(st.integers(0, 4)))
    ]
    objective = coeff_row()
    sense = draw(st.sampled_from(("min", "max")))
    plain = LinearProgram(variables, objective, sense, rows, bounds)
    ints = LinearProgram(
        variables,
        as_int_row(objective),
        sense,
        [(as_int_row(row), rel, rhs) for row, rel, rhs in rows],
        bounds,
    )
    return plain, ints


@given(int_row_programs())
def test_int_rows_write_and_solve_as_their_rationals(programs):
    plain, ints = programs
    rows = [(ints.objective, plain.objective)]
    rows += [(a.coeffs, b.coeffs) for a, b in zip(ints.constraints, plain.constraints)]
    for row, ref in rows:
        assert list(row.items()) == list(ref.items()) and row == ref
    std = _lp._standard_form(plain)
    assert _lp._standard_form(ints) == std
    if std is not None:
        cols, _, terms, _, _ = std
        parts = _lp._objective_parts(plain.objective)
        obj = _lp._objective_row(terms, len(cols), parts, plain.sense)
        parts = _lp._objective_parts(ints.objective)
        assert _lp._objective_row(terms, len(cols), parts, ints.sense) == obj
        assert all(type(x) is int for x in obj)
    got, want = solve(ints), solve(plain)
    assert _answer(got) == _answer(want)
    if got.is_optimal:
        assert got.verify()


def test_int_row_reads_as_rationals():
    row = IntRow({"x": 4, "y": -3, "z": 0}, 6)
    assert list(row.items()) == [("x", Rat(2, 3)), ("y", Rat(-1, 2)), ("z", ZERO)]
    assert row == {"x": Rat(2, 3), "y": Rat(-1, 2), "z": 0} and len(row) == 3
    assert _lp.int_parts(row) == ({"x": 4, "y": -3, "z": 0}, 6)
    assert _lp.int_parts({"x": Rat(2, 3), "y": Rat(-1, 2)}) == ({"x": 4, "y": -3}, 6)
    for den in (0, -2, Rat(1), True):
        with pytest.raises(ValidationError, match="row denominator must be a positive int"):
            IntRow({"x": 1}, den)


# Duals and the certificate check.  ``LpSolution.duals`` reads one dual per
# constraint off the answer's basis; ``check_certificate`` proves the answer
# optimal from them on the program's own rows, independently of the
# tableau, so the two routes meet only in the claimed value.


def _certified(lp, sol):
    assert sol.program is lp
    duals = sol.duals()
    assert len(duals) == len(lp.constraints)
    _lp.check_certificate(lp, lp.objective, lp.sense, sol.point, sol.value, duals)
    return duals


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_duals_of_every_optimal_answer_pass_the_check(family, rule):
    optimal = 0
    for seed in range(40):
        lp = FAMILIES[family](random.Random(f"{family}-{seed}"))
        sol = solve(lp, rule=rule)
        if sol.is_optimal:
            _certified(lp, sol)
            optimal += 1
    assert optimal or family in ("infeasible", "unbounded")


def test_duals_of_redundant_rows_dropped_in_phase_one_are_zero():
    dropped = 0
    for seed in range(12):
        lp = FAMILIES["redundant"](random.Random(f"redundant-{seed}"))
        sol = solve(lp)
        if sol.is_optimal and sol.dropped_rows:
            duals = _certified(lp, sol)
            assert all(duals[r] == 0 for r in sol.dropped_rows if r < len(duals))
            dropped += 1
    assert dropped


def _bce_programs(game):
    """The BCE programs a game's worst cases and cell maxima solve."""
    poly = game.bce_polytope
    yield with_objective(poly.program, gross_objective(game))
    yield with_objective(poly.program, gross_objective(game), "max")
    yield with_objective(poly.program, {poly.variables[-1]: ONE}, "max")
    yield epigraph_lp(game)


def test_duals_of_bce_answers_pass_the_check():
    games = [investment_game(), investment_game(Rat(1, 10))]
    games += [coordination_game_3x3(), matching_pennies()]
    games += [random_game(random.Random(seed), n_states=1 + seed % 3) for seed in range(8)]
    games += [random_symmetric_binary_game(random.Random(seed), n_players=3) for seed in range(3)]
    checked = 0
    for game in games:
        for lp in _bce_programs(game):
            sol = solve(lp)
            assert sol.is_optimal
            _certified(lp, sol)
            checked += 1
    assert checked == 4 * len(games)


def test_duals_need_an_optimal_answer():
    lp = FAMILIES["infeasible"](random.Random("infeasible-0"))
    sol = solve(lp)
    assert sol.status == _lp.INFEASIBLE
    with pytest.raises(ValidationError, match="^duals need an optimal answer"):
        sol.duals()


def _box_lp(sense="min"):
    """min/max x + 2y over x + y >= 1, x - y <= 1, 0 <= x, 0 <= y <= 3."""
    return LinearProgram(
        variables=("x", "y"),
        objective={"x": Rat(1), "y": Rat(2)},
        sense=sense,
        constraints=[({"x": ONE, "y": ONE}, ">=", ONE), ({"x": ONE, "y": -ONE}, "<=", ONE)],
        bounds={"x": (ZERO, None), "y": (ZERO, Rat(3))},
    )


def test_check_certificate_names_each_failed_condition():
    lp = _box_lp()
    sol = solve(lp)
    assert sol.value == 1 and dict(sol.point) == {"x": 1, "y": 0}
    duals = _certified(lp, sol)
    assert duals == (Rat(1), Rat(0))
    tampered = [
        ({"x": Rat(-1), "y": ZERO}, sol.value, duals, "^x below lower bound$"),
        ({"x": ONE, "y": Rat(4)}, sol.value, duals, "^y above upper bound$"),
        ({"x": Rat(1, 2), "y": ZERO}, Rat(1, 2), duals, "^constraint violated: "),
        (sol.point, sol.value + Rat(1, 1000), duals, "^objective value mismatch$"),
        (sol.point, sol.value, (Rat(-1), ZERO), "^dual of constraint 0 has the wrong sign$"),
        (sol.point, sol.value, (ONE, Rat(1, 2)), "^dual of constraint 1 has the wrong sign$"),
        # y = 1/2 leaves x a reduced cost of 1/2 > 0 at its lower bound,
        # which proves only the lower bound 1/2 < 1.
        (sol.point, sol.value, (Rat(1, 2), ZERO), "^dual objective mismatch$"),
        (sol.point, sol.value, (ONE,), "^1 duals for 2 constraints$"),
    ]
    for point, value, duals_claimed, message in tampered:
        with pytest.raises(_lp.InternalInvariantError, match=message):
            _lp.check_certificate(lp, lp.objective, lp.sense, point, value, duals_claimed)
    # Under max, x + 2y peaks at y = 3 on its upper bound, where d_y > 0.
    top = _box_lp("max")
    sol = solve(top)
    assert sol.value == 10
    _certified(top, sol)
    free = replace(top, bounds={"x": (ZERO, None)})
    message = "^reduced cost of y points at a missing upper bound$"
    with pytest.raises(_lp.InternalInvariantError, match=message):
        _lp.check_certificate(free, top.objective, "max", sol.point, sol.value, sol.duals())


def test_check_certificate_reads_a_point_missing_zero_variables():
    lp = _box_lp()
    sol = solve(lp)
    _lp.check_certificate(lp, lp.objective, lp.sense, {"x": ONE}, sol.value, sol.duals())


# One program per LP: a program is validated once, when built, and every
# answer carries it; ``Polyhedron``, ``optimize`` and the certificates read
# that same object and copy nothing.


@pytest.mark.parametrize("family", list(FAMILIES))
def test_solve_validates_no_program_of_its_own(family, programs_validated):
    for seed in range(6):
        lp = FAMILIES[family](random.Random(f"{family}-{seed}"))
        programs_validated.clear()
        sol = solve(lp)
        assert programs_validated == []
        assert sol.program is lp
        assert (sol.objective, sol.sense) == (lp.objective, lp.sense)
        if sol.is_optimal:
            assert sol.verify()
        assert programs_validated == []


def _scan(pattern):
    """``module.function`` (``module.Class.method``) of each line of the
    package's sources that matches ``pattern``."""
    src = pathlib.Path(ribce.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        scope = []  # (indent, name) of each enclosing class or def
        for line in path.read_text().splitlines():
            indent = len(line) - len(line.lstrip())
            if line.strip():
                scope = [(i, name) for i, name in scope if i < indent]
            match = re.match(r" *(?:class|def) (\w+)", line)
            if match:
                scope.append((indent, match.group(1)))
            if re.search(pattern, line):
                found.append(".".join([path.stem, *[name for _, name in scope]]))
    return found


def test_only_the_program_builders_build_linear_programs():
    assert sorted(set(_scan(r"\bLinearProgram\("))) == [
        "bce.BcePolytope.of",
        "lp.feasible_point",
        "regime.CountSpace.program",
        "structure._separating_functional",
        "welfare.binary_symmetric_gap_test",
        "welfare.epigraph_lp",
    ]
    assert _scan(r"\bdataclasses\.replace\b|from dataclasses import .*\breplace\b") == []


def test_a_polyhedron_starts_one_way():
    # One constructor, ``Polyhedron(program, start, rule)``: no phase-1
    # function beside it, no object made by ``__new__`` alone, which would
    # skip ``__init__``, and the flips of ``_standard_form`` are the only
    # record of a negated row.
    assert sorted(set(_scan(r"\bPolyhedron\("))) == [
        "bce.BcePolytope.feasible",
        "lp.solve",
        "regime.CountSpace.feasible",
        "welfare.binary_symmetric_gap_test",
    ]
    assert _scan(r"\bphase_one\b|\bfrom_basis\b|__new__\([\w.]+\)|\b_shifted_rhs\b") == []
