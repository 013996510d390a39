"""The exact simplex against a floating-point oracle (HiGHS through scipy).

The oracle is a second, independent route: on seeded random LPs with mixed
relations and bounds the two must agree on the status and, at an optimum,
on the value up to float tolerance.  The exact answer is the one that
counts; its certificate is re-checked with ``LpSolution.verify``.
"""

import random

import pytest

from ribce import lp as _lp

from sample_lps import FAMILIES

linprog = pytest.importorskip("scipy.optimize").linprog

N_PROGRAMS = 200
ORACLE_STATUS = {0: _lp.OPTIMAL, 2: _lp.INFEASIBLE, 3: _lp.UNBOUNDED}


def _oracle(lp):
    """(status, value) from HiGHS on the same program."""
    index = {v: j for j, v in enumerate(lp.variables)}
    sign = 1.0 if lp.sense == "min" else -1.0
    c = [0.0] * len(index)
    for v, q in lp.objective.items():
        c[index[v]] = sign * float(q)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = [0.0] * len(index)
        for v, q in con.coeffs.items():
            row[index[v]] = float(q)
        if con.relation == _lp.EQUAL:
            a_eq.append(row)
            b_eq.append(float(con.rhs))
        elif con.relation == _lp.LESS:
            a_ub.append(row)
            b_ub.append(float(con.rhs))
        else:
            a_ub.append([-x for x in row])
            b_ub.append(-float(con.rhs))
    bounds = []
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (None, None))
        bounds.append((None if lo is None else float(lo), None if hi is None else float(hi)))
    res = linprog(
        c,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=bounds,
        method="highs",
    )
    return ORACLE_STATUS[res.status], None if res.status else sign * res.fun


def test_solver_agrees_with_float_oracle():
    families = list(FAMILIES.values())
    seen = set()
    for seed in range(N_PROGRAMS):
        rng = random.Random(f"oracle-{seed}")
        lp = rng.choice(families)(rng)
        sol = _lp.solve(lp)
        status, value = _oracle(lp)
        assert sol.status == status, (seed, lp)
        seen.add(status)
        if sol.is_optimal:
            exact = float(sol.value)
            assert abs(exact - value) <= 1e-9 * (1 + abs(exact)), (seed, exact, value)
            assert sol.verify()
    assert seen == {_lp.OPTIMAL, _lp.INFEASIBLE, _lp.UNBOUNDED}
