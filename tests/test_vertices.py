import random
from itertools import combinations

import pytest

from ribce.errors import DimensionCapExceeded, InvalidParams, UnboundedPolytope
from ribce.rational import Rat
from ribce.vertices import enumerate_vertices


def test_unit_simplex_three_vars():
    vs = enumerate_vertices(
        ("x", "y", "z"),
        [({"x": 1, "y": 1, "z": 1}, "=", 1)],
        bounds={v: (Rat(0), None) for v in ("x", "y", "z")},
    )
    points = [tuple(pt[v] for v in ("x", "y", "z")) for pt in vs]
    assert points == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_unit_square_corners():
    vs = enumerate_vertices(
        ("x", "y"), [], bounds={"x": (Rat(0), Rat(1)), "y": (Rat(0), Rat(1))}
    )
    assert [(pt["x"], pt["y"]) for pt in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_empty_polytope():
    vs = enumerate_vertices(
        ("x",), [({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)]
    )
    assert vs == []


def test_unbounded_raises():
    with pytest.raises(UnboundedPolytope):
        enumerate_vertices(("x",), [({"x": 1}, ">=", 0)])


def test_dimension_cap(monkeypatch):
    names = tuple(f"x{i}" for i in range(30))
    with pytest.raises(DimensionCapExceeded):
        enumerate_vertices(names, [], bounds={v: (Rat(0), Rat(1)) for v in names})
    # explicit cap overrides the default
    small = names[:3]
    vs = enumerate_vertices(
        small, [], bounds={v: (Rat(0), Rat(1)) for v in small}, cap=3
    )
    assert len(vs) == 8
    # the environment override lifts (or lowers) the default
    monkeypatch.setenv("RI_ROBUST_VERTEX_CAP", "2")
    with pytest.raises(DimensionCapExceeded):
        enumerate_vertices(small, [], bounds={v: (Rat(0), Rat(1)) for v in small})
    monkeypatch.setenv("RI_ROBUST_VERTEX_CAP", "40")
    vs = enumerate_vertices(names[:4], [], bounds={v: (Rat(0), Rat(1)) for v in names[:4]})
    assert len(vs) == 16
    # a malformed override is an input problem that names the variable
    monkeypatch.setenv("RI_ROBUST_VERTEX_CAP", "abc")
    with pytest.raises(InvalidParams, match="RI_ROBUST_VERTEX_CAP.*'abc'"):
        enumerate_vertices(small, [], bounds={v: (Rat(0), Rat(1)) for v in small})


def test_degenerate_polytope_single_point():
    vs = enumerate_vertices(
        ("x", "y"),
        [({"x": 1, "y": 1}, "=", 1), ({"x": 1, "y": -1}, "=", 0)],
        bounds={"x": (Rat(0), None), "y": (Rat(0), None)},
    )
    assert vs == [{"x": Rat(1, 2), "y": Rat(1, 2)}]


def test_clipped_simplex():
    vs = enumerate_vertices(
        ("x", "y"),
        [({"x": 1, "y": 1}, "<=", 1), ({"x": 1}, "<=", Rat(1, 4))],
        bounds={"x": (Rat(0), None), "y": (Rat(0), None)},
    )
    assert [(pt["x"], pt["y"]) for pt in vs] == [
        (0, 0),
        (0, 1),
        (Rat(1, 4), 0),
        (Rat(1, 4), Rat(3, 4)),
    ]


def _random_box_polytope(rng, d):
    """Constraints on d variables in the box [0, 3]^d, built so that the
    homogenized rows are dependent early on: an equality (two opposite
    rows), a repeated row and a row parallel to it, then random rows."""
    names = tuple(f"x{j}" for j in range(d))

    def coeffs():
        return {v: Rat(rng.randint(-3, 3), rng.choice((1, 2))) for v in names}

    point = {v: Rat(rng.randint(0, 6), 2) for v in names}
    through = lambda c: sum((q * point[v] for v, q in c.items()), Rat(0))

    def through_point(c):
        # A row the point satisfies, tight or not.
        if rng.random() < 0.5:
            return (c, "<=", through(c) + rng.randint(0, 2))
        return (c, ">=", through(c) - rng.randint(0, 2))

    constraints = []
    if rng.random() < 0.6:
        c = coeffs()
        constraints.append((c, "=", through(c) + rng.choice((0, 0, 0, 1))))
    c = coeffs()
    repeated = through_point(c)
    constraints += [repeated, (dict(c), repeated[1], repeated[2])]
    constraints.append(through_point({v: 2 * q for v, q in c.items()}))
    constraints += [through_point(coeffs()) for _ in range(rng.randint(0, 3))]
    return names, constraints, {v: (Rat(0), Rat(3)) for v in names}


def _brute_force_vertices(names, constraints, bounds):
    """Every feasible point where some d of the rows (bounds included) are
    tight with a unique solution, by exact elimination on each d-subset."""
    d = len(names)
    rows = [([c.get(v, 0) for v in names], rel, Rat(rhs)) for c, rel, rhs in constraints]
    for j, v in enumerate(names):
        lo, hi = bounds[v]
        unit = [int(k == j) for k in range(d)]
        rows += [(unit, ">=", lo), (unit, "<=", hi)]

    def feasible(x):
        for a, rel, b in rows:
            lhs = sum((p * q for p, q in zip(a, x)), Rat(0))
            if (rel == "<=" and lhs > b) or (rel == ">=" and lhs < b) or (rel == "=" and lhs != b):
                return False
        return True

    points = set()
    for subset in combinations(rows, d):
        aug = [[Rat(p) for p in a] + [b] for a, _, b in subset]
        for col in range(d):
            piv = next((r for r in range(col, d) if aug[r][col]), None)
            if piv is None:
                break
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [p / aug[col][col] for p in aug[col]]
            for r in range(d):
                if r != col:
                    aug[r] = [p - aug[r][col] * q for p, q in zip(aug[r], aug[col])]
        else:
            x = tuple(row[d] for row in aug)
            if feasible(x):
                points.add(x)
    return sorted(points)


def test_matches_brute_force_on_box_polytopes():
    rng = random.Random(31)
    sizes = []
    for k in range(60):
        names, constraints, bounds = _random_box_polytope(rng, rng.choice((2, 3)))
        if k % 6 == 0:
            # The box has sum(x) >= 0, so this row empties the polytope.
            constraints.insert(rng.randint(0, len(constraints)), ({v: 1 for v in names}, "<=", -1))
        got = [tuple(pt[v] for v in names) for pt in enumerate_vertices(names, constraints, bounds)]
        assert got == _brute_force_vertices(names, constraints, bounds)
        sizes.append(len(got))
    assert sizes[::6] == [0] * 10 and max(sizes) >= 8
