import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribce import rows as _rows
from ribce import vertices as _vx
from ribce.bce import BcePolytope
from ribce.errors import DimensionCapExceeded, InvalidParams, UnboundedPolytope
from ribce.lp import Constraint, feasible_point
from ribce.rational import Rat
from ribce.vertices import enumerate_vertices

from sample_games import investment_game, random_game


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


@pytest.fixture
def feasibility_checks(monkeypatch):
    """A list that gets one entry per phase 1 emptiness check of
    ``enumerate_vertices``."""
    calls = []
    original = _vx.feasible_point

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_vx, "feasible_point", counting)
    return calls


NONNEG_XY = {"x": (Rat(0), None), "y": (Rat(0), None)}


@pytest.mark.parametrize(
    "variables, constraints, bounds, failure",
    [
        # x + y = 1 and x + y = 2: the rows leave a lineality direction, so
        # the initial cone cannot be built.
        (("x", "y"), [({"x": 1, "y": 1}, "=", 1), ({"x": 1, "y": 1}, "=", 2)], {},
         "lineality"),
        # 1 <= x - y <= 0 on the orthant: the only ray is (1, 1) at t = 0.
        (("x", "y"), [({"x": 1, "y": -1}, ">=", 1), ({"x": 1, "y": -1}, "<=", 0)],
         NONNEG_XY, "recession"),
        # 1 <= x <= 0: the cone is the origin, with no ray at all.
        (("x",), [({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)], {}, None),
    ],
)
def test_empty_polytope_runs_phase_one_only_when_enumeration_fails(
    feasibility_checks, variables, constraints, bounds, failure
):
    args = (variables, [Constraint(*c) for c in constraints], bounds)
    if failure is None:
        assert _vx._enumerate(*args) == []
    else:
        with pytest.raises(UnboundedPolytope, match=failure):
            _vx._enumerate(*args)
    assert enumerate_vertices(*args) == []
    assert len(feasibility_checks) == 1


def test_nonempty_polytope_runs_no_phase_one(feasibility_checks):
    vs = enumerate_vertices(("x", "y"), [({"x": 1, "y": 1}, "<=", 1)], bounds=NONNEG_XY)
    assert len(vs) == 3
    with pytest.raises(UnboundedPolytope):
        enumerate_vertices(("x", "y"), [({"x": 1, "y": 1}, ">=", 1)], bounds=NONNEG_XY)
    # only the unbounded polytope needed phase 1, to show it is not empty
    assert len(feasibility_checks) == 1


def test_dimension_cap(monkeypatch):
    names = tuple(f"x{i}" for i in range(30))
    with pytest.raises(DimensionCapExceeded):
        enumerate_vertices(names, [], bounds={v: (Rat(0), Rat(1)) for v in names})
    # the environment override lifts (or lowers) the default
    small = names[:3]
    monkeypatch.setenv("RI_ROBUST_VERTEX_CAP", "3")
    vs = enumerate_vertices(small, [], bounds={v: (Rat(0), Rat(1)) for v in small})
    assert len(vs) == 8
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
    # RI_ROBUST_VERTEX_CAP is the only name read
    monkeypatch.delenv("RI_ROBUST_VERTEX_CAP")
    monkeypatch.setenv("RIBCE_VERTEX_CAP", "2")
    assert len(enumerate_vertices(small, [], bounds={v: (Rat(0), Rat(1)) for v in small})) == 8


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
        rows += [(unit, rel, b) for rel, b in ((">=", lo), ("<=", hi)) if b is not None]

    def feasible(x):
        for a, rel, b in rows:
            lhs = sum((p * q for p, q in zip(a, x)), Rat(0))
            if (rel == "<=" and lhs > b) or (rel == ">=" and lhs < b) or (rel == "=" and lhs != b):
                return False
        return True

    points, tried = set(), set()
    for subset in combinations(rows, d):
        aug = [[Rat(p) for p in a] + [b] for a, _, b in subset]
        for col in range(d):
            piv = next((r for r in range(col, d) if aug[r][col]), None)
            if piv is None:
                break
            aug[col], aug[piv] = aug[piv], aug[col]
            source = aug[col] = [p / aug[col][col] for p in aug[col]]
            for r in range(d):
                f = aug[r][col]
                if r != col and f:
                    aug[r] = [p - f * q if q else p for p, q in zip(aug[r], source)]
        else:
            x = tuple(row[d] for row in aug)
            if x not in tried:
                tried.add(x)
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


def _reference_enumerate_vertices(variables, constraints, bounds):
    """The former double-description loop, kept as the reference for
    ``enumerate_vertices``: every new ray's incidence is recomputed with dot
    products against every processed row, and a pair is adjacent when a scan
    of every other ray finds none tight on all of the pair's common rows.

    Returns the vertices and the number of rays alive as each row after the
    initial cone is processed.
    """
    variables = tuple(variables)
    d = len(variables)
    constraints = [Constraint(*c) for c in constraints]
    alive = []
    if feasible_point(variables, constraints, bounds) is None:
        return [], alive
    mrows = _vx._homogenize(variables, constraints, bounds)
    chosen, rays = _vx._initial_cone(mrows, d)
    processed = set(chosen)

    def tight_mask(ray):
        mask = 0
        for idx in processed:
            if _rows.dot(mrows[idx], ray) == 0:
                mask |= 1 << idx
        return mask

    ray_masks = [tight_mask(r) for r in rays]
    for idx in range(len(mrows)):
        if idx in processed:
            continue
        alive.append(len(rays))
        vals = [_rows.dot(mrows[idx], r) for r in rays]
        plus, zero, minus = [], [], []
        for k, val in enumerate(vals):
            (plus if val > 0 else zero if val == 0 else minus).append(k)
        processed.add(idx)
        bit = 1 << idx
        new_rays, new_masks = [], []
        for kp in plus:
            for km in minus:
                common = ray_masks[kp] & ray_masks[km]
                if common.bit_count() < d - 1:
                    continue
                if any(
                    common & ~ray_masks[ko] == 0
                    for ko in range(len(rays))
                    if ko not in (kp, km)
                ):
                    continue
                combo = _rows.primitive(_rows.row_combine(vals[kp], rays[km], -vals[km], rays[kp]))
                new_rays.append(combo)
                new_masks.append(tight_mask(combo))
        kept_masks = [(ray_masks[k] | bit) if k in zero else ray_masks[k] for k in plus + zero]
        rays = [rays[k] for k in plus + zero] + new_rays
        ray_masks = kept_masks + new_masks
        # Distinct adjacent pairs span distinct 2-faces, so no two new rays
        # are parallel and no new ray is a kept one.
        assert len({tuple(r) for r in rays}) == len(rays)
    return _vx._vertices(rays, variables), alive


def _bce_games():
    """The investment game at epsilon 0 and at a drawn epsilon > 0, and
    seeded random games with 2 players, 2 actions each and 2 or 3 states,
    by name."""
    rng = random.Random(9)
    games = [("investment-0", investment_game(0))]
    games.append(("investment-eps", investment_game(Rat(rng.randint(1, 9), 10))))
    games += [(f"2x2x2-{k}", random_game(rng, n_actions=2, n_states=2)) for k in range(4)]
    games += [(f"2x2x3-{k}", random_game(rng, n_actions=2, n_states=3)) for k in range(3)]
    return dict(games)


@pytest.mark.parametrize("name", list(_bce_games()))
def test_matches_reference_on_bce_polytopes(name):
    poly = BcePolytope.of(_bce_games()[name])
    args = (poly.variables, poly.constraints, poly.bounds)
    assert enumerate_vertices(*args) == _reference_enumerate_vertices(*args)[0]


@pytest.mark.parametrize("name", ["investment-0", "investment-eps"])
def test_intermediate_cone_stays_small(name):
    # Sparsest rows first: the unit rows make the initial cone and the
    # obedience rows follow, so no intermediate cone grows far past the
    # output (inserted in construction order, investment-eps grew 1,613 rays
    # for 46 vertices).
    poly = BcePolytope.of(_bce_games()[name])
    vertices, alive = _reference_enumerate_vertices(poly.variables, poly.constraints, poly.bounds)
    assert max(alive) <= 4 * len(vertices)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.sampled_from((2, 3)),
    order=st.randoms(use_true_random=False),
)
def test_enumeration_does_not_depend_on_row_order(seed, n_states, order):
    # The extreme rays of a pointed cone do not depend on the order its rows
    # are inserted in, and the vertices come out sorted: shuffling the
    # constraints changes the insertion order but not the answer.
    poly = BcePolytope.of(random_game(random.Random(seed), n_actions=2, n_states=n_states))
    args = (poly.variables, poly.constraints, poly.bounds)
    want = enumerate_vertices(*args)
    shuffled = list(poly.constraints)
    order.shuffle(shuffled)
    assert enumerate_vertices(poly.variables, shuffled, poly.bounds) == want
    assert _reference_enumerate_vertices(poly.variables, shuffled, poly.bounds)[0] == want


def test_matches_brute_force_on_bce_polytopes():
    # 8 variables and 14 rows each; 3 and 42 vertices, 11 of them tight at
    # more than 8 rows.
    rng = random.Random(5)
    sizes = []
    for _ in range(2):
        poly = BcePolytope.of(random_game(rng, n_actions=2, n_states=2))
        args = (poly.variables, poly.constraints, poly.bounds)
        got = [tuple(pt[v] for v in poly.variables) for pt in enumerate_vertices(*args)]
        assert got == _brute_force_vertices(*args)
        sizes.append(len(got))
    assert sizes == [3, 42]


@pytest.fixture
def dot_calls(monkeypatch):
    """A one-entry list counting ``rows.dot`` calls in the test."""
    count = [0]
    original = _rows.dot

    def counting(xs, ys):
        count[0] += 1
        return original(xs, ys)

    monkeypatch.setattr(_rows, "dot", counting)
    return count


def test_new_rays_cost_no_dot_products(dot_calls):
    # Each processed row is tested once against every ray alive then, and
    # the d+1 initial rays against the d+1 rows of the initial cone.  The
    # incidence of a new ray is derived, so it adds no dot products.
    poly = BcePolytope.of(investment_game(0))
    args = (poly.variables, poly.constraints, poly.bounds)
    want, alive = _reference_enumerate_vertices(*args)
    reference_calls = dot_calls[0]
    dot_calls[0] = 0
    assert enumerate_vertices(*args) == want
    bound = sum(alive) + (len(poly.variables) + 1) ** 2
    assert dot_calls[0] <= bound < reference_calls
