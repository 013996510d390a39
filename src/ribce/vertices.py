"""Exact vertex enumeration for bounded polytopes (double description method).

The polytope arrives as linear constraints plus bounds, is homogenized to a
pointed cone, and the extreme rays are grown one constraint at a time.  Rays
with positive homogenizing coordinate map back to vertices.  The cone's rows
and its rays are primitive rows of Python ints (``rows.primitive``): each is
a positive multiple of its rational row, which leaves every sign test, every
canonical ray and every vertex as it would be over the rationals, and the
initial cone is one fraction-free Gauss–Jordan pass (``rows.pivot_eliminate``).

Incidence is combinatorial, as in Fukuda & Prodon, "Double description
method revisited" (1996), and costs no dot product.  Each ray carries the
processed rows it is tight at twice: as a tuple of row indices and as an
int bitmask of the same rows.  The initial rays are the columns of B⁻¹ for
the chosen rows B, so ray c is tight at every chosen row but the c-th, and
their incidence is read off the chosen indices (``_initial_incidence``).  A
new ray is a positive combination of two rays that are >= 0 on every
processed row, so it is tight at their common rows plus the new row.  Two
rays are adjacent when no third ray is tight on all of their common rows.
A pair with fewer than d-1 common rows (a popcount of the ANDed masks) is
ruled out at once; for the rest, one set intersection of the two tuples
names the common rows, and one AND of the per-row masks of tight rays
over those rows must leave only the pair.

The rows are inserted sparsest first (a stable sort on the nonzero count).
The order sets how large the intermediate cones grow (Fukuda & Prodon), but
not the answer: the extreme rays of a pointed cone are the same whatever
order its rows arrive in, and the vertices come out sorted.  Sparsest first
puts the unit rows (zero lower bounds and t >= 0) at the front, so the
initial cone of a BCE polytope is the identity, and its obedience rows
follow, sparsest first.  On the investment game at epsilon 4/5 the largest
intermediate cone holds 83 rays for 46 vertices, against 1,613 in
construction order.  The vertices are sorted on exact int keys built from
the rays (``_vertices``), in the order of their ``Rat`` coordinate tuples.
A vertex is its ray over t: an ``lp.IntRow`` of the ray's int coordinates
over its homogenizing coordinate, with no ``Rat`` made per coordinate.

Only the exact density mode and small oracle tests need this, so a hard
variable cap guards against accidental blowups (override with
``RI_ROBUST_VERTEX_CAP``).

Vertex counts, not variable counts, drive the cost: highly degenerate
obedience polytopes in ~16 dimensions can carry thousands of vertices and
take minutes.  The randomized density mode exists precisely to avoid this
enumeration on anything beyond desk-size games.
"""

import os
from functools import reduce
from math import lcm
from operator import and_

from . import rows as _rows
from .errors import DimensionCapExceeded, InternalInvariantError, InvalidParams, UnboundedPolytope
from .lp import GREATER, LESS, Constraint, IntRow, feasible_point, int_parts
from .rational import ONE, Rat

DEFAULT_CAP = 24


def enumerate_vertices(variables, constraints, bounds=None):
    """All vertices of the polytope, without repeats, in canonical order, each
    an ``lp.IntRow`` over every variable, zeros included.

    Raises DimensionCapExceeded past the variable cap and UnboundedPolytope
    when a recession direction survives (the input promise is a bounded set).
    Returns [] for an empty polytope.

    An empty polytope homogenizes to a cone with no ray of positive t, so the
    enumeration either finds a recession direction or no vertex.  Only then
    does phase 1 (``lp.feasible_point``) run, to tell the empty polytope
    from an unbounded one.
    """
    variables = tuple(variables)
    d = len(variables)
    raw = os.environ.get("RI_ROBUST_VERTEX_CAP")
    try:
        limit = int(raw) if raw else DEFAULT_CAP
    except ValueError as exc:
        raise InvalidParams(f"RI_ROBUST_VERTEX_CAP must be an integer, got {raw!r}") from exc
    if d > limit:
        raise DimensionCapExceeded(f"{d} variables exceeds cap {limit}")
    bounds = dict(bounds or {})
    constraints = [c if isinstance(c, Constraint) else Constraint(*c) for c in constraints]
    try:
        vertices = _enumerate(variables, constraints, bounds)
    except UnboundedPolytope:
        if feasible_point(variables, constraints, bounds) is None:
            return []
        raise
    if not vertices and feasible_point(variables, constraints, bounds) is not None:
        raise InternalInvariantError("a nonempty pointed polytope yielded no vertex")
    return vertices


def _enumerate(variables, constraints, bounds):
    """The double-description pass: the vertices of the polytope, or
    UnboundedPolytope when the cone has a lineality direction or a ray with
    t = 0.  The rays stay distinct unchecked: an adjacent pair spans one
    2-face, and a new ray lies inside its pair's, so it is no other new ray
    and no kept (extreme) ray."""
    d = len(variables)
    mrows = _homogenize(variables, constraints, bounds)
    chosen, rays = _initial_cone(mrows, d)
    initial = set(chosen)

    # Each ray carries its incidence twice: the tuple of processed rows it is
    # tight at, and the same rows as a bitmask.
    ray_rows = _initial_incidence(chosen)
    ray_masks = [sum(1 << idx for idx in tight) for tight in ray_rows]

    # Adjacent extreme rays share a 2-face: their common tight set must
    # have rank d-1, so fewer than d-1 common rows rules a pair out
    # before the combinatorial test.
    min_common = d - 1

    for idx in range(len(mrows)):
        if idx in initial:
            continue
        vals = [_rows.dot(mrows[idx], r) for r in rays]
        plus, zero, minus = [], [], []
        for k, val in enumerate(vals):
            (plus if val > 0 else zero if val == 0 else minus).append(k)
        bit = 1 << idx
        new_rays, new_rows, new_masks = [], [], []
        by_row = everyone = None
        for kp in plus:
            mask_p = ray_masks[kp]
            tight_p = None
            for km in minus:
                common = mask_p & ray_masks[km]
                if common.bit_count() < min_common:
                    continue
                if by_row is None:
                    # row index -> bitmask of the rays tight at that row
                    by_row = [0] * len(mrows)
                    for k, tight in enumerate(ray_rows):
                        kbit = 1 << k
                        for row in tight:
                            by_row[row] |= kbit
                    everyone = (1 << len(rays)) - 1
                if tight_p is None:
                    tight_p = set(ray_rows[kp])
                shared = tight_p.intersection(ray_rows[km])
                # Adjacent iff no third ray is tight on every common row.
                if reduce(and_, map(by_row.__getitem__, shared), everyone) != (1 << kp) | (1 << km):
                    continue
                new_rays.append(
                    _rows.primitive(_rows.row_combine(vals[kp], rays[km], -vals[km], rays[kp]))
                )
                # Both rays are >= 0 on every processed row and the
                # combination is positive, so it is tight exactly where both
                # are, and at the new row.
                new_rows.append((*shared, idx))
                new_masks.append(common | bit)
        ray_rows = [ray_rows[k] for k in plus] + [(*ray_rows[k], idx) for k in zero] + new_rows
        ray_masks = [ray_masks[k] for k in plus] + [ray_masks[k] | bit for k in zero] + new_masks
        rays = [rays[k] for k in plus + zero] + new_rays

    return _vertices(rays, variables)


def _homogenize(variables, constraints, bounds):
    """The primitive int rows M with M·(x, t) >= 0 for the polytope: one row
    per inequality, two per equality and per two-sided bound, and t >= 0.
    The final coordinate is t.  The rows come sparsest first, in a stable
    sort on their nonzero count, which is the order the pass inserts them."""
    d = len(variables)
    vindex = {v: j for j, v in enumerate(variables)}
    mrows = []

    def add_row(coeffs, rhs, sense):
        # sense GREATER: coeffs.x >= rhs  ->  (coeffs, -rhs) >= 0, times the
        # product of the two denominators
        nums, den = int_parts(coeffs)
        rhs = Rat(rhs)
        sign = 1 if sense == GREATER else -1
        up = sign * rhs.denominator
        row = [0] * (d + 1)
        for v, x in nums.items():
            row[vindex[v]] = x * up
        row[d] = -sign * rhs.numerator * den
        mrows.append(row)

    for con in constraints:
        if con.relation in (GREATER, "="):
            add_row(con.coeffs, con.rhs, GREATER)
        if con.relation in (LESS, "="):
            add_row(con.coeffs, con.rhs, LESS)
    for v, (lo, hi) in bounds.items():
        if lo is not None:
            add_row({v: ONE}, lo, GREATER)
        if hi is not None:
            add_row({v: ONE}, hi, LESS)
    t_row = [0] * (d + 1)
    t_row[d] = 1
    mrows.append(t_row)
    mrows = [_rows.primitive(row) for row in mrows]
    mrows.sort(key=lambda row: len(row) - row.count(0))
    return mrows


def _initial_cone(mrows, d):
    """The indices of the first d+1 independent rows and the extreme rays of
    the pointed cone they cut out, as primitive int rows.

    One fraction-free Gauss–Jordan pass over the int rows [M_idx | unit],
    whose unit part records the combination of chosen rows a tableau row
    holds.
    """
    size = d + 1
    chosen = []
    tableau = []
    pivots = []  # pivot column of each tableau row
    for idx in range(len(mrows)):
        if len(chosen) == size:
            break
        k = len(tableau)
        tableau.append(mrows[idx] + [int(c == k) for c in range(size)])
        for r, col in enumerate(pivots):
            if tableau[k][col]:
                _rows.pivot_eliminate(tableau, r, col)
        col = next((j for j in range(size) if tableau[k][j]), None)
        if col is None:
            tableau.pop()
            continue
        _rows.pivot_eliminate(tableau, k, col)
        pivots.append(col)
        chosen.append(idx)
    if len(chosen) < size:
        raise UnboundedPolytope("constraint system has a lineality direction")

    # Extreme rays of {y : B y >= 0} are the columns of B^{-1}; a tableau row
    # reads u·B = p·e_col with p > 0, so u/p is row col of B^{-1}.  Over the
    # lcm L of the pivots, ray c is the ints u[c]·(L/p), up to its content.
    inverse = [row for _, row in sorted(zip(pivots, tableau))]
    common = lcm(*[row[i] for i, row in enumerate(inverse)])
    scales = [common // row[i] for i, row in enumerate(inverse)]
    rays = [
        _rows.primitive([row[size + c] * s for row, s in zip(inverse, scales)])
        for c in range(size)
    ]
    return chosen, rays


def _initial_incidence(chosen):
    """The rows each initial ray is tight at, read off ``chosen`` alone.

    Ray c solves B·y = p·e_c for the chosen rows B and some p > 0, so it is
    tight at every chosen row but ``chosen[c]``, where it is positive."""
    return [tuple(chosen[:c] + chosen[c + 1 :]) for c in range(len(chosen))]


def _vertices(rays, variables):
    """The vertices the final rays stand for, in canonical order.  A ray with
    t = 0 is a recession direction unless it is zero.

    The order is that of the vertices' coordinate tuples, read on exact int
    keys: coordinate x/t becomes floor(x·S/t) with S = T², T the largest t
    (every t is positive, since t >= 0 is a row of the cone).  Two distinct
    coordinates x/t < y/u differ by at least 1/(t·u) >= 1/S, so their keys
    differ in the same direction, and equal coordinates get equal keys.
    The keys stay a few bits wider than the rays, where scaling to a common
    multiple of thousands of t's would not."""
    d = len(variables)
    points = []
    for r in rays:
        if r[d]:
            points.append(r)
        elif any(r[:d]):
            raise UnboundedPolytope("recession direction found")
    scale = max([r[d] for r in points], default=1) ** 2
    points.sort(key=lambda r: [x * scale // r[d] for x in r[:d]])
    return [IntRow(dict(zip(variables, r)), r[d]) for r in points]
