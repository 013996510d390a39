"""Exact vertex enumeration for bounded polytopes (double description method).

The polytope arrives as linear constraints plus bounds, is homogenized to a
pointed cone, and the extreme rays are grown one constraint at a time.  Rays
with positive homogenizing coordinate map back to vertices.  The cone's rows
and its rays are primitive rows of Python ints (``rows.primitive``): each is
a positive multiple of its rational row, which leaves every sign test, every
canonical ray and every vertex as it would be over the rationals, and the
initial cone is one fraction-free Gauss–Jordan pass (``rows.pivot_eliminate``).

Only the exact density mode and small oracle tests need this, so a hard
variable cap guards against accidental blowups (override with
``RIBCE_VERTEX_CAP``, also spelled ``RI_ROBUST_VERTEX_CAP`` for the CLI
contract).

Vertex counts, not variable counts, drive the cost: highly degenerate
obedience polytopes in ~16 dimensions can carry thousands of vertices and
take minutes.  The randomized density mode exists precisely to avoid this
enumeration on anything beyond desk-size games.
"""

import os

from . import rows as _rows
from .errors import DimensionCapExceeded, InvalidParams, UnboundedPolytope
from .lp import GREATER, LESS, Constraint, feasible_point
from .rational import ONE, ZERO, Rat

DEFAULT_CAP = 24


def _cap_from_env():
    for name in ("RI_ROBUST_VERTEX_CAP", "RIBCE_VERTEX_CAP"):
        raw = os.environ.get(name)
        if raw:
            try:
                return int(raw)
            except ValueError as exc:
                raise InvalidParams(f"{name} must be an integer, got {raw!r}") from exc
    return DEFAULT_CAP


def enumerate_vertices(variables, constraints, bounds=None, cap=None):
    """All vertices of the polytope, deduplicated, in canonical order.

    Raises DimensionCapExceeded past the variable cap and UnboundedPolytope
    when a recession direction survives (the input promise is a bounded set).
    Returns [] for an empty polytope.
    """
    variables = tuple(variables)
    d = len(variables)
    limit = cap if cap is not None else _cap_from_env()
    if d > limit:
        raise DimensionCapExceeded(f"{d} variables exceeds cap {limit}")
    bounds = dict(bounds or {})
    constraints = [c if isinstance(c, Constraint) else Constraint(*c) for c in constraints]

    if feasible_point(variables, constraints, bounds) is None:
        return []

    # Homogenize: rows M with M·(x, t) >= 0; the final coordinate is t.
    vindex = {v: j for j, v in enumerate(variables)}
    mrows = []

    def add_row(coeffs, rhs, sense):
        # sense GREATER: coeffs.x >= rhs  ->  (coeffs, -rhs) >= 0
        row = [ZERO] * (d + 1)
        for v, c in coeffs.items():
            row[vindex[v]] += Rat(c)
        row[d] = -Rat(rhs)
        if sense == LESS:
            row = [-c for c in row]
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
    t_row = [ZERO] * (d + 1)
    t_row[d] = ONE
    mrows.append(t_row)
    mrows = [_rows.primitive(row) for row in mrows]

    nrows = len(mrows)

    # Initial pointed cone from the first d+1 independent rows: one
    # fraction-free Gauss–Jordan pass over the int rows [M_idx | unit], whose
    # unit part records the combination of chosen rows a tableau row holds.
    size = d + 1
    chosen = []
    tableau = []
    pivots = []  # pivot column of each tableau row
    for idx in range(nrows):
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
    # reads u·B = p·e_col with p > 0, so u/p is row col of B^{-1}.
    inverse = [row for _, row in sorted(zip(pivots, tableau))]
    rays = [
        _rows.primitive([Rat(row[size + c], row[i]) for i, row in enumerate(inverse)])
        for c in range(size)
    ]

    processed = set(chosen)

    def tight_mask(ray):
        mask = 0
        for idx in processed:
            if _rows.dot(mrows[idx], ray) == 0:
                mask |= 1 << idx
        return mask

    ray_masks = [tight_mask(r) for r in rays]

    for idx in range(nrows):
        if idx in processed:
            continue
        vals = [_rows.dot(mrows[idx], r) for r in rays]
        plus, zero, minus = [], [], []
        for k, val in enumerate(vals):
            (plus if val > 0 else zero if val == 0 else minus).append(k)
        processed.add(idx)
        bit = 1 << idx
        new_rays = []
        new_masks = []
        # Adjacent extreme rays share a 2-face: their common tight set must
        # have rank d-1, so fewer than d-1 common rows rules a pair out
        # before the full combinatorial test.
        min_common = d - 1
        for kp in plus:
            for km in minus:
                common = ray_masks[kp] & ray_masks[km]
                if common.bit_count() < min_common:
                    continue
                adjacent = True
                for ko in range(len(rays)):
                    if ko in (kp, km):
                        continue
                    if common & ~ray_masks[ko] == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = _rows.primitive(_rows.row_combine(vals[kp], rays[km], -vals[km], rays[kp]))
                new_rays.append(combo)
                new_masks.append(tight_mask(combo))
        kept_rays = [rays[k] for k in plus + zero]
        kept_masks = [
            (ray_masks[k] | bit) if k in zero else ray_masks[k]
            for k in plus + zero
        ]
        rays = kept_rays + new_rays
        ray_masks = kept_masks + new_masks
        # Deduplicate (identical canonical forms can arise from parallel pairs).
        seen = {}
        ded_rays, ded_masks = [], []
        for r, mask in zip(rays, ray_masks):
            key = tuple(r)
            if key in seen:
                continue
            seen[key] = True
            ded_rays.append(r)
            ded_masks.append(mask)
        rays, ray_masks = ded_rays, ded_masks

    vertices = []
    for r in rays:
        t = r[d]
        if t == 0:
            nonzero = any(x != 0 for x in r[:d])
            if nonzero:
                raise UnboundedPolytope("recession direction found")
            continue
        vertices.append({v: Rat(r[j], t) for j, v in enumerate(variables)})
    vertices.sort(key=lambda pt: tuple(pt[v] for v in variables))
    return vertices
