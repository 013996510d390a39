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
