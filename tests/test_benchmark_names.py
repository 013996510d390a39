"""Every per-layer metric that ``BENCHMARK.json`` names has a function behind it.

The benchmark's tracer wraps the public functions each ``ribce.<layer>``
module defines, plus ``BcePolytope.of`` and ``LpSolution.verify``, and reads
``<layer>.<function>.<stat>`` off them; a metric whose function was renamed,
made private or moved would fail only when the benchmark runs.  The file is
read, never written.
"""

import importlib
import json
import pathlib

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
METHODS = {("bce", "BcePolytope", "of"), ("lp", "LpSolution", "verify")}
# Stats written by the tracer's hooks on these two functions, not by a span.
HOOKED = {("lp", "solve"), ("vertices", "enumerate_vertices")}
SPAN_STATS = {"calls", "total_s", "self_s"}


def _per_layer_names():
    return [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]


def test_per_layer_metrics_name_public_functions():
    names = [n for n in _per_layer_names() if not n.startswith("trace.")]
    assert names
    for name in names:
        layer, *path, stat = name.split(".")
        module = importlib.import_module(f"ribce.{layer}")
        if len(path) == 2:
            assert (layer, *path) in METHODS, name
            assert callable(getattr(getattr(module, path[0]), path[1])), name
            assert stat in SPAN_STATS, name
            continue
        assert len(path) == 1, name
        (function,) = path
        assert stat in SPAN_STATS or (layer, function) in HOOKED, name
        obj = getattr(module, function, None)
        assert obj is not None, f"{name}: ribce.{layer} has no {function}"
        assert not function.startswith("_"), name
        assert callable(obj) and not isinstance(obj, type), name
        assert getattr(obj, "__module__", None) == module.__name__, name
