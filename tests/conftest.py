import functools
import os
import sys

import pytest
from hypothesis import settings

from ribce import games as _games
from ribce import lp as _lp
from ribce import representation as _representation
from ribce import vanishing as _vanishing
from ribce.bce import BcePolytope
from ribce.games import BaseGame, BeliefTable

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and keep no example
# database, so a pass or a failure is reproducible.
settings.register_profile(
    "ribce", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("ribce")


@pytest.fixture
def phase_one_calls(monkeypatch):
    """A list that gets one entry per ``lp.Polyhedron`` started with no
    proposed basis in the test, that is by phase 1: (program, rule)."""
    calls = []
    init = _lp.Polyhedron.__init__

    def counting(self, program, start=(), rule="dantzig"):
        if not start:
            calls.append((program, rule))
        init(self, program, start, rule)

    monkeypatch.setattr(_lp.Polyhedron, "__init__", counting)
    return calls


@pytest.fixture
def feasible_starts(monkeypatch):
    """A list that gets one entry per feasible start of an ``lp.Polyhedron``
    in the test: "phase 1" for each phase 1 run, with no proposed basis or
    after a refused one, and "basis" for each proposed basis that the
    polyhedron accepts."""
    starts = []
    phase_one = _lp.Polyhedron._phase_one
    init = _lp.Polyhedron.__init__

    def counting_phase_one(self, rows):
        starts.append("phase 1")
        return phase_one(self, rows)

    def counting_init(self, program, start=(), rule="dantzig"):
        before = len(starts)
        init(self, program, start, rule)
        if start and len(starts) == before:
            starts.append("basis")

    monkeypatch.setattr(_lp.Polyhedron, "_phase_one", counting_phase_one)
    monkeypatch.setattr(_lp.Polyhedron, "__init__", counting_init)
    return starts


@pytest.fixture
def optimize_pivots(monkeypatch):
    """A list that gets one entry per ``lp.Polyhedron.optimize`` call in the
    test: the number of phase-2 pivots it made."""
    pivots = []
    made = [0]
    pivot = _lp._Tableau.pivot
    optimize = _lp.Polyhedron.optimize

    def counting_pivot(self, r, j):
        made[0] += 1
        return pivot(self, r, j)

    def counting_optimize(self, *args, **kwargs):
        before = made[0]
        sol = optimize(self, *args, **kwargs)
        pivots.append(made[0] - before)
        return sol

    monkeypatch.setattr(_lp._Tableau, "pivot", counting_pivot)
    monkeypatch.setattr(_lp.Polyhedron, "optimize", counting_optimize)
    return pivots


@pytest.fixture
def answers(monkeypatch):
    """A list that gets each answer ``lp.Polyhedron.optimize`` returns in
    the test."""
    out = []
    optimize = _lp.Polyhedron.optimize

    def keeping(self, *args, **kwargs):
        sol = optimize(self, *args, **kwargs)
        out.append(sol)
        return sol

    monkeypatch.setattr(_lp.Polyhedron, "optimize", keeping)
    return out


@pytest.fixture
def programs_validated(monkeypatch):
    """A list that gets each ``lp.LinearProgram`` validated in the test,
    once per run of its ``__post_init__``: once when it is built, and once
    more for each copy (``dataclasses.replace``)."""
    validated = []
    original = _lp.LinearProgram.__post_init__

    def counting(program):
        validated.append(program)
        return original(program)

    monkeypatch.setattr(_lp.LinearProgram, "__post_init__", counting)
    return validated


@pytest.fixture
def polytopes_built(monkeypatch):
    """A list that gets one entry per ``BcePolytope.of`` call in the test."""
    built = []
    original = BcePolytope.of.__func__

    def counting(cls, game):
        built.append(game)
        return original(cls, game)

    monkeypatch.setattr(BcePolytope, "of", classmethod(counting))
    return built


@pytest.fixture
def closure_lps(monkeypatch):
    """A list that gets (player, action, target) for each jeopardization LP
    (``structure.jeopardizes``) the VCE check's closure obstruction runs in
    the test."""
    calls = []
    original = _vanishing.jeopardizes

    def counting(game, player, action, target):
        calls.append((player, action, target))
        return original(game, player, action, target)

    monkeypatch.setattr(_vanishing, "jeopardizes", counting)
    return calls


@pytest.fixture
def payoff_rows_built(monkeypatch):
    """A list that gets one entry (the game) per ``BaseGame.payoff_rows``
    build in the test."""
    built = []
    original = BaseGame.__dict__["payoff_rows"].func

    def counting(game):
        built.append(game)
        return original(game)

    prop = functools.cached_property(counting)
    prop.__set_name__(BaseGame, "payoff_rows")
    monkeypatch.setattr(BaseGame, "payoff_rows", prop)
    return built


@pytest.fixture
def belief_tables_built(monkeypatch):
    """A list that gets one (game, outcome, player) entry per
    ``games.belief_table`` call in the test, from every ``ribce`` module
    that calls it."""
    built = []
    original = _games.belief_table

    def counting(game, outcome, player):
        built.append((game, outcome, player))
        return original(game, outcome, player)

    for name, module in list(sys.modules.items()):
        if name.startswith("ribce") and getattr(module, "belief_table", None) is original:
            monkeypatch.setattr(module, "belief_table", counting)
    return built


@pytest.fixture
def table_caches_built(monkeypatch):
    """name -> a list that gets one entry (the table) each time a belief
    table's cached ``classes``, ``gross`` or ``uninformed`` is built in the
    test: each read that finds its slot empty."""
    built = {"classes": [], "gross": [], "uninformed": []}

    def counting(read, slot, entries):
        def wrapper(table):
            if slot.__get__(table) is None:
                entries.append(table)
            return read(table)

        return wrapper

    for name, entries in built.items():
        attr = BeliefTable.__dict__[name]
        slot = BeliefTable.__dict__[f"_{name}"]
        if isinstance(attr, property):
            monkeypatch.setattr(BeliefTable, name, property(counting(attr.fget, slot, entries)))
        else:
            monkeypatch.setattr(BeliefTable, name, counting(attr, slot, entries))
    return built


@pytest.fixture
def canonical_builds(monkeypatch):
    """A list that gets one entry (the outcome) per
    ``representation.build_canonical`` call in the test, from every
    ``ribce`` module that binds it."""
    built = []
    original = _representation.build_canonical

    def counting(game, outcome):
        built.append(outcome)
        return original(game, outcome)

    for name, module in list(sys.modules.items()):
        if name.startswith("ribce") and getattr(module, "build_canonical", None) is original:
            monkeypatch.setattr(module, "build_canonical", counting)
    return built
