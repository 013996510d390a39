import functools
import os
import sys

import pytest
from hypothesis import settings

from ribce import games as _games
from ribce import lp as _lp
from ribce import representation as _representation
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
    """A list that gets one entry per ``lp.phase_one`` call in the test."""
    calls = []
    original = _lp.phase_one

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_lp, "phase_one", counting)
    return calls


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
