import os
import sys

import pytest

from ribce import lp as _lp
from ribce.bce import BcePolytope

sys.path.insert(0, os.path.dirname(__file__))


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
