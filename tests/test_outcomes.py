"""Outcomes and LP points on int numerators over one denominator, against
the Fraction loops they replaced (``outcome_reference``): mixtures, outcome
validation and the LP read-out give the same masses, errors, points and
values, and an ``lp.IntRow`` equals the dict of its rationals both ways."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import outcome_reference as ref
import test_belief_tables as tables_test
from ribce import lp as _lp
from ribce.bce import BcePolytope, is_bce, mix_outcomes
from ribce.errors import ValidationError
from ribce.games import Outcome, belief_table, make_outcome, validate_outcome
from ribce.rational import Rat
from ribce.representation import build_canonical, induced_outcome

from sample_games import coordination_game_3x3
from sample_lps import FAMILIES


@st.composite
def forms(draw, outcome):
    """The outcome's masses as a dict of rationals or as an ``IntRow`` over a
    multiple of its denominator, sometimes with explicit zero entries."""
    nums, den = _lp.int_parts(outcome.p)
    if draw(st.booleans()):
        scale = draw(st.integers(1, 3))
        masses = _lp.IntRow({key: x * scale for key, x in nums.items()}, den * scale)
    else:
        masses = dict(outcome.p.items())
    if masses and draw(st.booleans()):
        keys = list(masses)
        zero = draw(st.sampled_from(keys))
        entries = dict(masses.nums) if isinstance(masses, _lp.IntRow) else dict(masses)
        entries[zero] = 0 if isinstance(masses, _lp.IntRow) else Rat(0)
        masses = _lp.IntRow(entries, masses.den) if isinstance(masses, _lp.IntRow) else entries
    return Outcome(p=masses)


@st.composite
def mixtures(draw):
    game = draw(tables_test.games())
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        weight = Rat(draw(st.integers(-2, 3)), draw(st.integers(1, 4)))
        pairs.append((weight, draw(forms(draw(tables_test.outcomes(game))))))
    return pairs


@given(mixtures())
def test_mix_outcomes_matches_fraction_loop(pairs):
    got = mix_outcomes(pairs)
    want = ref.mix_outcomes(pairs)
    assert type(got.p) is _lp.IntRow
    # first-seen order, zero totals dropped, the same rationals
    assert list(got.p.items()) == list(want.p.items())
    assert all(got.p.nums.values())


def _error(check, game, outcome):
    try:
        check(game, outcome)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return None


@st.composite
def broken_outcomes(draw):
    """A game and an outcome with any of an unknown cell, a negative mass and
    a wrong state marginal, each at a drawn position."""
    game, outcome = draw(tables_test.game_and_outcome())
    items = list(outcome.p.items())
    for fault in draw(st.lists(st.sampled_from(("unknown", "negative", "marginal")), max_size=3)):
        k = draw(st.integers(0, len(items)))
        if fault == "unknown":
            state = draw(st.sampled_from(game.states))
            items.insert(k, ((("zz",) * len(game.players), state), Rat(1, 7)))
        elif items:
            k = min(k, len(items) - 1)
            key, q = items[k]
            items[k] = (key, -q if fault == "negative" else q * 2 + Rat(1, 5))
    return game, dict(items)


@given(broken_outcomes())
def test_validate_outcome_matches_fraction_loop(case):
    game, masses = case
    want = _error(ref.validate_outcome, game, Outcome(p=masses))
    assert _error(validate_outcome, game, Outcome(p=masses)) == want
    nums, den = _lp.int_parts(masses)
    assert _error(validate_outcome, game, Outcome(p=_lp.IntRow(nums, den))) == want


def test_lp_point_and_value_match_rat_readout():
    kinds = set()
    for family, make in FAMILIES.items():
        for seed in range(20):
            lp = make(random.Random(f"outcomes-{family}-{seed}"))
            for rule in ("dantzig", "bland"):
                sol = _lp.solve(lp, rule=rule)
                want = ref.solve(lp, rule)
                if want is None:
                    assert not sol.is_optimal
                    continue
                point, value = want
                assert type(sol.point) is _lp.IntRow
                assert list(sol.point) == list(lp.variables)
                assert list(sol.point.items()) == list(point.items())
                assert sol.point == point and point == sol.point
                assert type(sol.value) is Fraction and sol.value == value
                for v in lp.variables:
                    lo, hi = lp.bounds.get(v, (None, None))
                    kinds.add("shifted" if lo else "upper" if hi is not None and lo is None
                              else "free" if lo is None else "zero")
    assert {"shifted", "upper", "free"} <= kinds


def test_int_row_equals_the_dict_of_its_rationals():
    row = _lp.IntRow({"x": 2, "y": -3, "z": 0}, 6)
    same = {"x": Rat(1, 3), "y": Rat(-1, 2), "z": Rat(0)}
    assert same == row and row == same
    assert not (row != same) and not (same != row)
    for other in ({"x": Rat(1, 3), "y": Rat(-1, 2)}, {**same, "z": Rat(1)}, {**same, "w": 0}):
        assert row != other and other != row
    assert row == _lp.IntRow({"x": 4, "y": -6, "z": 0}, 12)


@given(tables_test.game_and_outcome())
def test_canonical_round_trip_equals_int_outcome(case):
    game, outcome = case
    nums, den = _lp.int_parts(outcome.p)
    outcome = Outcome(p=_lp.IntRow(nums, den))
    round_trip = induced_outcome(build_canonical(game, outcome), game)
    assert round_trip.p == outcome.p and outcome.p == round_trip.p


def test_optimum_and_mixture_are_int_rows():
    game = coordination_game_3x3()
    poly = BcePolytope.of(game)
    outcome, _ = poly.optimum({cell: Rat(1) for cell in poly.variables[:3]}, "max")
    assert type(outcome.p) is _lp.IntRow and all(outcome.p.nums.values())
    assert list(outcome.p) == [v for v in poly.variables if outcome.p.nums.get(v)]
    mixed = mix_outcomes(((Rat(1, 3), outcome), (Rat(2, 3), outcome)))
    assert mixed.p == outcome.p


def _cell(game):
    return next(iter(game.cells()))


def test_make_outcome_rejects_inexact_masses():
    game = coordination_game_3x3()
    profile, state = _cell(game)
    with pytest.raises(ValidationError) as info:
        make_outcome(game, {(profile, state): 0.5, (("a", "b"), state): Rat(1, 2)})
    assert str(info.value) == f"probability at {profile},{state} is not an exact rational: 0.5"


def test_inexact_masses_raise_validation_error_naming_the_cell():
    game = coordination_game_3x3()
    cell = _cell(game)
    outcome = Outcome(p={cell: 0.5, (("a", "b"), cell[1]): Rat(1, 2)})
    message = f"probability at {cell!r} is not an exact rational: 0.5"
    for check in (validate_outcome, is_bce, lambda g, o: belief_table(g, o, g.players[0])):
        with pytest.raises(ValidationError) as info:
            check(game, outcome)
        assert str(info.value) == message
