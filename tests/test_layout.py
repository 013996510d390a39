"""The cell layout (``BaseGame.cell_tuple`` and ``cell_index``, and the
``keys`` and ``index`` of ``PayoffRows``) against the builders that spliced
profiles cell by cell (``layout_reference``): every row has the same entries
in the same key order, every key is one of the game's own cell objects, a
cell equal to the game's but made elsewhere finds the same place, and no row
builder calls ``BaseGame.insert_action``.  The layout is held once: a scan of
the package's sources finds no second map from cells to belief cells."""

import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import layout_reference as ref
import ribce
from ribce import lp as _lp
from ribce.bce import BcePolytope, obedience_row
from ribce.errors import MissingUtilityEntry
from ribce.games import (
    BaseGame,
    Outcome,
    PayoffRows,
    belief_table,
    deviation_row,
    make_outcome,
    payoffs_by_group,
    validate_game,
)
from ribce.io import outcome_from_dict, outcome_to_dict
from ribce.rational import ZERO, Rat
from ribce.regime import RegimeParams, build_regime_game
from ribce.structure import separating_perturbation
from ribce.welfare import epigraph_lp, gross_objective

PAYOFFS = (ZERO, ZERO, Rat(1), Rat(-2), Rat(1, 2), Rat(-3, 4), Rat(5, 6))


def _unsorted(items):
    """``items`` in an order that is not the sorted one, when it has two or
    more entries."""
    items = tuple(items)
    return items[::-1] if list(items) == sorted(items) else items


@st.composite
def layout_games(draw, action_name=lambda i, j: (i, j)):
    """Games with 1-3 players, 2-3 actions each and 1-3 states, whose
    players, actions and states are ints or tuples listed out of sorted
    order; ``action_name(i, j)`` names player i's j-th action."""
    n_players = draw(st.integers(1, 3))
    players = _unsorted(draw(st.permutations(range(10, 10 + n_players))))
    actions = {}
    for i in players:
        names = [action_name(i, j) for j in range(draw(st.integers(2, 3)))]
        actions[i] = _unsorted(draw(st.permutations(names)))
    states = _unsorted(draw(st.permutations(range(draw(st.integers(1, 3))))))
    weights = [draw(st.integers(1, 4)) for _ in states]
    prior = {s: Rat(w, sum(weights)) for s, w in zip(states, weights)}
    game = BaseGame(players, states, prior, actions, {})
    utilities = {
        i: {cell: draw(st.sampled_from(PAYOFFS)) for cell in game.cells()} for i in players
    }
    game = BaseGame(players, states, prior, actions, utilities)
    validate_game(game)
    return game


def _same_row(row, want):
    assert type(row) is _lp.IntRow
    assert row.den == want.den
    assert list(row.nums.items()) == list(want.nums.items())


def _same_program(program, want):
    assert program.variables == want.variables
    assert list(program.bounds.items()) == list(want.bounds.items())
    assert (program.objective, program.sense) == (want.objective, want.sense)
    assert len(program.constraints) == len(want.constraints)
    for con, other in zip(program.constraints, want.constraints):
        assert (con.relation, con.rhs) == (other.relation, other.rhs)
        _same_row(con.coeffs, other.coeffs)


def _assert_layout_matches_reference(game):
    own = {cell: cell for cell in game.cell_tuple}
    assert game.cell_tuple == tuple((p, s) for p in game.profiles() for s in game.states)
    assert list(game.cell_index.items()) == [(c, g) for g, c in enumerate(game.cell_tuple)]
    assert all(own[cell] is cell for cell in game.cell_index)
    # Equal cells that are not the game's own objects, as ``io`` makes them.
    copies = [(tuple(list(profile)), state) for profile, state in game.cell_tuple]
    assert not any(c is cell for c, cell in zip(copies, game.cell_tuple))
    for k, (i, (scale, rows, cells, position)) in enumerate(ref.payoff_rows(game).items()):
        payoffs = game.payoff_rows[i]
        assert (payoffs.scale, payoffs.rows) == (scale, rows)
        assert tuple(game.belief_cells(i)) == cells
        assert len(payoffs.index) == len(rows) * len(cells)
        assert [payoffs.index[game.cell_index[c]] for c in copies] == [
            position[c] for c in copies
        ]
        # keys[a] lists the game's cells where i plays a, in belief-cell order.
        for a, keys in payoffs.keys.items():
            assert all(own[cell] is cell for cell in keys)
            assert [position[cell] for cell in keys] == list(range(len(cells)))
            assert all(cell[0][k] == a for cell in keys)
        assert list(payoffs.index) == [position[cell] for cell in game.cell_tuple]
        for rec in game.actions[i]:
            row = deviation_row(game, i, rec)
            _same_row(row, ref.deviation_row(game, i, rec))
            assert all(own[cell] is cell for cell in row)
            for dev in game.actions[i]:
                row = obedience_row(game, i, rec, dev)
                _same_row(row, ref.obedience_row(game, i, rec, dev))
                assert all(own[cell] is cell for cell in row)
    _same_row(gross_objective(game), ref.gross_objective(game))
    _same_program(BcePolytope.of(game).program, ref.bce_program(game))
    _same_program(epigraph_lp(game), ref.epigraph_program(game))


@given(layout_games())
def test_layout_rows_match_the_splicing_builders(game):
    _assert_layout_matches_reference(game)


@st.composite
def named_games_and_outcomes(draw):
    """A game whose actions are plain names, as a game file holds them, and
    an outcome keyed by the game's own cells, some of them empty."""
    game = draw(layout_games(action_name=lambda i, j: f"a{i}x{j}"))
    masses = {}
    for s, state in enumerate(game.states):
        cells = game.cell_tuple[s :: len(game.states)]
        weights = [draw(st.integers(0, 3)) for _ in cells]
        weights[draw(st.integers(0, len(cells) - 1))] += 1
        for cell, w in zip(cells, weights):
            if w:
                masses[cell] = game.prior[state] * Rat(w, sum(weights))
    return game, Outcome(p=masses)


@given(named_games_and_outcomes())
def test_cells_read_from_a_file_find_the_same_places(case):
    # ``io.outcome_from_dict`` keys each mass by a new (profile, state)
    # tuple; ``belief_table`` and ``payoffs_by_group`` place it through
    # ``cell_index`` exactly where the game's own cell object goes.
    game, own = case
    read = outcome_from_dict(game, outcome_to_dict(own))
    assert read.p == own.p
    own_ids = {id(cell) for cell in game.cell_tuple}
    assert not any(id(cell) in own_ids for cell in read.p)
    for i in game.players:
        want, got = belief_table(game, own, i), belief_table(game, read, i)
        assert (got.scale, got.masses, got.totals) == (want.scale, want.masses, want.totals)
        assert {a: got.values(a) for a in got.support} == {a: want.values(a) for a in want.support}
        for key in (lambda cell: cell[1], lambda cell: cell):
            assert payoffs_by_group(game, read, i, key) == payoffs_by_group(game, own, i, key)


def test_the_layout_is_held_once():
    assert PayoffRows._fields == ("scale", "rows", "keys", "index")
    src = pathlib.Path(ribce.__file__).parent
    found = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.position\b|\bpayoffs\.cells\b|\bcell_set\b", line)
    ]
    assert found == []


REGIME_GAMES = {
    4: ((2,), {2: Rat(1)}),
    5: ((2, 3), {2: Rat(1, 3), 3: Rat(2, 3)}),
    6: ((2, 3, 4), {2: Rat(1, 4), 3: Rat(1, 2), 4: Rat(1, 4)}),
}


@pytest.mark.parametrize("n", sorted(REGIME_GAMES))
def test_layout_rows_match_on_regime_games(n):
    thresholds, prior = REGIME_GAMES[n]
    params = RegimeParams(n=n, k=Rat(1, 2), x=Rat(1, 10), thresholds=thresholds, prior=prior)
    _assert_layout_matches_reference(build_regime_game(params))


def test_a_missing_utility_is_named_by_its_cell():
    players, states = ("p", "q"), ("s",)
    actions = {"p": ("a", "b"), "q": ("c", "d")}
    full = {((x, y), "s"): Rat(1) for x in actions["p"] for y in actions["q"]}
    utilities = {"p": full, "q": {cell: u for cell, u in full.items() if cell != (("b", "d"), "s")}}
    game = BaseGame(players, states, {"s": Rat(1)}, actions, utilities)
    with pytest.raises(MissingUtilityEntry, match=r"^u\[q\]\[\('b', 'd'\),s\]$"):
        game.payoff_rows


def _unsplicing(*args):
    raise AssertionError("a row builder spliced a profile")


def test_no_row_builder_splices_profiles(monkeypatch):
    # All payoffs are zero, so every outcome is a BCE.  This one recommends
    # all-a in one state and all-b in the other: each player's two
    # recommendations carry distinct beliefs and the same best responses, so
    # the perturbation writes bonus cells for every player.
    players, states = ("p1", "p2", "p3"), ("s1", "s2")
    actions = {i: ("a", "b") for i in players}
    zero = BaseGame(players, states, {"s1": Rat(1, 2), "s2": Rat(1, 2)}, actions, {})
    utilities = {i: dict.fromkeys(zero.cells(), ZERO) for i in players}
    game = BaseGame(players, states, zero.prior, actions, utilities)
    outcome = make_outcome(
        game, {(("a",) * 3, "s1"): Rat(1, 2), (("b",) * 3, "s2"): Rat(1, 2)}
    )
    monkeypatch.setattr(BaseGame, "insert_action", _unsplicing)
    BcePolytope.of(game)
    epigraph_lp(game)
    gross_objective(game)
    perturbed = separating_perturbation(game, outcome, Rat(1, 10))
    assert perturbed is not game
    assert any(perturbed.utilities[i] != utilities[i] for i in players)
