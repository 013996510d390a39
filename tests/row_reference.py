"""The Fraction row builders that fed the LP before the int rows, kept as
references the ``lp.IntRow`` builders must reproduce exactly: the same
rationals in the same key order (``assert_same_row``); and the pivot kernel
as it was before its gcd step, which the kernel must reproduce row for row."""

from math import gcd

from ribce import lp as _lp
from ribce.rational import ONE, ZERO


def obedience_row(game, player, rec, dev) -> dict:
    coeffs = {}
    for opp in game.opponent_profiles(player):
        profile = game.insert_action(player, rec, opp)
        swapped = game.insert_action(player, dev, opp)
        for state in game.states:
            diff = game.u(player, profile, state) - game.u(player, swapped, state)
            if diff:
                coeffs[(profile, state)] = diff
    return coeffs


def deviation_row(game, player, action) -> dict:
    coeffs = {}
    for cell in game.cells():
        profile, state = cell
        dev = game.replace_action(profile, player, action)
        val = game.u(player, dev, state)
        if val:
            coeffs[cell] = val
    return coeffs


def bce_constraints(game) -> list:
    """``BcePolytope.of(game).constraints``."""
    constraints = []
    for state in game.states:
        coeffs = {(profile, state): ONE for profile in game.profiles()}
        constraints.append((coeffs, _lp.EQUAL, game.prior[state]))
    for i in game.players:
        for rec in game.actions[i]:
            for dev in game.actions[i]:
                if rec != dev:
                    constraints.append((obedience_row(game, i, rec, dev), _lp.GREATER, ZERO))
    return constraints


def assert_same_row(row, want):
    """``row`` is an ``lp.IntRow`` of int numerators over a positive int
    denominator holding exactly the rationals of ``want``, in its key order."""
    assert type(row) is _lp.IntRow
    assert type(row.den) is int and row.den > 0
    assert all(type(x) is int for x in row.nums.values())
    assert list(row.items()) == list(want.items())


def pivot_eliminate(tableau, pivot_row, col):
    """``rows.pivot_eliminate`` before it divided ``p`` and ``f`` by their
    gcd: each other row becomes the primitive form of ``p * row - f * pivot``
    with the whole content taken out after the row is built."""
    source = tableau[pivot_row]
    p = source[col]
    if p < 0:
        p = -p
        source = tableau[pivot_row] = [-s for s in source]
    for r, row in enumerate(tableau):
        f = row[col]
        if f and r != pivot_row:
            combined = [p * x - f * s for x, s in zip(row, source)]
            g = gcd(*combined)
            tableau[r] = [z // g for z in combined] if g > 1 else combined
