"""The row builders as they were before ``PayoffRows`` carried the cell
layout, kept as references the layout-based builders must reproduce
exactly: the same entries in the same key order.  Each splices a player's
action into an opponents' profile (``BaseGame.insert_action``) per belief
cell, and ``deviation_row`` and ``gross_objective`` look every game cell up
in ``position``."""

from math import lcm

from ribce import lp as _lp
from ribce.games import check_action
from ribce.rational import ONE, ZERO


def payoff_rows(game) -> dict:
    """player -> (scale, rows, cells, position): ``BaseGame.payoff_rows``'s
    scale and rows, with the belief cells and the cell -> belief-cell map."""
    table = {}
    for i in game.players:
        cells = tuple(game.belief_cells(i))
        position = {}
        utilities = {}
        for a in game.actions[i]:
            row = []
            for idx, (opp, state) in enumerate(cells):
                profile = game.insert_action(i, a, opp)
                position[(profile, state)] = idx
                row.append(game.u(i, profile, state))
            utilities[a] = row
        scale = lcm(*(q.denominator for row in utilities.values() for q in row))
        rows = {
            a: tuple(q.numerator * (scale // q.denominator) for q in row)
            for a, row in utilities.items()
        }
        table[i] = (scale, rows, cells, position)
    return table


def obedience_row(game, player, rec, dev) -> _lp.IntRow:
    check_action(game, player, rec)
    check_action(game, player, dev)
    scale, rows, cells, _ = payoff_rows(game)[player]
    nums = {}
    for (opp, state), a, b in zip(cells, rows[rec], rows[dev]):
        if a != b:
            nums[(game.insert_action(player, rec, opp), state)] = a - b
    return _lp.IntRow(nums, scale)


def deviation_row(game, player, action) -> _lp.IntRow:
    check_action(game, player, action)
    scale, rows, _, position = payoff_rows(game)[player]
    row = rows[action]
    nums = {}
    for cell in game.cells():
        x = row[position[cell]]
        if x:
            nums[cell] = x
    return _lp.IntRow(nums, scale)


def gross_objective(game) -> _lp.IntRow:
    payoffs = payoff_rows(game)
    den = lcm(*[scale for scale, _, _, _ in payoffs.values()])
    readers = [
        (game.player_index(i), rows, position, den // scale)
        for i, (scale, rows, _, position) in payoffs.items()
    ]
    nums = {}
    for cell in game.cells():
        profile = cell[0]
        total = sum([up * rows[profile[k]][position[cell]] for k, rows, position, up in readers])
        if total:
            nums[cell] = total
    return _lp.IntRow(nums, den)


def bce_program(game) -> _lp.LinearProgram:
    """``BcePolytope.of(game).program``, from these rows."""
    variables = tuple(game.cells())
    constraints = []
    for state in game.states:
        coeffs = _lp.IntRow({(profile, state): 1 for profile in game.profiles()}, 1)
        constraints.append((coeffs, _lp.EQUAL, game.prior[state]))
    for i in game.players:
        for rec in game.actions[i]:
            for dev in game.actions[i]:
                if rec != dev:
                    constraints.append((obedience_row(game, i, rec, dev), _lp.GREATER, ZERO))
    bounds = {v: (ZERO, None) for v in variables}
    return _lp.LinearProgram(variables, {}, "min", constraints, bounds)


def epigraph_program(game) -> _lp.LinearProgram:
    """``welfare.epigraph_lp(game)``, from these rows."""
    poly = bce_program(game)
    constraints = list(poly.constraints)
    for i in game.players:
        for action in game.actions[i]:
            payoff = deviation_row(game, i, action)
            nums = {cell: -x for cell, x in payoff.nums.items()}
            nums[("t", i)] = payoff.den
            constraints.append((_lp.IntRow(nums, payoff.den), _lp.GREATER, ZERO))
    return _lp.LinearProgram(
        variables=poly.variables + tuple(("t", i) for i in game.players),
        objective={("t", i): ONE for i in game.players},
        sense="min",
        constraints=constraints,
        bounds=dict(poly.bounds),
    )
