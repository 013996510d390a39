"""The Fraction loops that decided obedience, best responses, separation,
mixing and the gross and uninformed values before the int belief tables,
kept as references the table-based functions must reproduce exactly
(answers, witnesses and tie-breaks)."""

from ribce.bce import BceCheck, mix_outcomes
from ribce.errors import RetriesExhausted
from ribce.rational import ONE, ZERO, Rat
from ribce.separation import SeparationCheck


def obedience_slack(game, outcome, player, rec, dev):
    k = game.player_index(player)
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q and profile[k] == rec:
            swapped = game.replace_action(profile, player, dev)
            total += (game.u(player, profile, state) - game.u(player, swapped, state)) * q
    return total


def is_bce(game, outcome):
    for i in game.players:
        for rec in game.actions[i]:
            for dev in game.actions[i]:
                if rec == dev:
                    continue
                slack = obedience_slack(game, outcome, i, rec, dev)
                if slack < 0:
                    return BceCheck(False, (i, rec, dev, slack))
    return BceCheck(True, None)


def gross_value(game, outcome, player):
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q:
            total += game.u(player, profile, state) * q
    return total


def deviation_value(game, outcome, player, action):
    """The payoff from ignoring every recommendation and always playing
    ``action``."""
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q:
            dev = game.replace_action(profile, player, action)
            total += game.u(player, dev, state) * q
    return total


def uninformed_value(game, outcome, player):
    """(value, action): the best ``deviation_value``, ties to the lowest
    action index."""
    best = None
    best_action = None
    for action in game.actions[player]:
        val = deviation_value(game, outcome, player, action)
        if best is None or val > best:
            best = val
            best_action = action
    return best, best_action


def _belief_vector(game, outcome, player, action):
    vec = tuple(
        outcome.mass(game.insert_action(player, action, opp), state)
        for opp, state in game.belief_cells(player)
    )
    return vec, sum((q for q in vec if q), ZERO)


def _best_responses(game, player, belief: dict) -> tuple:
    best_val = None
    values = []
    for action in game.actions[player]:
        total = ZERO
        for (opp, state), q in belief.items():
            if q:
                total += game.u(player, game.insert_action(player, action, opp), state) * q
        values.append(total)
        if best_val is None or total > best_val:
            best_val = total
    return tuple(a for a, val in zip(game.actions[player], values) if val == best_val)


def br_set(game, outcome, player, rec) -> tuple:
    """``conditional_belief(...).br_set``: every action when ``rec`` is
    never played."""
    vec, mass = _belief_vector(game, outcome, player, rec)
    if not mass:
        return tuple(game.actions[player])
    belief = {cell: q / mass if q else ZERO for cell, q in zip(game.belief_cells(player), vec)}
    return _best_responses(game, player, belief)


def beliefs_equal(game, outcome, player, a, b) -> bool:
    vec_a, mass_a = _belief_vector(game, outcome, player, a)
    vec_b, mass_b = _belief_vector(game, outcome, player, b)
    return all(mass_a * qb == mass_b * qa for qa, qb in zip(vec_a, vec_b))


def is_separated(game, outcome):
    for i in game.players:
        supported = outcome.support(game, i)
        brs = {a: br_set(game, outcome, i, a) for a in supported}
        for ai, a in enumerate(supported):
            for b in supported[ai + 1 :]:
                if beliefs_equal(game, outcome, i, a, b):
                    continue
                shared = set(brs[a]) & set(brs[b])
                if shared:
                    first = next(c for c in game.actions[i] if c in shared)
                    return SeparationCheck(False, (i, a, b, first))
    return SeparationCheck(True, None)


def is_strict_bce(game, outcome) -> bool:
    if not is_bce(game, outcome):
        return False
    for i in game.players:
        for a in outcome.support(game, i):
            if br_set(game, outcome, i, a) != (a,):
                return False
    return True


def _pair_distinct(game, outcome, pair) -> bool:
    i, a, b = pair
    support = outcome.support(game, i)
    if a not in support or b not in support:
        return False
    return not beliefs_equal(game, outcome, i, a, b)


def mix_keeping(game, cand, other, keep_pairs, want_pair=None, weights=None):
    """``structure._mix_keeping`` by building the trial outcome of every
    weight."""
    if weights is None:
        weights = [Rat(1, d) for d in range(2, 2 * (len(keep_pairs) + 2) + 4)]
    for t in weights:
        mixed = mix_outcomes(((ONE - t, cand), (t, other)))
        if want_pair is not None and not _pair_distinct(game, mixed, want_pair):
            continue
        if all(_pair_distinct(game, mixed, pair) for pair in keep_pairs):
            return mixed
    raise RetriesExhausted("no admissible mixing weight found")
