"""The Fraction loops that decided obedience, best responses, separation,
mixing and the gross and uninformed values before the int belief tables,
and the pairwise equal-belief test and grouping loop that came before the
tables' equal-belief classes, kept as references the table-based functions
must reproduce exactly (answers, witnesses, cell order and tie-breaks)."""

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


def same_belief(vec_a, vec_b) -> bool:
    """Whether two mass rows induce the same belief, cross-multiplied by each
    other's total; an all-zero row matches any row."""
    total_a, total_b = sum(vec_a), sum(vec_b)
    return all(total_a * qb == total_b * qa for qa, qb in zip(vec_a, vec_b))


def beliefs_equal(game, outcome, player, a, b) -> bool:
    return same_belief(
        _belief_vector(game, outcome, player, a)[0], _belief_vector(game, outcome, player, b)[0]
    )


def equal_beliefs_in_all_bce(game, player, a, b, vertices):
    """``structure.equal_beliefs_in_all_bce`` on the vertices' Fraction
    belief vectors: every played vector of ``a`` or ``b`` has one posterior,
    or the two are played together with one positive ratio at every vertex.
    None when one of them is never played."""
    data = [
        (_belief_vector(game, v, player, a), _belief_vector(game, v, player, b))
        for v in vertices
    ]
    if all(not mass_a for (_, mass_a), _ in data) or all(not mass_b for _, (_, mass_b) in data):
        return None
    played = [vec for pair in data for vec, mass in pair if mass]
    if all(same_belief(vec, played[0]) for vec in played):
        return True
    lam = None
    for (vec_a, mass_a), (vec_b, mass_b) in data:
        if not mass_a and not mass_b:
            continue
        if not mass_a or not mass_b:
            return False
        ratio = mass_a / mass_b
        if any(qa != ratio * qb for qa, qb in zip(vec_a, vec_b)):
            return False
        if lam is None:
            lam = ratio
        elif lam != ratio:
            return False
    return True


def belief_partition(game, outcome) -> dict:
    """player -> cells: each supported action, in action order, joins the
    first group whose first action it shares a belief with, or starts a
    group; the unsupported actions form one last cell."""
    cells = {}
    for i in game.players:
        support = outcome.support(game, i)
        groups = []
        for a in support:
            placed = False
            for group in groups:
                if beliefs_equal(game, outcome, i, a, group[0]):
                    group.append(a)
                    placed = True
                    break
            if not placed:
                groups.append([a])
        player_cells = [frozenset(g) for g in groups]
        off = frozenset(a for a in game.actions[i] if a not in support)
        if off:
            player_cells.append(off)
        cells[i] = tuple(player_cells)
    return cells


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
