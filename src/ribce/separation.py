"""Conditional beliefs, best-response sets, and the separation refinement.

A recommendation induces a posterior over opponents' actions and the state.
Separation requires recommendations with distinct posteriors to have disjoint
best-response sets; outcomes that are both obedient and separated are exactly
the behaviors consistent with costly, flexible information acquisition.

Belief equality is always tested in cross-multiplied form
p(a_i)*p(b_i, cell) == p(b_i)*p(a_i, cell), never by dividing.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bce import is_bce
from .errors import ZeroProbabilityRecommendation
from .games import BaseGame, Outcome, check_action
from .rational import ZERO


@dataclass(frozen=True)
class ConditionalBelief:
    owner: object
    recommendation: object
    belief: dict  # (opponent profile, state) -> Rat, sums to 1 (or all-zero)
    br_set: tuple  # best responses, in action order

    @property
    def is_zero(self) -> bool:
        return all(not q for q in self.belief.values())


def belief_vector(game: BaseGame, outcome: Outcome, player, action):
    """(masses, total): the outcome's mass on each of ``game.belief_cells(player)``
    where ``player`` plays ``action``, in that order, and their sum p(action).
    Dividing by the total gives the belief ``action`` induces."""
    vec = tuple(
        outcome.mass(game.insert_action(player, action, opp), state)
        for opp, state in game.belief_cells(player)
    )
    return vec, sum((q for q in vec if q), ZERO)


def _best_responses(game: BaseGame, player, belief: dict) -> tuple:
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
    return tuple(
        a for a, val in zip(game.actions[player], values) if val == best_val
    )


def conditional_belief(game: BaseGame, outcome: Outcome, player, rec, allow_zero=False):
    """Posterior over opponents' actions and the state given ``rec``.

    Unsupported recommendations raise unless ``allow_zero`` asks for the
    all-zeros convention (used by the extreme-point equal-belief test).
    """
    check_action(game, player, rec)
    vec, mass = belief_vector(game, outcome, player, rec)
    if not mass and not allow_zero:
        raise ZeroProbabilityRecommendation(f"{player!r} never plays {rec!r}")
    belief = {
        cell: q / mass if q else ZERO for cell, q in zip(game.belief_cells(player), vec)
    }
    return ConditionalBelief(
        owner=player,
        recommendation=rec,
        belief=belief,
        br_set=_best_responses(game, player, belief) if mass else tuple(game.actions[player]),
    )


def beliefs_equal(game: BaseGame, outcome: Outcome, player, a, b) -> bool:
    """p_a == p_b for two supported recommendations, cross-multiplied."""
    vec_a, mass_a = belief_vector(game, outcome, player, a)
    vec_b, mass_b = belief_vector(game, outcome, player, b)
    return all(mass_a * qb == mass_b * qa for qa, qb in zip(vec_a, vec_b))


class SeparationCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (player, a, b, shared action)

    def __bool__(self):
        return self.ok


def is_separated(game: BaseGame, outcome: Outcome) -> SeparationCheck:
    """Distinct supported beliefs must have disjoint best responses.

    On failure returns the lexicographically first witness
    (player, rec_a, rec_b, shared action), ordered by indices.
    """
    beliefs = {}
    for i in game.players:
        supported = outcome.support(game, i)
        for a in supported:
            beliefs[(i, a)] = conditional_belief(game, outcome, i, a)
        for ai, a in enumerate(supported):
            for b in supported[ai + 1 :]:
                if beliefs_equal(game, outcome, i, a, b):
                    continue
                shared = set(beliefs[(i, a)].br_set) & set(beliefs[(i, b)].br_set)
                if shared:
                    first = next(c for c in game.actions[i] if c in shared)
                    return SeparationCheck(False, (i, a, b, first))
    return SeparationCheck(True, None)


def is_sbce(game: BaseGame, outcome: Outcome) -> bool:
    """Obedient and separated: exactly the outcomes consistent with costly
    flexible information acquisition."""
    return bool(is_bce(game, outcome)) and bool(is_separated(game, outcome))


def is_strict_bce(game: BaseGame, outcome: Outcome) -> bool:
    """Every supported recommendation is its own unique best response.
    Strictness implies separation."""
    if not is_bce(game, outcome):
        return False
    for i in game.players:
        for a in outcome.support(game, i):
            if conditional_belief(game, outcome, i, a).br_set != (a,):
                return False
    return True
