"""Conditional beliefs, best-response sets, and the separation refinement.

A recommendation induces a posterior over opponents' actions and the state.
Separation requires recommendations with distinct posteriors to have disjoint
best-response sets; outcomes that are both obedient and separated are exactly
the behaviors consistent with costly, flexible information acquisition.

Every test here reads each player's belief table (``games.BeliefTable``),
never dividing: best responses are the maximizers of its int rows V[rec],
and the pairs with distinct beliefs are those in different classes of its
equal-belief partition (``BeliefTable.distinct_pairs``).  The tables are the
outcome's own (``Outcome.beliefs``), so every test run on one outcome shares
them.  Only ``conditional_belief`` turns the rows back into ``Rat`` values.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bce import is_bce
from .errors import ZeroProbabilityRecommendation
from .games import BaseGame, Outcome, check_action
from .rational import ZERO, Rat


@dataclass(frozen=True)
class ConditionalBelief:
    owner: object
    recommendation: object
    belief: dict  # (opponent profile, state) -> Rat, sums to 1 (or all-zero)
    br_set: tuple  # best responses, in action order

    @property
    def is_zero(self) -> bool:
        return all(not q for q in self.belief.values())


def conditional_belief(game: BaseGame, outcome: Outcome, player, rec, allow_zero=False):
    """Posterior over opponents' actions and the state given ``rec``.

    Unsupported recommendations raise unless ``allow_zero`` asks for the
    all-zeros convention, with every action a best response.
    """
    check_action(game, player, rec)
    table = outcome.beliefs(game)[player]
    mass = table.totals[rec]
    if not mass and not allow_zero:
        raise ZeroProbabilityRecommendation(f"{player!r} never plays {rec!r}")
    belief = {
        cell: Rat(m, mass) if m else ZERO
        for cell, m in zip(table.payoffs.cells, table.masses[rec])
    }
    return ConditionalBelief(
        owner=player,
        recommendation=rec,
        belief=belief,
        br_set=table.best_responses(rec),
    )


def beliefs_equal(game: BaseGame, outcome: Outcome, player, a, b) -> bool:
    """p_a == p_b for two supported recommendations, cross-multiplied."""
    return outcome.beliefs(game)[player].same_belief(a, b)


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
    tables = outcome.beliefs(game)
    for i in game.players:
        table = tables[i]
        for a, b in table.distinct_pairs():
            shared = set(table.best_responses(a)) & set(table.best_responses(b))
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
    That makes every obedience slack of a supported recommendation positive
    (unsupported ones have slack zero), so strictness implies obedience, and
    it implies separation."""
    tables = outcome.beliefs(game)
    for i in game.players:
        table = tables[i]
        for a in table.support:
            if table.best_responses(a) != (a,):
                return False
    return True
