"""Finite games with payoff uncertainty, outcomes, and value primitives.

A base game is a finite set of players, a finite action set per player, a
finite state set with a full-support prior, and an exact-rational utility for
every (player, action profile, state) triple.  An outcome is a joint
distribution over action profiles and states whose state marginal equals the
prior.  Everything here is immutable after construction and exact.
"""

from dataclasses import dataclass
from itertools import permutations, product
from .errors import (
    DimensionMismatch,
    GameNotSymmetric,
    MissingUtilityEntry,
    PriorNotFullSupport,
    PriorNotNormalized,
    TooManyPlayers,
    UnknownAction,
    ValidationError,
)
from .rational import ONE, ZERO, Rat

MAX_SYMMETRIZE_PLAYERS = 8


@dataclass(frozen=True)
class BaseGame:
    players: tuple
    states: tuple
    prior: dict  # state -> Rat
    actions: dict  # player -> tuple of actions
    utilities: dict  # player -> {(profile, state): Rat}

    def u(self, player, profile, state):
        try:
            return self.utilities[player][(profile, state)]
        except KeyError as exc:
            raise MissingUtilityEntry(f"u[{player}][{profile},{state}]") from exc

    def profiles(self):
        return product(*(self.actions[i] for i in self.players))

    def cells(self):
        """All (profile, state) coordinates, in canonical order."""
        return product(self.profiles(), self.states)

    def player_index(self, player) -> int:
        return self.players.index(player)

    def opponent_profiles(self, player):
        others = [self.actions[j] for j in self.players if j != player]
        return product(*others)

    def insert_action(self, player, own_action, opp_profile) -> tuple:
        """Full profile from a player's action and an opponents' profile."""
        k = self.player_index(player)
        return opp_profile[:k] + (own_action,) + opp_profile[k:]

    def replace_action(self, profile, player, action) -> tuple:
        k = self.player_index(player)
        return profile[:k] + (action,) + profile[k + 1 :]


@dataclass(frozen=True)
class Outcome:
    p: dict  # (profile, state) -> Rat

    def mass(self, profile, state):
        return self.p.get((profile, state), ZERO)

    def action_marginal(self, game: BaseGame, player, action):
        """p(a_i): total probability that ``player`` takes ``action``."""
        k = game.player_index(player)
        total = ZERO
        for (profile, state), q in self.p.items():
            if profile[k] == action and q:
                total += q
        return total

    def support(self, game: BaseGame, player):
        """Actions of ``player`` with positive probability, in action order."""
        k = game.player_index(player)
        seen = set()
        for (profile, _), q in self.p.items():
            if q:
                seen.add(profile[k])
        return tuple(a for a in game.actions[player] if a in seen)


def make_outcome(game: BaseGame, entries: dict) -> Outcome:
    """Build and validate an outcome from a {(profile, state): Rat} map."""
    p = {}
    for (profile, state), q in entries.items():
        q = Rat(q)
        if q < 0:
            raise ValidationError(f"negative probability at {profile},{state}")
        if state not in game.prior:
            raise DimensionMismatch(f"unknown state {state!r}")
        p[(tuple(profile), state)] = q
    out = Outcome(p=p)
    validate_outcome(game, out)
    return out


def validate_game(game: BaseGame) -> None:
    """Check all structural invariants; raises on the first failure."""
    if not game.players:
        raise ValidationError("no players")
    total = ZERO
    for state in game.states:
        mass = game.prior.get(state)
        if mass is None or mass <= 0:
            raise PriorNotFullSupport(f"state {state!r} has no mass")
        total += mass
    if total != ONE:
        raise PriorNotNormalized(f"prior sums to {total}")
    if set(game.prior) != set(game.states):
        raise PriorNotFullSupport("prior keys differ from the state set")
    for i in game.players:
        if not game.actions.get(i):
            raise ValidationError(f"player {i!r} has no actions")
    for i in game.players:
        table = game.utilities.get(i)
        if table is None:
            raise MissingUtilityEntry(f"no utilities for player {i!r}")
        for profile in game.profiles():
            for state in game.states:
                if (profile, state) not in table:
                    raise MissingUtilityEntry(f"u[{i}][{profile},{state}]")


def validate_outcome(game: BaseGame, outcome: Outcome) -> None:
    cells = set(game.cells())
    for key, q in outcome.p.items():
        if key not in cells:
            raise DimensionMismatch(f"unknown cell {key!r}")
        if q < 0:
            raise ValidationError(f"negative probability at {key!r}")
    for state in game.states:
        mass = sum(
            (q for (profile, s), q in outcome.p.items() if s == state), ZERO
        )
        if mass != game.prior[state]:
            raise DimensionMismatch(
                f"state {state!r} marginal {mass} != prior {game.prior[state]}"
            )


def check_action(game: BaseGame, player, action) -> None:
    if action not in game.actions[player]:
        raise UnknownAction(f"{action!r} is not an action of {player!r}")


def gross_value(game: BaseGame, outcome: Outcome, player):
    """Expected utility of ``player`` under the outcome, ignoring any
    information costs."""
    if player not in game.players:
        raise DimensionMismatch(f"unknown player {player!r}")
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q:
            total += game.u(player, profile, state) * q
    return total


def deviation_value(game: BaseGame, outcome: Outcome, player, action):
    """Payoff from ignoring all recommendations and always playing ``action``."""
    check_action(game, player, action)
    k = game.player_index(player)
    total = ZERO
    for (profile, state), q in outcome.p.items():
        if q:
            dev = profile[:k] + (action,) + profile[k + 1 :]
            total += game.u(player, dev, state) * q
    return total


def deviation_row(game: BaseGame, player, action) -> dict:
    """Coefficients of ``deviation_value`` as a linear functional of the
    outcome: each cell's payoff to ``player`` from playing ``action`` there."""
    k = game.player_index(player)
    coeffs = {}
    for cell in game.cells():
        profile, state = cell
        dev = profile[:k] + (action,) + profile[k + 1 :]
        val = game.u(player, dev, state)
        if val:
            coeffs[cell] = val
    return coeffs


def uninformed_value(game: BaseGame, outcome: Outcome, player):
    """Best constant-action payoff against the outcome.

    Returns (value, action); ties resolve to the lowest action index.
    """
    if player not in game.players:
        raise DimensionMismatch(f"unknown player {player!r}")
    best = None
    best_action = None
    for action in game.actions[player]:
        val = deviation_value(game, outcome, player, action)
        if best is None or val > best:
            best = val
            best_action = action
    return best, best_action


def utility_distance(a: BaseGame, b: BaseGame):
    """Sup-norm distance between the utilities of two games on the same
    players, profiles and states."""
    return max(
        abs(a.u(i, profile, state) - b.u(i, profile, state))
        for i in a.players
        for (profile, state) in a.cells()
    )


def permute_profile(game: BaseGame, profile, phi) -> tuple:
    """The profile a_phi with (a_phi)_j = a_{phi(j)}; phi maps player index
    to player index."""
    return tuple(profile[phi[j]] for j in range(len(game.players)))


def _common_action_set(game: BaseGame) -> bool:
    first = game.actions[game.players[0]]
    return all(game.actions[i] == first for i in game.players)


def is_symmetric_game(game: BaseGame) -> bool:
    """Permutation invariance of utilities, checked on the transpositions
    (i, i+1), which generate the symmetric group."""
    if not _common_action_set(game):
        return False
    n = len(game.players)
    for t in range(n - 1):
        phi = list(range(n))
        phi[t], phi[t + 1] = phi[t + 1], phi[t]
        for profile in game.profiles():
            moved = permute_profile(game, profile, phi)
            for state in game.states:
                for j, i in enumerate(game.players):
                    if game.u(i, moved, state) != game.u(game.players[phi[j]], profile, state):
                        return False
    return True


def is_symmetric_outcome(game: BaseGame, outcome: Outcome) -> bool:
    if not _common_action_set(game):
        return False
    n = len(game.players)
    for t in range(n - 1):
        phi = list(range(n))
        phi[t], phi[t + 1] = phi[t + 1], phi[t]
        for (profile, state) in game.cells():
            moved = permute_profile(game, profile, phi)
            if outcome.mass(profile, state) != outcome.mass(moved, state):
                return False
    return True


def symmetrize(game: BaseGame, outcome: Outcome) -> Outcome:
    """Average the outcome over all player permutations.

    Preserves gross welfare exactly, never increases uninformed welfare, and
    maps BCEs to BCEs (obedience is permutation-covariant in symmetric games).
    """
    if not is_symmetric_game(game):
        raise GameNotSymmetric("symmetrize requires a symmetric game")
    n = len(game.players)
    if n > MAX_SYMMETRIZE_PLAYERS:
        raise TooManyPlayers(
            f"exact permutation averaging is capped at {MAX_SYMMETRIZE_PLAYERS} players"
        )
    perms = list(permutations(range(n)))
    weight = Rat(1, len(perms))
    acc = {}
    for (profile, state), q in outcome.p.items():
        if not q:
            continue
        share = q * weight
        for phi in perms:
            # mass of p at (a_phi, state) contributes to p_phi at (a, state);
            # equivalently spread q over the orbit using inverse images.
            inv = [0] * n
            for j, k in enumerate(phi):
                inv[k] = j
            moved = tuple(profile[inv[j]] for j in range(n))
            key = (moved, state)
            acc[key] = acc.get(key, ZERO) + share
    out = Outcome(p={k: v for k, v in acc.items() if v})
    validate_outcome(game, out)
    return out
