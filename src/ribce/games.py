"""Finite games with payoff uncertainty, outcomes, and value primitives.

A base game is a finite set of players, a finite action set per player, a
finite state set with a full-support prior, and an exact-rational utility for
every (player, action profile, state) triple.  An outcome is a joint
distribution over action profiles and states whose state marginal equals the
prior.  Everything here is immutable after construction and exact.

An outcome's masses are a mapping from cell to exact rational.  Every
outcome the library makes holds an ``lp.IntRow``, int numerators over one
denominator, and ``lp.int_parts(outcome.p)`` is the one reader of the ints.
``validate_outcome``, ``belief_table``, ``payoffs_by_group``,
``bce.mix_outcomes`` and ``vanishing.is_complete_info_nash`` read them
through ``mass_parts``; ``validate_outcome`` checks cells, signs and state
marginals on them against the game's cached cell set.  Dict outcomes (from
files, tests and callers) go through the same path.  A mass without an exact
numerator and denominator raises ``ValidationError`` naming its cell.

The belief layer runs on ints.  ``BaseGame.payoff_rows``, built once per
game, holds each player's payoffs as int rows over ``belief_cells``, and
``belief_table`` reads an outcome's masses into int rows over the same cells
in one pass.  ``Outcome.beliefs(game)`` is the one way in: it holds one
``BeliefTables`` per game on the outcome, and that builds each player's table
on first read, so every check of an outcome shares one table per (game,
outcome, player).  Their products decide obedience (``bce``) and best
responses exactly, without a ``Rat`` in the loop, and give the gross and
uninformed values, each summed once per table (``BeliefTable.gross`` and
``uninformed``).  ``payoffs_by_group`` sums the same products over any
grouping of the outcome's cells, for the per-state Nash test and the
full-information cost bound.  Equal beliefs are decided once per table too:
``BeliefTable.classes`` groups the supported actions by primitive mass row,
and separation, mixing, the perturbation, the canonical cells and VCE
measurability all read it.  Two games' payoff rows give the distance
between their utilities (``utility_distance``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from math import lcm
from operator import mul
from typing import NamedTuple
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
from . import rows as _rows
from .lp import IntRow, _inexact, int_parts
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

    @cached_property
    def cell_set(self) -> frozenset:
        """The cells as a set, built on first use and kept (the game is
        immutable)."""
        return frozenset(self.cells())

    def player_index(self, player) -> int:
        return self.players.index(player)

    # Profile layout: player i's action sits at ``player_index(i)``, and an
    # opponents' profile is the profile without that entry, in player order.

    def opponents(self, player) -> tuple:
        """The players other than ``player``, in player order."""
        return tuple(j for j in self.players if j != player)

    def opponent_profiles(self, player):
        """All opponents' profiles of ``player``, in canonical order."""
        return product(*(self.actions[j] for j in self.opponents(player)))

    def opponent_profile(self, profile, player) -> tuple:
        """The opponents' profile within a full profile: ``player``'s entry
        dropped."""
        k = self.player_index(player)
        return profile[:k] + profile[k + 1 :]

    def insert_action(self, player, own_action, opp_profile) -> tuple:
        """Full profile from a player's action and an opponents' profile."""
        k = self.player_index(player)
        return opp_profile[:k] + (own_action,) + opp_profile[k:]

    def belief_cells(self, player):
        """The (opponents' profile, state) cells a belief of ``player`` lives
        on, in canonical order."""
        return product(self.opponent_profiles(player), self.states)

    @cached_property
    def payoff_rows(self) -> dict:
        """player -> ``PayoffRows``, built on first use and kept for the
        game's lifetime (the game is immutable)."""
        table = {}
        for i in self.players:
            cells = tuple(self.belief_cells(i))
            position = {}
            utilities = {}
            for a in self.actions[i]:
                row = []
                for idx, (opp, state) in enumerate(cells):
                    profile = self.insert_action(i, a, opp)
                    position[(profile, state)] = idx
                    row.append(self.u(i, profile, state))
                utilities[a] = row
            scale = lcm(*(q.denominator for row in utilities.values() for q in row))
            rows = {
                a: tuple(q.numerator * (scale // q.denominator) for q in row)
                for a, row in utilities.items()
            }
            table[i] = PayoffRows(scale, rows, cells, position)
        return table

    @cached_property
    def bce_polytope(self):
        """The game's ``bce.BcePolytope``, built on first use and kept with
        its phase 1 for the game's lifetime."""
        from .bce import BcePolytope

        return BcePolytope.of(self)


class PayoffRows(NamedTuple):
    """One player's payoffs as int rows over ``BaseGame.belief_cells``:
    ``rows[a][c]`` is ``scale`` (the lcm of the payoff denominators) times
    u(a, opp, state) at belief cell c = (opp, state).  ``position`` maps each
    (profile, state) cell of the game to the index of its belief cell."""

    scale: int
    rows: dict  # action -> tuple of ints
    cells: tuple  # the belief cells, in canonical order
    position: dict  # (profile, state) -> index into ``cells``


class BeliefTable:
    """One player's beliefs under an outcome, as int rows.

    ``masses[a]`` is D·p(a, opp, state) over the player's belief cells, where
    D = ``scale`` is the denominator of the outcome's int masses
    (``lp.int_parts``), and ``totals[a]`` is its sum, D·p(a).  ``values(rec)``
    is the row V[rec] of L·D times each action's expected payoff against the
    mass ``rec`` carries (L the payoff scale), from which obedience slacks,
    best responses and values are read.
    """

    __slots__ = ("payoffs", "scale", "masses", "totals", "_values", "_classes", "_gross", "_uninformed")

    def __init__(self, payoffs: PayoffRows, scale: int, masses: dict):
        self.payoffs = payoffs
        self.scale = scale
        self.masses = masses
        self.totals = {a: sum(vec) for a, vec in masses.items()}
        self._values = {}
        self._classes = self._gross = self._uninformed = None

    @property
    def support(self) -> tuple:
        """Actions with positive probability, in action order."""
        return tuple(a for a, vec in self.masses.items() if any(vec))

    def values(self, rec) -> dict:
        """V[rec]: action -> L·D·sum over cells of u(action, cell)·p(rec, cell)."""
        vals = self._values.get(rec)
        if vals is None:
            vec = self.masses[rec]
            vals = self._values[rec] = {
                a: sum(map(mul, row, vec)) for a, row in self.payoffs.rows.items()
            }
        return vals

    def slack(self, rec, dev):
        """The obedience slack of (rec -> dev), exactly."""
        vals = self.values(rec)
        return Rat(vals[rec] - vals[dev], self.payoffs.scale * self.scale)

    def best_responses(self, rec) -> tuple:
        """The maximizers of V[rec], in action order (every action when
        ``rec`` is never played)."""
        vals = self.values(rec)
        best = max(vals.values())
        return tuple(a for a, val in vals.items() if val == best)

    @property
    def classes(self) -> dict:
        """The equal-belief partition of the support, built on first read and
        kept: each primitive mass row (``rows.primitive``, as a tuple) -> the
        supported actions whose masses are a multiple of it, in action
        order; classes come in the order of their first action.  Two nonzero
        rows of nonnegative masses give the same posterior exactly when their
        primitive rows are equal, so this is where equal beliefs are decided."""
        if self._classes is None:
            classes = self._classes = {}
            for a, vec in self.masses.items():
                if any(vec):
                    row = tuple(_rows.primitive(vec))
                    classes[row] = classes.get(row, ()) + (a,)
        return self._classes

    def distinct_pairs(self) -> list:
        """The supported pairs (a, b), a before b, in different classes."""
        group = {a: k for k, actions in enumerate(self.classes.values()) for a in actions}
        live = [a for a in self.masses if a in group]
        return [(a, b) for k, a in enumerate(live) for b in live[k + 1 :] if group[a] != group[b]]

    def same_belief(self, a, b) -> bool:
        """Whether one class holds both actions; an unplayed action matches
        any action."""
        for actions in self.classes.values():
            if a in actions:
                return b in actions or not self.totals[b]
        return True

    def gross(self):
        """Expected payoff: the sum of V[rec][rec] over supported rec, / L·D;
        summed on first read and kept."""
        if self._gross is None:
            total = sum(self.values(rec)[rec] for rec in self.support)
            self._gross = Rat(total, self.payoffs.scale * self.scale)
        return self._gross

    def uninformed(self):
        """(value, action): the best constant action's payoff, the largest
        sum over rec of V[rec][action], / L·D; ties go to the lowest index.
        Summed on first read and kept."""
        if self._uninformed is None:
            totals = dict.fromkeys(self.payoffs.rows, 0)
            for rec in self.support:
                for a, val in self.values(rec).items():
                    totals[a] += val
            action = max(totals, key=totals.get)
            self._uninformed = Rat(totals[action], self.payoffs.scale * self.scale), action
        return self._uninformed


def mass_parts(outcome: "Outcome"):
    """``int_parts(outcome.p)``: the masses as int numerators over one
    denominator.  A mass without an exact numerator and denominator raises
    ``ValidationError`` naming its cell."""
    try:
        return int_parts(outcome.p)
    except (AttributeError, TypeError):
        for key, q in outcome.p.items():
            if _inexact(q):
                raise _not_exact(key, q) from None
        raise


def _not_exact(key, q) -> ValidationError:
    return ValidationError(f"probability at {key!r} is not an exact rational: {q!r}")


def belief_table(game: BaseGame, outcome: "Outcome", player) -> BeliefTable:
    """``player``'s ``BeliefTable`` under ``outcome``, read in one pass over
    the outcome's int masses.  A cell outside the game raises
    ``DimensionMismatch`` naming it."""
    payoffs = game.payoff_rows[player]
    position = payoffs.position
    k = game.player_index(player)
    nums, scale = mass_parts(outcome)
    size = len(payoffs.cells)
    masses = {a: [0] * size for a in game.actions[player]}
    try:
        for cell, x in nums.items():
            if x:
                masses[cell[0][k]][position[cell]] = x
    except (KeyError, IndexError):
        raise DimensionMismatch(f"unknown cell {cell!r}") from None
    return BeliefTable(payoffs, scale, masses)


def payoffs_by_group(game: BaseGame, outcome: "Outcome", player, key):
    """(groups, den): group ``key(cell)`` -> action -> ``player``'s payoff
    from the action against the mass of the group's cells, over the cells
    that carry mass, as ints over den = D·L (the outcome's denominator times
    the payoff scale).  A cell outside the game raises ``DimensionMismatch``."""
    payoffs = game.payoff_rows[player]
    position = payoffs.position
    nums, scale = mass_parts(outcome)
    groups = {}
    for cell, x in nums.items():
        if not x:
            continue
        if cell not in position:
            raise DimensionMismatch(f"unknown cell {cell!r}")
        c = position[cell]
        vals = groups.setdefault(key(cell), dict.fromkeys(payoffs.rows, 0))
        for a, row in payoffs.rows.items():
            vals[a] += x * row[c]
    return groups, payoffs.scale * scale


class BeliefTables(dict):
    """player -> ``belief_table(game, outcome, player)``, each built on first
    read.  Made only by ``Outcome.beliefs``, which keeps one per game on the
    outcome, so each table is built once however many checks read it."""

    __slots__ = ("game", "outcome")

    def __init__(self, game: BaseGame, outcome: "Outcome"):
        super().__init__()
        self.game = game
        self.outcome = outcome

    def __missing__(self, player):
        table = self[player] = belief_table(self.game, self.outcome, player)
        return table


@dataclass(frozen=True)
class Outcome:
    p: dict  # (profile, state) -> Rat; an ``lp.IntRow`` when the library made it
    # id(game) -> BeliefTables; each holds its game, so the id stays its own.
    _beliefs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def beliefs(self, game: BaseGame) -> BeliefTables:
        """The outcome's ``BeliefTables`` under ``game``, made on the first
        call for that game and kept (the outcome is immutable)."""
        tables = self._beliefs.get(id(game))
        if tables is None:
            tables = self._beliefs[id(game)] = BeliefTables(game, self)
        return tables

    def mass(self, profile, state):
        return self.p.get((profile, state), ZERO)


def make_outcome(game: BaseGame, entries: dict) -> Outcome:
    """Build and validate an outcome from a {(profile, state): Rat} map.
    A mass that is not an exact rational (a float, say) raises
    ``ValidationError`` naming its cell."""
    p = {}
    for (profile, state), q in entries.items():
        if _inexact(q):
            raise ValidationError(
                f"probability at {profile},{state} is not an exact rational: {q!r}"
            )
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
    """Check all structural invariants; raises on the first failure.  A
    player, state or action (of one player) listed twice raises
    ``ValidationError`` naming it, before any sum or profile is read."""
    if not game.players:
        raise ValidationError("no players")
    named = [("player", game.players), ("state", game.states)]
    named += [(f"action of player {i!r}", game.actions.get(i) or ()) for i in game.players]
    for kind, names in named:
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValidationError(f"repeated {kind}: {name!r}")
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
    """Every mass is an exact rational, every cell is the game's and its mass
    is >= 0, and each state's masses sum to its prior; raises on the first
    failure: an inexact mass, then cell by cell, then state by state.
    Decided on the int masses."""
    cells = game.cell_set
    nums, den = mass_parts(outcome)
    totals = dict.fromkeys(game.states, 0)
    for key, x in nums.items():
        if key not in cells:
            raise DimensionMismatch(f"unknown cell {key!r}")
        if x < 0:
            raise ValidationError(f"negative probability at {key!r}")
        totals[key[1]] += x
    for state, total in totals.items():
        prior = game.prior[state]
        if total * prior.denominator != prior.numerator * den:
            raise DimensionMismatch(
                f"state {state!r} marginal {Rat(total, den)} != prior {prior}"
            )


def check_action(game: BaseGame, player, action) -> None:
    if action not in game.actions[player]:
        raise UnknownAction(f"{action!r} is not an action of {player!r}")


def deviation_row(game: BaseGame, player, action) -> IntRow:
    """``player``'s payoff from always playing ``action``, a linear functional
    of the outcome: each cell's payoff from ``action`` there, read from
    ``BaseGame.payoff_rows`` over the payoff scale, in cell order."""
    check_action(game, player, action)
    payoffs = game.payoff_rows[player]
    row = payoffs.rows[action]
    position = payoffs.position
    nums = {}
    for cell in game.cells():
        x = row[position[cell]]
        if x:
            nums[cell] = x
    return IntRow(nums, payoffs.scale)


def utility_distance(a: BaseGame, b: BaseGame):
    """Sup-norm distance between the utilities of two games on the same
    players, states and actions, read off both games' ``payoff_rows``: the
    largest |x·L_b - y·L_a| / (L_a·L_b) over each player's rows, with x and
    y the int payoffs of ``a`` and ``b`` and L their scales.  Games that
    differ in players, states or actions raise ``DimensionMismatch`` naming
    the first difference."""
    for name, x, y in (("players", a.players, b.players), ("states", a.states, b.states)):
        if tuple(x) != tuple(y):
            raise DimensionMismatch(f"the games' {name} differ: {x!r} vs {y!r}")
    for i in a.players:
        if tuple(a.actions[i]) != tuple(b.actions[i]):
            raise DimensionMismatch(
                f"the games' actions of {i!r} differ: {a.actions[i]!r} vs {b.actions[i]!r}"
            )
    gap, den = 0, 1
    for i in a.players:
        rows_a, rows_b = a.payoff_rows[i], b.payoff_rows[i]
        la, lb = rows_a.scale, rows_b.scale
        top = max(
            abs(x * lb - y * la)
            for action, row in rows_a.rows.items()
            for x, y in zip(row, rows_b.rows[action])
        )
        if top * den > gap * la * lb:
            gap, den = top, la * lb
    return Rat(gap, den)


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
