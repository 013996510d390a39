"""Canonical information-structure representations, finite cost certificates,
and the Blackwell garbling order.

Any outcome can be generated by a mediator who draws a correlation state (one
Dirac signal-cell per player), has each player observe their own cell, and
lets them mix within it proportionally to the outcome's action marginals.
The cells are the equal-belief classes, so only payoff-relevant information
is transmitted; round-tripping through the representation reproduces the
outcome exactly.  For separated BCEs the same object yields finite cost
certificates: the equilibrium cost lambda*(gross - uninformed) and an upper
bound on the cost of any experiment.  The partition (the classes of each
player's belief table, ``BeliefTable.classes``), supports, action marginals
and both values are read off the outcome's own belief tables
(``Outcome.beliefs``), which its separation check reads too.
"""

from dataclasses import dataclass
from itertools import product

from . import lp as _lp
from .errors import DimensionMismatch, NotSeparatedBce, ValidationError
from .games import BaseGame, Outcome, payoffs_by_group
from .rational import ONE, ZERO, Rat
from .separation import is_sbce


@dataclass(frozen=True)
class PartitionProfile:
    """Per player: supported actions grouped into equal-belief cells, plus
    one off-support cell when some action is never recommended."""

    cells: dict  # player -> tuple of frozensets


def belief_partition(game: BaseGame, outcome: Outcome) -> PartitionProfile:
    """Equal-belief partition: the classes of each player's belief table
    (``BeliefTable.classes``, in the order of their first action), then one
    residual cell of the unsupported actions when there are any."""
    tables = outcome.beliefs(game)
    cells = {}
    for i in game.players:
        table = tables[i]
        player_cells = [frozenset(actions) for actions in table.classes.values()]
        off = frozenset(a for a in game.actions[i] if not table.totals[a])
        if off:
            player_cells.append(off)
        cells[i] = tuple(player_cells)
    return PartitionProfile(cells=cells)


@dataclass(frozen=True)
class CanonicalRepresentation:
    game_players: tuple
    partition: PartitionProfile
    correlation_states: tuple  # tuples of per-player cells
    kernel: dict  # (state, correlation state) -> Rat
    signals: dict  # player -> tuple of signals (cells first, then padding)
    action_plans: dict  # player -> {(action, signal): Rat}

    def experiment(self, player):
        """The player's experiment: signal distribution given (z, theta).
        Canonical experiments are Dirac at the player's component of z."""
        plans = {}
        for z in self.correlation_states:
            cell = z[self.game_players.index(player)]
            for signal in self.signals[player]:
                plans[(signal, z)] = ONE if signal == cell else ZERO
        return plans


def _correlation_key(game: BaseGame, partition: PartitionProfile):
    """cell -> (state, z), z the correlation state of the cell's profile:
    each player's partition cell of their action (one, as cells partition)."""
    cell_of = [{a: cell for cell in partition.cells[i] for a in cell} for i in game.players]
    return lambda cell: (cell[1], tuple(cells[a] for cells, a in zip(cell_of, cell[0])))


def build_canonical(game: BaseGame, outcome: Outcome) -> CanonicalRepresentation:
    """The Dirac canonical representation of an outcome (exists for every
    outcome, BCE or not)."""
    tables = outcome.beliefs(game)
    partition = belief_partition(game, outcome)
    correlation_states = tuple(product(*(partition.cells[i] for i in game.players)))
    key = _correlation_key(game, partition)
    mass = {}
    for cell, q in outcome.p.items():
        if q:
            mass[key(cell)] = mass.get(key(cell), ZERO) + q
    kernel = {
        (state, z): mass.get((state, z), ZERO) / game.prior[state]
        for state in game.states
        for z in correlation_states
    }
    signals = {}
    plans = {}
    n_states = len(correlation_states) * len(game.states)
    for i in game.players:
        cells = partition.cells[i]
        pad_count = max(len(game.actions[i]), n_states) + 1 - len(cells)
        signals[i] = tuple(cells) + tuple(("pad", j) for j in range(pad_count))
        table = tables[i]
        support = table.support
        marginal = {a: Rat(table.totals[a], table.scale) for a in support}
        off_count = len(game.actions[i]) - len(support)
        plan = {}
        for signal in signals[i]:
            if not isinstance(signal, frozenset):
                # Padding signals occur with probability zero; mix uniformly.
                for a in game.actions[i]:
                    plan[(a, signal)] = Rat(1, len(game.actions[i]))
                continue
            cell_mass = sum((marginal.get(a, ZERO) for a in signal), ZERO)
            for a in game.actions[i]:
                if a not in signal:
                    plan[(a, signal)] = ZERO
                elif a in support:
                    plan[(a, signal)] = marginal[a] / cell_mass
                else:
                    plan[(a, signal)] = Rat(1, off_count)
        plans[i] = plan
    return CanonicalRepresentation(
        game_players=game.players,
        partition=partition,
        correlation_states=correlation_states,
        kernel=kernel,
        signals=signals,
        action_plans=plans,
    )


def induced_outcome(rep: CanonicalRepresentation, game: BaseGame) -> Outcome:
    """Marginalize the representation over signals and correlation states.
    Canonical experiments are Dirac, so each z fixes the signal profile."""
    acc = {}
    for state in game.states:
        pi = game.prior[state]
        for z in rep.correlation_states:
            zmass = rep.kernel[(state, z)] * pi
            if not zmass:
                continue
            supports = []
            for k, i in enumerate(game.players):
                cell = z[k]
                options = [
                    (a, rep.action_plans[i][(a, cell)])
                    for a in game.actions[i]
                    if rep.action_plans[i][(a, cell)]
                ]
                supports.append(options)
            for combo in product(*supports):
                profile = tuple(a for a, _ in combo)
                weight = zmass
                for _, w in combo:
                    weight *= w
                key = (profile, state)
                acc[key] = acc.get(key, ZERO) + weight
    return Outcome(p={k: v for k, v in acc.items() if v})


@dataclass(frozen=True)
class CostCertificate:
    per_player: dict  # player -> {"lam", "equilibrium_cost", "upper_bound"}


def _state_best_reply_value(game: BaseGame, outcome: Outcome, player):
    """Expected payoff when the player observes (z, theta) directly and best
    responds, while opponents follow their plans; an upper envelope for the
    value of any experiment: the sum of each (state, z) group's best entry in
    ``payoffs_by_group``, the canonical mass at (theta, z, opponents' actions)
    being the outcome's own, summed over the player's actions in z."""
    key = _correlation_key(game, belief_partition(game, outcome))
    groups, den = payoffs_by_group(game, outcome, player, key)
    return Rat(sum(max(vals.values()) for vals in groups.values()), den)


def is_cost_scale(li) -> bool:
    """Whether ``li`` is a cost scale: an exact rational in (0,1]."""
    return not _lp._inexact(li) and 0 < li <= 1


def _lambda(lam, player):
    """``player``'s cost scale in ``lam`` (a dict or one scalar), checked."""
    if isinstance(lam, dict) and player not in lam:
        raise ValidationError(f"lambda for {player!r} is missing")
    li = lam[player] if isinstance(lam, dict) else lam
    if not is_cost_scale(li):
        raise ValidationError(f"lambda for {player!r} must be an exact rational in (0,1]: {li}")
    return Rat(li)


def cost_certificate(game: BaseGame, outcome: Outcome, lam) -> CostCertificate:
    """Finite cost certificates for a separated BCE.

    ``lam`` maps every player to an exact rational in (0,1] (or is a single
    one); else ``ValidationError`` names the player.  The equilibrium cost of
    the canonical experiment is lam*(gross - uninformed); the upper bound
    caps the whole cost function that rationalizes it.
    """
    lam = {i: _lambda(lam, i) for i in game.players}
    if not is_sbce(game, outcome):
        raise NotSeparatedBce("cost certificates exist for separated BCEs only")
    tables = outcome.beliefs(game)
    per_player = {}
    for i, li in lam.items():
        gross = tables[i].gross()
        uninformed, _ = tables[i].uninformed()
        hat = _state_best_reply_value(game, outcome, i)
        cost = li * (gross - uninformed)
        upper = li + hat - ((ONE - li) * gross + li * uninformed)
        per_player[i] = {
            "lam": li,
            "equilibrium_cost": cost,
            "upper_bound": upper,
        }
    return CostCertificate(per_player=per_player)


def blackwell_dominates(xi, xi_prime, zeta, prior) -> bool:
    """Does experiment ``xi`` Blackwell dominate ``xi_prime``: can a garbling
    kernel reproduce ``xi_prime`` from ``xi`` on the support of the
    correlation-state kernel?  Decided by LP feasibility.

    Experiments map (z, theta) to a distribution over a shared signal set:
    ``{"signals": (...), "kernel": {((z, theta), signal): Rat}}``.
    """
    signals = tuple(xi["signals"])
    if tuple(xi_prime["signals"]) != signals:
        raise DimensionMismatch("experiments must share one signal space")
    conditions = set()
    for (z_theta, _s) in xi["kernel"]:
        conditions.add(z_theta)
    for (z_theta, _s) in xi_prime["kernel"]:
        if z_theta not in conditions:
            raise DimensionMismatch("experiments must share the (z, theta) grid")
    active = []
    for (z, theta) in conditions:
        mass = zeta.get((z, theta), ZERO) * prior.get(theta, ZERO)
        if mass:
            active.append((z, theta))

    variables = tuple((s_new, s_old) for s_new in signals for s_old in signals)
    bounds = {v: (ZERO, None) for v in variables}
    constraints = []
    for s_old in signals:
        coeffs = {(s_new, s_old): ONE for s_new in signals}
        constraints.append((coeffs, _lp.EQUAL, ONE))
    for z_theta in active:
        for s_new in signals:
            coeffs = {}
            for s_old in signals:
                weight = xi["kernel"].get((z_theta, s_old), ZERO)
                if weight:
                    coeffs[(s_new, s_old)] = weight
            rhs = xi_prime["kernel"].get((z_theta, s_new), ZERO)
            constraints.append((coeffs, _lp.EQUAL, rhs))
    return _lp.feasible_point(variables, constraints, bounds) is not None
