"""Canonical information-structure representations, finite cost certificates,
and the Blackwell garbling order.

Any outcome can be generated by a mediator who draws a correlation state (one
Dirac signal-cell per player), has each player observe their own cell, and
lets them mix within it proportionally to the outcome's action marginals.
The cells are the equal-belief classes, so only payoff-relevant information
is transmitted; round-tripping through the representation reproduces the
outcome exactly.  For separated BCEs the same object yields finite cost
certificates: the equilibrium cost lambda*(gross - uninformed) and an upper
bound on the cost of any experiment.
"""

from dataclasses import dataclass
from itertools import product

from . import lp as _lp
from .errors import DimensionMismatch, NotSeparatedBce, ValidationError
from .games import BaseGame, Outcome, gross_value, uninformed_value
from .rational import ONE, ZERO, Rat
from .separation import beliefs_equal, is_sbce


@dataclass(frozen=True)
class PartitionProfile:
    """Per player: supported actions grouped into equal-belief cells, plus
    one off-support cell when some action is never recommended."""

    cells: dict  # player -> tuple of frozensets

    def cell_of(self, player, action):
        for cell in self.cells[player]:
            if action in cell:
                return cell
        raise ValidationError(f"{action!r} not covered by partition of {player!r}")


def belief_partition(game: BaseGame, outcome: Outcome) -> PartitionProfile:
    """Equal-belief partition: supported actions share a cell iff they induce
    the same posterior (cross-multiplied equality); unsupported actions form
    one residual cell."""
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


def build_canonical(game: BaseGame, outcome: Outcome) -> CanonicalRepresentation:
    """The Dirac canonical representation of an outcome (exists for every
    outcome, BCE or not)."""
    partition = belief_partition(game, outcome)
    per_player_cells = [partition.cells[i] for i in game.players]
    correlation_states = tuple(product(*per_player_cells))
    kernel = {}
    for state in game.states:
        pi = game.prior[state]
        for z in correlation_states:
            mass = ZERO
            for key, q in outcome.p.items():
                profile, s = key
                if s != state or not q:
                    continue
                if all(profile[k] in z[k] for k in range(len(game.players))):
                    mass += q
            kernel[(state, z)] = mass / pi
    signals = {}
    plans = {}
    n_states = len(correlation_states) * len(game.states)
    for i in game.players:
        cells = partition.cells[i]
        pad_count = max(len(game.actions[i]), n_states) + 1 - len(cells)
        signals[i] = tuple(cells) + tuple(("pad", j) for j in range(pad_count))
        support = outcome.support(game, i)
        off_count = len(game.actions[i]) - len(support)
        plan = {}
        for signal in signals[i]:
            if not isinstance(signal, frozenset):
                # Padding signals occur with probability zero; mix uniformly.
                for a in game.actions[i]:
                    plan[(a, signal)] = Rat(1, len(game.actions[i]))
                continue
            cell_mass = sum((outcome.action_marginal(game, i, a) for a in signal), ZERO)
            for a in game.actions[i]:
                if a not in signal:
                    plan[(a, signal)] = ZERO
                elif a in support:
                    plan[(a, signal)] = outcome.action_marginal(game, i, a) / cell_mass
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


def _state_best_reply_value(game: BaseGame, rep: CanonicalRepresentation, player):
    """Expected payoff when the player observes (z, theta) directly and best
    responds, while opponents follow their plans; an upper envelope for the
    value of any experiment."""
    total = ZERO
    for state in game.states:
        pi = game.prior[state]
        for z in rep.correlation_states:
            zmass = rep.kernel[(state, z)] * pi
            if not zmass:
                continue
            opponents = [
                [
                    (a, rep.action_plans[j][(a, cell)])
                    for a in game.actions[j]
                    if rep.action_plans[j][(a, cell)]
                ]
                for j, cell in zip(game.opponents(player), game.opponent_profile(z, player))
            ]
            best = None
            for own in game.actions[player]:
                val = ZERO
                for combo in product(*opponents):
                    opp_profile = tuple(a for a, _ in combo)
                    weight = ONE
                    for _, w in combo:
                        weight *= w
                    profile = game.insert_action(player, own, opp_profile)
                    val += weight * game.u(player, profile, state)
                if best is None or val > best:
                    best = val
            total += zmass * best
    return total


def cost_certificate(game: BaseGame, outcome: Outcome, lam) -> CostCertificate:
    """Finite cost certificates for a separated BCE.

    ``lam`` maps players to scalars in (0,1] (or is a single scalar).  The
    equilibrium cost of the canonical experiment is lam*(gross - uninformed);
    the upper bound caps the whole cost function that rationalizes it.
    """
    if not is_sbce(game, outcome):
        raise NotSeparatedBce("cost certificates exist for separated BCEs only")
    if not isinstance(lam, dict):
        lam = {i: Rat(lam) for i in game.players}
    rep = build_canonical(game, outcome)
    per_player = {}
    for i in game.players:
        li = Rat(lam[i])
        if not (0 < li <= 1):
            raise ValidationError(f"lambda for {i!r} must lie in (0,1]")
        gross = gross_value(game, outcome, i)
        uninformed, _ = uninformed_value(game, outcome, i)
        hat = _state_best_reply_value(game, rep, i)
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
