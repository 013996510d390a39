"""Which outcomes survive as information costs vanish.

A complete-information Nash equilibrium is attainable with arbitrarily cheap
unconstrained information acquisition iff it lies in the closure of the sBCE
set.  General outcomes additionally need a decomposition into measurable
complete-information equilibria; we verify caller-supplied certificates of
that shape rather than searching for them.  Verdicts are IsVce / NotVce /
Undetermined, and the undecided case is an honest value, not an error.
"""

from dataclasses import dataclass
from typing import Optional

from .bce import is_bce, mix_outcomes
from .errors import InternalInvariantError
from .games import BaseGame, Outcome, validate_outcome
from .rational import ONE, ZERO, Rat
from .representation import PartitionProfile, belief_partition
from .separation import beliefs_equal, is_sbce
from .structure import DENSE, RANDOMIZED, classify_density, jeopardizes

IS_VCE = "is_vce"
NOT_VCE = "not_vce"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class NashProfile:
    """Per-state mixed action profile: (state, player) -> {action: Rat}."""

    mixes: dict

    def mix(self, state, player):
        return self.mixes[(state, player)]


def is_complete_info_nash(game: BaseGame, outcome: Outcome):
    """Is the outcome a complete-information Nash equilibrium: conditional on
    every state, play is an independent mixed profile and each factor best
    responds to the others?  Returns (bool, NashProfile or None).

    The product test is cross-multiplied:
    p(a, theta) * pi(theta)^(n-1) == prod_i marginal_i(a_i | theta).
    """
    n = len(game.players)
    marginals = {}
    for state in game.states:
        for k, i in enumerate(game.players):
            for a in game.actions[i]:
                mass = ZERO
                for (profile, s), q in outcome.p.items():
                    if s == state and profile[k] == a and q:
                        mass += q
                marginals[(state, i, a)] = mass
    for state in game.states:
        pi_pow = game.prior[state] ** (n - 1)
        for profile in game.profiles():
            lhs = outcome.mass(profile, state) * pi_pow
            rhs = ONE
            for k, i in enumerate(game.players):
                rhs *= marginals[(state, i, profile[k])]
            if lhs != rhs:
                return False, None
    mixes = {}
    for state in game.states:
        for i in game.players:
            mixes[(state, i)] = {
                a: marginals[(state, i, a)] / game.prior[state] for a in game.actions[i]
            }
    # Per-state Nash: every action in a factor's support best responds to the
    # opponents' product mix.
    for state in game.states:
        for i in game.players:
            payoffs = {}
            for a in game.actions[i]:
                total = ZERO
                for opp in game.opponent_profiles(i):
                    weight = ONE
                    for j, a_j in zip(game.opponents(i), opp):
                        weight *= mixes[(state, j)][a_j]
                    if weight:
                        total += weight * game.u(i, game.insert_action(i, a, opp), state)
                payoffs[a] = total
            best = max(payoffs.values())
            for a in game.actions[i]:
                if mixes[(state, i)][a] and payoffs[a] != best:
                    return False, None
    return True, NashProfile(mixes=mixes)


def is_measurable(game: BaseGame, outcome: Outcome, partition: PartitionProfile) -> bool:
    """Supported actions sharing a partition cell must induce equal beliefs."""
    for i in game.players:
        support = set(outcome.support(game, i))
        for cell in partition.cells[i]:
            live = [a for a in game.actions[i] if a in cell and a in support]
            for idx, a in enumerate(live):
                for b in live[idx + 1 :]:
                    if not beliefs_equal(game, outcome, i, a, b):
                        return False
    return True


def is_decomposable(
    game: BaseGame, q: Outcome, partition: PartitionProfile, p: Outcome
) -> bool:
    """q is measurable w.r.t. the partition and matches p's within-cell action
    ratios: q(a_i) p(b_i) == p(a_i) q(b_i) for same-cell actions."""
    if not is_measurable(game, q, partition):
        return False
    for i in game.players:
        for cell in partition.cells[i]:
            members = [a for a in game.actions[i] if a in cell]
            for idx, a in enumerate(members):
                qa = q.action_marginal(game, i, a)
                pa = p.action_marginal(game, i, a)
                for b in members[idx + 1 :]:
                    qb = q.action_marginal(game, i, b)
                    pb = p.action_marginal(game, i, b)
                    if qa * pb != pa * qb:
                        return False
    return True


@dataclass(frozen=True)
class VceCertificate:
    """Caller-supplied evidence that an outcome is a vanishing cost
    equilibrium: a product partition, a decomposition into complete-info
    Nash outcomes, and a nearby verified sBCE."""

    partition: PartitionProfile
    weights: tuple  # positive, sum to one
    components: tuple  # Outcome per weight
    sbce_witness: Outcome
    witness_distance: object  # sup-norm bound the witness must meet


@dataclass(frozen=True)
class Verdict:
    kind: str  # IS_VCE / NOT_VCE / UNDETERMINED
    reason: str
    certificate: Optional[VceCertificate] = None
    witness: Optional[tuple] = None  # NotVce: (player, a, b, shared action)


def _distance(p: Outcome, q: Outcome, cells):
    worst = ZERO
    for cell in cells:
        d = abs(p.mass(*cell) - q.mass(*cell))
        if d > worst:
            worst = d
    return worst


def _partitions_equal(a: PartitionProfile, b: PartitionProfile, players) -> bool:
    for i in players:
        if set(a.cells[i]) != set(b.cells[i]):
            return False
    return True


def _closure_obstruction(game: BaseGame, outcome: Outcome):
    """A supported pair with distinct beliefs whose jeopardization sets
    intersect.  Any sBCE sequence converging to the outcome would eventually
    support the pair with distinct beliefs, forcing the shared jeopardizing
    action out of one best-response set; so an obstruction proves the outcome
    lies outside the closure of the sBCE set."""
    for i in game.players:
        support = outcome.support(game, i)
        for ai, a in enumerate(support):
            for b in support[ai + 1 :]:
                if beliefs_equal(game, outcome, i, a, b):
                    continue
                for c in game.actions[i]:
                    hit_a, _, _ = jeopardizes(game, i, c, a)
                    if not hit_a:
                        continue
                    hit_b, _, _ = jeopardizes(game, i, c, b)
                    if hit_b:
                        return (i, a, b, c)
    return None


def _verify_certificate(game: BaseGame, outcome: Outcome, cert: VceCertificate):
    """Check every certificate invariant; returns an error string or None."""
    if len(cert.weights) != len(cert.components) or not cert.weights:
        return "weights and components must align and be nonempty"
    total = sum((Rat(w) for w in cert.weights), ZERO)
    if total != ONE:
        return f"weights sum to {total}, not 1"
    if any(Rat(w) <= 0 for w in cert.weights):
        return "weights must be strictly positive"
    for comp in cert.components:
        validate_outcome(game, comp)
        nash, _ = is_complete_info_nash(game, comp)
        if not nash:
            return "a component is not a complete-information Nash equilibrium"
        if not is_decomposable(game, comp, cert.partition, outcome):
            return "a component fails measurability or cell-ratio matching"
    mix = mix_outcomes(zip(map(Rat, cert.weights), cert.components))
    if mix.p != {k: v for k, v in outcome.p.items() if v}:
        return "the weighted components do not reproduce the outcome"
    if not is_sbce(game, cert.sbce_witness):
        return "the sBCE witness is not a separated BCE"
    if not _partitions_equal(
        belief_partition(game, cert.sbce_witness), cert.partition, game.players
    ):
        return "the sBCE witness does not induce the certificate partition"
    dist = _distance(outcome, cert.sbce_witness, list(game.cells()))
    if dist > Rat(cert.witness_distance):
        return f"sBCE witness distance {dist} exceeds the declared bound"
    return None


def check_vce(
    game: BaseGame,
    outcome: Outcome,
    epsilon=Rat(1, 1000),
    certificate: Optional[VceCertificate] = None,
    mode: str = RANDOMIZED,
    seed: int = 0,
    retries: int = 64,
) -> Verdict:
    """Classify an outcome as a vanishing cost equilibrium.

    Verified certificates and direct sBCE membership give IsVce; a closure
    obstruction gives NotVce.  For complete-information Nash outcomes a Dense
    classification (or an explicit sBCE within ``epsilon`` built by mixing
    toward the minimally mixed candidate) gives IsVce.  Everything else is
    honestly Undetermined.
    """
    validate_outcome(game, outcome)
    if certificate is not None:
        problem = _verify_certificate(game, outcome, certificate)
        if problem is None:
            return Verdict(
                kind=IS_VCE,
                reason="caller certificate verified",
                certificate=certificate,
            )
        return Verdict(kind=UNDETERMINED, reason=f"certificate rejected: {problem}")

    bce = is_bce(game, outcome)
    if not bce:
        return Verdict(
            kind=NOT_VCE,
            reason="not a BCE, hence not in the closure of the sBCE set",
            witness=bce.witness,
        )
    nash, _ = is_complete_info_nash(game, outcome)
    separated = is_sbce(game, outcome)

    if separated and nash:
        cert = VceCertificate(
            partition=belief_partition(game, outcome),
            weights=(ONE,),
            components=(outcome,),
            sbce_witness=outcome,
            witness_distance=ZERO,
        )
        problem = _verify_certificate(game, outcome, cert)
        if problem is not None:  # pragma: no cover - construction is trivial
            raise InternalInvariantError(f"trivial certificate failed: {problem}")
        return Verdict(
            kind=IS_VCE, reason="the outcome is itself an sBCE", certificate=cert
        )
    if separated:
        # In the closure of the sBCE set, but without a decomposition into
        # complete-information equilibria nothing stronger can be asserted.
        return Verdict(
            kind=UNDETERMINED,
            reason=(
                "the outcome is an sBCE but not complete-information Nash; a "
                "decomposition certificate is required for IsVce"
            ),
        )

    obstruction = _closure_obstruction(game, outcome)
    if obstruction is not None:
        return Verdict(
            kind=NOT_VCE,
            reason=(
                "two supported recommendations induce distinct beliefs and share "
                "a jeopardizing action; no sBCE sequence can reach the outcome"
            ),
            witness=obstruction,
        )
    if not nash:
        return Verdict(
            kind=UNDETERMINED,
            reason=(
                "not a complete-information Nash equilibrium and no certificate "
                "was supplied; decomposition search is out of scope"
            ),
        )

    density = classify_density(game, mode=mode, seed=seed, retries=retries)
    if density.verdict == DENSE:
        # Density makes the closure of the sBCE set the whole BCE set; an
        # explicit sBCE within epsilon is attached as checkable evidence
        # (mixtures toward the reduced candidate keep best responses inside
        # the jeopardization sets, hence stay separated).
        cand = density.certificate
        span = _distance(outcome, cand, list(game.cells()))
        t = ONE if span == 0 else min(Rat(1, 2), Rat(epsilon) / span)
        witness = mix_outcomes(((ONE - t, outcome), (t, cand)))
        if is_sbce(game, witness):
            return Verdict(
                kind=IS_VCE,
                reason=(
                    f"sBCE set is dense ({density.mode['kind']} mode) and an sBCE "
                    f"within {epsilon} of the outcome was constructed by mixing"
                ),
            )
        if density.mode["kind"] == "exact":
            raise InternalInvariantError(
                "mixture toward an exact-mode separated candidate failed separation"
            )
        return Verdict(
            kind=UNDETERMINED,
            reason=(
                "randomized density classification suggested density but the "
                "mixture evidence failed verification; rerun in exact mode"
            ),
        )
    return Verdict(
        kind=UNDETERMINED,
        reason=(
            "the sBCE set is nowhere dense here and no closure obstruction was "
            "found at the outcome; closure membership is undecidable by this tool"
        ),
    )
