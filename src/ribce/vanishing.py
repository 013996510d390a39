"""Which outcomes survive as information costs vanish.

A complete-information Nash equilibrium is attainable with arbitrarily cheap
unconstrained information acquisition iff it lies in the closure of the sBCE
set.  General outcomes additionally need a decomposition into measurable
complete-information equilibria; we verify caller-supplied certificates of
that shape rather than searching for them.  Verdicts are IsVce / NotVce /
Undetermined, and the undecided case is an honest value, not an error.

Every test of an outcome here (obedience, separation, measurability, the
within-cell action ratios, the closure obstruction) reads the outcome's own
belief tables (``Outcome.beliefs``), so a certificate component or witness
that is the outcome itself shares them with the outcome's checks.  Equal
beliefs are their classes (``BeliefTable.classes``): a cell is measurable
when one class holds its supported actions, and the closure obstruction
scans the pairs in different classes.  Every LP runs on the game's
``BaseGame.bce_polytope``.
"""

from collections import defaultdict
from dataclasses import dataclass
from math import prod
from typing import Optional

from . import lp as _lp
from .bce import is_bce, mix_outcomes
from .errors import InternalInvariantError, ValidationError
from .games import BaseGame, Outcome, mass_parts, payoffs_by_group, validate_outcome
from .rational import ONE, ZERO, Rat
from .representation import PartitionProfile, belief_partition
from .separation import is_sbce
from .structure import DENSE, EXACT, RANDOMIZED, classify_density, jeopardizes

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

    Best responses are checked as per-state obedience: in each (state, own
    action) group of ``payoffs_by_group`` (which raises ``DimensionMismatch``
    on a cell outside the game) the own action pays the most.  The product
    test is cross-multiplied on the int masses x over D and their per-state
    action marginals m: x(a, theta) * (D * pi(theta))^(n-1) == prod_i
    m_i(a_i, theta).  Under it each (theta, a_i) mass row is a positive
    multiple of the opponents' mix (masses are nonnegative, as
    ``validate_outcome`` checks), so obedience is best response to the mix."""
    for k, i in enumerate(game.players):
        groups, _ = payoffs_by_group(game, outcome, i, lambda cell: (cell[1], cell[0][k]))
        if any(vals[own] != max(vals.values()) for (_, own), vals in groups.items()):
            return False, None
    n = len(game.players)
    nums, den = mass_parts(outcome)
    marginals = defaultdict(int)  # (state, player index, action) -> int mass
    for cell, x in nums.items():
        for k, a in enumerate(cell[0]):
            marginals[(cell[1], k, a)] += x
    for profile, state in game.cells():
        pi = game.prior[state]
        lhs = nums.get((profile, state), 0) * (den * pi.numerator) ** (n - 1)
        rhs = prod(marginals[(state, k, a)] for k, a in enumerate(profile))
        if lhs != rhs * pi.denominator ** (n - 1):
            return False, None
    mixes = {
        (state, i): {
            a: Rat(marginals[(state, k, a)], den) / game.prior[state] for a in game.actions[i]
        }
        for state in game.states
        for k, i in enumerate(game.players)
    }
    return True, NashProfile(mixes=mixes)


def is_measurable(game: BaseGame, outcome: Outcome, partition: PartitionProfile) -> bool:
    """Supported actions sharing a partition cell must induce equal beliefs:
    each cell's supported actions lie in one class of the belief table."""
    tables = outcome.beliefs(game)
    for i in game.players:
        table = tables[i]
        support = set(table.support)
        for cell in partition.cells[i]:
            live = support.intersection(cell)
            if live and not any(live.issubset(actions) for actions in table.classes.values()):
                return False
    return True


def is_decomposable(game: BaseGame, q: Outcome, partition: PartitionProfile, p: Outcome) -> bool:
    """q is measurable w.r.t. the partition and matches p's within-cell action
    ratios: q(a_i) p(b_i) == p(a_i) q(b_i) for same-cell actions, decided on
    the belief tables' int action masses (each outcome's denominator times
    its marginal; the two denominators cancel from both sides)."""
    if not is_measurable(game, q, partition):
        return False
    for i in game.players:
        q_mass, p_mass = q.beliefs(game)[i].totals, p.beliefs(game)[i].totals
        for cell in partition.cells[i]:
            members = [a for a in game.actions[i] if a in cell]
            for idx, a in enumerate(members):
                for b in members[idx + 1 :]:
                    if q_mass[a] * p_mass[b] != p_mass[a] * q_mass[b]:
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
        for a, b in outcome.beliefs(game)[i].distinct_pairs():
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
    honestly Undetermined.  An inexact or non-positive ``epsilon``, or an
    inexact certificate weight or witness distance, raises ``ValidationError``.
    """
    if _lp._inexact(epsilon):
        raise ValidationError(f"epsilon must be an exact rational: {epsilon!r}")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    validate_outcome(game, outcome)
    if certificate is not None:
        named = [(f"certificate weights[{k}]", w) for k, w in enumerate(certificate.weights)]
        for name, x in named + [("certificate witness_distance", certificate.witness_distance)]:
            if _lp._inexact(x):
                raise _lp._not_exact(name, x)
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
        if density.mode["kind"] == EXACT:
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
