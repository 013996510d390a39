"""Jeopardization, minimally mixed BCEs, the dense/nowhere-dense dichotomy,
and the utility perturbation that makes a given BCE separated.

The sBCE set is either dense or nowhere dense in the BCE set, and the test
runs through a special BCE: one with maximal support, realizing distinct
beliefs wherever any BCE does (minimal mixing), whose best-response sets are
reduced to the jeopardization sets by mixing.  If that candidate is separated
the sBCE set is dense; otherwise its separation failure exhibits two
recommendations with distinct beliefs sharing a jeopardizing action, which is
a complete nowhere-density certificate.
"""

import random
from dataclasses import dataclass
from typing import Optional

from . import lp as _lp
from .bce import (
    BcePolytope,
    is_bce,
    max_support_point,
    mix_outcomes,
    obedience_row,
)
from .errors import (
    InternalInvariantError,
    NotABce,
    NotCoherent,
    RetriesExhausted,
    ValidationError,
)
from .games import BaseGame, Outcome, check_action, utility_distance, validate_outcome
from .rational import ONE, ZERO, Rat
from .separation import belief_vector, beliefs_equal, conditional_belief, is_sbce, is_separated
from .vertices import enumerate_vertices

RANDOMIZED = "randomized"
EXACT = "exact"

DENSE = "dense"
NOWHERE_DENSE = "nowhere_dense"


# ---------------------------------------------------------------------------
# Jeopardization


def jeopardizes(game: BaseGame, player, action, target, poly: Optional[BcePolytope] = None):
    """Does ``action`` jeopardize ``target``: is ``action`` a best response to
    the belief induced by ``target`` in every BCE that recommends it?

    Decided by one LP: the obedience slack of (target -> action) is
    nonnegative over the whole BCE set and ``action`` jeopardizes ``target``
    exactly when its maximum is zero.  Returns (bool, max value, maximizer).
    """
    check_action(game, player, action)
    check_action(game, player, target)
    poly = poly or BcePolytope.of(game)
    sol = _lp.solve(poly.lp(obedience_row(game, player, target, action), "max"))
    if not sol.is_optimal:
        raise InternalInvariantError(f"jeopardization LP is {sol.status}")
    if sol.value < 0:
        raise InternalInvariantError("obedience slack negative over the BCE set")
    outcome = poly.outcome_from_point(sol.point)
    return sol.value == 0, sol.value, outcome


def jeopardization_set(game: BaseGame, player, target, poly: Optional[BcePolytope] = None):
    """All actions that jeopardize ``target``, in action order."""
    poly = poly or BcePolytope.of(game)
    out = []
    for action in game.actions[player]:
        hit, _, _ = jeopardizes(game, player, action, target, poly)
        if hit:
            out.append(action)
    return tuple(out)


# ---------------------------------------------------------------------------
# Equal beliefs across the whole BCE set (extreme-point test)


def bce_vertices(game: BaseGame, cap=None):
    """All vertices of the game's BCE polytope, as outcomes."""
    poly = BcePolytope.of(game)
    pts = enumerate_vertices(poly.variables, poly.constraints, poly.bounds, cap=cap)
    out = []
    for pt in pts:
        o = Outcome(p={v: q for v, q in pt.items() if q})
        validate_outcome(game, o)
        out.append(o)
    return out


def equal_beliefs_in_all_bce(game: BaseGame, player, a, b, vertices=None):
    """Whether every BCE supporting both actions gives them the same belief.

    Exact-mode test over the polytope's extreme points: either all nonzero
    induced beliefs coincide (with the all-zeros convention for unsupported
    actions), or the two unnormalized belief vectors are proportional with one
    positive constant across every vertex.
    """
    check_action(game, player, a)
    check_action(game, player, b)
    if a == b:
        return True
    if vertices is None:
        vertices = bce_vertices(game)
    data = []
    for v in vertices:
        vec_a, mass_a = belief_vector(game, v, player, a)
        vec_b, mass_b = belief_vector(game, v, player, b)
        data.append((vec_a, mass_a, vec_b, mass_b))
    if all(not mass_a for _, mass_a, _, _ in data):
        raise NotCoherent(f"{a!r} has zero probability in every BCE")
    if all(not mass_b for _, _, _, mass_b in data):
        raise NotCoherent(f"{b!r} has zero probability in every BCE")

    # Condition (i): a single common posterior, zeros allowed.
    mu = None
    cond_one = True
    for vec_a, mass_a, vec_b, mass_b in data:
        for vec, mass in ((vec_a, mass_a), (vec_b, mass_b)):
            if not mass:
                continue
            normalized = tuple(q / mass for q in vec)
            if mu is None:
                mu = normalized
            elif normalized != mu:
                cond_one = False
                break
        if not cond_one:
            break
    if cond_one:
        return True

    # Condition (ii): one positive likelihood ratio across all vertices.
    lam = None
    for vec_a, mass_a, vec_b, mass_b in data:
        if not mass_a and not mass_b:
            continue
        if not mass_a or not mass_b:
            return False
        ratio = None
        for qa, qb in zip(vec_a, vec_b):
            if qb:
                ratio = qa / qb
                break
        if ratio is None or ratio <= 0:
            return False
        if any(qa != ratio * qb for qa, qb in zip(vec_a, vec_b)):
            return False
        if lam is None:
            lam = ratio
        elif lam != ratio:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimally mixed candidates


def _supported_pairs(game: BaseGame, outcome: Outcome):
    for i in game.players:
        support = outcome.support(game, i)
        for ai, a in enumerate(support):
            for b in support[ai + 1 :]:
                yield (i, a, b)


def _distinct_pairs(game: BaseGame, outcome: Outcome):
    return {
        (i, a, b)
        for (i, a, b) in _supported_pairs(game, outcome)
        if not beliefs_equal(game, outcome, i, a, b)
    }


def _pair_distinct(game: BaseGame, outcome: Outcome, pair) -> bool:
    i, a, b = pair
    support = outcome.support(game, i)
    if a not in support or b not in support:
        return False
    return not beliefs_equal(game, outcome, i, a, b)


def _mix_keeping(game, cand, other, keep_pairs, want_pair=None, weights=None):
    """Convex combination of two BCEs that keeps every pair in ``keep_pairs``
    belief-distinct (and makes ``want_pair`` distinct).  Each pair rules out
    at most two mixing weights, so small-denominator weights are tried until
    one verifies."""
    if weights is None:
        weights = [Rat(1, d) for d in range(2, 2 * (len(keep_pairs) + 2) + 4)]
    for t in weights:
        mixed = mix_outcomes(((ONE - t, cand), (t, other)))
        if want_pair is not None and not _pair_distinct(game, mixed, want_pair):
            continue
        if all(_pair_distinct(game, mixed, pair) for pair in keep_pairs):
            return mixed
    raise RetriesExhausted("no admissible mixing weight found")


def _distinct_witness(game: BaseGame, player, a, b, vertices):
    """An outcome in the BCE set realizing distinct beliefs for the pair.
    When the extreme-point test fails, a witness exists among the vertices or
    their pairwise midpoints."""
    half = Rat(1, 2)
    candidates = list(vertices)
    for idx, v in enumerate(vertices):
        for w in vertices[idx + 1 :]:
            candidates.append(mix_outcomes(((half, v), (half, w))))
    for cand in candidates:
        if _pair_distinct(game, cand, (player, a, b)):
            return cand
    raise InternalInvariantError(
        f"no distinct-belief witness for {(player, a, b)} despite failed equal-belief test"
    )


def find_minimally_mixed(game: BaseGame, retries: int = 64, seed: int = 0, mode: str = RANDOMIZED) -> Outcome:
    """A maximal-support BCE realizing distinct beliefs wherever any BCE does.

    Exact mode enumerates the BCE vertices, decides realizability of each
    pair by the extreme-point test, and mixes witnesses into the candidate
    until every realizable pair is realized; the result is verified.  The
    randomized mode perturbs the maximal-support point with random
    optimizer outputs and only guarantees maximal support.
    """
    if mode == EXACT:
        vertices = bce_vertices(game)
        if not vertices:
            raise InternalInvariantError("BCE polytope cannot be empty")
        if len(vertices) == 1:
            return vertices[0]
        weight = Rat(1, len(vertices))
        cand = mix_outcomes((weight, v) for v in vertices)
        realized = _distinct_pairs(game, cand)
        for pair in sorted(_supported_pairs(game, cand), key=str):
            if pair in realized:
                continue
            i, a, b = pair
            if equal_beliefs_in_all_bce(game, i, a, b, vertices):
                continue
            witness = _distinct_witness(game, i, a, b, vertices)
            cand = _mix_keeping(game, cand, witness, realized, want_pair=pair)
            realized = _distinct_pairs(game, cand)
        return cand

    if mode != RANDOMIZED:
        raise ValidationError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    poly = BcePolytope.of(game)
    cand = max_support_point(game)
    realized = _distinct_pairs(game, cand)
    for _ in range(retries):
        objective = {
            cell: Rat(rng.randint(-6, 6)) for cell in poly.variables if rng.random() < 0.5
        }
        sol = _lp.solve(poly.lp(objective, "min"))
        if not sol.is_optimal:
            raise InternalInvariantError(f"BCE polytope is {sol.status}")
        other = poly.outcome_from_point(sol.point)
        weights = []
        for _ in range(2 * len(realized) + 8):
            num = rng.randint(1, 7)
            den = rng.randint(num * 2 + 1, num * 2 + 40)
            weights.append(Rat(num, den))
        try:
            cand = _mix_keeping(game, cand, other, realized, weights=weights)
        except RetriesExhausted as exc:
            raise RetriesExhausted(
                f"randomized mixing could not keep realized pairs within {retries} retries"
            ) from exc
        realized = _distinct_pairs(game, cand)
    return cand


def _reduce_best_responses(game: BaseGame, cand: Outcome, poly: BcePolytope):
    """Mix BCEs into the candidate until every supported recommendation's
    best-response set equals its jeopardization set, without losing any
    realized distinct-belief pair.  Jeopardization sets are lower bounds for
    best-response sets at any BCE, so termination is forced by the total
    best-response mass strictly shrinking."""
    jeopardy = {}
    while True:
        culprit = None
        for i in game.players:
            for a in cand.support(game, i):
                for c in conditional_belief(game, cand, i, a).br_set:
                    if c == a:
                        continue
                    key = (i, c, a)
                    if key not in jeopardy:
                        jeopardy[key] = jeopardizes(game, i, c, a, poly)
                    hit, _, maximizer = jeopardy[key]
                    if not hit:
                        culprit = (i, a, c, maximizer)
                        break
                if culprit:
                    break
            if culprit:
                break
        if culprit is None:
            return cand
        _, _, _, maximizer = culprit
        cand = _mix_keeping(game, cand, maximizer, _distinct_pairs(game, cand))


@dataclass
class DensityVerdict:
    verdict: str  # DENSE or NOWHERE_DENSE
    mode: dict  # {"kind": "exact"} or {"kind": "randomized", "seed":…, "retries":…}
    certificate: Optional[Outcome] = None  # Dense: a separated candidate
    witness: Optional[tuple] = None  # NowhereDense: (outcome, player, a, b, shared)

    def verify(self, game: BaseGame) -> bool:
        """Re-check the certificate from scratch; raises on failure."""
        if self.verdict == DENSE:
            if not is_sbce(game, self.certificate):
                raise InternalInvariantError("dense certificate is not an sBCE")
            return True
        outcome, player, a, b, shared = self.witness
        if not is_bce(game, outcome):
            raise InternalInvariantError("witness outcome is not a BCE")
        if beliefs_equal(game, outcome, player, a, b):
            raise InternalInvariantError("witness beliefs are not distinct")
        for target in (a, b):
            hit, value, _ = jeopardizes(game, player, shared, target)
            if not hit:
                raise InternalInvariantError(
                    f"{shared!r} does not jeopardize {target!r} (max slack {value})"
                )
        return True


def classify_density(game: BaseGame, mode: str = RANDOMIZED, seed: int = 0, retries: int = 64) -> DensityVerdict:
    """Is the sBCE set dense in the BCE set, or nowhere dense?

    The candidate is a minimally mixed BCE whose best-response sets have been
    reduced to jeopardization sets.  Separation of the candidate certifies
    density; a separation failure names two distinct-belief recommendations
    sharing a jeopardizing action, certifying nowhere-density.  NowhereDense
    witnesses are complete proofs in both modes; the Dense verdict relies on
    verified minimal mixing in exact mode only.
    """
    poly = BcePolytope.of(game)
    cand = find_minimally_mixed(game, retries=retries, seed=seed, mode=mode)
    cand = _reduce_best_responses(game, cand, poly)
    mode_tag = {"kind": EXACT} if mode == EXACT else {
        "kind": RANDOMIZED,
        "seed": seed,
        "retries": retries,
    }
    sep = is_separated(game, cand)
    if sep:
        verdict = DensityVerdict(verdict=DENSE, mode=mode_tag, certificate=cand)
        verdict.verify(game)
        return verdict
    player, a, b, shared = sep.witness
    verdict = DensityVerdict(
        verdict=NOWHERE_DENSE, mode=mode_tag, witness=(cand, player, a, b, shared)
    )
    verdict.verify(game)
    return verdict


# ---------------------------------------------------------------------------
# Separating perturbation


def _hull_membership(point, others):
    """Is ``point`` a convex combination of ``others``? LP feasibility."""
    if not others:
        return False
    variables = tuple(range(len(others)))
    constraints = [({j: ONE for j in variables}, _lp.EQUAL, ONE)]
    dim = len(point)
    for c in range(dim):
        coeffs = {j: others[j][c] for j in variables if others[j][c]}
        constraints.append((coeffs, _lp.EQUAL, point[c]))
    bounds = {j: (ZERO, None) for j in variables}
    return _lp.feasible_point(variables, constraints, bounds) is not None


def _peel_order(beliefs):
    """Enumerate distinct belief vectors so that each is an extreme point of
    the convex hull of its prefix: repeatedly peel off a hull vertex and give
    it the highest remaining index."""
    remaining = list(range(len(beliefs)))
    order = [None] * len(beliefs)
    next_slot = len(beliefs) - 1
    while remaining:
        peeled = None
        for idx in remaining:
            others = [beliefs[j] for j in remaining if j != idx]
            if not _hull_membership(beliefs[idx], others):
                peeled = idx
                break
        if peeled is None:  # pragma: no cover - finite point sets have vertices
            raise InternalInvariantError("no extreme point among distinct beliefs")
        order[next_slot] = peeled
        next_slot -= 1
        remaining.remove(peeled)
    return order  # order[m] = original index of the m-th belief in the chain


def _separating_functional(target, earlier):
    """f with f·target > 0 >= f·q for all earlier q: maximize the separation
    margin subject to box constraints, then shift by the best earlier value."""
    dim = len(target)
    hvars = tuple(("h", c) for c in range(dim))
    variables = hvars + (("margin",),)
    constraints = []
    for q in earlier:
        coeffs = {("margin",): -ONE}
        for c in range(dim):
            diff = target[c] - q[c]
            if diff:
                coeffs[("h", c)] = diff
        constraints.append((coeffs, _lp.GREATER, ZERO))
    bounds = {("h", c): (-ONE, ONE) for c in range(dim)}
    bounds[("margin",)] = (ZERO, Rat(2))
    lp = _lp.LinearProgram(
        variables=variables,
        objective={("margin",): ONE},
        sense="max",
        constraints=constraints,
        bounds=bounds,
    )
    sol = _lp.solve(lp)
    if not sol.is_optimal or sol.value <= 0:
        raise InternalInvariantError("strict separation of an extreme point failed")
    h = [sol.point[("h", c)] for c in range(dim)]
    shift = max(sum((hc * qc for hc, qc in zip(h, q)), ZERO) for q in earlier)
    return [hc - shift for hc in h]


def separating_perturbation(game: BaseGame, outcome: Outcome, epsilon) -> BaseGame:
    """A nearby game (sup-norm distance at most epsilon) in which ``outcome``
    is a separated BCE.

    Follows the belief-chain construction: order each player's distinct
    supported beliefs so every link is an extreme point of its prefix,
    separate each link from its predecessors with a bonus functional, rescale
    the bonuses so each belief strictly prefers its own, and add them to the
    utilities with a small enough step.  Both postconditions are re-verified
    exactly before returning.
    """
    epsilon = Rat(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    check = is_bce(game, outcome)
    if not check:
        raise NotABce(f"perturbation requires a BCE; violated at {check.witness}")
    if is_sbce(game, outcome):
        return game

    bonus = {}  # (player, action) -> dict cell -> Rat  (cell = (opp, state))
    max_abs = ZERO
    for i in game.players:
        support = outcome.support(game, i)
        cells = list(game.belief_cells(i))
        belief_of = {}
        distinct = []
        for a in support:
            cb = conditional_belief(game, outcome, i, a)
            vec = tuple(cb.belief[cell] for cell in cells)
            belief_of[a] = vec
            if vec not in distinct:
                distinct.append(vec)
        order = _peel_order(distinct)
        chain = [distinct[idx] for idx in order]
        n_i = len(chain)

        funcs = [[ONE] * len(cells)]
        for m in range(1, n_i):
            funcs.append(_separating_functional(chain[m], chain[:m]))

        dots = [
            [sum((fc * qc for fc, qc in zip(funcs[l], chain[m])), ZERO) for m in range(n_i)]
            for l in range(n_i)
        ]
        ts = [ONE] * n_i
        for l in range(n_i - 1):
            bound = ONE
            for m in range(l + 1, n_i):
                if dots[l][m] > 0:
                    candidate = dots[m][m] / (2 * dots[l][m])
                    bound = min(bound, candidate)
            ts[l] = bound
        scales = [ONE] * n_i
        running = ONE
        for l in range(n_i - 1, -1, -1):
            running = running * ts[l]
            scales[l] = running

        chain_index = {vec: m for m, vec in enumerate(chain)}
        for a in support:
            m = chain_index[belief_of[a]]
            table = {}
            for cell, f in zip(cells, funcs[m]):
                val = scales[m] * f
                if val:
                    table[cell] = val
                    if abs(val) > max_abs:
                        max_abs = abs(val)
            bonus[(i, a)] = table

    step = ONE
    while step * max_abs > epsilon:
        step /= 2

    utilities = {}
    for i in game.players:
        k = game.player_index(i)
        table = {}
        for (profile, state) in game.cells():
            base = game.u(i, profile, state)
            extra = bonus.get((i, profile[k]), None)
            if extra:
                opp = game.opponent_profile(profile, i)
                base = base + step * extra.get((opp, state), ZERO)
            table[(profile, state)] = base
        utilities[i] = table
    perturbed = BaseGame(
        players=game.players,
        states=game.states,
        prior=dict(game.prior),
        actions=dict(game.actions),
        utilities=utilities,
    )

    if utility_distance(perturbed, game) > epsilon:
        raise InternalInvariantError("perturbation exceeded the requested distance")
    if not is_sbce(perturbed, outcome):
        raise InternalInvariantError("perturbed game failed to separate the outcome")
    return perturbed
