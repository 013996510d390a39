"""Jeopardization, minimally mixed BCEs, the dense/nowhere-dense dichotomy,
and the utility perturbation that makes a given BCE separated.

The sBCE set is either dense or nowhere dense in the BCE set, and the test
runs through a special BCE: one with maximal support, realizing distinct
beliefs wherever any BCE does (minimal mixing), whose best-response sets are
reduced to the jeopardization sets by mixing.  If that candidate is separated
the sBCE set is dense; otherwise its separation failure exhibits two
recommendations with distinct beliefs sharing a jeopardizing action, which is
a complete nowhere-density certificate.  Every step reads the belief tables
of the outcome it looks at (candidate, vertex, witness, maximizer) through
``Outcome.beliefs``, and every LP on the game's ``BaseGame.bce_polytope``,
so each is built once however many steps read it.

Equal beliefs are read off each table's classes (``BeliefTable.classes``):
the realized distinct pairs, the extreme-point test's common posterior and
the perturbation's distinct beliefs, the class rows, whose chain order,
separating functionals, bonus rows and step are decided on ints.  One LP,
``_separating_functional``, orders the chain (while three or more beliefs
remain) and then separates each link from its prefix.
"""

import random
from dataclasses import dataclass
from typing import Optional

from . import lp as _lp
from . import rows as _rows
from .bce import BcePolytope, is_bce, max_support_point, mix_outcomes, obedience_row
from .errors import (
    InternalInvariantError,
    NotABce,
    NotCoherent,
    RetriesExhausted,
    ValidationError,
)
from .games import BaseGame, Outcome, check_action, utility_distance
from .rational import ONE, ZERO, Rat
from .separation import is_sbce, is_separated
from .vertices import enumerate_vertices

RANDOMIZED = "randomized"
EXACT = "exact"

DENSE = "dense"
NOWHERE_DENSE = "nowhere_dense"


# ---------------------------------------------------------------------------
# Jeopardization


def jeopardizes(game: BaseGame, player, action, target):
    """Does ``action`` jeopardize ``target``: is ``action`` a best response to
    the belief induced by ``target`` in every BCE that recommends it?

    Decided by one LP: the obedience slack of (target -> action) is
    nonnegative over the whole BCE set and ``action`` jeopardizes ``target``
    exactly when its maximum is zero.  Returns (bool, max value, maximizer).
    """
    check_action(game, player, action)
    check_action(game, player, target)
    outcome, value = game.bce_polytope.optimum(obedience_row(game, player, target, action), "max")
    if value < 0:
        raise InternalInvariantError("obedience slack negative over the BCE set")
    return value == 0, value, outcome


def jeopardization_set(game: BaseGame, player, target):
    """All actions that jeopardize ``target``, in action order."""
    out = []
    for action in game.actions[player]:
        hit, _, _ = jeopardizes(game, player, action, target)
        if hit:
            out.append(action)
    return tuple(out)


# ---------------------------------------------------------------------------
# Equal beliefs across the whole BCE set (extreme-point test)


def bce_vertices(game: BaseGame):
    """All vertices of the game's BCE polytope, as outcomes."""
    poly = game.bce_polytope
    pts = enumerate_vertices(poly.variables, poly.constraints, poly.bounds)
    return [poly.outcome_from_point(pt) for pt in pts]


def equal_beliefs_in_all_bce(game: BaseGame, player, a, b, vertices=None):
    """Whether every BCE supporting both actions gives them the same belief.

    Exact-mode test over the polytope's extreme points: either all nonzero
    induced beliefs coincide (with the all-zeros convention for unsupported
    actions), or the two unnormalized belief vectors are proportional with one
    positive constant across every vertex.  Decided on the vertices' int
    belief tables (``Outcome.beliefs``).
    """
    check_action(game, player, a)
    check_action(game, player, b)
    if a == b:
        return True
    if vertices is None:
        vertices = bce_vertices(game)
    tables = [vertex.beliefs(game)[player] for vertex in vertices]
    for action in (a, b):
        if not any(t.totals[action] for t in tables):
            raise NotCoherent(f"{action!r} has zero probability in every BCE")

    # Condition (i): a single common posterior, zeros allowed: one class row
    # holds a and b wherever either is played.
    rows = {row for t in tables for row, acts in t.classes.items() if a in acts or b in acts}
    if len(rows) == 1:
        return True

    # Condition (ii): one positive likelihood ratio across all vertices: the
    # two share a class wherever either is played, with one ratio of masses.
    ratios = set()
    for t in tables:
        if t.totals[a] or t.totals[b]:
            if not (t.totals[a] and t.totals[b] and t.same_belief(a, b)):
                return False
            ratios.add(Rat(t.totals[a], t.totals[b]))
    return len(ratios) == 1


# ---------------------------------------------------------------------------
# Minimally mixed candidates


def _supported_pairs(game: BaseGame, outcome: Outcome):
    """The outcome's (player, a, b) pairs of supported actions, a before b."""
    tables = outcome.beliefs(game)
    for i in game.players:
        support = tables[i].support
        for ai, a in enumerate(support):
            for b in support[ai + 1 :]:
                yield (i, a, b)


def _distinct_pairs(game: BaseGame, outcome: Outcome):
    """The outcome's (player, a, b) pairs of supported actions with distinct
    beliefs."""
    tables = outcome.beliefs(game)
    return {(i, a, b) for i in game.players for a, b in tables[i].distinct_pairs()}


def _mixed_pair_distinct(ends, n, d, a, b) -> bool:
    """Whether both of the pair's mass rows at the mixture
    (1 - n/d)·cand + (n/d)·other are supported with different primitive
    rows, read from the two endpoint tables: d·D_c·D_o times the mixture's
    masses are (d - n)·D_o·v_cand + n·D_c·v_other, and the test is
    scale-free."""
    cand, other = ends
    wc, wo = (d - n) * other.scale, n * cand.scale
    vec_a = [wc * x + wo * y for x, y in zip(cand.masses[a], other.masses[a])]
    vec_b = [wc * x + wo * y for x, y in zip(cand.masses[b], other.masses[b])]
    return any(vec_a) and any(vec_b) and _rows.primitive(vec_a) != _rows.primitive(vec_b)


def _mix_keeping(game, cand, other, keep_pairs, want_pair=None, weights=None):
    """Convex combination of two BCEs that keeps every pair in ``keep_pairs``
    belief-distinct (and makes ``want_pair`` distinct).  Each pair rules out
    at most two mixing weights, so small-denominator weights are tried until
    one verifies.  Weights are tested on the endpoints' belief tables; only
    the chosen mixture is built."""
    if weights is None:
        weights = [Rat(1, d) for d in range(2, 2 * (len(keep_pairs) + 2) + 4)]
    pairs = list(keep_pairs) if want_pair is None else [want_pair, *keep_pairs]
    tables, other_tables = cand.beliefs(game), other.beliefs(game)
    ends = {i: (tables[i], other_tables[i]) for i in {pair[0] for pair in pairs}}
    for t in weights:
        n, d = t.numerator, t.denominator
        if all(_mixed_pair_distinct(ends[i], n, d, a, b) for i, a, b in pairs):
            return mix_outcomes(((ONE - t, cand), (t, other)))
    raise RetriesExhausted("no admissible mixing weight found")


def _distinct_witness(game: BaseGame, player, a, b, vertices):
    """An outcome in the BCE set realizing distinct beliefs for the pair.
    When the extreme-point test fails, a witness exists among the vertices
    or their pairwise midpoints, tried in that order; a midpoint is built
    only when every vertex and earlier midpoint has failed."""

    def candidates():
        yield from vertices
        half = Rat(1, 2)
        for idx, v in enumerate(vertices):
            for w in vertices[idx + 1 :]:
                yield mix_outcomes(((half, v), (half, w)))

    for cand in candidates():
        if not cand.beliefs(game)[player].same_belief(a, b):
            return cand
    raise InternalInvariantError(
        f"no distinct-belief witness for {(player, a, b)} despite failed equal-belief test"
    )


def _require_retries(retries):
    """Raise ``ValidationError`` unless ``retries`` is an int (not a bool)
    and nonnegative: ``range`` of a negative count runs no retry."""
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ValidationError(f"retries must be a nonnegative int, not {retries!r}")


def find_minimally_mixed(
    game: BaseGame,
    retries: int = 64,
    seed: int = 0,
    mode: str = RANDOMIZED,
) -> Outcome:
    """A maximal-support BCE realizing distinct beliefs wherever any BCE does.

    Exact mode enumerates the BCE vertices, decides realizability of each
    pair by the extreme-point test, and mixes witnesses into the candidate
    until every realizable pair is realized; the result is verified.  The
    randomized mode perturbs the maximal-support point with ``retries``
    random optimizer outputs and only guarantees maximal support; it raises
    ``ValidationError`` when ``retries`` is not an int (a bool is not one)
    or is negative.
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
    _require_retries(retries)
    rng = random.Random(seed)
    poly = game.bce_polytope
    cand = max_support_point(game)
    realized = _distinct_pairs(game, cand)
    for _ in range(retries):
        objective = {
            cell: Rat(rng.randint(-6, 6)) for cell in poly.variables if rng.random() < 0.5
        }
        other, _ = poly.optimum(objective)
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


def _reduce_best_responses(game: BaseGame, cand: Outcome) -> Outcome:
    """Mix BCEs into the candidate until every supported recommendation's
    best-response set equals its jeopardization set, without losing any
    realized distinct-belief pair.  Jeopardization sets are lower bounds for
    best-response sets at any BCE, so termination is forced by the total
    best-response mass strictly shrinking."""
    jeopardy = {}
    while True:
        culprit = None
        tables = cand.beliefs(game)
        for i in game.players:
            table = tables[i]
            for a in table.support:
                for c in table.best_responses(a):
                    if c == a:
                        continue
                    key = (i, c, a)
                    if key not in jeopardy:
                        jeopardy[key] = jeopardizes(game, i, c, a)
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
        """Re-check the certificate; raises on failure.  The checks read the
        outcome's own belief tables (``Outcome.beliefs``), so they share any
        fault in the tables the search read.  Its LPs run on a polytope of
        their own, so a fresh phase 1 catches a fault in the game's."""
        outcome = self.certificate if self.verdict == DENSE else self.witness[0]
        if self.verdict == DENSE:
            if not is_sbce(game, outcome):
                raise InternalInvariantError("dense certificate is not an sBCE")
            return True
        _, player, a, b, shared = self.witness
        if not is_bce(game, outcome):
            raise InternalInvariantError("witness outcome is not a BCE")
        if outcome.beliefs(game)[player].same_belief(a, b):
            raise InternalInvariantError("witness beliefs are not distinct")
        poly = BcePolytope.of(game)
        for target in (a, b):
            _, value = poly.optimum(obedience_row(game, player, target, shared), "max")
            if value != 0:
                raise InternalInvariantError(
                    f"{shared!r} does not jeopardize {target!r} (max slack {value})"
                )
        return True


def classify_density(
    game: BaseGame,
    mode: str = RANDOMIZED,
    seed: int = 0,
    retries: int = 64,
) -> DensityVerdict:
    """Is the sBCE set dense in the BCE set, or nowhere dense?

    The candidate is a minimally mixed BCE whose best-response sets have been
    reduced to jeopardization sets.  Separation of the candidate certifies
    density; a separation failure names two distinct-belief recommendations
    sharing a jeopardizing action, certifying nowhere-density.  NowhereDense
    witnesses are complete proofs in both modes; the Dense verdict relies on
    verified minimal mixing in exact mode only.  The search runs on the
    game's ``bce_polytope``; the verdict's ``verify`` builds its own.  In
    randomized mode a ``retries`` that is negative or not an int raises
    ``ValidationError`` (``find_minimally_mixed``).
    """
    cand = find_minimally_mixed(game, retries, seed, mode)
    cand = _reduce_best_responses(game, cand)
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


def _peel_order(beliefs):
    """Enumerate distinct beliefs, given as int mass rows, so that each is an
    extreme point of the convex hull of its prefix: repeatedly peel off the
    first belief ``_separating_functional`` separates from the rest (a hull
    vertex) and give it the highest remaining index.  While at most two
    distinct points remain, both are vertices, so no LP runs."""
    remaining = list(range(len(beliefs)))
    order = [None] * len(beliefs)
    for slot in range(len(beliefs) - 1, -1, -1):
        if len(remaining) <= 2:
            peeled = remaining[0]
        else:
            for peeled in remaining:
                others = [beliefs[j] for j in remaining if j != peeled]
                if _separating_functional(beliefs[peeled], others) is not None:
                    break
            else:  # pragma: no cover - finite point sets have vertices
                raise InternalInvariantError("no extreme point among distinct beliefs")
        order[slot] = peeled
        remaining.remove(peeled)
    return order  # order[m] = original index of the m-th belief in the chain


def _separating_functional(target, earlier):
    """f with f·t > 0 >= f·q, for t and each q the posteriors of ``target``
    and of the ``earlier`` int mass rows: maximize the separation margin
    subject to box constraints, then shift by the best earlier value.  The
    LP row of q, h·(t - q) >= margin, is the ``lp.IntRow`` target·T_q -
    q·T_t over T_t·T_q with margin -T_t·T_q (T the rows' totals).  Returns
    f as int numerators over one denominator, or None when the verified best
    margin is 0: t lies in the convex hull of the q."""
    total = sum(target)
    hvars = tuple(("h", c) for c in range(len(target)))
    margin = ("margin",)
    constraints = []
    for q in earlier:
        q_total = sum(q)
        den = total * q_total
        nums = {margin: -den}
        for var, x, y in zip(hvars, target, q):
            diff = x * q_total - y * total
            if diff:
                nums[var] = diff
        constraints.append((_lp.IntRow(nums, den), _lp.GREATER, ZERO))
    bounds = dict.fromkeys(hvars, (-ONE, ONE))
    bounds[margin] = (ZERO, Rat(2))
    lp = _lp.LinearProgram(
        variables=hvars + (margin,),
        objective={margin: ONE},
        sense="max",
        constraints=constraints,
        bounds=bounds,
    )
    sol = _lp.solve(lp)
    if not sol.is_optimal:
        raise InternalInvariantError("the separating LP has no optimum")
    if sol.value == 0:
        sol.verify()
        return None
    h = [sol.point.nums[var] for var in hvars]  # h over the point's denominator D
    # The shift is the largest h·q = H·Q / (D·T_q), and f = h - shift is
    # (H·T_q - H·Q) / (D·T_q) at that q.
    best, best_total = None, 1
    for q in earlier:
        value, q_total = _rows.dot(h, q), sum(q)
        if best is None or value * best_total > best * q_total:
            best, best_total = value, q_total
    return [x * best_total - best for x in h], sol.point.den * best_total


def separating_perturbation(game: BaseGame, outcome: Outcome, epsilon) -> BaseGame:
    """A nearby game (sup-norm distance at most epsilon) in which ``outcome``
    is a separated BCE.

    Follows the belief-chain construction: order each player's distinct
    supported beliefs so every link is an extreme point of its prefix,
    separate each link from its predecessors with a bonus functional, rescale
    the bonuses so each belief strictly prefers its own, and add them to the
    utilities with a small enough step 2^-k.  The beliefs are the primitive
    mass rows of the outcome's belief tables (``Outcome.beliefs``), and the
    functionals, bonus rows and step are decided on ints; each cell a bonus
    reaches is one ``Rat`` made from the player's payoff row, and the rest
    are kept.  Both postconditions are re-verified exactly before returning.
    """
    if _lp._inexact(epsilon):
        raise ValidationError(f"epsilon must be an exact rational: {epsilon!r}")
    epsilon = Rat(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    check = is_bce(game, outcome)
    if not check:
        raise NotABce(f"perturbation requires a BCE; violated at {check.witness}")
    if is_separated(game, outcome):
        return game

    tables = outcome.beliefs(game)

    bonus = {}  # (player, action) -> (int row over the belief cells, its denominator)
    max_abs, max_den = 0, 1  # the largest |bonus| is max_abs / max_den
    for i in game.players:
        classes = tables[i].classes
        distinct = list(classes)
        chain = [distinct[idx] for idx in _peel_order(distinct)]
        n_i = len(chain)

        funcs = [([1] * len(chain[0]), 1)]
        for m in range(1, n_i):
            func = _separating_functional(chain[m], chain[:m])
            if func is None:
                raise InternalInvariantError("strict separation of an extreme point failed")
            funcs.append(func)

        # f_l·q_m has the sign of F_l·Q_m (f_l = F_l / E_l, q_m = Q_m / T_m),
        # and f_m·q_m / f_l·q_m = (F_m·Q_m·E_l) / (F_l·Q_m·E_m).
        own = [_rows.dot(f, q) for (f, _), q in zip(funcs, chain)]
        ts = [ONE] * n_i
        for l in range(n_i - 1):
            f_l, e_l = funcs[l]
            for m in range(l + 1, n_i):
                cross = _rows.dot(f_l, chain[m])
                if cross > 0:
                    ts[l] = min(ts[l], Rat(own[m] * e_l, 2 * funcs[m][1] * cross))
        scale = ONE
        bonus_rows = [None] * n_i
        for m in range(n_i - 1, -1, -1):
            scale *= ts[m]
            f, e = funcs[m]
            row = [scale.numerator * x for x in f]
            den = scale.denominator * e
            bonus_rows[m] = (row, den)
            top = max(map(abs, row))
            if top * max_den > max_abs * den:
                max_abs, max_den = top, den

        for q, row in zip(chain, bonus_rows):
            for a in classes[q]:
                bonus[(i, a)] = row

    # The step is 2^-k for the least k >= 0 with max_abs·2^-k <= epsilon.
    x, y = max_abs * epsilon.denominator, max_den * epsilon.numerator
    k = max(0, x.bit_length() - y.bit_length())
    if x > y << k:
        k += 1
    bonus = {key: (row, den << k) for key, (row, den) in bonus.items()}

    # u + bonus·2^-k is (U·den + B·L) / (L·den), den now carrying the 2^k,
    # rewritten only where the bonus row is nonzero.
    utilities = {i: dict(game.utilities[i]) for i in game.players}
    for (i, action), (row, den) in bonus.items():
        payoffs = game.payoff_rows[i]
        table = utilities[i]
        for cell, b, u in zip(payoffs.keys[action], row, payoffs.rows[action]):
            if b:
                table[cell] = Rat(u * den + b * payoffs.scale, payoffs.scale * den)
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
