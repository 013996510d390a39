"""Regime-change application: n investors decide whether to attack a
distressed institution whose failure threshold is the payoff state.

Attacking costs k and pays 1 when the attack succeeds (at least theta
attackers); passive investors absorb an externality -x on success.  Symmetric
outcomes are equivalent to kernels over attacker counts, which keeps the
worst-case welfare programs tractable for large n, and the worst case under
acquired information has the closed form -n*x*k/(1+x) regardless of the
threshold distribution.

The count-space reduction holds for every symmetric binary-action game:
``count_space`` builds its LP pieces from a payoff table indexed by own
action, opponents on action 1 and state, and serves both the regime
programs here and the symmetric gap test in ``welfare``.
"""

from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

from . import lp as _lp
from .errors import InternalInvariantError, InvalidParams, NotSymmetricOutcome
from .games import BaseGame, Outcome, is_symmetric_outcome, validate_game
from .rational import ONE, ZERO, Rat

ATTACK = "1"
STAY = "0"

GROSS_WELFARE = "gross_welfare"
UNINFORMED_WELFARE = "uninformed_welfare"


@dataclass(frozen=True)
class RegimeParams:
    n: int
    k: object  # speculation cost, in (0,1)
    x: object  # externality on passive investors, > 0
    thresholds: tuple  # states, a subset of {2, ..., n-2}
    prior: dict  # threshold -> Rat

    def __post_init__(self):
        object.__setattr__(self, "k", Rat(self.k))
        object.__setattr__(self, "x", Rat(self.x))
        object.__setattr__(self, "thresholds", tuple(sorted(int(t) for t in self.thresholds)))
        object.__setattr__(
            self, "prior", {int(t): Rat(q) for t, q in self.prior.items()}
        )
        if self.n <= 3:
            raise InvalidParams("need n > 3 so that 1 < min(theta) <= max(theta) < n - 1")
        if not self.thresholds:
            raise InvalidParams("empty threshold set")
        if min(self.thresholds) <= 1 or max(self.thresholds) >= self.n - 1:
            raise InvalidParams("thresholds must satisfy 1 < theta < n - 1")
        if not (0 < self.k < 1):
            raise InvalidParams("k must lie in (0,1)")
        if self.x <= 0:
            raise InvalidParams("x must be positive")
        if set(self.prior) != set(self.thresholds):
            raise InvalidParams("prior support must equal the threshold set")
        if any(q <= 0 for q in self.prior.values()):
            raise InvalidParams("prior must have full support")
        if sum(self.prior.values(), ZERO) != ONE:
            raise InvalidParams("prior must sum to one")

    @property
    def kappa(self):
        """k/(1+x): both the worst-case attack probability and the belief
        threshold at which an investor is indifferent."""
        return self.k / (ONE + self.x)


@dataclass(frozen=True)
class CountKernel:
    """Per-state distribution over the number of attackers."""

    n: int
    q: dict  # (count m, theta) -> Rat

    def mass(self, m, theta):
        return self.q.get((m, theta), ZERO)


# The epigraph variable t of the uninformed-welfare programs: every player's
# best constant-action payoff, shared by all players in a symmetric outcome.
EPIGRAPH = ("t",)


def count_space(n: int, states, prior: dict, payoff):
    """LP pieces over count kernels of a symmetric game with actions 0 and 1.

    A symmetric outcome is a kernel q(m, theta): the probability, given the
    state, that m of the n players take action 1.  Given m, a fixed player
    takes action 1 with weight m/n, facing m-1 opponents on action 1, and
    action 0 with weight (n-m)/n, facing m.  ``payoff(own, opp, theta)`` is a
    player's utility from action ``own`` when ``opp`` opponents take action
    1; it is read once per own in {0, 1}, opp < n and theta.

    Returns a namespace with the (m, theta) ``variables``, their ``bounds``,
    the per-state normalisation rows sum_m q(m, theta) = 1 as
    ``constraints``, and row builders whose coefficients carry the prior:

    - ``mass(rec)``: probability that a player is recommended ``rec``;
    - ``obedience(rec)``: that player's gain from obeying ``rec`` over the
      other action;
    - ``gross()``: total expected payoff of all n players;
    - ``epigraph()``: the rows EPIGRAPH >= payoff of always playing a, for
      a = 0, 1, so that n * EPIGRAPH bounds total uninformed welfare.
    """
    v = {
        (own, opp, theta): payoff(own, opp, theta)
        for theta in states
        for own in (0, 1)
        for opp in range(n)
    }
    share = [Rat(m, n) for m in range(n + 1)]
    variables = tuple((m, theta) for theta in states for m in range(n + 1))

    def recommended(rec, value):
        # m = opp + rec players take action 1 when this player plays rec.
        coeffs = {}
        for theta in states:
            pi = prior[theta]
            for opp in range(n):
                m = opp + rec
                val = pi * share[m if rec else n - m] * value(opp, theta)
                if val:
                    coeffs[(m, theta)] = val
        return coeffs

    def mass(rec):
        return recommended(rec, lambda opp, theta: ONE)

    def obedience(rec):
        return recommended(rec, lambda opp, theta: v[rec, opp, theta] - v[1 - rec, opp, theta])

    def weighted_sum(weight, own1, own0):
        # pi * (weight[m] * v(own1 against m-1) + weight[n-m] * v(own0 against m))
        coeffs = {}
        for theta in states:
            pi = prior[theta]
            for m in range(n + 1):
                val = ZERO
                if m:
                    val += weight[m] * v[own1, m - 1, theta]
                if m < n:
                    val += weight[n - m] * v[own0, m, theta]
                val *= pi
                if val:
                    coeffs[(m, theta)] = val
        return coeffs

    def gross():
        return weighted_sum(range(n + 1), 1, 0)

    def epigraph():
        rows = []
        for a in (0, 1):
            coeffs = {key: -val for key, val in weighted_sum(share, a, a).items()}
            coeffs[EPIGRAPH] = ONE
            rows.append((coeffs, _lp.GREATER, ZERO))
        return rows

    return SimpleNamespace(
        variables=variables,
        bounds={var: (ZERO, None) for var in variables},
        constraints=[
            ({(m, theta): ONE for m in range(n + 1)}, _lp.EQUAL, ONE) for theta in states
        ],
        mass=mass,
        obedience=obedience,
        gross=gross,
        epigraph=epigraph,
    )


def _attacker_payoff(params: RegimeParams, total_attackers: int, theta: int):
    return (ONE - params.k) if total_attackers >= theta else -params.k


def _passive_payoff(params: RegimeParams, total_attackers: int, theta: int):
    return -params.x if total_attackers >= theta else ZERO


def build_regime_game(params: RegimeParams) -> BaseGame:
    players = tuple(f"i{j + 1}" for j in range(params.n))
    actions = {i: (STAY, ATTACK) for i in players}
    utilities = {i: {} for i in players}
    for profile in product((STAY, ATTACK), repeat=params.n):
        m = sum(1 for a in profile if a == ATTACK)
        for theta in params.thresholds:
            att = _attacker_payoff(params, m, theta)
            pas = _passive_payoff(params, m, theta)
            for j, i in enumerate(players):
                utilities[i][(profile, theta)] = att if profile[j] == ATTACK else pas
    game = BaseGame(
        players=players,
        states=params.thresholds,
        prior=dict(params.prior),
        actions=actions,
        utilities=utilities,
    )
    validate_game(game)
    return game


def wlower_closed_form(params: RegimeParams):
    """Worst-case welfare under acquired information: -n*x*k/(1+x).  It does
    not depend on the threshold distribution."""
    return -params.n * params.x * params.kappa


def _cutoff_state(params: RegimeParams):
    cdf = ZERO
    for theta in params.thresholds:
        cdf += params.prior[theta]
        if cdf >= params.kappa:
            return theta, cdf
    raise InternalInvariantError("CDF never reached kappa <= 1")  # pragma: no cover


def gap_closed_form(params: RegimeParams) -> bool:
    """True iff the worst case under acquired information is strictly below
    the worst case under exogenous information.

    Evaluates the cutoff inequality
        F(t*)*(t* - E[theta | theta <= t*]) < kappa*(3 - 3*kappa + t* - E[theta]),
    with t* the smallest threshold whose CDF reaches kappa = k/(1+x).  For a
    binary threshold set the equivalent two-sided test (gap vanishes iff the
    thresholds are >= 3 apart and kappa sits between the two state-weighted
    bounds) is evaluated as well and must agree.
    """
    kappa = params.kappa
    theta_star, cdf_star = _cutoff_state(params)
    mean = sum((params.prior[t] * t for t in params.thresholds), ZERO)
    mean_below = sum(
        (params.prior[t] * t for t in params.thresholds if t <= theta_star), ZERO
    )  # unnormalized: equals F(t*) * E[theta | theta <= t*]
    lhs = cdf_star * theta_star - mean_below
    rhs = kappa * (3 - 3 * kappa + theta_star - mean)
    gap = lhs < rhs

    if len(params.thresholds) == 2:
        lo, hi = params.thresholds
        spread = hi - lo
        no_gap_binary = (
            spread >= 3
            and ONE - Rat(spread, 3) * params.prior[hi] <= kappa
            and kappa <= Rat(spread, 3) * (ONE - params.prior[hi])
        )
        if no_gap_binary == gap:
            raise InternalInvariantError(
                "binary cutoff test disagrees with the general inequality"
            )
    return gap


def reduced_symmetric_lp(params: RegimeParams, objective: str):
    """Exact worst-case welfare over symmetric BCEs in count space.

    Symmetric outcomes are exactly the count kernels, and the symmetric
    optimum equals the full-game optimum because both worst-case programs
    admit symmetric minimizers.  Returns (value, CountKernel).
    """
    if objective not in (GROSS_WELFARE, UNINFORMED_WELFARE):
        raise InvalidParams(f"unknown objective {objective!r}")

    def payoff(own, opp, theta):
        if own:
            return _attacker_payoff(params, opp + 1, theta)
        return _passive_payoff(params, opp, theta)

    space = count_space(params.n, params.thresholds, params.prior, payoff)
    constraints = space.constraints + [
        (space.obedience(1), _lp.GREATER, ZERO),
        (space.obedience(0), _lp.GREATER, ZERO),
    ]
    if objective == GROSS_WELFARE:
        variables, obj = space.variables, space.gross()
    else:
        variables = space.variables + (EPIGRAPH,)
        constraints += space.epigraph()
        obj = {EPIGRAPH: Rat(params.n)}
    lp = _lp.LinearProgram(
        variables=variables,
        objective=obj,
        sense="min",
        constraints=constraints,
        bounds=space.bounds,
    )
    sol = _lp.solve(lp)
    if not sol.is_optimal:
        raise InternalInvariantError(f"reduced LP is {sol.status}")
    kernel = CountKernel(n=params.n, q={v: sol.point[v] for v in space.variables if sol.point[v]})
    return sol.value, kernel


def kernel_to_outcome(params: RegimeParams, kernel: CountKernel, game: BaseGame) -> Outcome:
    """Spread each count mass uniformly over the profiles with that many
    attackers; the result is the symmetric outcome the kernel represents."""
    from math import comb

    p = {}
    for (m, theta), q in kernel.q.items():
        if not q:
            continue
        share = q * params.prior[theta] / comb(params.n, m)
        for profile in product((STAY, ATTACK), repeat=params.n):
            if sum(1 for a in profile if a == ATTACK) == m:
                p[(profile, theta)] = share
    return Outcome(p=p)


def check_optimality_conditions(params: RegimeParams, outcome: Outcome, game: BaseGame = None) -> bool:
    """The two conditions pinning down worst-case minimizers under acquired
    information: zero mass on near-pivotal counts (theta-1 <= attackers <=
    theta) and success probability exactly k/(1+x)."""
    game = game or build_regime_game(params)
    if not is_symmetric_outcome(game, outcome):
        raise NotSymmetricOutcome("optimality conditions apply to symmetric outcomes")
    pivotal = ZERO
    success = ZERO
    for (profile, theta), q in outcome.p.items():
        if not q:
            continue
        m = sum(1 for a in profile if a == ATTACK)
        if theta - 1 <= m <= theta:
            pivotal += q
        if m > theta:
            success += q
    return pivotal == ZERO and success == params.kappa


def kernel_satisfies_optimality(params: RegimeParams, kernel: CountKernel) -> bool:
    """Count-space version of check_optimality_conditions."""
    pivotal = ZERO
    success = ZERO
    for (m, theta), q in kernel.q.items():
        if not q:
            continue
        mass = q * params.prior[theta]
        if theta - 1 <= m <= theta:
            pivotal += mass
        if m > theta:
            success += mass
    return pivotal == ZERO and success == params.kappa
