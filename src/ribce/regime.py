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
action, opponents on action 1 and state, and serves both the regime programs
here and the symmetric gap test in ``welfare``.  It keeps only the corner
counts of each state: a count is left out when the payoffs that it and its
two neighbours read are all equal, since its column is then the average of
theirs in every row.  That changes no optimal value and leaves an optimal
basis optimal.  The caller names each state's change points, where the
payoff pair changes, and the space reads the table only next to them: the
regime's are theta-1 and theta, so its program has at most six counts per
state and is built at a cost that does not grow with n.  It scales the
payoffs the corners read and the prior to int numerators once and hands each
row to the LP as an ``lp.IntRow``: one int product per entry over the row's
common denominator, with no ``Rat`` made, so the rows cost little next to
the LPs they feed.  One space serves every program over a game:
``regime_space`` builds the regime's, which ``cli`` passes to both
worst-case objectives, and each obedience row is built at most once per
space.  A space also keeps one worst-case program and its feasible start,
built on first use (``CountSpace.program`` and ``CountSpace.feasible``).
The regime program's start is its acquired-information optimum in closed
form, the cutoff kernel (``regime_space``), checked exactly when the
space's ``lp.Polyhedron`` starts from it: no phase 1 runs unless the check
fails, and the uninformed-welfare objective takes no phase-2 pivot.
``reduced_symmetric_lp`` optimizes both objectives from it: the
uninformed-welfare objective on the program a cold solve would run, with the
cold solve's value, and the gross objective on the same rows, whose epigraph
variable is free and left out of it, so the value is that of the rows
without the epigraph ones.  The full game (``build_regime_game``) has 2^n
profiles and is refused above ``MAX_REGIME_PLAYERS``.

The full check solves nothing on the full game.  By symmetry (Bödi, Herr &
Joswig, Math. Prog. 2013) a count-space optimum and its duals lift to an
optimal primal-dual pair of the full game's programs: ``lift_to_full_game``
spreads the kernel over the profiles (``kernel_to_outcome``) and divides
each count row's dual by pi(theta) or n, and ``certify_full_game`` proves
the pair on the full rows with ``lp.check_certificate``.  The gross answer's
epigraph duals are 0 at any optimum (the epigraph variable is free at cost
0), so its normalization and obedience duals alone prove the full gross
program.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, lcm

from . import lp as _lp
from .errors import InternalInvariantError, InvalidParams, NotSymmetricOutcome, TooManyPlayers
from .games import BaseGame, Outcome, is_symmetric_outcome, validate_game
from .rational import ONE, ZERO, Rat

ATTACK = "1"
STAY = "0"

GROSS_WELFARE = "gross_welfare"
UNINFORMED_WELFARE = "uninformed_welfare"

# build_regime_game stores n utilities per profile and state, 2^n * n per
# state: 49,152 at n=12, two players above the largest full check in use.
# With two states, the game, its programs and two certificate checks take
# about 0.08 s at n=10 and 0.4 s at n=12, with a peak RSS of 23 and 48 MB
# (a 2.1 GHz Xeon, Python 3.11).  Far above the cap the table alone would
# exhaust memory.
MAX_REGIME_PLAYERS = 12


def _require_int(field, value):
    """``value`` itself if it is an int (not a bool); thresholds are counts."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParams(f"{field} must be an int, not {value!r}")
    return value


def _require_exact(field, value):
    """``value`` as a Rat if it is exact (an int or a Fraction); a float
    would be silently rounded to its binary expansion."""
    if not isinstance(value, numbers.Rational):
        raise InvalidParams(f"{field} must be an exact rational, not {value!r}")
    return Rat(value)


@dataclass(frozen=True)
class RegimeParams:
    n: int
    k: object  # speculation cost, in (0,1)
    x: object  # externality on passive investors, > 0
    thresholds: tuple  # states, a subset of {2, ..., n-2}
    prior: dict  # threshold -> Rat

    def __post_init__(self):
        _require_int("n", self.n)
        object.__setattr__(self, "k", _require_exact("k", self.k))
        object.__setattr__(self, "x", _require_exact("x", self.x))
        object.__setattr__(
            self,
            "thresholds",
            tuple(sorted(_require_int("thresholds", t) for t in self.thresholds)),
        )
        object.__setattr__(
            self,
            "prior",
            {
                _require_int("prior key", t): _require_exact(f"prior[{t}]", q)
                for t, q in self.prior.items()
            },
        )
        if self.n <= 3:
            raise InvalidParams("need n > 3 so that 1 < min(theta) <= max(theta) < n - 1")
        if not self.thresholds:
            raise InvalidParams("empty threshold set")
        for lower, upper in zip(self.thresholds, self.thresholds[1:]):
            if lower == upper:
                raise InvalidParams(f"repeated threshold {lower}")
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

    @cached_property
    def kappa(self):
        """k/(1+x): both the worst-case attack probability and the belief
        threshold at which an investor is indifferent.  Computed on first
        read and kept."""
        return self.k / (ONE + self.x)

    @cached_property
    def cutoff(self):
        """(t*, F(t*)): the smallest threshold whose prior CDF reaches
        ``kappa``, and that CDF.  Computed on first read and kept."""
        kappa = self.kappa
        cdf = ZERO
        for theta in self.thresholds:
            cdf += self.prior[theta]
            if cdf >= kappa:
                return theta, cdf
        raise InternalInvariantError("CDF never reached kappa <= 1")  # pragma: no cover


@dataclass(frozen=True)
class CountKernel:
    """Per-state distribution over the number of attackers.  A kernel read
    off a count program has its mass on the space's corner counts only."""

    n: int
    q: dict  # (count m, theta) -> Rat

    def mass(self, m, theta):
        return self.q.get((m, theta), ZERO)


# The epigraph variable t of the uninformed-welfare programs: every player's
# best constant-action payoff, shared by all players in a symmetric outcome.
EPIGRAPH = ("t",)


def count_space(n: int, states, prior: dict, payoff, changes: dict, start=()):
    """LP pieces over count kernels of a symmetric game with actions 0 and 1,
    on the game's corner counts.

    A symmetric outcome is a kernel q(m, theta): the probability, given the
    state, that m of the n players take action 1.  Given m, a fixed player
    takes action 1 with weight m/n, facing m-1 opponents on action 1, and
    action 0 with weight (n-m)/n, facing m.  ``payoff(own, opp, theta)`` is a
    player's utility from action ``own`` when ``opp`` opponents take action
    1.  ``changes[theta]`` lists the state's change points: the opponent
    counts opp in 1..n-1 at which the payoff pair (action 0, action 1)
    differs from the one at opp-1.  The caller finds them, in closed form
    (``regime_space``) or by one scan of its table (the gap test in
    ``welfare``); between two change points the pair must be constant.

    Column (m, theta) reads the payoffs only at opp = m-1 and m, with
    weights affine in m.  So if both actions' payoffs in state theta are the
    same at every opp from max(0, m-2) to min(n-1, m+1), column m is the
    average of columns m-1 and m+1 in every row below, and a run of such
    columns is affine between the nearest counts kept on either side: any
    kernel can move its mass on the run onto those two with every row's
    value unchanged.  The space drops those columns and keeps the others,
    its corner counts: 0 and n always, and opp-1, opp and opp+1 for each
    change point opp.  Every optimal value over the corners is that of the
    full kernel space, and a dropped column's reduced cost interpolates its
    neighbours', so an optimal basis of a corner program is optimal on the
    full one.  A regime game keeps at most six counts per state, whatever n
    is, and ``payoff`` is read only at the opponent counts the corners read:
    the space costs nothing that grows with n.

    Returns a ``CountSpace`` with the corner (m, theta) ``variables``, their
    ``bounds``, the per-state normalisation rows sum_m q(m, theta) = 1 as
    ``constraints``, and row builders whose coefficients carry the prior:

    - ``mass(rec)``: probability that a player is recommended ``rec``;
    - ``obedience(rec)``: that player's gain from obeying ``rec`` over the
      other action;
    - ``gross()``: total expected payoff of all n players;
    - ``epigraph()``: the rows EPIGRAPH >= payoff of always playing a, for
      a = 0, 1, so that n * EPIGRAPH bounds total uninformed welfare.

    ``start`` is the basis proposed for the space's program
    (``CountSpace.feasible``); with none, phase 1 finds one.  The payoffs
    the corner columns read are scaled once to ints over the lcm of their
    denominators, and the prior over the lcm of its own.  Each row is an
    ``lp.IntRow``: every entry one int product over the row's common
    denominator, zero entries left out.  A space serves every program over
    one game: build it once and pass it around.
    """
    states = tuple(states)
    counts, table = {}, {}
    for theta in states:
        corners = {0, n}
        for opp in changes[theta]:
            corners.update((opp - 1, opp, opp + 1))
        counts[theta] = sorted(corners)
        # Corner m reads the pairs at opp = m-1 (if m > 0) and m (if m < n).
        reads = {opp for m in corners for opp in (m - 1, m) if 0 <= opp < n}
        table[theta] = {opp: (payoff(0, opp, theta), payoff(1, opp, theta)) for opp in reads}
    scale = lcm(*{v.denominator for read in table.values() for pair in read.values() for v in pair})
    values = {
        theta: {
            opp: tuple(v.numerator * (scale // v.denominator) for v in pair)
            for opp, pair in read.items()
        }
        for theta, read in table.items()
    }
    prior_scale = lcm(*(prior[theta].denominator for theta in states))
    weights = {
        theta: prior[theta].numerator * (prior_scale // prior[theta].denominator)
        for theta in states
    }
    return CountSpace(n, weights, prior_scale, counts, values, scale, tuple(start))


class CountSpace:
    """The count-kernel LP pieces of one symmetric binary-action game on its
    corner counts, on int numerators; ``count_space`` builds it and
    documents the rows.

    ``variables`` are the corner columns (m, theta), state by state and m
    increasing within a state; ``counts[theta]`` lists a state's corners.
    ``weights[theta]`` over ``prior_scale`` is the prior, and
    ``values[theta][opp]`` over ``scale`` the payoff pair (action 0,
    action 1) at each opponent count a corner column reads.  ``start`` is
    the basis proposed for ``program``, empty if none is."""

    def __init__(self, n, weights, prior_scale, counts, values, scale, start):
        self.n = n
        self.start = start
        self._counts = counts
        self.variables = tuple((m, theta) for theta in weights for m in counts[theta])
        self.bounds = {var: (ZERO, None) for var in self.variables}
        self.constraints = [
            (_lp.IntRow({(m, theta): 1 for m in counts[theta]}, 1), _lp.EQUAL, ONE)
            for theta in weights
        ]
        self._weights = weights
        self._prior_scale = prior_scale
        self._values = values
        self._scale = scale
        self._obedience = {}

    def _recommended(self, rec, gain, den):
        # At count m the player plays rec with share m/n (rec 1, against m-1
        # opponents on action 1) or (n-m)/n (rec 0, against m); ``gain``
        # reads the payoff pair there.
        n = self.n
        nums = {}
        for theta, weight in self._weights.items():
            values = self._values[theta]
            for m in self._counts[theta]:
                share = m if rec else n - m
                if share and (num := weight * share * gain(values[m - rec])):
                    nums[(m, theta)] = num
        return _lp.IntRow(nums, den)

    def mass(self, rec):
        return self._recommended(rec, lambda pair: 1, self._prior_scale * self.n)

    def obedience(self, rec):
        """Built once per space: every caller gets the same row."""
        row = self._obedience.get(rec)
        if row is None:
            row = self._obedience[rec] = self._obedience_row(rec)
        return row

    def _obedience_row(self, rec):
        return self._recommended(
            rec, lambda pair: pair[rec] - pair[1 - rec], self._prior_scale * self.n * self._scale
        )

    def _weighted_sum(self, own1, own0, sign):
        # The numerators, over prior_scale * scale, of
        # sign * pi * (m * v(own1 against m-1) + (n-m) * v(own0 against m))
        n = self.n
        nums = {}
        for theta, weight in self._weights.items():
            weight *= sign
            values = self._values[theta]
            for m in self._counts[theta]:
                total = m * values[m - 1][own1] if m else 0
                if m < n:
                    total += (n - m) * values[m][own0]
                if num := weight * total:
                    nums[(m, theta)] = num
        return nums

    def gross(self):
        return _lp.IntRow(self._weighted_sum(1, 0, 1), self._prior_scale * self._scale)

    def epigraph(self):
        den = self._prior_scale * self._scale * self.n
        rows = []
        for a in (0, 1):
            nums = self._weighted_sum(a, a, -1)
            nums[EPIGRAPH] = den
            rows.append((_lp.IntRow(nums, den), _lp.GREATER, ZERO))
        return rows

    @cached_property
    def program(self) -> _lp.LinearProgram:
        """The worst-case program of the space, with no objective: the
        (m, theta) variables and EPIGRAPH, under the normalization rows in
        state order, obedience(1) and obedience(0) >= 0, and the epigraph
        rows of actions 0 and 1.  Built on first use and kept."""
        return _lp.LinearProgram(
            variables=self.variables + (EPIGRAPH,),
            objective={},
            constraints=self.constraints
            + [(self.obedience(1), _lp.GREATER, ZERO), (self.obedience(0), _lp.GREATER, ZERO)]
            + self.epigraph(),
            bounds=self.bounds,
        )

    @cached_property
    def feasible(self) -> _lp.Polyhedron:
        """``program``'s polyhedron, built on first use and kept for every
        objective over it.  It starts from the space's proposed ``start``,
        which the polyhedron's exact check accepts or refuses; a refused or
        empty proposal runs phase 1 instead.  The
        regime space proposes the cutoff kernel, the acquired-information
        optimum (``regime_space``)."""
        return _lp.Polyhedron(self.program, self.start)


def _payoff(params: RegimeParams):
    """u(own, opp, theta): an investor's payoff from attacking (own 1) or
    staying (own 0) when ``opp`` other investors attack, so that opp + own
    attack in all, with its four values computed once."""
    win, lose, hit = ONE - params.k, -params.k, -params.x

    def payoff(own, opp, theta):
        if opp + own >= theta:
            return win if own else hit
        return lose if own else ZERO

    return payoff


def regime_space(params: RegimeParams) -> CountSpace:
    """The count space of the regime game, for ``reduced_symmetric_lp``.

    Its change points are written from ``_payoff``: attacking starts to
    succeed at theta-1 opponents on attack and staying starts to be hit at
    theta, so each state keeps the counts 0, theta-2 .. theta+1 and n.

    Its start is the cutoff kernel, with t* and F(t*) from
    ``RegimeParams.cutoff``: theta+1 investors attack in every state below
    t*, nobody in every state above, and in t* theta+1 attack with
    probability (kappa - F(t*) + pi(t*)) / pi(t*), nobody otherwise.  An
    attack then succeeds with probability kappa, no mass sits on a
    near-pivotal count (theta-1 or theta), and always staying and always
    attacking both pay -x*kappa, the value of EPIGRAPH: the closed-form
    optimum ``wlower_closed_form``.  Its basic columns are
    the slacks of obedience(1) and obedience(0), the negative part of
    EPIGRAPH, then q(theta+1, theta) below t*, both q(0, t*) and
    q(t*+1, t*), and q(0, theta) above t*; both epigraph rows are tight.
    ``lp.Polyhedron`` checks it exactly."""
    k = len(params.thresholds)
    t_star, _ = params.cutoff
    start = [("slack", k), ("slack", k + 1), ("neg", EPIGRAPH)]
    for theta in params.thresholds:
        if theta < t_star:
            start.append(("lo", (theta + 1, theta)))
        elif theta == t_star:
            start += [("lo", (0, theta)), ("lo", (theta + 1, theta))]
        else:
            start.append(("lo", (0, theta)))
    changes = {theta: (theta - 1, theta) for theta in params.thresholds}
    return count_space(params.n, params.thresholds, params.prior, _payoff(params), changes, start)


def build_regime_game(params: RegimeParams) -> BaseGame:
    """The full game, one utility per player, profile and state.  Raises
    TooManyPlayers before building anything above MAX_REGIME_PLAYERS."""
    if params.n > MAX_REGIME_PLAYERS:
        cells = 2**params.n * len(params.thresholds)
        raise TooManyPlayers(
            f"the full regime game at n={params.n} has 2^{params.n}*{len(params.thresholds)}"
            f" = {cells} profile-state cells; it is built only for n <= {MAX_REGIME_PLAYERS}"
        )
    payoff = _payoff(params)
    players = tuple(f"i{j + 1}" for j in range(params.n))
    actions = {i: (STAY, ATTACK) for i in players}
    utilities = {i: {} for i in players}
    for profile in product((STAY, ATTACK), repeat=params.n):
        m = profile.count(ATTACK)
        for theta in params.thresholds:
            att = payoff(1, m - 1, theta)
            pas = payoff(0, m, theta)
            cell = (profile, theta)
            for j, i in enumerate(players):
                utilities[i][cell] = att if profile[j] == ATTACK else pas
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
    theta_star, cdf_star = params.cutoff
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


class CountOptimum(tuple):
    """``(value, kernel)``, the answer of ``reduced_symmetric_lp``, which
    also keeps its ``objective`` (``GROSS_WELFARE`` or
    ``UNINFORMED_WELFARE``) and the solver's answer (``solution``), which
    carries the space's one count program and the objective's coefficient
    row, so that ``certify_full_game`` reads the one solve.  For
    ``GROSS_WELFARE`` the program carries the epigraph rows and EPIGRAPH
    too; they leave its value alone, and their duals are 0 (EPIGRAPH is
    free at cost 0, so mu_0 + mu_1 = 0 with mu >= 0)."""

    def __new__(cls, objective, solution, kernel):
        self = super().__new__(cls, (solution.value, kernel))
        self.objective, self.solution = objective, solution
        return self

    @property
    def value(self):
        return self[0]

    @property
    def kernel(self) -> CountKernel:
        return self[1]


def reduced_symmetric_lp(
    params: RegimeParams, objective: str, space: CountSpace = None
) -> CountOptimum:
    """Exact worst-case welfare over symmetric BCEs in count space.

    Symmetric outcomes are exactly the count kernels, and the symmetric
    optimum equals the full-game optimum because both worst-case programs
    admit symmetric minimizers (``certify_full_game`` proves it per answer).
    ``space`` is ``regime_space(params)``, built here if not given; pass one
    to both objectives to build it, its program and its start once.  Both
    objectives are optimized over the space's one program
    (``CountSpace.program``: the normalization per state, in threshold
    order, then obedience(1), obedience(0) and the epigraph rows of actions
    0 and 1), from its one feasible basis (``CountSpace.feasible``), with
    no phase 1.  That basis is the cutoff kernel, checked exactly, which is
    the ``UNINFORMED_WELFARE`` optimum: that objective takes no pivot, and
    ``GROSS_WELFARE`` pivots on from it.  Nothing here grows with n.  The
    values are those of a cold ``lp.solve`` of the same program; the kernel
    is an optimal one, not necessarily the cold solve's.
    The program runs over the space's corner counts only (``count_space``),
    so its values are those of the full kernel space, every count 0..n per
    state, and the kernel has its mass on corner counts.
    For ``GROSS_WELFARE`` EPIGRAPH is free and absent from the objective, so
    every kernel extends to a feasible point and the value is that of the
    program without the epigraph rows.  Returns (value, CountKernel) as a
    ``CountOptimum``, whose ``solution`` carries the space's program and
    the objective's coefficient row, so its duals need no program built.
    """
    if objective not in (GROSS_WELFARE, UNINFORMED_WELFARE):
        raise InvalidParams(f"unknown objective {objective!r}")
    if space is None:
        space = regime_space(params)
    costs = space.gross() if objective == GROSS_WELFARE else {EPIGRAPH: Rat(params.n)}
    sol = space.feasible.optimize(costs)
    if not sol.is_optimal:
        raise InternalInvariantError(f"reduced LP is {sol.status}")
    nums, den = sol.point.nums, sol.point.den
    kernel = CountKernel(n=params.n, q={v: Rat(x, den) for v in space.variables if (x := nums[v])})
    return CountOptimum(objective, sol, kernel)


def lift_to_full_game(params: RegimeParams, optimum: CountOptimum, game: BaseGame):
    """(program, objective, point, duals): the full game's own program and
    objective for ``optimum``'s objective, both minimized, and the
    count-space optimum and its duals (``optimum.solution.duals()``) lifted
    onto them.  ``game`` is ``build_regime_game(params)``.

    The program is ``game.bce_polytope.program`` under
    ``welfare.gross_objective``, or ``welfare.epigraph_lp`` under its own.
    The point spreads the kernel uniformly over each count's profiles
    (``kernel_to_outcome``) and sets every player's t_i to the count
    space's t.  With count duals y_theta (normalization), lambda_rec
    (obedience of rec) and mu_a (epigraph of a), the full duals are
    y_theta/pi(theta) on the marginal row of theta, lambda_rec/n on each
    player's obedience row rec -> dev, and mu_a/n on each player's epigraph
    row of a.  Summed over the players a profile's column meets, each full
    column's reduced cost is then its count column's over pi(theta), and
    b·y is the count value: by symmetry the pair is optimal whenever the
    count-space pair is (Bödi, Herr & Joswig, Math. Prog. 2013), which
    ``lp.check_certificate`` decides on the full rows.  For
    ``GROSS_WELFARE`` the epigraph duals of the count program are 0 and
    are not read.
    """
    # welfare reads this module's count space, so it is imported here.
    from .welfare import epigraph_lp, gross_objective

    n = params.n
    k = len(params.thresholds)
    y = optimum.solution.duals()
    outcome = kernel_to_outcome(params, optimum.kernel, game)
    obey = {ATTACK: y[k] / n, STAY: y[k + 1] / n}
    duals = [y_theta / params.prior[theta] for y_theta, theta in zip(y, params.thresholds)]
    # Binary actions: one obedience row per (player, rec).
    duals += [obey[rec] for i in game.players for rec in game.actions[i]]
    if optimum.objective == GROSS_WELFARE:
        return game.bce_polytope.program, gross_objective(game), outcome.p, tuple(duals)
    epigraph = {STAY: y[k + 2] / n, ATTACK: y[k + 3] / n}
    duals += [epigraph[a] for i in game.players for a in game.actions[i]]
    t = optimum.solution.point[EPIGRAPH]
    den = lcm(outcome.p.den, t.denominator)
    up = den // outcome.p.den
    nums = {cell: x * up for cell, x in outcome.p.nums.items()}
    t_num = t.numerator * (den // t.denominator)
    nums.update(dict.fromkeys([("t", i) for i in game.players], t_num))
    point = _lp.IntRow(nums, den)
    program = epigraph_lp(game)
    return program, program.objective, point, tuple(duals)


def certify_full_game(params: RegimeParams, optimum: CountOptimum, game: BaseGame):
    """The full game's worst case of ``optimum``'s objective: the count
    value, once ``lp.check_certificate`` proves the lifted point and duals
    (``lift_to_full_game``) optimal on the full game's own program.  A
    failed check raises InternalInvariantError naming the condition."""
    program, objective, point, duals = lift_to_full_game(params, optimum, game)
    _lp.check_certificate(program, objective, "min", point, optimum.value, duals)
    return optimum.value


def kernel_to_outcome(params: RegimeParams, kernel: CountKernel, game: BaseGame) -> Outcome:
    """Spread each count mass uniformly over the profiles with that many
    attackers; the result is the symmetric outcome the kernel represents.
    Its masses are an ``lp.IntRow`` keyed by ``game``'s own cells (``game``
    is ``build_regime_game(params)``), in kernel order and then profile
    order."""
    shares = {
        (m, theta): q * params.prior[theta] / comb(params.n, m)
        for (m, theta), q in kernel.q.items()
        if q
    }
    den = lcm(*[share.denominator for share in shares.values()])
    by_count = {}
    for cell in game.cell_tuple:
        by_count.setdefault((cell[0].count(ATTACK), cell[1]), []).append(cell)
    p = {}
    for key, share in shares.items():
        p.update(dict.fromkeys(by_count[key], share.numerator * (den // share.denominator)))
    return Outcome(p=_lp.IntRow(p, den))


def check_optimality_conditions(params: RegimeParams, outcome: Outcome, game: BaseGame = None) -> bool:
    """The two conditions pinning down worst-case minimizers under acquired
    information: zero mass on near-pivotal counts (theta-1 <= attackers <=
    theta) and success probability exactly k/(1+x)."""
    game = game or build_regime_game(params)
    if not is_symmetric_outcome(game, outcome):
        raise NotSymmetricOutcome("optimality conditions apply to symmetric outcomes")
    return _meets_optimality(
        params,
        ((profile.count(ATTACK), theta, q) for (profile, theta), q in outcome.p.items() if q),
    )


def kernel_satisfies_optimality(params: RegimeParams, kernel: CountKernel) -> bool:
    """Count-space version of check_optimality_conditions."""
    return _meets_optimality(
        params,
        ((m, theta, q * params.prior[theta]) for (m, theta), q in kernel.q.items() if q),
    )


def _meets_optimality(params: RegimeParams, masses) -> bool:
    """The optimality conditions on (attackers, theta, joint mass) triples."""
    pivotal = ZERO
    success = ZERO
    for m, theta, mass in masses:
        if theta - 1 <= m <= theta:
            pivotal += mass
        if m > theta:
            success += mass
    return pivotal == ZERO and success == params.kappa
