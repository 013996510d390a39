"""The count space at full width, on Fraction arithmetic, cell by cell.

``reference_count_space`` builds every count 0..n of every state, as
``regime.count_space`` did before it kept only the corner counts: the
independent route the corner space is checked against.  Its rows restricted
to the space's corners must equal the space's, each column the space drops
must be the average of its neighbours in every row (``dropped_columns``),
and its programs (``uninformed_program`` and ``gross_count_program``) must
have the corner programs' values.  ``scanned_changes`` finds a table's
change points by reading all of it, the route that closed-form change
points are checked against.
"""

from types import SimpleNamespace

from ribce import lp
from ribce.rational import ONE, ZERO, Rat
from ribce.regime import EPIGRAPH


def reference_count_space(n, states, prior, payoff):
    v = {
        (own, opp, theta): payoff(own, opp, theta)
        for theta in states
        for own in (0, 1)
        for opp in range(n)
    }
    share = [Rat(m, n) for m in range(n + 1)]
    variables = tuple((m, theta) for theta in states for m in range(n + 1))

    def recommended(rec, value):
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
            rows.append((coeffs, lp.GREATER, ZERO))
        return rows

    return SimpleNamespace(
        n=n,
        variables=variables,
        bounds={var: (ZERO, None) for var in variables},
        constraints=[
            ({(m, theta): ONE for m in range(n + 1)}, lp.EQUAL, ONE) for theta in states
        ],
        mass=mass,
        obedience=obedience,
        gross=gross,
        epigraph=epigraph,
    )


def scanned_changes(n, states, payoff):
    """Each state's change points found by reading the whole table: the
    opponent counts opp in 1..n-1 at which the payoff pair (action 0,
    action 1) differs from the one at opp-1."""
    changes = {}
    for theta in states:
        pairs = [(payoff(0, opp, theta), payoff(1, opp, theta)) for opp in range(n)]
        changes[theta] = [opp for opp in range(1, n) if pairs[opp] != pairs[opp - 1]]
    return changes


def regime_reference(params):
    """The full-width space of the regime game, its payoffs written from the
    parameters: attacking pays 1-k once theta investors attack and -k
    before, staying -x once theta attack and 0 before."""

    def payoff(own, opp, theta):
        if own:
            return ONE - params.k if opp + 1 >= theta else -params.k
        return -params.x if opp >= theta else ZERO

    return reference_count_space(params.n, params.thresholds, params.prior, payoff)


def uninformed_program(space):
    """The worst case of total uninformed welfare over ``space`` (a full-width
    reference or a ``regime.CountSpace``): the (m, theta) variables and
    EPIGRAPH, the normalization rows, obedience(1) and obedience(0) >= 0 and
    the epigraph rows of actions 0 and 1, minimizing n * EPIGRAPH."""
    obedience = [(space.obedience(rec), lp.GREATER, ZERO) for rec in (1, 0)]
    return lp.LinearProgram(
        variables=space.variables + (EPIGRAPH,),
        objective={EPIGRAPH: Rat(space.n)},
        constraints=space.constraints + obedience + space.epigraph(),
        bounds=space.bounds,
    )


def gross_count_program(space):
    """The exogenous worst case over ``space`` on its own rows: the (m, theta)
    variables, the normalization rows, obedience(1) and obedience(0) >= 0,
    and ``space.gross()`` to minimize, with neither EPIGRAPH nor the
    epigraph rows of ``CountSpace.program``."""
    obedience = [(space.obedience(rec), lp.GREATER, ZERO) for rec in (1, 0)]
    return lp.LinearProgram(
        variables=space.variables,
        objective=space.gross(),
        constraints=space.constraints + obedience,
        bounds=space.bounds,
    )


def rows(space):
    """Every row the space builds, in one fixed order."""
    return (
        [row for row, _, _ in space.constraints]
        + [space.mass(rec) for rec in (0, 1)]
        + [space.obedience(rec) for rec in (0, 1)]
        + [space.gross()]
        + [row for row, _, _ in space.epigraph()]
    )


def dropped_columns(space, ref):
    """The reference columns that ``space`` leaves out, once it is checked
    that each is the average of its two neighbours in every reference row
    and that counts 0 and n are kept."""
    kept = set(space.variables)
    dropped = [var for var in ref.variables if var not in kept]
    ref_rows = rows(ref)
    for m, theta in dropped:
        assert 0 < m < ref.n, (m, theta)
        for row in ref_rows:
            left, mid, right = (row.get((c, theta), ZERO) for c in (m - 1, m, m + 1))
            assert 2 * mid == left + right, (m, theta, row)
    return dropped


def restrict(program, variables):
    """``program`` on ``variables`` only: its columns, rows, objective and
    bounds with every other column left out."""
    keep = set(variables)

    def on(row):
        return {v: c for v, c in row.items() if v in keep}

    return lp.LinearProgram(
        variables=variables,
        objective=on(program.objective),
        sense=program.sense,
        constraints=[(on(con.coeffs), con.relation, con.rhs) for con in program.constraints],
        bounds=on(program.bounds),
    )
