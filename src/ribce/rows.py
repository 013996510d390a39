"""Exact row kernels for the simplex tableau and double description.

These inner loops dominate runtime.  The simplex tableau and the
double-description rays are fraction-free: each row is a list of Python
ints, a positive multiple of the rational row it stands for, kept primitive
(content 1) by ``primitive``.  ``pivot_eliminate`` pivots such rows without
a division (Edmonds 1967; Bareiss, Math. Comp. 22, 1968).  In double
description, ``dot`` signs each ray against the row being added (and gives
the initial rays their incidence), and ``row_combine`` forms each new ray
from an adjacent pair.  Every exact elimination (simplex,
certificate check, initial cone) is a ``pivot_eliminate``; ``row_scale`` and
``row_eliminate`` have no caller and stay only because the benchmark names
their call counters.  Callers go through the module attributes
(``_rows.dot``), so the kernels can be wrapped for tracing.
"""

from math import gcd as _gcd
from math import lcm as _lcm
from operator import mul as _mul

IMPL = "python"


def primitive(row):
    """The primitive row of ints that is a positive multiple of ``row``, a row
    of exact rationals or ints; a zero row stays zero.

    An int row is divided by the gcd of its entries and needs no
    denominator pass.  A row with ``Rat`` entries (``math.gcd`` refuses
    them) is first scaled by the lcm of its denominators."""
    try:
        g = _gcd(*row)
    except TypeError:
        return _divide_content(_int_multiple(row))
    return [z // g for z in row] if g > 1 else list(row)


def _int_multiple(row):
    """``row`` times the lcm of its denominators, as ints."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    den = _lcm(*[int(x.denominator) for _, x in nonzero])
    ints = [0] * len(row)
    for j, x in nonzero:
        ints[j] = int(x.numerator * (den // x.denominator))
    return ints


def _divide_content(ints):
    g = _gcd(*ints)
    return [z // g for z in ints] if g > 1 else ints


def row_eliminate(target, factor, source):
    """In place: target[j] -= factor * source[j]. Skips zero source entries."""
    for j, s in enumerate(source):
        if s:
            target[j] = target[j] - factor * s


def pivot_eliminate(tableau, pivot_row, col):
    """Fraction-free pivot on (``pivot_row``, ``col``) of a tableau of int rows.

    The pivot row is negated if its entry ``p`` in ``col`` is negative.  Every
    other row with ``f = row[col] != 0`` becomes the primitive form of
    ``p * row - f * pivot``: a positive multiple of the rational row that
    dividing the pivot row by its pivot and eliminating would give.  The
    primitive form is unique, so ``p`` and ``f`` are first divided by their
    gcd, which takes out that factor of the content before the row is built.
    """
    source = tableau[pivot_row]
    p = source[col]
    if p < 0:
        p = -p
        source = tableau[pivot_row] = [-s for s in source]
    for r, row in enumerate(tableau):
        f = row[col]
        if f and r != pivot_row:
            g = _gcd(p, f)
            pg, fg = p // g, f // g
            tableau[r] = _divide_content([pg * x - fg * s for x, s in zip(row, source)])


def row_scale(row, factor):
    """In place: row[j] *= factor."""
    for j, x in enumerate(row):
        if x:
            row[j] = x * factor


def row_combine(alpha, xs, beta, ys):
    """Return the new row alpha*xs + beta*ys."""
    return [alpha * x + beta * y for x, y in zip(xs, ys)]


def dot(xs, ys):
    """Exact inner product of two equal-length rows: an int for int rows, and
    equal to the ``Fraction`` sum for rows of exact rationals."""
    return sum(map(_mul, xs, ys))
