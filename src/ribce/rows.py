"""Exact row kernels for the simplex tableau and double description.

These inner loops dominate runtime.  Entries are exact rationals (mpq or
Fraction); callers go through the module attributes (``_rows.dot``), so the
kernels can be wrapped for tracing.
"""

IMPL = "python"


def row_eliminate(target, factor, source):
    """In place: target[j] -= factor * source[j]. Skips zero source entries."""
    for j, s in enumerate(source):
        if s:
            target[j] = target[j] - factor * s


def pivot_eliminate(tableau, pivot_row, col):
    """Clear ``col`` from every row but ``pivot_row`` (already normalized)."""
    source = tableau[pivot_row]
    nonzero = [(j, s) for j, s in enumerate(source) if s]
    for r, row in enumerate(tableau):
        if r == pivot_row:
            continue
        factor = row[col]
        if factor:
            for j, s in nonzero:
                row[j] = row[j] - factor * s


def row_scale(row, factor):
    """In place: row[j] *= factor."""
    for j, x in enumerate(row):
        if x:
            row[j] = x * factor


def row_combine(alpha, xs, beta, ys):
    """Return the new row alpha*xs + beta*ys."""
    return [alpha * x + beta * y for x, y in zip(xs, ys)]


def dot(xs, ys):
    """Exact inner product of two equal-length rows."""
    total = None
    for x, y in zip(xs, ys):
        if x and y:
            total = x * y if total is None else total + x * y
    if total is None:
        return 0
    return total
