"""The row kernels against plain list arithmetic."""

import random
from math import gcd

import row_reference
from ribce import rows
from ribce.rational import ZERO, Rat

KERNELS = ("primitive", "row_eliminate", "pivot_eliminate", "row_scale", "row_combine", "dot")


def _random_row(rng, n=12):
    return [Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def _canonical(ray):
    """The double description's former dedup key, kept as the reference for
    ``rows.primitive``: scale by a positive rational to a primitive integer
    tuple."""
    den = 1
    for q in ray:
        den = den * q.denominator // gcd(den, int(q.denominator))
    ints = [int(q * den) for q in ray]
    g = 0
    for z in ints:
        g = gcd(g, abs(z))
    if g > 1:
        ints = [z // g for z in ints]
    return tuple(ints)


def _is_primitive(row):
    return all(type(z) is int for z in row) and gcd(*row) in (0, 1)


def test_row_kernels():
    # The tracer wraps these module attributes and the run header reads IMPL.
    public = {name for name in vars(rows) if not name.startswith("_")}
    assert public == set(KERNELS) | {"IMPL"}
    assert rows.IMPL == "python"
    assert all(callable(getattr(rows, name)) for name in KERNELS)

    rng = random.Random(0)
    for _ in range(25):
        a, b = _random_row(rng), _random_row(rng)
        factor = Rat(rng.randint(-5, 5), rng.randint(1, 5))
        expected = [x - factor * y for x, y in zip(a, b)]
        rows.row_eliminate(a, factor, b)
        assert a == expected

        c = _random_row(rng)
        expected = [x * factor for x in c]
        rows.row_scale(c, factor)
        assert c == expected

        x, y = _random_row(rng), _random_row(rng)
        assert rows.dot(x, y) == sum((p * q for p, q in zip(x, y)), ZERO)
        alpha, beta = factor, Rat(rng.randint(-5, 5), 3)
        assert rows.row_combine(alpha, x, beta, y) == [
            alpha * p + beta * q for p, q in zip(x, y)
        ]

        assert rows.primitive(x) == list(_canonical(x))
        assert _is_primitive(rows.primitive(x))
        ints = [rng.randint(-9, 9) * 6 for _ in range(8)]
        assert rows.primitive(ints) == list(_canonical([Rat(z) for z in ints]))

        # Fraction-free pivot: every row is a positive multiple of the rational
        # row a normalized pivot gives, and every row is primitive.
        rational = [_random_row(rng) for _ in range(5)]
        rational[1][3] = ZERO  # a row the pivot leaves alone
        rational[2][3] = Rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        pivot = [e / rational[2][3] for e in rational[2]]
        expected = [
            pivot if r == 2 else [e - row[3] * s for e, s in zip(row, pivot)]
            for r, row in enumerate(rational)
        ]
        tableau = [rows.primitive(row) for row in rational]
        untouched = list(tableau[1])
        rows.pivot_eliminate(tableau, 2, 3)
        assert tableau[1] == untouched
        assert tableau[2][3] > 0
        for row, want in zip(tableau, expected):
            assert _is_primitive(row)
            assert row == list(_canonical(want))
    assert rows.dot([ZERO] * 4, [ZERO] * 4) == 0
    assert rows.dot([ZERO] * 4, _random_row(rng, 4)) == 0
    assert rows.primitive([ZERO] * 3) == [0, 0, 0]


def test_row_kernels_on_int_rows():
    # DD rows and rays are int rows, which ``primitive`` reduces with no
    # denominator pass; rows with Rat entries take the lcm of their
    # denominators first.  Either way the result is ``_canonical``'s.
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 19)
        scale = rng.choice((1, 2, 6, 35))
        ints = [rng.choice((0, 0, rng.randint(-50, 50))) * scale for _ in range(n)]
        mixed = [x if rng.random() < 0.5 else Rat(x, rng.randint(1, 9)) for x in ints]
        for row in (ints, mixed, [0] * n, [ZERO if k % 2 else 0 for k in range(n)]):
            got = rows.primitive(row)
            assert _is_primitive(got)
            assert got == list(_canonical([Rat(x) for x in row]))
            assert got is not row
        other = [rng.randint(-9, 9) for _ in range(n)]
        assert rows.dot(ints, other) == sum((Rat(p) * q for p, q in zip(ints, other)), ZERO)
        assert type(rows.dot(ints, other)) is int


def test_pivot_eliminate_matches_reference():
    # Dividing p and f by their gcd before combining leaves the unique
    # primitive row, so every row matches the kernel without that step,
    # negative pivots and already-zero entries included.
    rng = random.Random(2)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        scale = rng.choice((1, 2, 6, 12))
        tableau = [
            [rng.choice((0, rng.randint(-30, 30))) * rng.choice((1, scale)) for _ in range(n)]
            for _ in range(m)
        ]
        nonzero = [(r, j) for r in range(m) for j in range(n) if tableau[r][j]]
        if not nonzero:
            continue
        r, j = rng.choice(nonzero)
        if rng.random() < 0.5 and tableau[r][j] > 0:
            tableau[r] = [-x for x in tableau[r]]
        touched = [k for k in range(m) if k != r and tableau[k][j]]
        want = [list(row) for row in tableau]
        row_reference.pivot_eliminate(want, r, j)
        rows.pivot_eliminate(tableau, r, j)
        assert tableau == want
        assert all(_is_primitive(tableau[k]) and not tableau[k][j] for k in touched)
