"""The row kernels against plain list arithmetic."""

import random

from ribce import rows
from ribce.rational import ONE, ZERO, Rat

KERNELS = ("row_eliminate", "pivot_eliminate", "row_scale", "row_combine", "dot")


def _random_row(rng, n=12):
    return [Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


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

        tableau = [_random_row(rng) for _ in range(5)]
        tableau[2][3] = ONE  # normalized pivot entry
        expected = [
            list(row) if r == 2 else [e - row[3] * s for e, s in zip(row, tableau[2])]
            for r, row in enumerate(tableau)
        ]
        rows.pivot_eliminate(tableau, 2, 3)
        assert tableau == expected
    assert rows.dot([ZERO] * 4, [ZERO] * 4) == 0
    assert rows.dot([ZERO] * 4, _random_row(rng, 4)) == 0
