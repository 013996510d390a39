"""Exact rational arithmetic.

Every probability and payoff in this package is an exact rational; there is
no floating point anywhere in the core.  ``Rat`` is ``fractions.Fraction``,
which keeps values in lowest terms with a positive denominator and
interoperates with Python ints.

The inner loops do not run on this type: the simplex tableau, the
certificate check and the double-description cone are rows of Python ints
(``ribce.rows``), and so are the payoff rows and belief tables that decide
obedience, best responses, belief equality and separation
(``games.belief_table``).  Outcomes and LP points are int numerators over
one denominator (``lp.IntRow``), read through ``lp.int_parts``: the LP
point, every optimal outcome, vertex and mixture is validated, mixed and
read into belief tables without a ``Rat`` per mass.  ``Rat`` carries inputs
and read-outs: what a caller passes in and what a report prints.
"""

from fractions import Fraction

Rat = Fraction
BACKEND = "fraction"  # named by ``ribce --version`` and the benchmark header

ZERO = Rat(0)
ONE = Rat(1)


def parse_rational(value):
    """Parse ``3``, ``"3"``, or ``"3/5"`` into a Rat. Floats are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            q = Rat(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal notation not accepted: {value!r}")
        return q
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q) -> str:
    """Render fully reduced: ``"3"`` for integers, ``"num/den"`` otherwise."""
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def rational_to_json(q):
    """JSON form: a bare int when integral, else a ``"num/den"`` string."""
    num, den = q.numerator, q.denominator
    return int(num) if den == 1 else f"{num}/{den}"
