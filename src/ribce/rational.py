"""Exact rational arithmetic backend.

Every probability and payoff in this package is an exact rational; there is
no floating point anywhere in the core.  The backend is ``gmpy2.mpq`` when
available (a compiled extension) and ``fractions.Fraction`` otherwise.  Set
``RIBCE_RATIONAL=fraction`` to force the pure-Python type.

The LP inner loops do not run on this type: the simplex tableau and the
double-description rays are rows of Python ints (``ribce.rows``).  The
backend carries inputs, standard forms, Gauss–Jordan steps and read-outs.
How much gmpy2 speeds those up is unmeasured; it is not installed where the
package's benchmark figures were taken.

Both types keep values in lowest terms with a positive denominator and
interoperate with Python ints, so the rest of the package treats ``Rat`` as
an opaque exact number.
"""

import os
from fractions import Fraction

_FORCED = os.environ.get("RIBCE_RATIONAL", "").strip().lower()

if _FORCED in ("", "gmpy2", "mpq"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        Rat = Fraction
        BACKEND = "fraction"
else:
    Rat = Fraction
    BACKEND = "fraction"

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
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal notation not accepted: {value!r}")
        return Rat(q.numerator, q.denominator)
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q) -> str:
    """Render fully reduced: ``"3"`` for integers, ``"num/den"`` otherwise."""
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def rational_to_json(q):
    """JSON form: a bare int when integral, else a ``"num/den"`` string."""
    num, den = q.numerator, q.denominator
    return int(num) if den == 1 else f"{num}/{den}"
