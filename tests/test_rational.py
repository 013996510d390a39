import pytest

from ribce.rational import Rat, parse_rational, rational_to_json


def test_parse_forms():
    assert parse_rational("3/5") == Rat(3, 5)
    assert parse_rational("-2/7") == Rat(-2, 7)
    assert parse_rational("4") == Rat(4)
    assert parse_rational(4) == Rat(4)
    assert parse_rational("6/4") == Rat(3, 2)


def test_parse_rejects_bad_input():
    for bad in ("1.5", "1e3", "x", "1/0", 2.5, True, None):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_reduced():
    assert rational_to_json(Rat(6, 4)) == "3/2"
    assert rational_to_json(Rat(-6, 3)) == -2
    assert rational_to_json(Rat(8, 4)) == 2
    assert rational_to_json(Rat(1, 3)) == "1/3"


def test_exactness():
    third = Rat(1, 3)
    assert third + third + third == 1
    assert Rat(1, 10) * 10 == 1
