import math
import random

import pytest

from cutdim.rational import BACKEND, rat, rat_decimal, rat_str


def test_parse_decimal_exact():
    assert rat("0.5") == rat(1, 2)
    assert rat("0.1") == rat(1, 10)  # not the binary float 0.1
    assert rat("-3") == rat(-3)
    assert rat("7/21") == rat(1, 3)


def test_parse_variants():
    assert rat("  2/4 ") == rat(1, 2)
    assert rat("1e2") == rat(100)
    assert rat("2.5e-1") == rat(1, 4)
    assert rat(rat(3, 7)) == rat(3, 7)
    from fractions import Fraction

    assert rat(Fraction(2, 6)) == rat(1, 3)


def test_parse_errors():
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("abc")
    for text in ("1_000", "1/1_0", "1.0_1", "١٢", "１", "1/٣"):
        with pytest.raises(ValueError, match="not an exact rational literal"):
            rat(text)  # the same grammar on every Python version
    with pytest.raises(TypeError):
        rat(0.5)  # binary floats are never accepted silently
    for value, den in ((True, None), (False, None), (1, True), (True, 2)):
        with pytest.raises(TypeError):
            rat(value, den)  # nor booleans, which are ints to Python


def test_str_rendering():
    assert rat_str(rat(1, 2)) == "1/2"
    assert rat_str(rat(-8, 4)) == "-2"
    assert rat_str(rat(0)) == "0"
    assert rat_str(math.inf) == "inf"
    assert rat_str(-math.inf) == "-inf"


def test_decimal_rendering():
    assert rat_decimal(rat(1, 2)) == "0.500000"
    assert rat_decimal(rat(1, 3)) == "0.333333"
    assert rat_decimal(rat(2, 3)) == "0.666667"
    assert rat_decimal(rat(-1, 3)) == "-0.333333"
    assert rat_decimal(rat(1, 2000000)) == "0.000001"  # half away from zero
    assert rat_decimal(rat(-1, 2000000)) == "-0.000001"


def test_exactness_property():
    # (a + b) - b == a for large random rationals
    rng = random.Random(7)
    for _ in range(50):
        a = rat(rng.getrandbits(256), rng.getrandbits(128) + 1)
        b = rat(rng.getrandbits(256), rng.getrandbits(128) + 1)
        assert (a + b) - b == a


def test_backend_name():
    assert BACKEND == "fractions"
