import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim.model import build_instance
from cutdim.mps import MpsParseError, _mps_number, read_instance_mps, write_instance_mps
from cutdim.rational import rat
from cutdim.selftest import random_instance

SAMPLE = """\
* objective is minimized in the file, the model maximizes
NAME sample
ROWS
 N  cost
 L  cap
 G  floor
 E  link
COLUMNS
    x  cost  -3  cap  2
    x  link  1
    m  'MARKER'  'INTORG'
    y  cost  1  cap  1
    y  floor  1  link  -1
    m  'MARKER'  'INTEND'
RHS
    rhs  cap  7  floor  1
    rhs  link  2
RANGES
    rng  cap  3
BOUNDS
 UP bnd  x  4
ENDATA
"""


def test_sample_parses_field_by_field():
    inst = read_instance_mps(SAMPLE)
    assert inst.name == "sample"
    assert inst.num_vars == 2
    assert inst.objective == (rat(3), rat(-1))  # negated into max form
    assert set(inst.integer_vars) == {1}
    assert inst.lower_bounds == (rat(0), rat(0))
    assert inst.upper_bounds == (rat(4), rat(1))  # y kept the [0,1] default
    # cap with range 3 becomes 4 <= 2x+y <= 7, floor flips sign, link splits
    assert inst.constraint_matrix == (
        (rat(2), rat(1)),
        (rat(-2), rat(-1)),
        (rat(0), rat(-1)),
        (rat(1), rat(-1)),
        (rat(-1), rat(1)),
    )
    assert inst.rhs == (rat(7), rat(-4), rat(-1), rat(2), rat(-2))


def wrap(body: str, name: str = "t") -> str:
    return f"NAME {name}\nROWS\n N  obj\n{body}ENDATA\n"


def test_integer_default_bounds():
    text = wrap(
        "COLUMNS\n"
        "    m  'MARKER'  'INTORG'\n"
        "    y  obj  1\n"
        "    z  obj  1\n"
        "    m  'MARKER'  'INTEND'\n"
        "BOUNDS\n"
        " UP bnd  y  9\n"
    )
    inst = read_instance_mps(text)
    assert inst.upper_bounds == (rat(9), rat(1))  # explicit beats default
    assert inst.lower_bounds == (rat(0), rat(0))

    # any explicit entry first resets the [0,1] default to +infinity
    text = wrap("COLUMNS\n    m  'MARKER'  'INTORG'\n    y  obj  1\nBOUNDS\n LO bnd  y  2\n")
    inst = read_instance_mps(text)
    assert inst.lower_bounds == (rat(2),)
    assert inst.upper_bounds == (None,)


def test_negative_upper_drops_default_lower():
    text = wrap("COLUMNS\n    x  obj  1\nBOUNDS\n UP bnd  x  -2\n")
    inst = read_instance_mps(text)
    assert inst.lower_bounds == (None,)
    assert inst.upper_bounds == (rat(-2),)

    # an explicit lower bound suppresses the convention
    text = wrap("COLUMNS\n    x  obj  1\nBOUNDS\n LO bnd  x  -5\n UP bnd  x  -2\n")
    inst = read_instance_mps(text)
    assert inst.lower_bounds == (rat(-5),)
    assert inst.upper_bounds == (rat(-2),)

    # the convention holds for an integer column as well
    text = wrap("COLUMNS\n    m  'MARKER'  'INTORG'\n    y  obj  1\nBOUNDS\n UP bnd  y  -1\n")
    inst = read_instance_mps(text)
    assert inst.lower_bounds == (None,)
    assert inst.upper_bounds == (rat(-1),)
    assert set(inst.integer_vars) == {0}


def test_bound_types():
    text = (
        "NAME b\nROWS\n N  obj\n L  r\nCOLUMNS\n"
        "    x  obj  1  r  1\n    y  obj  1\n    z  obj  1\n"
        "BOUNDS\n FR bnd  x\n BV bnd  y\n UI bnd  z  6\nENDATA\n"
    )
    inst = read_instance_mps(text)
    assert inst.lower_bounds == (None, rat(0), rat(0))
    assert inst.upper_bounds == (None, rat(1), rat(6))
    assert set(inst.integer_vars) == {1, 2}  # BV and UI force integrality


def test_fixed_and_integer_lower_bounds():
    text = wrap(
        "COLUMNS\n    x  obj  1\n    y  obj  1\n    z  obj  1\n"
        "BOUNDS\n FX bnd  x  3/2\n LI bnd  y  -2\n UP bnd  y  -1\n LI bnd  z  3\n"
    )
    inst = read_instance_mps(text)
    # LI keeps y's lower bound under a negative UP, as LO would
    assert inst.lower_bounds == (rat(3, 2), rat(-2), rat(3))
    assert inst.upper_bounds == (rat(3, 2), rat(-1), None)
    assert set(inst.integer_vars) == {1, 2}  # LI forces integrality, FX does not


def test_ranges_on_greater_and_equality_rows():
    text = (
        "NAME r\nROWS\n N  obj\n G  low\n E  pos\nCOLUMNS\n"
        "    x  obj  1  low  1\n    y  obj  1  pos  1\n"
        "RHS\n    rhs  low  1  pos  2\nRANGES\n    rng  low  -3  pos  3\nENDATA\n"
    )
    inst = read_instance_mps(text)
    # a G row's range counts by its size: 1 <= x <= 4; range 3 on an E row
    # means 2 <= y <= 5
    assert inst.constraint_matrix == (
        (rat(-1), rat(0)),
        (rat(1), rat(0)),
        (rat(0), rat(1)),
        (rat(0), rat(-1)),
    )
    assert inst.rhs == (rat(-1), rat(4), rat(5), rat(-2))


def test_equality_row_with_negative_range():
    text = (
        "NAME e\nROWS\n N  obj\n E  link\nCOLUMNS\n    x  obj  1  link  1\n"
        "RHS\n    rhs  link  2\nRANGES\n    rng  link  -1\nENDATA\n"
    )
    inst = read_instance_mps(text)
    # range -1 on an E row means 1 <= x <= 2
    assert inst.constraint_matrix == ((rat(1),), (rat(-1),))
    assert inst.rhs == (rat(2), rat(-1))


def test_fraction_literals_accepted():
    text = wrap("COLUMNS\n    x  obj  1/3\nBOUNDS\n UP bnd  x  7/3\n")
    inst = read_instance_mps(text)
    assert inst.objective == (rat(-1, 3),)
    assert inst.upper_bounds == (rat(7, 3),)


def test_number_formatting():
    assert _mps_number(5) == "5"
    assert _mps_number(rat(1, 4)) == "0.25"
    assert _mps_number(rat(-1, 2)) == "-0.5"
    assert _mps_number(rat(1, 3)) == "1/3"
    assert _mps_number(rat(-22, 7)) == "-22/7"
    assert _mps_number(rat(1, 200)) == "0.005"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("NAME x\nSOS\nENDATA\n", "unsupported section 'SOS'"),
        ("OBJSENSE\n MAX\nENDATA\n", "unsupported section"),
        ("NAME x\nROWS\n N  a\n N  b\nENDATA\n", "multiple free (N) rows"),
        (wrap("COLUMNS\n    x  obj  1  ghost  2\n"), "unknown row 'ghost'"),
        (wrap("RHS\n    rhs  ghost  1\n"), "unknown row"),
        (wrap("COLUMNS\n    x  obj  1\n") + "NAME again\n", "content after ENDATA"),
        ("NAME x\nROWS\n N  obj\nCOLUMNS\n    x  obj  1\n", "missing ENDATA"),
        ("NAME x\nROWS\n L  r\nENDATA\n", "no objective (N) row"),
        ("NAME x\nROWS\n N  obj\n L  r\n L  r\nENDATA\n", "duplicate row"),
        (wrap("BOUNDS\n XX bnd  x  1\n"), "unknown bound type"),
        ("    x  obj  1\nENDATA\n", "before the first section"),
        (wrap("COLUMNS\n    x  obj\n"), "COLUMNS entries"),
        (wrap("RHS\n    rhs  obj  3\n"), "objective constant"),
        (wrap("COLUMNS\n    m  'MARKER'  'INTWAT'\n"), "unknown marker"),
        ("NAME x\nROWS\n N\nENDATA\n", "ROWS entries need a type and a name"),
        ("NAME x\nROWS\n N  obj\n Q  r\nENDATA\n", "unknown row type 'Q'"),
        ("NAME x\n    x  obj  1\nENDATA\n", "data outside any section"),
        (wrap("RHS\n    rhs  obj\n"), "RHS entries come as a set name then row/value pairs"),
        (wrap("RANGES\n    rng  r  1  s\n"), "RANGES entries come as a set name then row/value pairs"),
        (wrap("RANGES\n    rng  ghost  1\n"), "unknown row 'ghost'"),
        (wrap("RANGES\n    rng  obj  1\n"), "objective-row range is unsupported"),
        (wrap("BOUNDS\n FR bnd\n"), "FR bound needs a set name and a column"),
        (wrap("BOUNDS\n UP bnd  x\n"), "UP bound needs a set name, column and value"),
        (wrap("BOUNDS\n UP bnd  ghost  1\n"), "bound for unknown column 'ghost'"),
        (wrap("COLUMNS\n    x  obj  1.2.3\n"), "not an exact rational literal: '1.2.3'"),
        # two faults on one line: COLUMNS parses the value before it checks
        # the row, RHS and RANGES check the row first
        (wrap("COLUMNS\n    x  ghost  abc\n"), "not an exact rational literal: 'abc'"),
        (wrap("COLUMNS\n    x  obj  1\nRHS\n    rhs  ghost  abc\n"), "unknown row 'ghost'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MpsParseError) as err:
        read_instance_mps(text)
    assert fragment in str(err.value)


def test_a_malformed_instance_is_a_parse_error():
    """`build_instance`'s own check comes out as an MpsParseError that says
    "malformed instance" once."""
    with pytest.raises(MpsParseError) as err:
        read_instance_mps("NAME a\tb\nROWS\n N  obj\nCOLUMNS\n    x  obj  1\nENDATA\n")
    assert str(err.value).startswith("malformed instance: name ")
    assert str(err.value).count("malformed instance") == 1


def test_error_messages_carry_line_numbers():
    with pytest.raises(MpsParseError, match=r"line 2:"):
        read_instance_mps("NAME x\nSOS\nENDATA\n")


def test_round_trip_mixed_instance():
    inst = build_instance(
        name="mix",
        constraint_matrix=[[rat(1, 3), -2], [0, rat(7, 2)]],
        rhs=[rat(5, 6), 4],
        objective=[rat(-1, 7), 3],
        integer_vars=(1,),
        lower_bounds=[None, -2],
        upper_bounds=[rat(9, 4), None],
    )
    again = read_instance_mps(write_instance_mps(inst))
    assert again == inst


def test_round_trip_keeps_a_name_with_a_space():
    inst = build_instance(name="a b", constraint_matrix=[[1, 1]], rhs=[1], objective=[1, 0])
    assert read_instance_mps(write_instance_mps(inst)) == inst
    assert read_instance_mps("NAME    p 0033  \nROWS\n N obj\nENDATA\n").name == "p 0033"


def test_round_trip_random_instances():
    rng = random.Random(83)
    for i in range(15):
        inst = random_instance(rng, name=f"rt{i}", require_nonempty=False)
        assert read_instance_mps(write_instance_mps(inst)) == inst


def test_writer_emits_explicit_bounds_and_markers():
    inst = build_instance(
        name="w",
        constraint_matrix=[[1, 1]],
        rhs=[3],
        objective=[2, rat(1, 3)],
        integer_vars=(0,),
        lower_bounds=[0, None],
        upper_bounds=[5, None],
    )
    text = write_instance_mps(inst)
    assert "'INTORG'" in text and "'INTEND'" in text
    assert " MI bnd  x1" in text and " PL bnd  x1" in text
    assert " LO bnd  x0  0" in text and " UP bnd  x0  5" in text
    assert "-1/3" in text  # objective negated on write, exact fraction kept
    assert text.endswith("ENDATA\n")


_NUMBERS = st.builds(
    rat, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 10, 12])
)  # terminating decimals and non-terminating p/q alike


@st.composite
def _mixed_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    lower, upper = [], []
    for _ in range(n):
        lo, hi = draw(st.one_of(st.none(), _NUMBERS)), draw(st.one_of(st.none(), _NUMBERS))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lower.append(lo)
        upper.append(hi)
    return build_instance(
        name=draw(st.sampled_from(["mix", "p 0033", "x-1"])),
        constraint_matrix=[[draw(_NUMBERS) for _ in range(n)] for _ in range(m)],
        rhs=[draw(_NUMBERS) for _ in range(m)],
        objective=[draw(_NUMBERS) for _ in range(n)],
        integer_vars=draw(st.sets(st.integers(0, n - 1))),
        lower_bounds=lower,
        upper_bounds=upper,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_mixed_instances())
def test_round_trip_mixed_random_instances(inst):
    """Continuous and integer columns, free, negative and fractional bounds,
    non-terminating coefficients and row-free instances all come back equal."""
    assert read_instance_mps(write_instance_mps(inst)) == inst
