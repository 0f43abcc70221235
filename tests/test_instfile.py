from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seymour.digraph import Weighting
from seymour.errors import ParseError
from seymour.forge import fixture, random_digraph
from seymour.instfile import MAX_WEIGHT_CHARS, emit_instance, parse_instance


def test_parse_c3():
    d, w = parse_instance("3 3\n0 1\n1 2\n2 0\n")
    assert d == fixture("C3") and w is None


def test_parse_digon_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_instance("3 2\n0 1\n1 0\n")
    assert exc.value.lineno == 3 and "digon" in str(exc.value)


def test_parse_weight_line():
    d, w = parse_instance("3 3\n0 1\n1 2\n2 0\nw 0 3/2\n")
    assert w is not None and w[0] == Fraction(3, 2) and w[1] == 1


def test_parse_comments_and_blank_lines():
    text = "# a digraph\n\n3 1  # header\n0 1\n"
    d, w = parse_instance(text)
    assert d.arcs == ((0, 1),) and w is None


def test_parse_errors():
    cases = [
        ("", "header"),
        ("3\n", "header"),
        ("3 1\n0 0\n", "loop"),
        ("3 1\n0 5\n", "range"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("3 1\n", "expected 1 arcs"),
        ("3 1\n0 1\n2 0\n", "unexpected line"),
        ("3 1\n0 1\nw 9 1/2\n", "range"),
        ("3 1\n0 1\nw 0 0\n", "positive"),
        ("3 1\nw 0 1/2\n0 1\n", "before all"),
        ("a 1\n", "header"),
        ("-1 0\n", "nonnegative"),
        ("3 -1\n", "nonnegative"),
        ("1 0\nw 0\n", "expected weight line"),
        ("1 0\nw x 1\n", "expected weight line"),
        ("1 0\nw 0 1/0\n", "expected weight line"),
        ("3 1\n0 1 2\n", "expected arc line"),
        ("3 1\n0 x\n", "expected arc line"),
    ]
    for text, hint in cases:
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert hint in str(exc.value), (text, str(exc.value))


def test_a_weight_numeral_is_bounded():
    longest = "1/" + "7" * (MAX_WEIGHT_CHARS - 2)
    assert parse_instance(f"1 0\nw 0 {longest}\n")[1][0] == Fraction(longest)
    for numeral, value in (("1.", 1), (".5", Fraction(1, 2)), ("+2.25", Fraction(9, 4))):
        assert parse_instance(f"1 0\nw 0 {numeral}\n")[1][0] == value
    for numeral in ("1e9999", "1E3", "2" + longest, "1_000", "0x10", ".", "1/", "1.5/2"):
        with pytest.raises(ParseError, match=f"at most {MAX_WEIGHT_CHARS} characters"):
            parse_instance(f"1 0\nw 0 {numeral}\n")


# tokens of at most three characters keep every vertex count below 1,000
_TOKENS = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["w", "#", "1/2", "1/0", ".5", "1e9", "x", "0.0"]),
    st.text(max_size=3),
)


@given(st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        parse_instance(text)
    except ParseError:
        pass


@given(st.integers(0, 300), st.integers(1, 10), st.booleans())
@settings(max_examples=120, deadline=None)
def test_round_trip(seed, n, weighted):
    d = random_digraph(n, seed, 0.6)
    w = None
    if weighted:
        w = Weighting([Fraction(1 + (seed + i) % 4, 1 + i % 3) for i in range(n)])
    text = emit_instance(d, w)
    assert parse_instance(text) == (d, w)
    assert emit_instance(*parse_instance(text)) == text


@pytest.mark.parametrize(
    "values, hint",
    [
        ([0, 1, 2], "must be positive"),
        ([1, 2], "covers 2 vertices"),
        ([1, 2, 3, 4], "covers 4"),
        ([Fraction(1, 10**40), 1, 1], "longer than 40"),
    ],
)
def test_emit_rejects_a_weighting_the_format_cannot_hold(values, hint):
    with pytest.raises(ValueError, match=hint):
        emit_instance(fixture("C3"), Weighting(values))
