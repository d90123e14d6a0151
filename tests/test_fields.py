"""Field handles: axioms, canonical square roots, literals, shorthands."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prelie.fields import (FieldError, PrimeField, QuadraticField,
                           RationalField, make_field)

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF9 = QuadraticField(GF3, 2)
QI = QuadraticField(Q, Fraction(-1))


def exhaust_axioms(F):
    """Field axioms checked on every triple of elements."""
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.add(a, F.neg(a)) == F.zero
        assert F.mul(a, F.one) == a
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b),
                                                      F.mul(a, c))


def test_gf5_axioms_exhaustive():
    exhaust_axioms(GF5)


def test_gf9_axioms_exhaustive():
    exhaust_axioms(GF9)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    assert Q.add(a, b) == Q.add(b, a)
    assert Q.mul(Q.mul(a, b), c) == Q.mul(a, Q.mul(b, c))
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.sub(a, a) == Q.zero
    if b != 0:
        assert Q.mul(Q.div(a, b), b) == a


@given(st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_quadratic_over_q_axioms(x):
    a = (x, Q.one)
    assert QI.mul(a, QI.inv(a)) == QI.one
    assert QI.sub(a, a) == QI.zero


# ------------------------------------------------ quadratic products

def base_op_mul(F, a, b):
    """A quadratic product through the base field's own operations."""
    B = F.base
    a0, a1 = a
    b0, b1 = b
    return (B.add(B.mul(a0, b0), B.mul(F.d, B.mul(a1, b1))),
            B.add(B.mul(a0, b1), B.mul(a1, b0)))


QUADRATIC_OVER_Q = [make_field({"kind": "quadratic",
                                "base": {"kind": "rational"}, "d": d})
                    for d in ("-1", "2", "-3", "1/2")]

# a zero coordinate one time in three, where the integer formula has
# zero numerators
coordinates = st.one_of(st.just(Fraction(0)), rationals, rationals)


@pytest.mark.parametrize("F", QUADRATIC_OVER_Q, ids=repr)
@given(a=st.tuples(coordinates, coordinates),
       b=st.tuples(coordinates, coordinates))
def test_quadratic_over_q_products_match_the_base_ops(F, a, b):
    got = F.mul(a, b)
    assert got == base_op_mul(F, a, b)
    assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("spec", ["gf9", "gf25"])
def test_quadratic_over_prime_products_match_the_base_ops(spec):
    F = make_field(spec)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == base_op_mul(F, a, b)


# ------------------------------------------------------------ square roots

@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_prime_sqrt_exhaustive(p):
    F = PrimeField(p)
    squares = {F.mul(a, a) for a in F.elements()}
    for a in F.elements():
        r = F.sqrt(a)
        if a in squares:
            assert r is not None and F.mul(r, r) == a
            # canonical choice is the smaller of the two residues
            assert r <= (p - r) % p or a == 0
        else:
            assert r is None


def test_gf9_sqrt_exhaustive():
    squares = {GF9.mul(a, a) for a in GF9.elements()}
    for a in GF9.elements():
        r = GF9.sqrt(a)
        if a in squares:
            assert r is not None and GF9.mul(r, r) == a
            # canonical root is the lexicographically smaller of the pair
            assert GF9.sort_key(r) <= GF9.sort_key(GF9.neg(r))
        else:
            assert r is None


def test_every_subfield_element_is_a_square_in_gf9():
    for a in GF3.elements():
        assert GF9.sqrt(GF9.from_int(a)) is not None


def test_rational_sqrt():
    assert Q.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert Q.sqrt(Fraction(0)) == 0
    assert Q.sqrt(Fraction(2)) is None
    assert Q.sqrt(Fraction(-1)) is None


def test_qi_sqrt_canonical():
    i = QI.sqrt(QI.from_int(-1))
    assert i == (Fraction(0), Fraction(1))
    assert QI.mul(i, i) == QI.from_int(-1)
    assert QI.sqrt(QI.from_int(4)) == (Fraction(2), Fraction(0))
    # norm-route roots with both components nonzero
    r = QI.sqrt((Fraction(3), Fraction(4)))
    assert r == (Fraction(2), Fraction(1))
    assert QI.mul(r, r) == (Fraction(3), Fraction(4))


def test_gf5_sqrt_of_four_is_two():
    assert GF5.sqrt(4) == 2


# ------------------------------------------------------- literals, formats

def test_parse_format_round_trip_rational():
    for text in ["0", "7", "-3", "5/4", "-11/6"]:
        val = Q.parse(text)
        assert Q.parse(Q.format(val)) == val


def test_parse_format_round_trip_quadratic():
    for text in ["0", "2", "r", "-r", "1+2*r", "1/2-3*r", "-1/3+r"]:
        val = QI.parse(text)
        assert QI.parse(QI.format(val)) == val
    assert QI.parse("1 + 2*r") == (Fraction(1), Fraction(2))
    assert QI.format((Fraction(1), Fraction(-2))) == "1-2*r"
    assert QI.format((Fraction(0), Fraction(0))) == "0"


def test_parse_rejects_garbage():
    with pytest.raises(FieldError):
        Q.parse("one half")
    with pytest.raises(FieldError):
        GF5.parse("2.5")
    with pytest.raises(FieldError):
        QI.parse("")


def test_quadratic_rejects_square_d():
    with pytest.raises(FieldError, match="2"):
        QuadraticField(Q, Fraction(4))
    with pytest.raises(FieldError, match="square"):
        QuadraticField(GF5, 4)
    with pytest.raises(FieldError):
        QuadraticField(Q, Fraction(0))


def test_char2_needs_escape_hatch():
    with pytest.raises(FieldError):
        PrimeField(2)
    F2 = PrimeField(2, allow_char2=True)
    assert F2.add(1, 1) == 0


def test_make_field_shorthands():
    assert make_field("q").kind == "rational"
    qi = make_field("qi")
    assert qi.kind == "quadratic" and qi.d == Fraction(-1)
    assert make_field("gf7").order == 7
    gf9 = make_field("gf9")
    assert gf9.order == 9 and gf9.d == 2
    gf25 = make_field("gf25")
    assert gf25.order == 25 and gf25.d == 2
    with pytest.raises(FieldError):
        make_field("gf2")
    assert make_field("gf2", allow_char2=True).order == 2
    with pytest.raises(FieldError):
        make_field("gf6")


def test_make_field_descriptor_round_trip():
    for F in (Q, GF5, GF9, QI):
        assert make_field(F.descriptor()) == F


def test_half():
    assert GF3.half(GF3.one) == 2
    assert Q.half(Fraction(5)) == Fraction(5, 2)


def test_sort_key_orders_all_elements():
    for F in (GF5, GF9):
        elems = list(F.elements())
        keys = [F.sort_key(a) for a in elems]
        assert len(set(keys)) == len(elems)
        ordered = sorted(elems, key=F.sort_key)
        assert len(ordered) == F.order


def test_random_is_deterministic_per_seed():
    import random
    for F in (Q, GF5, GF9):
        a = [F.random(random.Random(7)) for _ in range(5)]
        b = [F.random(random.Random(7)) for _ in range(5)]
        assert a == b
