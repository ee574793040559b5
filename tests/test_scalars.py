"""Field descriptors and exact scalar arithmetic."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barmc.scalars import (
    _PRIME_FIELDS,
    Field,
    FieldMismatch,
    Scalar,
    _is_prime,
)
from barmc.serialize import field_from_json, field_to_json

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


def test_rationals_are_exact():
    a = Q("1/3") + Q("1/6")
    assert a == Q("1/2")
    assert a.val == Fraction(1, 2)
    assert (Q(3) / Q(7)) * Q(7) == Q(3)


def test_prime_field_wraps_and_inverts():
    assert F5(7) == F5(2)
    assert F5(3) * F5(2) == F5(1)
    assert F5(3).inverse() == F5(2)
    assert F2(1) + F2(1) == F2(0)
    with pytest.raises(ZeroDivisionError):
        F5(0).inverse()


def test_fraction_coercion_mod_p():
    # 1/2 in F_5 is the inverse of 2, namely 3
    assert F5(Fraction(1, 2)) == F5(3)
    assert F5("1/2") == F5(3)
    with pytest.raises(ZeroDivisionError):
        F2(Fraction(1, 2))


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(1)


def _trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_primality_agrees_with_trial_division_below_ten_thousand():
    assert [p for p in range(10**4) if _is_prime(p)] == \
        [p for p in range(10**4) if _trial_division_is_prime(p)]


def test_large_prime_modulus_is_accepted_quickly():
    start = time.perf_counter()
    F = Field.prime(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    assert F(2**61) == F(1)


def test_strong_pseudoprimes_rejected():
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError):
            Field.prime(n)


def test_modulus_beyond_the_certified_range_refused():
    with pytest.raises(ValueError, match="too large"):
        Field.prime(2**89 - 1)


def test_non_integer_modulus_rejected():
    for p in (5.0, "5", True, None):
        with pytest.raises(ValueError):
            Field.prime(p)


def test_bool_is_not_a_scalar():
    with pytest.raises(TypeError):
        Q(True)


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
@pytest.mark.parametrize("value", [2.5, 0.1, 2.0, -0.0])
def test_float_is_not_a_scalar(field, value):
    with pytest.raises(TypeError, match="float"):
        field(value)
    with pytest.raises(TypeError):
        field(1) + value


def test_mixed_fields_raise():
    with pytest.raises(FieldMismatch):
        Q(1) + F2(1)
    with pytest.raises(FieldMismatch):
        F2(1) * F5(1)


def test_int_literals_coerce_on_either_side():
    assert 1 + Q("1/2") == Q("3/2")
    assert Q("1/2") - 1 == Q("-1/2")
    assert 2 * F5(3) == F5(1)
    assert 1 / F5(2) == F5(3)


def test_sign_helper():
    assert Q.sign(0) == Q(1)
    assert Q.sign(3) == Q(-1)
    assert F2.sign(7) == F2(1)  # -1 = 1 in characteristic 2
    assert F5.sign(1) == F5(4)


def test_truthiness_and_zero():
    assert not Q(0)
    assert Q("1/7")
    assert F5(5) == 0
    assert F5.zero == F5(0) and F5.one == F5(1)


def test_elements_enumeration():
    assert [s.val for s in Field.prime(3).elements()] == [0, 1, 2]
    with pytest.raises(ValueError):
        Q.elements()


def test_field_descriptor_round_trip():
    for f in (Q, F2, F5):
        assert field_from_json(field_to_json(f)) == f
    assert field_from_json({"kind": "Q"}) == Q
    assert field_from_json({"kind": "Fp", "p": 2}) == F2
    with pytest.raises(ValueError):
        field_from_json({"kind": "R"})


@pytest.mark.parametrize("doc", [
    {"kind": "Fp"},
    {"kind": "Fp", "p": 5.5},
    {"kind": "Fp", "p": 5.0},
    {"kind": "Fp", "p": "5"},
    ["Fp", 5],
    None,
])
def test_malformed_field_descriptor_is_refused(doc):
    with pytest.raises(ValueError):
        field_from_json(doc)


def test_as_string_round_trips_through_call():
    for s in (Q("-3/2"), Q(0), Q(17), F5(4)):
        assert s.field(s.as_string()) == s


def test_scalar_hash_consistent_with_eq():
    assert hash(F5(7)) == hash(F5(2))
    assert len({Q(1), Q("2/2"), Q(2)}) == 2


def test_int_equals_only_the_canonical_value():
    assert F5(3) == 3 and 3 == F5(3)
    assert F5(3) != 8 and F5(4) != -1
    assert len({F5(3), 3}) == 1
    assert Q("4/2") == 2 and Q("1/2") != 0


SCALARS = st.one_of(
    st.integers(-20, 20),
    st.builds(lambda n, d: Q(Fraction(n, d)),
              st.integers(-20, 20), st.sampled_from([1, 2, 3, 7])),
    st.builds(lambda f, n: f(n), st.sampled_from([F2, Field.prime(3), F5]),
              st.integers(-20, 20)),
)


@given(SCALARS, SCALARS)
def test_equal_scalars_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (b == a)


def test_scalar_repr_mentions_field():
    assert repr(Q(Fraction(1, 2))) == "Scalar(1/2, Q)"
    assert repr(F2(1)) == "Scalar(1, F2)"


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


def test_scalar_is_not_iterable_junk():
    # guard against accidental dict-key abuse of mutable types
    assert isinstance(Q(1), Scalar)
    d = {Q(1): "a", F5(1): "b"}
    assert d[Q(1)] == "a"


# ---------------------------------------------------------------------------
# canonical values over Q: an int when integral, else a reduced Fraction

RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6),
                      st.integers(1, 60))


def assert_canonical(s, expected):
    assert s.field is Q
    assert s.val == expected
    assert not isinstance(s.val, float)
    assert (type(s.val) is int) == (Fraction(expected).denominator == 1)
    assert s.as_string() == (str(expected.numerator)
                             if expected.denominator == 1
                             else "%d/%d" % (expected.numerator,
                                             expected.denominator))


@given(RATIONALS, RATIONALS)
def test_q_arithmetic_agrees_with_fraction(a, b):
    x, y = Q(a), Q(b)
    assert_canonical(x, a)
    assert_canonical(x + y, a + b)
    assert_canonical(x - y, a - b)
    assert_canonical(x * y, a * b)
    assert_canonical(-x, -a)
    if b:
        assert_canonical(x / y, a / b)
        assert_canonical(y.inverse(), 1 / b)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(RATIONALS, st.integers(-50, 50))
def test_q_arithmetic_with_int_literals_agrees_with_fraction(a, n):
    x = Q(a)
    assert_canonical(x + n, a + n)
    assert_canonical(n + x, n + a)
    assert_canonical(x - n, a - n)
    assert_canonical(n - x, n - a)
    assert_canonical(x * n, a * n)
    assert_canonical(n * x, n * a)
    if a:
        assert_canonical(n / x, n / a)


def test_q_values_are_ints_exactly_when_integral():
    third = Q(1) / Q(3)
    assert type(third.val) is Fraction and third.val == Fraction(1, 3)
    assert type(Q(1).inverse().val) is int
    assert type(Q(-1).inverse().val) is int
    assert type(Q(2).inverse().val) is Fraction
    assert type((third * 3).val) is int
    assert type((Q("1/2") + Q("1/2")).val) is int
    assert type(Q("3/7").inverse().val) is Fraction
    assert type(Q("1/7").inverse().val) is int


def test_integral_rationals_are_one_value_however_built():
    forms = [Q(2), Q(Fraction(4, 2)), Q("6/3"),
             Q(1) / Q(2) + Q(1) / Q(2) + Q(1)]
    for s in forms:
        assert type(s.val) is int
        assert s == forms[0] and s == 2
        assert hash(s) == hash(forms[0]) == hash(2)
        assert s.as_string() == "2"
    assert len(set(forms)) == 1


# ---------------------------------------------------------------------------
# the same-field fast path must not weaken the field check

MISMATCHED = [
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("*", lambda a, b: a * b),
    ("/", lambda a, b: a / b),
    ("radd", lambda a, b: a.__radd__(b)),
    ("rsub", lambda a, b: a.__rsub__(b)),
    ("rmul", lambda a, b: a.__rmul__(b)),
    ("rtruediv", lambda a, b: a.__rtruediv__(b)),
]


@pytest.mark.parametrize("op", [f for _, f in MISMATCHED],
                         ids=[n for n, _ in MISMATCHED])
@pytest.mark.parametrize("a, b", [(Q(1), F2(1)), (F2(1), F5(1)),
                                  (F5(2), Q("1/2"))])
def test_unequal_fields_raise_in_every_operator(op, a, b):
    with pytest.raises(FieldMismatch):
        op(a, b)


def test_unequal_fields_raise_in_coercion_and_compare_unequal():
    with pytest.raises(FieldMismatch):
        Q(F2(1))
    with pytest.raises(FieldMismatch):
        F5(Field.prime(3)(1))
    assert Q(1) != F2(1) and F2(1) != F5(1)


@pytest.mark.parametrize("twin, shared", [
    (Field("Q"), Q),
    (Field("Fp", 5), F5),
], ids=repr)
def test_equal_but_distinct_field_instances_combine(twin, shared):
    assert twin is not shared and twin == shared
    a, b = twin(3), shared(2)
    assert a + b == shared(5) and b + a == shared(5)
    assert a - b == shared(1) and b - a == shared(-1)
    assert a * b == shared(6) and b * a == shared(6)
    assert a / b == shared(3) / shared(2)
    assert b / a == shared(2) / shared(3)
    assert a == shared(3) and hash(a) == hash(shared(3))
    assert shared(a) is a and twin(b) is b


def test_field_constructors_share_one_instance_per_field():
    assert Field.rationals() is Field.rationals() is Q
    assert Field.prime(3) is Field.prime(3)
    assert Field.prime(2**61 - 1) is Field.prime(2**61 - 1)
    assert field_from_json({"kind": "Fp", "p": 5}) is F5
    assert field_from_json({"kind": "Q"}) is Q
    assert Field("Fp", 3) is not Field.prime(3)


@pytest.mark.parametrize("p", [6, 1, 0, -5, 561, 5.0, True, "5", None])
def test_invalid_modulus_is_refused_before_caching(p):
    assert F5 is Field.prime(5)  # 5.0 must not find this entry
    before = dict(_PRIME_FIELDS)
    with pytest.raises(ValueError):
        Field.prime(p)
    assert _PRIME_FIELDS == before
