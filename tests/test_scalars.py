"""Field descriptors and exact scalar arithmetic."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barmc.scalars import (
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
