"""Artinian DG algebras and quotient towers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barmc.ainfinity import AInfAlgebra, StructureMaps, check_ainf_axioms
from barmc.artin import (
    ArtinianDGAlgebra,
    fiber_product,
    quotient_by_power,
    square_zero,
    truncated_polynomial,
    validate_artinian,
)
from barmc.linalg import GradedSpace
from barmc.scalars import Field

Q = Field.rationals()
F2 = Field.prime(2)


def test_truncated_polynomial_is_artinian():
    R = truncated_polynomial(Q, 3)
    assert R.nu == 3
    assert R.classical and R.negative and R.commutative
    assert R.ideal_labels == ["t", "t2"]


def test_negative_dual_number():
    R = truncated_polynomial(Q, 2, deg=-1, var="eps")
    assert R.nu == 2
    assert R.negative and not R.classical


def test_ground_field_has_nu_one():
    R = truncated_polynomial(F2, 1)
    assert R.nu == 1 and R.ideal_labels == []
    assert R.classical


def test_spurious_differential_rejected():
    # d(t) = 1 fails augmentation compatibility: d must preserve m
    space = GradedSpace([("1", 0), ("t", -1)])
    ops = StructureMaps()
    one = Q.one
    ops.set(2, ("1", "1"), {"1": one})
    ops.set(2, ("1", "t"), {"t": one})
    ops.set(2, ("t", "1"), {"t": one})
    ops.set(1, ("t",), {"1": one})
    alg = AInfAlgebra(space, Q, ops, arity_bound=2, unit="1")
    report = validate_artinian(alg)
    assert not report.ok
    assert any("unit component" in p for p in report.problems)
    with pytest.raises(ValueError):
        ArtinianDGAlgebra(alg)


def test_non_nilpotent_ideal_rejected():
    # adjoin an idempotent: x * x = x cannot be artinian local
    space = GradedSpace([("1", 0), ("x", 0)])
    ops = StructureMaps()
    one = Q.one
    ops.set(2, ("1", "1"), {"1": one})
    ops.set(2, ("1", "x"), {"x": one})
    ops.set(2, ("x", "1"), {"x": one})
    ops.set(2, ("x", "x"), {"x": one})
    alg = AInfAlgebra(space, Q, ops, arity_bound=2, unit="1")
    report = validate_artinian(alg)
    assert not report.ok
    assert any("nilpotent" in p for p in report.problems)


def test_square_zero_with_differential():
    R = square_zero(F2, [("m1", 0), ("m2", 1)], d={"m1": {"m2": 1}})
    assert R.nu == 2
    assert not R.classical  # degree 1 present
    assert R.d_of({"m1": F2.one}) == {"m2": F2.one}


def test_square_zero_rejects_unit_image():
    with pytest.raises(ValueError):
        square_zero(Q, [("m1", -1)], d={"m1": {"1": 1}})


def test_fiber_product_of_truncations():
    R = fiber_product(truncated_polynomial(Q, 3),
                      truncated_polynomial(Q, 2, var="s"))
    assert sorted(R.ideal_labels) == ["a.t", "a.t2", "b.s"]
    assert R.nu == 3
    # cross products vanish
    assert R.multiply({"a.t": Q.one}, {"b.s": Q.one}) == {}
    assert R.multiply({"a.t": Q.one}, {"a.t": Q.one}) == {"a.t2": Q.one}
    assert check_ainf_axioms(R.algebra, 3).ok


# ---------------------------------------------------------------------------
# quotient towers


def test_quotient_of_t3_by_square():
    R = truncated_polynomial(Q, 3)
    Rbar, pi, kernel = quotient_by_power(R, 2)
    assert sorted(Rbar.space.labels) == ["1", "t"]
    assert Rbar.nu == 2
    assert pi["t2"] == {}
    assert pi["t"] == {"t": Q.one}
    assert kernel == [{"t2": Q.one}]


def test_quotient_by_nu_is_identity():
    R = truncated_polynomial(Q, 3)
    Rbar, pi, kernel = quotient_by_power(R, 3)
    assert Rbar.space.labels == R.space.labels
    assert kernel == []
    assert all(pi[l] == {l: Q.one} for l in R.space.labels)


def test_quotient_by_one_is_ground_field():
    R = square_zero(Q, [("m1", 0), ("m2", 0)])
    Rbar, _, kernel = quotient_by_power(R, 1)
    assert Rbar.space.labels == ("1",)
    assert len(kernel) == 2


def test_quotient_out_of_range():
    R = truncated_polynomial(Q, 2)
    with pytest.raises(ValueError):
        quotient_by_power(R, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5))
def test_quotients_stay_artinian(n, k):
    R = truncated_polynomial(F2, n)
    k = min(k, R.nu)
    Rbar, _, _ = quotient_by_power(R, k)
    assert validate_artinian(Rbar.algebra).ok


def test_small_extension_kernel_at_top_power():
    R = truncated_polynomial(Q, 3)
    rows = quotient_by_power(R, 2)[2]
    assert rows == [{"t2": Q.one}]
    assert not any(R.multiply(v, {x: Q.one}) or R.multiply({x: Q.one}, v)
                   for v in rows for x in R.ideal_labels)
    # m^1 = m does not kill m when nu > 2
    assert R.multiply({"t": Q.one}, {"t": Q.one})
