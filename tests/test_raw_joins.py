"""The sparse joins on raw values against the joins on Scalars.

_insertion_join and _block_join accumulate ints mod p (unreduced) or
ints and Fractions over Q; _first_nonzero reduces and
_entries_in_order wraps one Scalar per surviving entry.  Here each
accumulator, its zero entries dropped and the rest wrapped, must equal
the Scalar accumulator of tests/oracles.py entry for entry and in the
same key order, and a structure with one coefficient changed must fail
at the same first tuple with the same witness.  The guard test makes
Scalar arithmetic raise, so a join that falls back to it shows.
"""

import random

import pytest

from barmc.ainfinity import (
    AInfAlgebra,
    _block_join,
    _canonical,
    _insertion_join,
    _live_tables,
    _morphism_join,
    _output_index,
    _slot_index,
    check_ainf_axioms,
    check_ainf_morphism,
    check_strict_unital_morphism,
    tensor_with_dg,
)
from barmc.artin import square_zero, truncated_polynomial
from barmc.examples import acyclic_cone, kpoints, random_instance, xy
from barmc.scalars import Field, Scalar
from barmc.transfer import minimal_model

from oracles import (
    block_join_oracle,
    first_failure_oracle,
    insertion_join_oracle,
    morphism_join_oracle,
    output_index_oracle,
    slot_index_oracle,
)
from test_ainfinity import random_morphism
from test_fuzz import _reproducer_a, _reproducer_b
from test_sparse_checks import _mutate
from test_transfer import ORACLE_INPUTS

FIELDS = [Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()]
TUPLE_BUDGET = 20000


def _wrapped(acc, field):
    """A raw accumulator as the Scalar one reads after vec_clean."""
    p = field.p
    return _canonical(field, {k: c for k, c in acc.items()
                              if (c % p if p else c)})


def _cleaned(acc):
    return {k: c for k, c in acc.items() if c}


def _arity_cut(A):
    n = 4
    while n > 2 and A.space.dim() ** n > TUPLE_BUDGET:
        n -= 1
    return n


def _algebras(field):
    """random_instance draws alone and tensored with two bases, and the
    two reproducers of ROADMAP item 1 (tests/test_fuzz.py)."""
    out = []
    for seed in range(6):
        A, R, tag = random_instance(field, seed)
        out.append((tag, A))
        for name, base in (("poly3", truncated_polynomial(field, 3)),
                           ("sqz", square_zero(field, [("m1", 0), ("m2", 0)])),
                           ("own", R)):
            out.append(("%s*%s" % (tag, name), tensor_with_dg(A, base.algebra)))
    out.append(("reproducer_a", _reproducer_a(field)))
    out.append(("reproducer_b", _reproducer_b(field)))
    return out


CASES = [(field, tag, A) for field in FIELDS for tag, A in _algebras(field)]


@pytest.mark.parametrize("field, tag, A", CASES,
                         ids=["%r-%s" % (f, t) for f, t, _ in CASES])
def test_insertion_join_matches_the_scalar_join(field, tag, A):
    ops = _live_tables(A.m, A.arity_bound)
    raw_index = _slot_index(ops, A.space.degree, field)
    scalar_index = slot_index_oracle(ops, A.space.degree)
    for n in range(1, _arity_cut(A) + 1):
        got = _wrapped(_insertion_join(ops, raw_index, n, field, 0), field)
        want = _cleaned(insertion_join_oracle(ops, scalar_index, n, field, 0))
        assert list(got.items()) == list(want.items()), (tag, n)
        assert all(type(c) is Scalar and c.field is field
                   for c in got.values())


@pytest.mark.parametrize("field, tag, A", CASES,
                         ids=["%r-%s" % (f, t) for f, t, _ in CASES])
def test_mutated_algebra_fails_where_the_scalar_join_does(field, tag, A):
    ops = A.m.copy()
    assert _mutate(ops, random.Random(len(tag)))
    B = AInfAlgebra(A.space, field, ops, arity_bound=A.arity_bound,
                    unit=A.unit)
    n_max = _arity_cut(B)
    rep = check_ainf_axioms(B, n_max)
    assert rep.failure == first_failure_oracle(B, n_max)
    assert rep.ok == (rep.failure is None)


@pytest.mark.parametrize("make", [m for _, m in ORACLE_INPUTS],
                         ids=[n for n, _ in ORACLE_INPUTS])
def test_morphism_join_matches_the_scalar_join(make):
    """The minimal-model inputs: the join of the model's own morphism,
    and of the same morphism with one coefficient changed."""
    _, f = minimal_model(make(), 4)
    field, degree = f.source.field, f.source.space.degree
    comps = _live_tables(f.f, f.arity_bound)
    inner = _live_tables(f.source.m, f.source.arity_bound)
    ops = _live_tables(f.target.m, f.target.arity_bound)
    for n in range(1, f.arity_bound + 1):
        got = _wrapped(_morphism_join(comps, inner, ops, degree, n, field),
                       field)
        assert got == {}
        assert _cleaned(morphism_join_oracle(f, n)) == {}
    if _mutate(f.f, random.Random(len(f.f.entries))):
        for n in range(1, f.arity_bound + 1):
            got = _wrapped(_morphism_join(comps, inner, ops, degree, n, field),
                           field)
            want = _cleaned(morphism_join_oracle(f, n))
            assert list(got.items()) == list(want.items()), n
        rep = check_ainf_morphism(f, 4)
        assert not rep.ok
        assert rep.failure == (first_failure_oracle(f, 4)
                               or check_strict_unital_morphism(f).failure)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_composite_block_join_matches_the_scalar_join(field):
    rng = random.Random(field.p or 0)
    A, B, C = kpoints(field, 2), xy(field), kpoints(field, 1)
    f = random_morphism(rng, A, B, 3)
    g = random_morphism(rng, B, C, 3)
    ops = _live_tables(g.f, g.f.max_arity())
    comps = _live_tables(f.f, f.arity_bound)
    raw_index = _output_index(comps, A.space.degree, field)
    scalar_index = output_index_oracle(comps, A.space.degree)
    for n in range(1, 4):
        got, want = {}, {}
        _block_join(ops, raw_index, n, field, got, lambda blocks: 0)
        block_join_oracle(ops, scalar_index, n, field, want, lambda blocks: 0)
        assert list(_wrapped(got, field).items()) == \
            list(_cleaned(want).items()), n


def test_joins_make_no_scalar_arithmetic(monkeypatch):
    """With Scalar +, * and unary - raising, the certify-style inputs
    (a tensor product with a base, its Stasheff check) and the check of
    a valid morphism still pass: the joins and the regrouping are raw."""
    F2, Q = Field.prime(2), Field.rationals()
    inputs = [(kpoints(F2, 2), truncated_polynomial(F2, 4), 4)]
    for seed in range(4):
        A, R, _ = random_instance(F2, seed)
        inputs.append((A, R, 3))
    _, f = minimal_model(tensor_with_dg(kpoints(Q, 2), acyclic_cone(Q)), 5)

    def refuse(*args):
        raise AssertionError("Scalar arithmetic in a join")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(Scalar, name, refuse)
    for A, R, n in inputs:
        assert check_ainf_axioms(tensor_with_dg(A, R.algebra), n).ok
    assert check_ainf_morphism(f, 5).ok
