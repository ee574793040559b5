"""The raw-value evaluation kernel and the nonzero-word tensor builder.

ainfinity._expand multiplies raw field values and wraps one Scalar per
output key; tensor_with_dg regrouped every entry of A against all
|C|^n base tuples before it read the nonzero words of C.  Both old
paths live in tests/oracles.py, and the new ones must give equal
dicts with the keys in the same order, and raise the same exceptions
on the same coefficients.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from barmc.ainfinity import _expand, tensor_with_dg
from barmc.artin import truncated_polynomial
from barmc.examples import acyclic_cone, kpoints, njac, random_instance
from barmc.scalars import Field, FieldMismatch

from oracles import expand_oracle, tensor_with_dg_oracle

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
FIELDS = [Q, F2, F3]

LABELS = ["a", "b", "c", "d"]
OUTPUTS = ["x", "y", "z"]


def _exact(vec):
    """Items with the field and the type of each raw value."""
    return [(k, c.field, type(c.val), c.val) for k, c in vec.items()]


def _coefficient(field, rng):
    if field.kind == "Q":
        return field(Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])))
    return field(rng.randrange(field.p))


def _draw(field, rng, n):
    """Input vectors with zero coefficients and a sparse random table.

    The table sends tuples to few output keys.  In half the draws the
    last vector holds c and d with one coefficient, and every tuple
    ending in d has the negated value of the one ending in c, so those
    terms cancel.
    """
    vecs = []
    for _ in range(n):
        labels = rng.sample(LABELS, rng.randint(1, len(LABELS)))
        vecs.append({l: _coefficient(field, rng) for l in labels})
    table = {}
    for args in product(LABELS, repeat=n):
        if rng.random() < 0.6:
            outs = rng.sample(OUTPUTS, rng.randint(1, 2))
            table[args] = {o: _coefficient(field, rng) or field.one
                           for o in outs}
    if rng.random() < 0.5:
        vecs[-1]["c"] = vecs[-1]["d"] = _coefficient(field, rng) or field.one
        for args in product(LABELS, repeat=n - 1):
            vec = table.get(args + ("c",))
            if vec:
                table[args + ("d",)] = {o: -v for o, v in vec.items()}
    return vecs, table


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_the_recursive_oracle(field, n):
    rng = random.Random(1000 * n + (field.p or 0))
    cancelled = zeros = 0
    for _ in range(60):
        vecs, table = _draw(field, rng, n)
        got = _expand(field, vecs, table.get)
        want = expand_oracle(field, vecs, table.get)
        assert _exact(got) == _exact(want)
        touched = {o for args in product(*[[l for l, c in v.items() if c]
                                            for v in vecs])
                   for o in table.get(args, {})}
        cancelled += len(got) < len(touched)
        zeros += any(not c for v in vecs for c in v.values())
    assert cancelled >= 5 and zeros >= 5


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_evaluation_matches_the_recursive_oracle(field):
    T = tensor_with_dg(kpoints(field, 2), truncated_polynomial(field, 4).algebra)
    rng = random.Random(7)
    labels = T.space.labels
    hits = 0
    for n in (1, 2, 3):
        table = T.m.entries.get(n, {})
        for _ in range(40):
            vecs = [{l: _coefficient(field, rng)
                     for l in rng.sample(labels, 4)} for _ in range(n)]
            got = T.eval_m_vectors(vecs)
            assert _exact(got) == _exact(expand_oracle(field, vecs, table.get))
            hits += bool(got)
    assert hits >= 20


ODD_COEFFICIENTS = {
    "int": 5,
    "int-multiple-of-p": 6,
    "negative-int": -1,
    "equal-field": Field("Fp", 3)(2),
    "foreign-field": F2.one,
    "bool": True,
    "float": 0.5,
    "fraction": Fraction(1, 2),
    "str": "1",
}


def _outcome(run):
    try:
        return _exact(run())
    except Exception as exc:  # the exception's exact class is compared
        return type(exc)


@pytest.mark.parametrize("slot", ["input", "table"])
@pytest.mark.parametrize("name", sorted(ODD_COEFFICIENTS))
def test_coefficients_are_handled_as_before(name, slot):
    """Ints are coerced, a foreign scalar raises FieldMismatch and
    bool, float, Fraction and str raise TypeError, in the input vectors
    and in the values the table returns alike.
    """
    c = ODD_COEFFICIENTS[name]
    vecs = [{"a": F3(2), "b": F3.one}, {"a": F3.one}]
    table = {("a", "a"): {"x": F3.one}, ("b", "a"): {"x": F3(2), "y": F3.one}}
    if slot == "input":
        vecs[1]["b"] = c
        table[("a", "b")] = {"y": F3.one}
    else:
        table[("b", "a")]["z"] = c
    got = _outcome(lambda: _expand(F3, vecs, table.get))
    want = _outcome(lambda: expand_oracle(F3, vecs, table.get))
    assert got == want
    expected = {"foreign-field": FieldMismatch, "bool": TypeError,
                "float": TypeError, "fraction": TypeError, "str": TypeError}
    if name in expected:
        assert got is expected[name]
    else:
        assert isinstance(got, list)


def _tables(T):
    return [(n, [(args, list(vec.items())) for args, vec in table.items()])
            for n, table in T.m.entries.items()]


def _tensor_cases():
    for field, seeds in ((F2, 24), (F3, 12), (Q, 12)):
        for seed in range(seeds):
            A, R, _ = random_instance(field, seed)
            yield A, R.algebra
    for field in (F2, F3, Q):
        for A in (kpoints(field, 2), kpoints(field, 3), njac(field, 2)):
            for n in (2, 3, 5):
                yield A, truncated_polynomial(field, n).algebra
        yield kpoints(field, 2), acyclic_cone(field)


def test_tensor_tables_match_the_all_tuple_oracle():
    """Table by table, entry by entry, with every key in the same order."""
    higher = 0
    for A, C in _tensor_cases():
        got, want = tensor_with_dg(A, C), tensor_with_dg_oracle(A, C)
        assert got.space.labels == want.space.labels
        assert got.space.degree == want.space.degree
        assert (got.unit, got.arity_bound, got.complete_to_arity) == \
            (want.unit, want.arity_bound, want.complete_to_arity)
        assert _tables(got) == _tables(want)
        higher += A.m.max_arity() > 2
    assert higher >= 5


def test_tensor_with_an_artinian_base_is_refused():
    R = truncated_polynomial(F2, 3)
    with pytest.raises(ValueError, match=r"ArtinianDGAlgebra.*\.algebra"):
        tensor_with_dg(kpoints(F2, 2), R)
    assert tensor_with_dg(kpoints(F2, 2), R.algebra).space.dim() == 12
