"""Axiom checking, suspension, morphisms, unitization, tensor products.

The suspension sign convention is pinned by the round-trip oracle: the
converted coderivation components must satisfy the sign-free identity
sum b(1 x b x 1) = 0, whose only signs are Koszul passage signs in the
shifted space.  A wrong global or transposition sign breaks that check
on the algebras below with nontrivial chained products.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barmc.ainfinity import (
    AInfAlgebra,
    AInfMorphism,
    StructureMaps,
    b_from_m,
    b_residual,
    check_ainf_axioms,
    check_ainf_morphism,
    check_strict_unit,
    cohomology_algebra,
    compose_morphisms,
    degree_certified_arity_bound,
    identity_morphism,
    m_from_b,
    morphism_residual,
    restrict_to_ideal,
    stasheff_residual,
    tensor_with_dg,
    unitize,
)
from barmc.examples import (
    acyclic_cone,
    golden_dg_pair,
    kpoints,
    njac,
    ngr,
    random_instance,
    xy,
    xy_bare,
)
from barmc.artin import truncated_polynomial
from barmc.bar import dual_dg_algebra
from barmc.linalg import GradedSpace
from barmc.scalars import Field
from barmc.transfer import minimal_model

from oracles import base_product_oracle, compose_morphisms_oracle

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def all_tuples(labels, n):
    if n == 0:
        yield ()
        return
    for rest in all_tuples(labels, n - 1):
        for l in labels:
            yield rest + (l,)


# ---------------------------------------------------------------------------
# the Stasheff checker on the pinned examples


def test_exterior_algebra_passes_axioms():
    for field in (Q, F2):
        A = kpoints(field, 2)
        assert check_ainf_axioms(A, 4).ok
        assert check_strict_unit(A).ok


def test_xy_example_passes():
    A = xy_bare(Q)
    assert check_ainf_axioms(A, 5).ok


def test_spurious_m3_on_xy_still_passes():
    # adding m_3(x,x,x) = y is degree-legal (3 + 2 - 3 = 2) and every
    # identity term involves a product with y, which vanishes; brute
    # expansion over n <= 5 confirms the structure is valid
    space = GradedSpace([("x", 1), ("y", 2)])
    ops = StructureMaps()
    ops.set(2, ("x", "x"), {"y": Q.one})
    ops.set(3, ("x", "x", "x"), {"y": Q.one})
    A = AInfAlgebra(space, Q, ops, arity_bound=3)
    assert check_ainf_axioms(A, 5).ok


def test_axiom_failure_is_detected_with_witness():
    # x of degree 1 with m_1(x) = z, m_1(z) = w would break d^2; instead
    # break associativity: two degree-0 generators with a non-associative
    # product table
    space = GradedSpace([("p", 0), ("q", 0)])
    ops = StructureMaps()
    ops.set(2, ("p", "p"), {"q": Q.one})
    ops.set(2, ("q", "p"), {"p": Q.one})
    A = AInfAlgebra(space, Q, ops, arity_bound=2)
    rep = check_ainf_axioms(A, 3)
    assert not rep.ok
    n, args, residual = rep.failure
    assert n == 3
    # independent expansion: (pp)p - p(pp) = qp - 0 = p
    assert args == ("p", "p", "p") and residual == {"p": Q.one}


def test_degree_violation_rejected_at_construction():
    space = GradedSpace([("x", 1), ("y", 3)])
    ops = StructureMaps()
    ops.set(2, ("x", "x"), {"y": Q.one})  # 1 + 1 + 0 != 3
    with pytest.raises(ValueError):
        AInfAlgebra(space, Q, ops)


def test_stasheff_residual_leibniz_by_hand():
    # n = 2 identity on the cone: d is a derivation for the product
    E = acyclic_cone(Q)
    for args in all_tuples(E.space.labels, 2):
        assert stasheff_residual(E, args) == {}


# ---------------------------------------------------------------------------
# suspension round trip


def check_b_axioms(A, b, n_max):
    shifted = A.space.shifted(1)
    for n in range(1, n_max + 1):
        for args in all_tuples(A.space.labels, n):
            res = b_residual(shifted, A.field, b, args, A.arity_bound)
            if res:
                return (n, args, res)
    return None


@pytest.mark.parametrize("field", [Q, F2, F3])
def test_b_from_m_satisfies_signfree_identities(field):
    # k[t]/t^4 in degree 0 has odd shifted degree and chains products
    # three deep, so both the global sign and the transposition signs
    # are exercised
    cases = [
        truncated_polynomial(field, 4).algebra,
        kpoints(field, 2),
        acyclic_cone(field),
        xy_bare(field),
    ]
    for A in cases:
        b = b_from_m(A)
        assert check_b_axioms(A, b, 4) is None


def test_suspension_round_trip_is_identity():
    for A in (kpoints(Q, 2), xy_bare(Q), acyclic_cone(Q)):
        back = m_from_b(A.space, A.field, b_from_m(A))
        assert back.entries == A.m.entries


def test_b_signs_on_the_xy_square():
    # b_2(x, x) = (-1)^(deg x) m_2(x, x): odd generator keeps the sign
    A = xy_bare(Q)
    b = b_from_m(A)
    assert b.get(2, ("x", "x")) == {"y": Q(-1)}
    # m_1 = d converts to b_1 = -d
    E = acyclic_cone(Q)
    bE = b_from_m(E)
    assert bE.get(1, ("a",)) == {"b": Q(-1)}


def test_zero_maps_convert_to_zero_maps():
    space = GradedSpace([("x", 1)])
    A = AInfAlgebra(space, Q, StructureMaps(), arity_bound=2)
    assert b_from_m(A).entries == {}


# ---------------------------------------------------------------------------
# morphisms


def test_identity_morphism_passes():
    for A in (kpoints(Q, 2), xy_bare(Q), acyclic_cone(F2)):
        assert check_ainf_morphism(identity_morphism(A), 4).ok


def test_dg_algebra_map_passes():
    # the quotient k[t]/t^4 -> k[t]/t^2 is an algebra map
    A1 = truncated_polynomial(Q, 4).algebra
    A2 = truncated_polynomial(Q, 2).algebra
    comps = StructureMaps()
    comps.set(1, ("1",), {"1": Q.one})
    comps.set(1, ("t",), {"t": Q.one})
    f = AInfMorphism(A1, A2, comps, arity_bound=4, strict_unital=True)
    assert check_ainf_morphism(f, 4).ok


def test_non_multiplicative_map_fails_at_n_two():
    A1 = truncated_polynomial(Q, 3).algebra
    A2 = truncated_polynomial(Q, 3).algebra
    comps = StructureMaps()
    comps.set(1, ("1",), {"1": Q.one})
    comps.set(1, ("t",), {"t": Q.one})
    comps.set(1, ("t2",), {"t2": Q(2)})  # f(t*t) != f(t)*f(t)
    f = AInfMorphism(A1, A2, comps, arity_bound=3)
    rep = check_ainf_morphism(f, 3)
    assert not rep.ok and rep.failure[0] == 2


def test_unchecked_range_reported_not_failed():
    A = kpoints(Q, 1)
    f = identity_morphism(A)
    f.arity_bound = 2
    rep = check_ainf_morphism(f, 5)
    assert rep.ok and rep.checked_to == 2 and "not checked" in rep.note


def test_morphism_residual_chain_map_sign():
    # on a one-component morphism the n = 1 identity reads
    # -m_1 f_1 + f_1 m_1 = 0 and the checker must see exactly that
    E = acyclic_cone(Q)
    f = identity_morphism(E)
    assert morphism_residual(f, ("a",)) == {}


def test_compose_morphisms_identity_absorbs():
    A = kpoints(Q, 2)
    i = identity_morphism(A)
    c = compose_morphisms(i, i)
    assert c.f.entries == i.f.entries
    # id o f = f o id = f for comparison morphisms with f_2 != 0
    for field in (F2, F3, Q):
        for B in (kpoints(field, 2), xy(field)):
            _, f = minimal_model(dual_dg_algebra(B, 2).algebra, 3)
            assert 2 in f.f.arities()
            n = f.arity_bound
            for g, h in ((identity_morphism(f.target), f),
                         (f, identity_morphism(f.source))):
                assert compose_morphisms(g, h, arity_bound=n).f.entries \
                    == f.f.entries


def random_morphism(rng, source, target, max_arity, arity_bound=None):
    """Seeded components of degree 1 - n; AInfMorphism checks only degrees."""
    field = source.field
    nonzero = range(1, field.p) if field.p else (-2, -1, 1, 2)
    by_degree = {}
    for l in target.space.labels:
        by_degree.setdefault(target.deg(l), []).append(l)
    comps = StructureMaps()
    for n in range(1, max_arity + 1):
        for args in all_tuples(source.space.labels, n):
            outs = by_degree.get(sum(source.deg(a) for a in args) + 1 - n)
            if outs and rng.random() < 0.7:
                vec = {o: field(rng.choice(nonzero)) for o in outs
                       if rng.random() < 0.7}
                if vec:
                    comps.set(n, args, vec)
    return AInfMorphism(source, target, comps, arity_bound=arity_bound)


@pytest.mark.parametrize("seed", range(12))
def test_compose_morphisms_matches_the_tuple_sweep(seed):
    """Entry for entry, in the same entry order, against the all-tuple
    composite, over seeded components of consistent degree, with the
    component bounds and the composite's own bound varied."""
    rng = random.Random(seed)
    field = (F2, F3, Q)[seed % 3]
    A, B, C = kpoints(field, 2), xy(field), kpoints(field, 1)
    f = random_morphism(rng, A, B, 3, arity_bound=rng.choice([None, 2]))
    g = random_morphism(rng, B, C, 3, arity_bound=rng.choice([None, 2, 3]))
    bound = rng.choice([None, 2, 4])
    got = compose_morphisms(g, f, arity_bound=bound)
    want = compose_morphisms_oracle(g, f, arity_bound=bound)
    assert [(n, list(t)) for n, t in got.f.entries.items()] == \
        [(n, list(t)) for n, t in want.f.entries.items()]
    assert got.f.entries == want.f.entries
    assert got.arity_bound == want.arity_bound
    assert got.f.entries  # a composite with entries in every draw


def test_strict_unital_morphism_check():
    A = kpoints(Q, 1)
    comps = StructureMaps()
    comps.set(1, ("1",), {"1": Q(2)})  # sends unit to twice the unit
    comps.set(1, ("e1",), {"e1": Q.one})
    f = AInfMorphism(A, A, comps, strict_unital=True)
    assert not check_ainf_morphism(f, 1).ok


# ---------------------------------------------------------------------------
# unitization and the tensor product


def test_unitize_empty_is_ground_field():
    space = GradedSpace([])
    A = AInfAlgebra(space, Q, StructureMaps(), arity_bound=2)
    P = unitize(A)
    assert P.space.labels == ("e",) and check_strict_unit(P).ok


def test_unitize_adds_only_unit_laws():
    space = GradedSpace([("x", 1)])
    A = AInfAlgebra(space, Q, StructureMaps(), arity_bound=2)
    P = unitize(A)
    assert check_ainf_axioms(P, 4).ok
    assert P.m.get(2, ("e", "x")) == {"x": Q.one}
    assert P.m.get(2, ("x", "x")) == {}


def test_unitize_then_restrict_is_identity():
    for A in (xy_bare(Q), kpoints(F2, 2)):
        if A.unit is None:
            P = unitize(A, unit_label="u+")
            assert restrict_to_ideal(P).entries == A.m.entries


def test_unitize_of_valid_algebra_passes_axioms():
    A = unitize(xy_bare(Q), unit_label="1")
    assert check_ainf_axioms(A, 6).ok
    assert check_strict_unit(A).ok


def test_tensor_with_ground_field_is_isomorphic():
    A = xy(Q)
    C = truncated_polynomial(Q, 1).algebra  # just k
    T = tensor_with_dg(A, C)
    assert T.space.dim() == A.space.dim()
    for (a1, a2), vec in A.m.entries.get(2, {}).items():
        got = T.m.get(2, ((a1, "1"), (a2, "1")))
        assert got == {(z, "1"): c for z, c in vec.items()}
    assert check_ainf_axioms(T, 4).ok


def test_tensor_unit_factor_gives_the_dg_side():
    A = truncated_polynomial(Q, 1).algebra  # k
    C = acyclic_cone(Q)
    T = tensor_with_dg(A, C)
    assert T.space.dim() == C.space.dim()
    assert T.m.get(1, (("1", "a"),)) == {("1", "b"): Q.one}


def test_tensor_xy_with_dual_numbers():
    A = xy(Q)
    C = truncated_polynomial(Q, 2).algebra
    T = tensor_with_dg(A, C)
    assert check_ainf_axioms(T, 5).ok
    # x t * x t = y t^2 = 0 in k[t]/t^2
    assert T.m.get(2, (("x", "t"), ("x", "t"))) == {}
    assert T.m.get(2, (("x", "1"), ("x", "t"))) == {("y", "t"): Q.one}


def test_tensor_sign_on_odd_odd_pair():
    # deg(a_2) deg(c_1) = 1 for x in A against a in the cone, so the
    # section 2.6 sign flips that entry
    A = xy(Q)
    C = acyclic_cone(Q)
    T = tensor_with_dg(A, C)
    assert T.m.get(2, (("x", "a"), ("x", "1"))) == {("y", "a"): Q(-1)}
    assert T.m.get(2, (("x", "1"), ("x", "a"))) == {("y", "a"): Q.one}
    assert check_ainf_axioms(T, 4).ok


def test_tensor_differential_koszul_sign():
    A = xy(Q)
    C = acyclic_cone(Q)
    T = tensor_with_dg(A, C)
    # d(x x a) = (-1)^(deg x) x x d(a) = -x x b
    assert T.m.get(1, (("x", "a"),)) == {("x", "b"): Q(-1)}


def test_golden_dg_pair_is_valid():
    for field in (Q, F2):
        c1, c2 = golden_dg_pair(field)
        assert check_ainf_axioms(c1, 4).ok
        assert check_ainf_axioms(c2, 4).ok
        assert check_strict_unit(c1).ok and check_strict_unit(c2).ok


# ---------------------------------------------------------------------------
# cohomology algebra


def test_cohomology_of_minimal_algebra_is_itself():
    A = kpoints(Q, 2)
    H = cohomology_algebra(A)
    assert H.space.slice_dims() == A.space.slice_dims()
    # the product of the two degree-1 classes is (up to the chosen basis)
    # the top class, and squares vanish
    h1 = [l for l in H.space.labels if H.space.degree[l] == 1]
    x, y = ({l: Q.one} for l in h1)
    assert H.multiply(x, x) == {}
    top = H.multiply(x, y)
    assert len(top) == 1 and H.space.degree[next(iter(top))] == 2


def test_cohomology_of_acyclic_ideal():
    E = acyclic_cone(Q)
    H = cohomology_algebra(E)
    assert H.space.slice_dims() == {0: 1}


def test_cohomology_of_golden_pair_matches_factors():
    c1, c2 = golden_dg_pair(Q)
    assert cohomology_algebra(c1).space.slice_dims() == {0: 1, 1: 1, 2: 1}
    assert cohomology_algebra(c2).space.slice_dims() == {0: 1, 1: 1}


def test_induced_product_associative_on_golden_pair():
    for A in golden_dg_pair(Q):
        H = cohomology_algebra(A)
        labels = list(H.space.labels)
        for a in labels:
            for b in labels:
                for c in labels:
                    va, vb, vc = ({l: Q.one} for l in (a, b, c))
                    lhs = H.multiply(H.multiply(va, vb), vc)
                    rhs = H.multiply(va, H.multiply(vb, vc))
                    assert lhs == rhs, (a, b, c)


def test_induced_product_matches_the_pair_loop():
    """H.multiply runs on eval_m_vectors; same items, same order."""
    rng = random.Random(3)
    for A in golden_dg_pair(Q) + (kpoints(Q, 2), kpoints(F3, 3)):
        H = cohomology_algebra(A)
        field = A.field
        labels = list(H.space.labels)
        vecs = [{l: field.one} for l in labels]
        for _ in range(8):
            vecs.append({l: field(rng.randint(-2, 2))
                         for l in rng.sample(labels, min(3, len(labels)))})
        for x in vecs:
            for y in vecs:
                assert list(H.multiply(x, y).items()) == \
                    list(base_product_oracle(H.algebra, x, y).items())


# ---------------------------------------------------------------------------
# arity bounds from degree support


def test_degree_bound_certifies_njac():
    # slots all in degree 1 and nothing in degree 2: no m_n for n >= 3
    assert degree_certified_arity_bound(njac(Q, 2)) == 2


def test_degree_bound_refuses_mixed_signs():
    assert degree_certified_arity_bound(xy(Q)) is None
    assert degree_certified_arity_bound(kpoints(Q, 2)) is None


def test_degree_bound_on_one_generator_exterior():
    assert degree_certified_arity_bound(kpoints(Q, 1)) == 2


# ---------------------------------------------------------------------------
# property suite over seeded instances


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, 2, 3]))
def test_random_instances_pass_axioms(seed, p):
    field = Q if p == 0 else Field.prime(p)
    A, R, _ = random_instance(field, seed)
    assert check_ainf_axioms(A, 5).ok
    assert check_strict_unit(A).ok
    assert check_ainf_morphism(identity_morphism(A), 3).ok


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_tensor_of_random_with_base_passes_axioms(seed):
    A, R, _ = random_instance(F2, seed)
    T = tensor_with_dg(A, R.algebra)
    # arity 5 in full on small products, scaled back when the basis
    # tuple count would explode
    n_max = 5
    while n_max > 2 and T.space.dim() ** n_max > 60000:
        n_max -= 1
    assert check_ainf_axioms(T, n_max).ok


def test_ngr_is_a_valid_quadratic_algebra():
    A = ngr(Q, 3, 1)
    assert check_ainf_axioms(A, 3).ok
    assert check_strict_unit(A).ok
    # dim: sum over i of dim Sym^i(k) * dim Lambda^i(k^2) = 1 + 2 + 1
    assert A.space.dim() == 4
