"""Maurer-Cartan elements, gauge groupoids, obstructions, pushforward.

The golden algebras here are all DG, so every engine value can be
recomputed from the two-term twisted differential d(x) + bx - (-1)^|x| xa
and the two-term residual; morphism sets and components are then
cross-checked by exhaustive search over finite prime fields.
"""

import re
from itertools import product as iter_product
from random import Random

import pytest

from barmc.ainfinity import (
    AInfAlgebra,
    AInfMorphism,
    StructureMaps,
    check_ainf_axioms,
    check_ainf_morphism,
    identity_morphism,
)
from barmc.artin import quotient_by_power, square_zero, truncated_polynomial
from barmc.bar import dual_dg_algebra, koszul_probe
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import (
    golden_dg_pair,
    kpoints,
    njac,
    random_instance,
    xy,
    xy_bare,
)
from barmc.linalg import GradedSpace, vec_add, vec_clean, vec_eq, vec_sub
import barmc.mc as mc_module
from barmc.mc import (
    DeformationSetup,
    HomComplex,
    HomSet,
    MCGroupoid,
    enumerate_mc,
    invariance_check,
    lift_mc,
    mc_residual,
    obstruction_o0,
    obstruction_o1,
    obstruction_o2,
    pi0,
    pushforward_mc,
    pushforward_morphism,
)
from barmc.scalars import Field
from barmc.transfer import minimal_model
import barmc.twisting as twisting_module
from barmc.twisting import CorepresentingHom, TwistedModule, prorep_compare
from oracles import (
    category_op_oracle,
    eval_f_tensor_oracle,
    mc_residual_oracle,
    pushforward_mc_oracle,
    pushforward_morphism_oracle,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


# ---------------------------------------------------------------------------
# oracles: everything recomputed from the raw tensor-algebra operations


def dg_twisted_oracle(setup, alpha, beta, x):
    """d(x) + beta x - (-1)^|x| x alpha, one homogeneous piece at a time."""
    T = setup.T
    field = setup.field
    out = {}
    for deg, part in T.space.homogeneous_parts(x).items():
        vec_add(out, T.eval_m_vectors([part]))
        vec_add(out, T.eval_m_vectors([beta, part]))
        vec_add(out, T.eval_m_vectors([part, alpha]), -field.sign(deg))
    return vec_clean(out)


def dg_residual_oracle(setup, alpha):
    """-d(alpha) - alpha alpha, the arity <= 2 residual."""
    T = setup.T
    out = {}
    vec_add(out, T.eval_m_vectors([alpha]), -setup.field.one)
    vec_add(out, T.eval_m_vectors([alpha, alpha]), -setup.field.one)
    return vec_clean(out)


def all_vectors(field, labels):
    """Every vector supported on the given labels, in a fixed order."""
    for coeffs in iter_product(range(field.p), repeat=len(labels)):
        yield vec_clean({l: field(c) for l, c in zip(labels, coeffs)})


def brute_mc_set(setup):
    labels = setup.ideal_labels_of_degree(1)
    return [v for v in all_vectors(setup.field, labels)
            if not dg_residual_oracle(setup, v)]


def brute_morphism_vectors(setup, alpha, beta):
    """All g = 1 + u solving the twisted equation, by exhaustion."""
    labels = setup.ideal_labels_of_degree(0)
    found = []
    for u in all_vectors(setup.field, labels):
        g = dict(setup.one_vec)
        vec_add(g, u)
        if not dg_twisted_oracle(setup, alpha, beta, g):
            found.append(vec_clean(g))
    return found


def brute_gauge_translations(setup, alpha, beta):
    """The set of twisted differentials of degree -1 elements."""
    labels = setup.ideal_labels_of_degree(-1)
    out = []
    seen = set()
    for h in all_vectors(setup.field, labels):
        t = dg_twisted_oracle(setup, alpha, beta, h)
        key = tuple(sorted((repr(l), str(c)) for l, c in t.items()))
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def brute_orbit_count(setup, alpha, beta):
    """Solutions modulo translation, counted by coset size."""
    sols = brute_morphism_vectors(setup, alpha, beta)
    if not sols:
        return 0
    translations = brute_gauge_translations(setup, alpha, beta)
    assert len(sols) % len(translations) == 0
    return len(sols) // len(translations)


def brute_components(setup, elements):
    """Connected components under existence of a brute-force morphism."""
    classes = []
    for alpha in elements:
        for cls in classes:
            if brute_morphism_vectors(setup, cls[0], alpha):
                cls.append(alpha)
                break
        else:
            classes.append([alpha])
    return classes


def brute_lift_exists(A, R, alpha_bar):
    """Any eta in (A x I)^1 with residual(section + eta) = 0."""
    setup = DeformationSetup(A, R)
    base = dict(alpha_bar)
    kernel_labels = set()
    for row in quotient_by_power(R, R.nu - 1)[2]:
        kernel_labels |= set(row)
    labels = [l for l in setup.ideal
              if l[1] in kernel_labels and setup.T.deg(l) == 1]
    for eta in all_vectors(setup.field, labels):
        cand = dict(base)
        vec_add(cand, eta)
        if not dg_residual_oracle(setup, vec_clean(cand)):
            return True
    return False


def brute_morphism_lift_exists(A, R, alpha1, alpha2, f_bar):
    """Any h in (A x I)^0 with the corrected section a morphism upstairs."""
    setup = DeformationSetup(A, R)
    base = dict(f_bar)
    kernel_labels = set()
    for row in quotient_by_power(R, R.nu - 1)[2]:
        kernel_labels |= set(row)
    labels = [l for l in setup.ideal
              if l[1] in kernel_labels and setup.T.deg(l) == 0]
    for h in all_vectors(setup.field, labels):
        cand = dict(base)
        vec_add(cand, h)
        if not dg_twisted_oracle(setup, alpha1, alpha2, vec_clean(cand)):
            return True
    return False


# ---------------------------------------------------------------------------
# fixtures


def pq_algebra(field):
    """Unit, p in degree 0, q = d(p) in degree 1, ideal products zero.

    The degree-0 generator makes the gauge action move Maurer-Cartan
    elements around, so distinct elements become isomorphic.
    """
    space = GradedSpace([("1", 0), ("p", 0), ("q", 1)])
    ops = StructureMaps()
    one = field.one
    for l in space.labels:
        ops.set(2, ("1", l), {l: one})
        if l != "1":
            ops.set(2, (l, "1"), {l: one})
    ops.set(1, ("p",), {"q": one})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


def negative_base(field):
    """Square-zero base with e in degree 0 and f in degree -1, d(f) = e."""
    return square_zero(field, [("e", 0), ("f", -1)], d={"f": {"e": 1}})


def cone_inclusion(A, C):
    """a -> a x 1 into a cone-tensored algebra; a strict quasi-isomorphism."""
    comps = StructureMaps()
    for l in A.space.labels:
        comps.set(1, (l,), {(l, "1"): A.field.one})
    return AInfMorphism(A, C, comps, arity_bound=1, strict_unital=True)


# ---------------------------------------------------------------------------
# residual and enumeration


def test_residual_of_x_t_is_minus_y_t2():
    A = xy(Q)
    R = truncated_polynomial(Q, 3)
    res = mc_residual(A, R, {("x", "t"): Q.one})
    assert res == {("y", "t2"): -Q.one}


def test_residual_vanishes_at_shallower_truncation():
    A = xy(F2)
    R = truncated_polynomial(F2, 2)
    assert mc_residual(A, R, {("x", "t"): F2.one}) == {}


def test_residual_matches_two_term_oracle():
    for field in (F2, F3):
        for A, R in ((xy(field), truncated_polynomial(field, 3)),
                     (golden_dg_pair(field)[1], truncated_polynomial(field, 3)),
                     (xy(field), negative_base(field))):
            setup = DeformationSetup(A, R)
            labels = setup.ideal_labels_of_degree(1)
            for alpha in all_vectors(field, labels):
                assert setup.mc_residual(alpha) == \
                    dg_residual_oracle(setup, alpha)


def test_residual_rejects_wrong_degree_and_support():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    with pytest.raises(ValueError):
        setup.mc_residual({("y", "t"): F2.one})
    with pytest.raises(ValueError):
        setup.mc_residual({("x", "1"): F2.one})
    with pytest.raises(ValueError, match="'zz'"):
        setup.mc_residual({("zz", "t"): F2.zero})


MC_ENTRY_POINTS = {
    "lift_mc": lambda setup, alpha: lift_mc(setup.A, setup.R, alpha),
    "mc_residual": lambda setup, alpha: setup.mc_residual(alpha),
    "is_mc": lambda setup, alpha: setup.is_mc(alpha),
    "category_op": lambda setup, alpha: setup.category_op(
        [alpha, alpha], [{("1", "t"): setup.field.one}]),
    "HomSet": lambda setup, alpha: HomSet(setup, alpha, alpha),
    "CorepresentingHom": lambda setup, alpha: CorepresentingHom(
        setup, alpha, dual_dg_algebra(setup.A, setup.R.nu)),
}


@pytest.mark.parametrize("entry", sorted(MC_ENTRY_POINTS))
@pytest.mark.parametrize("coeff", [2, 0, 0.5, "1", F3.one],
                         ids=["int", "zero-int", "float", "str", "F3"])
def test_mc_coefficients_must_be_scalars_over_the_field(entry, coeff):
    setup = DeformationSetup(kpoints(F2, 2), truncated_polynomial(F2, 4))
    run = MC_ENTRY_POINTS[entry]
    run(setup, {("e1", "t"): F2.one})
    with pytest.raises(ValueError, match=re.escape("('e1', 't')")):
        run(setup, {("e1", "t"): coeff})


@pytest.mark.parametrize("bad, name", [
    ({("zz", "t"): F2.one}, "('zz', 't')"),
    ({("e1", "t"): 1}, "('e1', 't')"),
    ({("e1", "t"): F3.one}, "('e1', 't')"),
    ([(("e1", "t"), F2.one)], "('e1', 't')"),
], ids=["label", "int", "F3", "list"])
def test_category_op_refuses_a_malformed_morphism(bad, name):
    """A ValueError naming the label, not a KeyError or AttributeError."""
    setup = DeformationSetup(kpoints(F2, 2), truncated_polynomial(F2, 3))
    good = {("e1", "t"): F2.one}
    assert setup.category_op([{}, {}, {}], [good, {("e2", "t"): F2.one}])
    with pytest.raises(ValueError, match=re.escape(name)):
        setup.category_op([{}, {}], [bad])
    with pytest.raises(ValueError, match=re.escape(name)):
        setup.category_op([{}, {}, {}], [good, bad])


@pytest.mark.parametrize("entry", sorted(MC_ENTRY_POINTS))
def test_a_certified_element_does_not_vouch_for_a_lookalike(entry):
    """is_mc remembers exact inputs: after {e1 t: 1} passed, an int
    coefficient or a zero on a foreign label is still refused, and a
    twin field instance is still accepted."""
    setup = DeformationSetup(kpoints(F2, 2), truncated_polynomial(F2, 3))
    run = MC_ENTRY_POINTS[entry]
    run(setup, {("e1", "t"): F2.one})
    for bad, name in (({("e1", "t"): 1}, "('e1', 't')"),
                      ({("e1", "t"): F2.one, ("zz", "t"): F2.zero},
                       "('zz', 't')")):
        with pytest.raises(ValueError, match=re.escape(name)):
            run(setup, bad)
    run(setup, {("e1", "t"): Field("Fp", 2)(1)})


def test_is_mc_remembers_only_positive_answers(monkeypatch):
    setup = DeformationSetup(xy(F2), truncated_polynomial(F2, 3))
    calls = []
    real = setup.mc_residual
    monkeypatch.setattr(setup, "mc_residual",
                        lambda alpha: calls.append(alpha) or real(alpha))
    bad = {("x", "t"): F2.one}
    for _ in range(3):
        assert not setup.is_mc(bad)
        with pytest.raises(HypothesisNotMet):
            setup.category_op([bad, bad], [{("1", "t"): F2.one}])
    assert len(calls) == 6
    good = {("x", "t2"): F2.one}
    assert setup.is_mc(good)
    assert setup.is_mc({("x", "t2"): F2.one, ("x", "t"): F2.zero})
    assert setup.is_mc(dict(good))
    assert len(calls) == 7


def test_prorep_compare_certifies_no_element_twice(monkeypatch):
    """The gauge classes certify every element on the comparison's
    setup, so the induced maps evaluate no residual of their own.  Every
    residual is one run of the kernel _residual_raw, which is counted."""
    inside, calls, induced = [], [], []
    real_residual = DeformationSetup._residual_raw
    real_induced = twisting_module.induced_map

    def residual(self, x):
        calls.append(bool(inside))
        return real_residual(self, x)

    def induced_map(*args):
        inside.append(True)
        try:
            induced.append(real_induced(*args))
            return induced[-1]
        finally:
            inside.pop()

    monkeypatch.setattr(DeformationSetup, "_residual_raw", residual)
    monkeypatch.setattr(twisting_module, "induced_map", induced_map)
    rep = prorep_compare(njac(F3, 2), truncated_polynomial(F3, 3), 3)
    assert rep.ok and rep.rhs == 81 and len(induced) == 81
    assert calls and not any(calls)


def test_mc_coefficients_over_an_equal_field_instance_are_accepted():
    setup = DeformationSetup(kpoints(F2, 2), truncated_polynomial(F2, 4))
    twin = Field("Fp", 2)
    assert twin is not F2
    alpha = {("e1", "t"): F2.one, ("e2", "t2"): F2.one}
    assert setup.mc_residual({l: twin(c.val) for l, c in alpha.items()}) \
        == setup.mc_residual(alpha)
    with pytest.raises(ValueError, match=re.escape(
            "coefficient Scalar(1, F3) at ('e1', 't') is not a scalar over F2")):
        setup.mc_residual({("e1", "t"): F3.one})


def test_enumerate_xy_over_t3():
    found = enumerate_mc(xy(F2), truncated_polynomial(F2, 3))
    assert found == [{}, {("x", "t2"): F2.one}]


def test_enumerate_matches_brute_force():
    for field in (F2, F3):
        for A in (xy(field), njac(field, 1), kpoints(field, 2)):
            setup = DeformationSetup(A, truncated_polynomial(field, 3))
            assert setup.enumerate_mc() == brute_mc_set(setup)


def test_enumerate_refuses_rationals():
    with pytest.raises(HypothesisNotMet):
        enumerate_mc(xy(Q), truncated_polynomial(Q, 3))


def test_enumerate_refuses_past_cap():
    with pytest.raises(HypothesisNotMet):
        enumerate_mc(kpoints(F2, 2), truncated_polynomial(F2, 3), cap=8)


def test_enumerated_elements_satisfy_mc_exactly():
    for A, R in ((njac(F2, 2), truncated_polynomial(F2, 3)),
                 (golden_dg_pair(F2)[0], truncated_polynomial(F2, 3))):
        setup = DeformationSetup(A, R)
        for alpha in setup.enumerate_mc():
            assert setup.mc_residual(alpha) == {}


def test_enumeration_is_deterministic():
    A = kpoints(F2, 2)
    R = truncated_polynomial(F2, 3)
    first = enumerate_mc(A, R)
    second = enumerate_mc(A, R)
    assert first == second


# ---------------------------------------------------------------------------
# the category operations


def test_category_op_at_zero_objects_is_plain_tensor_op():
    A = golden_dg_pair(F2)[1]
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    zero = {}
    for l in setup.ideal[:6]:
        x = {l: F2.one}
        assert setup.category_op([zero, zero], [x]) == \
            vec_clean(setup.T.eval_m_vectors([x]))
    l1, l2 = setup.ideal[0], setup.ideal[2]
    x1, x2 = {l1: F2.one}, {l2: F2.one}
    assert setup.category_op([zero, zero, zero], [x1, x2]) == \
        vec_clean(setup.T.eval_m_vectors([x2, x1]))


def test_twisted_differential_matches_dg_formula():
    for field in (F3, Q):
        A = xy(field)
        R = truncated_polynomial(field, 3)
        setup = DeformationSetup(A, R)
        alpha = {("x", "t2"): field.one}
        beta = {("x", "t2"): field(2)}
        samples = [
            {("x", "t"): field.one},
            {("1", "t"): field.one, ("y", "t2"): field(2)},
            {("x", "t2"): field.one, ("1", "t2"): field.one},
            {("y", "t"): field(2)},
        ]
        for x in samples:
            assert setup.category_op([alpha, beta], [x]) == \
                dg_twisted_oracle(setup, alpha, beta, x)


def test_twisted_differential_on_negative_base():
    field = F3
    A = xy(field)
    setup = DeformationSetup(A, negative_base(field))
    alpha = {("x", "e"): field.one}
    beta = {}
    samples = [
        {("x", "f"): field.one},
        {("1", "e"): field.one, ("x", "f"): field(2)},
        {("y", "f"): field.one},
    ]
    for x in samples:
        assert setup.category_op([alpha, beta], [x]) == \
            dg_twisted_oracle(setup, alpha, beta, x)


def test_category_op_refuses_non_mc_objects():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    bad = {("x", "t"): F2.one}
    with pytest.raises(HypothesisNotMet):
        DeformationSetup(A, R).category_op([bad, bad],
                                           [{("1", "t"): F2.one}])


def test_hom_complex_checks_its_ends_once(monkeypatch):
    """One HomComplex asks is_mc once per end, not once per label, and a
    non-MC end is refused with the category-operation message."""
    A, R = njac(F3, 1), truncated_polynomial(F3, 3)
    setup = DeformationSetup(A, R)
    alpha, beta = setup.enumerate_mc()[:2]
    calls = []
    real = DeformationSetup.is_mc

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(DeformationSetup, "is_mc", counted)
    HomComplex(setup, alpha, beta)
    assert calls == [alpha, beta] and len(setup.ideal) > 2
    bad = {("x", "t"): F2.one}
    xy_setup = DeformationSetup(xy(F2), truncated_polynomial(F2, 3))
    with pytest.raises(HypothesisNotMet, match="^category operations are "
                       "defined on MC objects only$"):
        HomComplex(xy_setup, bad, bad)


def test_hom_complex_squares_to_zero_on_xy_example():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x", "t2"): F2.one}
    hc = HomComplex(setup, alpha, alpha)
    for l in setup.ideal:
        once = hc.complex.apply_d({l: F2.one})
        assert vec_clean(hc.complex.apply_d(once)) == {}


# ---------------------------------------------------------------------------
# hom-sets, orbits, groupoid laws


def test_njac_homs_empty_off_diagonal():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    elements = setup.enumerate_mc()
    assert len(elements) == 4
    for a in elements:
        for b in elements:
            hs = HomSet(setup, a, b)
            if a == b:
                assert hs.count == 4
            else:
                assert hs.is_empty()
            assert hs.count == brute_orbit_count(setup, a, b)


def test_identity_class_present_in_every_end_set():
    for A, R in ((njac(F2, 1), truncated_polynomial(F2, 3)),
                 (kpoints(F2, 2), truncated_polynomial(F2, 3)),
                 (xy(F3), truncated_polynomial(F3, 3))):
        setup = DeformationSetup(A, R)
        groupoid = MCGroupoid(setup)
        for alpha in setup.enumerate_mc():
            assert groupoid.identity(alpha) in groupoid.hom(alpha, alpha).orbits()


def test_orbit_counts_match_brute_force():
    cases = [
        (xy(F2), truncated_polynomial(F2, 3)),
        (xy(F3), truncated_polynomial(F3, 3)),
        (pq_algebra(F2), truncated_polynomial(F2, 3)),
        (xy(F2), negative_base(F2)),
    ]
    for A, R in cases:
        setup = DeformationSetup(A, R)
        elements = setup.enumerate_mc()
        for a in elements:
            for b in elements:
                hs = HomSet(setup, a, b)
                assert hs.count == brute_orbit_count(setup, a, b)
                reps = hs.orbits()
                assert len(set(r.key for r in reps)) == len(reps)
                for g in brute_morphism_vectors(setup, a, b):
                    assert any(vec_eq(hs.classify(g).u, r.u) for r in reps)


def test_pi0_counts_and_members():
    expected = [
        (njac(F2, 1), truncated_polynomial(F2, 3), 4),
        (xy(F2), truncated_polynomial(F2, 3), 2),
        (pq_algebra(F2), truncated_polynomial(F2, 3), 1),
        (xy(F2), negative_base(F2), 1),
    ]
    for A, R, count in expected:
        rep = pi0(A, R)
        assert rep.count == count
        setup = DeformationSetup(A, R)
        brute = brute_components(setup, setup.enumerate_mc())
        assert sorted(len(c) for c in rep.classes) == \
            sorted(len(c) for c in brute)


def test_pi0_over_the_ground_field_is_one_class():
    rep = pi0(xy(F2), truncated_polynomial(F2, 1))
    assert rep.count == 1
    assert rep.classes == [[{}]]


def test_groupoid_laws_on_all_small_morphisms():
    for A, R in ((pq_algebra(F2), truncated_polynomial(F2, 3)),
                 (xy(F2), negative_base(F2)),
                 (xy(F3), truncated_polynomial(F3, 3))):
        setup = DeformationSetup(A, R)
        groupoid = MCGroupoid(setup)
        elements = setup.enumerate_mc()
        morphisms = []
        for a in elements:
            for b in elements:
                morphisms.extend(groupoid.hom(a, b).orbits())
        for f in morphisms:
            inv = groupoid.invert(f)
            assert groupoid.compose(f, inv) == groupoid.identity(f.alpha)
            assert groupoid.compose(inv, f) == groupoid.identity(f.beta)
        for f in morphisms:
            for g in morphisms:
                if f.beta != g.alpha:
                    continue
                fg = groupoid.compose(f, g)
                assert groupoid.invert(fg) == groupoid.compose(
                    groupoid.invert(g), groupoid.invert(f))
                for h in morphisms:
                    if g.beta != h.alpha:
                        continue
                    assert groupoid.compose(groupoid.compose(f, g), h) == \
                        groupoid.compose(f, groupoid.compose(g, h))


def test_classify_rejects_bad_vectors():
    setup = DeformationSetup(xy(F2), truncated_polynomial(F2, 3))
    hs = HomSet(setup, {}, {})
    with pytest.raises(ValueError):
        hs.classify({("1", "t"): F2.one})
    with pytest.raises(ValueError):
        hs.classify({("1", "1"): F2.one, ("x", "t"): F2.one})
    beta = {("x", "t2"): F2.one}
    empty = HomSet(setup, {}, beta)
    assert empty.is_empty()
    with pytest.raises(MathCheckFailure):
        empty.classify({("1", "1"): F2.one, ("1", "t"): F2.one})


def test_infinite_hom_sets_over_the_rationals_refuse_counting():
    setup = DeformationSetup(xy(Q), truncated_polynomial(Q, 3))
    hs = HomSet(setup, {}, {})
    assert hs.count is None
    with pytest.raises(HypothesisNotMet):
        len(hs)
    with pytest.raises(HypothesisNotMet):
        hs.orbits()


def test_hom_groupoid_entry_point():
    setup = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3))
    hs = HomSet(setup, {}, {})
    assert hs.count == 4


# ---------------------------------------------------------------------------
# obstruction calculus


def test_o2_on_xy_is_the_y_t2_line():
    for field in (F2, F3):
        A = xy(field)
        cls = obstruction_o2(A, truncated_polynomial(field, 3),
                             {("x", "t"): field.one})
        assert not cls.is_zero
        assert set(cls.vec) == {("y", "t2")}
        h2 = cls.extension.cohomology(2)
        assert h2.dim == 1


def test_o2_of_zero_vanishes():
    for A in (xy(F2), njac(F2, 1), kpoints(F2, 2)):
        assert obstruction_o2(A, truncated_polynomial(F2, 3), {}).is_zero


def test_o2_soundness_against_brute_lifting():
    cases = [(xy, F2), (xy, F3), (njac1, F2), (kpoints2, F2), (kpoints2, F3)]
    for make, field in cases:
        A = make(field)
        R = truncated_polynomial(field, 3)
        setup_bar = DeformationSetup(A, quotient_by_power(R, 2)[0])
        for alpha_bar in setup_bar.enumerate_mc():
            cls = obstruction_o2(A, R, alpha_bar)
            assert cls.is_zero == brute_lift_exists(A, R, alpha_bar)


def njac1(field):
    return njac(field, 1)


def kpoints2(field):
    return kpoints(field, 2)


def test_o2_vanishes_on_exterior_squares_in_every_characteristic():
    """e1 e2 = -e2 e1 makes the quadratic term cancel, so no obstruction."""
    A = kpoints(F3, 2)
    R = truncated_polynomial(F3, 3)
    sq = {("e1", "t"): F3.one, ("e2", "t"): F3.one}
    cls = obstruction_o2(A, R, sq)
    assert cls.is_zero
    assert brute_lift_exists(A, R, sq)


def test_o2_builds_the_tower_quotient_once(monkeypatch):
    calls = []
    original = mc_module.quotient_by_power

    def counting(R, n):
        calls.append(n)
        return original(R, n)

    monkeypatch.setattr(mc_module, "quotient_by_power", counting)
    cls = obstruction_o2(xy(F2), truncated_polynomial(F2, 3),
                         {("x", "t"): F2.one})
    assert not cls.is_zero
    assert calls == [2]


@pytest.mark.parametrize("obstruction", [
    lambda A, R, one: obstruction_o2(A, R, {}),
    lambda A, R, one: obstruction_o1(A, R, {}, {}, one),
    lambda A, R, one: obstruction_o0(A, R, {}, {}, one, one),
], ids=["o2", "o1", "o0"])
def test_obstructions_over_the_ground_field_are_refused(obstruction):
    """Over R = k (nu = 1) there is no small extension R -> R/m^(nu-1):
    every obstruction is refused at DeformationSetup.extension, naming
    nu, not deep inside quotient_by_power."""
    A, R = njac(F2, 1), truncated_polynomial(F2, 1)
    one = DeformationSetup(A, R).one_vec
    with pytest.raises(HypothesisNotMet, match=r"nu = 1"):
        obstruction(A, R, one)


def test_obstruction_classes_of_different_groups_are_not_compared():
    """Two zero o2 classes, of kpoints(F2,2) over t^3 and of njac(F2,1)
    over t^4, lie in different H^2(A x I); a degree-1 class on the same
    extension lies in H^1."""
    z = obstruction_o2(kpoints(F2, 2), truncated_polynomial(F2, 3), {})
    w = obstruction_o2(njac(F2, 1), truncated_polynomial(F2, 4), {})
    assert z.is_zero and w.is_zero
    with pytest.raises(ValueError, match="different cohomology groups"):
        z.same_class_as(w)
    with pytest.raises(ValueError, match="different cohomology groups"):
        z.same_class_as(type(z)(z.extension, {}, 1))
    twin = obstruction_o2(kpoints(F2, 2), truncated_polynomial(F2, 3), {})
    assert z.same_class_as(twin)


def test_o2_independent_of_lift_choice_across_seeds():
    A = xy(F3)
    R = truncated_polynomial(F3, 3)
    alpha_bar = {("x", "t"): F3.one}
    classes = [obstruction_o2(A, R, alpha_bar, seed=s) for s in range(5)]
    for cls in classes[1:]:
        assert classes[0].same_class_as(cls)


def test_o2_verdict_agrees_on_isomorphic_elements():
    A = pq_algebra(F2)
    R = truncated_polynomial(F2, 3)
    rep = pi0(A, quotient_by_power(R, 2)[0])
    for cls_members in rep.classes:
        verdicts = {obstruction_o2(A, R, a).is_zero for a in cls_members}
        assert len(verdicts) == 1


def test_o1_vanishes_for_identity_with_equal_endpoints():
    A = njac(F2, 1)
    one_bar = {("1", "1"): F2.one}
    assert obstruction_o1(A, truncated_polynomial(F2, 3), {}, {},
                          one_bar).is_zero


def test_o1_distinguishes_lifts_differing_by_x_t2():
    A = njac(F2, 1)
    one_bar = {("1", "1"): F2.one}
    shifted = {("x1", "t2"): F2.one}
    cls = obstruction_o1(A, truncated_polynomial(F2, 3), {}, shifted, one_bar)
    assert not cls.is_zero
    assert cls.vec == {("x1", "t2"): F2.one}


def test_o1_soundness_against_brute_morphism_lifting():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    ext = setup.extension
    setup_bar = DeformationSetup(A, ext.Rbar)
    one_bar = {("1", "1"): F2.one}
    upstairs = setup.enumerate_mc()
    for a1 in upstairs:
        for a2 in upstairs:
            if vec_clean(vec_sub(ext.project(a1), ext.project(a2))):
                continue
            f_bar = dict(one_bar)
            if dg_twisted_oracle(setup_bar, ext.project(a1),
                                 ext.project(a2), f_bar):
                continue
            cls = obstruction_o1(A, R, a1, a2, f_bar)
            assert cls.is_zero == \
                brute_morphism_lift_exists(A, R, a1, a2, f_bar)


def test_o1_equivariance_under_fiber_translation():
    """Translating an endpoint lift by a kernel cocycle shifts the class.

    Moving the target adds the cocycle's class; moving the source
    subtracts it.  Checked over F3 so the two directions differ.
    """
    A = njac(F3, 1)
    R = truncated_polynomial(F3, 3)
    one_bar = {("1", "1"): F3.one}
    eta = {("x1", "t2"): F3.one}
    base = obstruction_o1(A, R, {}, {}, one_bar)
    ext = base.extension
    moved_target = obstruction_o1(A, R, {}, eta, one_bar)
    shifted = dict(base.vec)
    vec_add(shifted, eta)
    assert moved_target.same_class_as(
        type(base)(ext, vec_clean(shifted), 1))
    moved_source = obstruction_o1(A, R, eta, {}, one_bar)
    shifted = dict(base.vec)
    vec_add(shifted, eta, -F3.one)
    assert moved_source.same_class_as(
        type(base)(ext, vec_clean(shifted), 1))


def test_o1_refuses_non_morphism_downstairs():
    A = njac(F2, 1)
    one_bar = {("1", "1"): F2.one}
    with pytest.raises(HypothesisNotMet):
        obstruction_o1(A, truncated_polynomial(F2, 3), {},
                       {("x1", "t"): F2.one}, one_bar)


def test_o1_refuses_a_downstairs_vector_that_is_not_a_gauge_element():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    beta = {("x", "t2"): F2.one}
    assert not mc_residual(A, R, beta)
    # the true identity downstairs gives a nonzero class
    assert not obstruction_o1(A, R, {}, beta, {("1", "1"): F2.one}).is_zero
    # {} is not 1 + u, and x*t2 does not live over R/t^2
    for f_bar in ({}, {("1", "1"): F2.one, ("x", "t2"): F2.one}):
        with pytest.raises(ValueError):
            obstruction_o1(A, R, {}, beta, f_bar)


def test_o0_refuses_a_foreign_label_by_name():
    A = njac(F2, 1)
    f1 = {("1", "1"): F2.one}
    f2 = {("1", "1"): F2.one, ("zz", "t"): F2.one}
    with pytest.raises(ValueError, match="zz"):
        obstruction_o0(A, truncated_polynomial(F2, 3), {}, {}, f1, f2)


def test_tower_projection_refuses_a_base_label_outside_r():
    ext = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3)).extension
    assert ext.project({("x1", "t2"): F2.one}) == {}
    with pytest.raises(ValueError, match="t9"):
        ext.project({("x1", "t9"): F2.one})


def test_o0_zero_for_equal_lifts_and_nonzero_for_distinct_orbits():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    f1 = {("1", "1"): F2.one}
    f2 = {("1", "1"): F2.one, ("1", "t2"): F2.one}
    assert obstruction_o0(A, R, {}, {}, f1, dict(f1)).is_zero
    verdict = obstruction_o0(A, R, {}, {}, f1, f2)
    assert not verdict.is_zero
    setup = DeformationSetup(A, R)
    hs = HomSet(setup, {}, {})
    assert (hs.classify(f1) == hs.classify(f2)) == verdict.is_zero


def test_o0_matches_orbit_equality_exhaustively():
    A = pq_algebra(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {}
    hs = HomSet(setup, alpha, alpha)
    lifts = [g for g in brute_morphism_vectors(setup, alpha, alpha)
             if not vec_clean(vec_sub(setup.extension.project(g),
                                      {("1", "1"): F2.one}))]
    assert len(lifts) > 1
    for f1 in lifts:
        for f2 in lifts:
            verdict = obstruction_o0(A, R, alpha, alpha, f1, f2)
            assert verdict.is_zero == (hs.classify(f1) == hs.classify(f2))


def test_o0_coboundary_translation_fixes_the_orbit():
    A = xy(F2)
    R = negative_base(F2)
    setup = DeformationSetup(A, R)
    f1 = dict(setup.one_vec)
    zeta = {("1", "f"): F2.one}
    boundary = dg_twisted_oracle(setup, {}, {}, zeta)
    assert boundary == {("1", "e"): F2.one}
    f2 = dict(f1)
    vec_add(f2, boundary)
    verdict = obstruction_o0(A, R, {}, {}, f1, vec_clean(f2))
    assert verdict.is_zero


def test_o0_rejects_lifts_of_different_morphisms():
    A = njac(F2, 1)
    f1 = {("1", "1"): F2.one}
    f2 = {("1", "1"): F2.one, ("1", "t"): F2.one}
    with pytest.raises(ValueError):
        obstruction_o0(A, truncated_polynomial(F2, 3), {}, {}, f1, f2)


# ---------------------------------------------------------------------------
# order-by-order lifting


def test_lift_xy_fails_at_level_two_with_the_recorded_class():
    out = lift_mc(xy(F2), truncated_polynomial(F2, 3), {("x", "t"): F2.one})
    assert not out.ok
    assert out.level == 2
    assert set(out.obstruction.vec) == {("y", "t2")}


def test_lift_zero_gives_zero():
    out = lift_mc(xy(F2), truncated_polynomial(F2, 3), {})
    assert out.ok and out.element == {}


def test_lift_njac_always_succeeds():
    A = njac(F2, 1)
    for n in (3, 4):
        R = truncated_polynomial(F2, n)
        seed_setup = DeformationSetup(A, truncated_polynomial(F2, 2))
        for alpha0 in seed_setup.enumerate_mc():
            out = lift_mc(A, R, alpha0)
            assert out.ok
            assert DeformationSetup(A, R).mc_residual(out.element) == {}
            assert len(out.trace) == n - 2


def test_lift_failure_level_is_stable_under_deeper_base():
    out = lift_mc(xy(F2), truncated_polynomial(F2, 4), {("x", "t"): F2.one})
    assert not out.ok
    assert out.level == 2


def test_lift_agrees_with_brute_force_existence():
    for field in (F2, F3):
        A = kpoints(field, 2)
        R = truncated_polynomial(field, 3)
        seed_setup = DeformationSetup(A, quotient_by_power(R, 2)[0])
        for alpha0 in seed_setup.enumerate_mc():
            out = lift_mc(A, R, alpha0)
            assert out.ok == brute_lift_exists(A, R, alpha0)


def test_lift_over_the_ground_field_is_trivial():
    out = lift_mc(xy(F2), truncated_polynomial(F2, 1), {})
    assert out.ok and out.element == {}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_cleans_the_seed_at_every_order(n):
    """A seed written with an explicit zero comes back clean, whether the
    chain has one level or several."""
    out = lift_mc(njac(F2, 1), truncated_polynomial(F2, n),
                  {("x1", "t"): F2.zero})
    assert out.ok and out.element == {} and list(out.element) == []
    assert out.level == n and len(out.trace) == n - 2


def test_hom_complex_reads_the_unit_image_as_the_difference():
    """m_1^{alpha,beta}(1) = beta - alpha under a strict unit, on every
    ordered pair of MC elements."""
    setup = DeformationSetup(njac(F3, 1), truncated_polynomial(F3, 3))
    elements = setup.enumerate_mc()
    for alpha in elements:
        for beta in elements:
            hc = HomComplex(setup, alpha, beta)
            assert hc.d_of_one == vec_clean(vec_sub(beta, alpha))
            assert hc.apply(dict(setup.one_vec)) == hc.d_of_one


def test_hom_complex_refuses_an_algebra_without_a_unit():
    setup = DeformationSetup(xy_bare(F2), truncated_polynomial(F2, 3))
    with pytest.raises(HypothesisNotMet, match="strict unit"):
        HomComplex(setup, {}, {})


def test_hom_refuses_an_algebra_whose_unit_is_not_strict():
    """kpoints(F2,1) without its m_2(e1, 1) entry declares a unit that
    is not strict, so m_1^{alpha,beta}(1) is not beta - alpha: the hom
    set from 0 to e1 t^2 is refused, as pi_0 refuses the setup, where
    reading the unit image as the difference counted 4 morphisms (the
    strictly unital algebra has none between them).  A direct
    gauge_part call is refused by the same gate."""
    A = kpoints(F2, 1)
    ops = A.m.copy()
    ops.set(2, ("e1", A.unit), {})
    B = AInfAlgebra(A.space, F2, ops, arity_bound=A.arity_bound, unit=A.unit)
    R = truncated_polynomial(F2, 3)
    beta = {("e1", "t2"): F2.one}
    assert MCGroupoid(DeformationSetup(A, R)).hom({}, beta).is_empty()
    setup = DeformationSetup(B, R)
    assert setup.is_mc({}) and setup.is_mc(beta)
    for refused in (lambda: MCGroupoid(setup).hom({}, beta),
                    lambda: HomSet(setup, {}, beta),
                    lambda: pi0(B, R),
                    lambda: setup.gauge_part(dict(setup.one_vec))):
        with pytest.raises(HypothesisNotMet, match="strict unit"):
            refused()


# ---------------------------------------------------------------------------
# pushforward and invariance


def test_pushforward_along_identity_fixes_everything():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    f = identity_morphism(A)
    setup = DeformationSetup(A, R)
    for alpha in setup.enumerate_mc():
        assert pushforward_mc(f, R, alpha) == alpha


def test_pushforward_along_dg_map_is_f1_tensor_id():
    A = xy(F2)
    C = golden_dg_pair(F2)[0]
    f = cone_inclusion(A, C)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    for alpha in setup.enumerate_mc():
        image = pushforward_mc(f, R, alpha)
        expected = {}
        for (a, r), c in alpha.items():
            for out_a, cc in f.eval_f((a,)).items():
                vec_add(expected, {(out_a, r): c * cc})
        assert image == vec_clean(expected)


def test_pushforward_certifies_mc_on_golden_instances():
    for A, C in zip((xy(F2), kpoints(F2, 1)), golden_dg_pair(F2)):
        f = cone_inclusion(A, C)
        R = truncated_polynomial(F2, 3)
        setup = DeformationSetup(A, R)
        target = DeformationSetup(C, R)
        for alpha in setup.enumerate_mc():
            assert target.mc_residual(pushforward_mc(f, R, alpha)) == {}


def test_pushforward_refuses_non_strictly_unital():
    A = xy(F2)
    comps = StructureMaps()
    comps.set(1, ("x",), {"x": F2.one})
    comps.set(1, ("y",), {"y": F2.one})
    f = AInfMorphism(A, A, comps, arity_bound=1, strict_unital=True)
    with pytest.raises(HypothesisNotMet):
        pushforward_mc(f, truncated_polynomial(F2, 3), {})


def test_pushforward_morphism_lands_in_morphisms():
    for field in (F2, F3):
        A = xy(field)
        C = golden_dg_pair(field)[0]
        f = cone_inclusion(A, C)
        R = truncated_polynomial(field, 3)
        setup = DeformationSetup(A, R)
        target = DeformationSetup(C, R)
        ga = MCGroupoid(setup)
        gc = MCGroupoid(target)
        elements = setup.enumerate_mc()
        for a in elements:
            for b in elements:
                hs = ga.hom(a, b)
                if hs.is_empty():
                    continue
                fa = pushforward_mc(f, R, a)
                fb = pushforward_mc(f, R, b)
                th = gc.hom(fa, fb)
                for orb in hs.orbits():
                    w = pushforward_morphism(f, R, a, b, orb.vector())
                    assert th.contains_vector(w)


def test_pushforward_morphism_respects_composition():
    A = pq_algebra(F2)
    f = identity_morphism(A)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    groupoid = MCGroupoid(setup)
    elements = setup.enumerate_mc()
    a, b = elements[0], elements[1]
    g1 = groupoid.hom(a, b).orbits()[0]
    g2 = groupoid.hom(b, a).orbits()[0]
    comp = groupoid.compose(g1, g2)
    pushed = pushforward_morphism(f, R, a, a, comp.vector())
    assert groupoid.hom(a, a).classify(pushed) == comp


def _pushforward_cases():
    """(f, R) pairs of the pushforward tests, minimal models included."""
    cases = [(identity_morphism(xy(F2)), truncated_polynomial(F2, 3)),
             (identity_morphism(pq_algebra(F2)), truncated_polynomial(F2, 3))]
    for field in (F2, F3):
        cases.append((cone_inclusion(xy(field), golden_dg_pair(field)[0]),
                      truncated_polynomial(field, 3)))
    cases.append((cone_inclusion(kpoints(F2, 1), golden_dg_pair(F2)[1]),
                  truncated_polynomial(F2, 3)))
    for C in golden_dg_pair(F2):
        cases.append((minimal_model(C, 4)[1], truncated_polynomial(F2, 3)))
    # f_2, f_3 and f_4 are nonzero here, and m^3 = 0 lets f_2 contribute
    cases.append((minimal_model(random_instance(F3, 1)[0], 4)[1],
                  truncated_polynomial(F3, 3)))
    return cases


def test_eval_f_tensor_matches_the_regrouping_oracle(monkeypatch):
    """Every f x mu_R evaluation of the pushforwards equals the old loop.

    So does every pushforward, item for item, against the insertion
    loops it replaced.
    """
    calls = []
    real = mc_module._eval_f_tensor

    def spy(f, R, vecs):
        out = real(f, R, vecs)
        calls.append((f, R, vecs, out))
        return out

    monkeypatch.setattr(mc_module, "_eval_f_tensor", spy)
    for f, R in _pushforward_cases():
        setup = DeformationSetup(f.source, R)
        groupoid = MCGroupoid(setup)
        elements = setup.enumerate_mc()
        for a in elements:
            assert list(pushforward_mc(f, R, a).items()) == \
                list(pushforward_mc_oracle(f, R, a).items())
        for a in elements[:4]:
            for b in elements[:4]:
                for orb in groupoid.hom(a, b).orbits():
                    g = orb.vector()
                    got = pushforward_morphism(f, R, a, b, g)
                    want = pushforward_morphism_oracle(setup, f, R, a, b, g)
                    assert list(got.items()) == list(want.items())
    assert any(f.arity_bound > 1 and len(vecs) > 1 and out
               for f, _, vecs, out in calls)
    for f, R, vecs, out in calls:
        assert list(out.items()) == \
            list(eval_f_tensor_oracle(f, R, vecs).items())


@pytest.mark.parametrize("field", [F3, Q], ids=str)
def test_eval_f_tensor_matches_the_regrouping_oracle_on_a_graded_base(field):
    """The same on basis tuples over k[t]/t^3 with deg t = -1.

    The bases of the pushforward tests sit in degree 0, where the
    regrouping sign is always +1; here it is not.
    """
    _, f = minimal_model(random_instance(field, 1)[0], 4)
    R = truncated_polynomial(field, 3, deg=-1)
    labels = [(a, r) for a in f.source.space.labels
              for r in R.algebra.space.labels]
    hits = 0
    for n in (2, 3):
        for args in iter_product(labels, repeat=n):
            vecs = [{l: field(2)} for l in args]
            out = mc_module._eval_f_tensor(f, R, vecs)
            assert list(out.items()) == \
                list(eval_f_tensor_oracle(f, R, vecs).items())
            hits += bool(out)
    assert hits


def test_invariance_identity():
    rep = invariance_check(identity_morphism(xy(F2)),
                           truncated_polynomial(F2, 3))
    assert rep.ok
    assert rep.pi0_counts == (2, 2)


def test_invariance_cone_inclusions():
    R = truncated_polynomial(F2, 3)
    for A, C in zip((xy(F2), kpoints(F2, 1)), golden_dg_pair(F2)):
        rep = invariance_check(cone_inclusion(A, C), R)
        assert rep.ok
        assert rep.pi0_counts[0] == rep.pi0_counts[1]
        for d1, d2 in rep.hom_dims:
            assert d1 == d2


def test_invariance_refuses_non_quasi_iso():
    A = xy(F2)
    comps = StructureMaps()
    comps.set(1, ("1",), {"1": F2.one})
    collapse = AInfMorphism(A, A, comps, arity_bound=1, strict_unital=True)
    with pytest.raises(HypothesisNotMet):
        invariance_check(collapse, truncated_polynomial(F2, 3))


def test_invariance_builds_one_setup_per_side(monkeypatch):
    """The pushforward of every MC element reuses the two setups.

    Over k[t]/t^2 there is no lower tower level, so that is one setup
    per side for all 9 elements.  Over k[t]/t^3 the same case builds 4,
    but its hom-count loop takes about 15 s.
    """
    built = []
    original = DeformationSetup.__init__

    def counting(self, A, R):
        built.append(R.nu)
        original(self, A, R)

    _, f = minimal_model(random_instance(F3, 1)[0], 4)
    monkeypatch.setattr(DeformationSetup, "__init__", counting)
    rep = invariance_check(f, truncated_polynomial(F3, 2))
    assert rep.ok and rep.pi0_counts == (9, 9)
    assert built == [2, 2]


def test_invariance_report_is_deterministic():
    R = truncated_polynomial(F2, 3)
    f = cone_inclusion(xy(F2), golden_dg_pair(F2)[0])
    rep1 = invariance_check(f, R)
    rep2 = invariance_check(f, R)
    assert rep1.pi0_counts == rep2.pi0_counts
    assert rep1.hom_counts == rep2.hom_counts
    assert rep1.hom_dims == rep2.hom_dims


# ---------------------------------------------------------------------------
# the one insertion sum against the loops it replaced


def _draw(rng, field, labels):
    span = field.p or 5
    return vec_clean({l: field(rng.randrange(span) - span // 2)
                      for l in labels if rng.random() < 0.6})


@pytest.mark.parametrize("field, seed", [(F3, 1), (Q, 1), (Q, 3)], ids=str)
def test_pushforwards_match_the_oracles_with_inner_insertions(field, seed):
    """f(beta^i, g, alpha^j) with i, j > 0 survives only past m^3 = 0.

    Over k[t]/t^4 the minimal models with f_3 nonzero have such terms;
    g is any vector of A x R and alpha, beta any in (A x m)^1, since
    the sum is defined on them all.
    """
    _, f = minimal_model(random_instance(field, seed)[0], 4)
    R = truncated_polynomial(field, 4)
    setup = DeformationSetup(f.source, R)
    deg1 = setup.ideal_labels_of_degree(1)
    rng = Random(seed)
    inner = 0
    for _ in range(20):
        a, b = _draw(rng, field, deg1), _draw(rng, field, deg1)
        g = _draw(rng, field, setup.T.space.labels)
        got = pushforward_morphism(f, R, a, b, g)
        want = pushforward_morphism_oracle(setup, f, R, a, b, g)
        assert list(got.items()) == list(want.items())
        inner += bool(eval_f_tensor_oracle(f, R, [b, g, a]))
    assert inner
    if field.p:
        for a in setup.enumerate_mc()[:40]:
            assert list(pushforward_mc(f, R, a).items()) == \
                list(pushforward_mc_oracle(f, R, a).items())


@pytest.mark.parametrize("field", [F2, F3, Q], ids=str)
def test_mc_residual_and_category_ops_match_the_insertion_loop_oracles(field):
    """On seeded draws from random_instance, MC or not, up to n = 2."""
    rng = Random(11)
    hits = 0
    for seed in range(12):
        A, R, _ = random_instance(field, seed)
        setup = DeformationSetup(A, R)
        deg1 = setup.ideal_labels_of_degree(1)
        for _ in range(3):
            alpha = _draw(rng, field, deg1)
            res = setup.mc_residual(alpha)
            assert list(res.items()) == \
                list(mc_residual_oracle(setup, alpha).items())
            objects = [_draw(rng, field, deg1) for _ in range(3)]
            xs = [_draw(rng, field, setup.T.space.labels) for _ in range(2)]
            for n in (1, 2):
                # objects may fail the MC equation: call the engine
                got = setup._insertions(setup.T.eval_m_vectors,
                                        A.arity_bound, objects[:n + 1], xs[:n])
                assert list(got.items()) == list(category_op_oracle(
                    setup, objects[:n + 1], xs[:n]).items())
                hits += bool(got)
    assert hits


# ---------------------------------------------------------------------------
# malformed arguments


@pytest.mark.parametrize("call, name", [
    (lambda: square_zero(F2, [("u", 0)], d={"u": {"zz": 1}}), "'zz'"),
    (lambda: koszul_probe(kpoints(Q, 2), 1.5), "weight bound N"),
    (lambda: truncated_polynomial(F2, 2.5), "length n"),
    (lambda: quotient_by_power(truncated_polynomial(F2, 3), 1.5), "power n"),
    (lambda: enumerate_mc(kpoints(F2, 1), truncated_polynomial(F2, 3),
                          cap=None), "cap"),
    (lambda: pi0(kpoints(F2, 1), kpoints(F2, 1)), "base R"),
    (lambda: lift_mc(xy(F2), truncated_polynomial(F2, 3), [("x", "t")]),
     "element"),
    (lambda: check_ainf_axioms(kpoints(F2, 1), "3"), "n_max"),
    (lambda: check_ainf_axioms(kpoints(F2, 1), 2.5), "n_max"),
    (lambda: check_ainf_morphism(identity_morphism(kpoints(F2, 1)), "3"),
     "n_max"),
    (lambda: TwistedModule(DeformationSetup(
        xy(F2), truncated_polynomial(F2, 3)), {}).check_module_axioms("3"),
     "n_max"),
    (lambda: minimal_model(golden_dg_pair(F2)[0], "3"), "arity_max"),
    (lambda: minimal_model(golden_dg_pair(F2)[0], 2.5), "arity_max"),
    (lambda: prorep_compare(njac(F2, 1), truncated_polynomial(F2, 3), "3"),
     "order N"),
], ids=["unknown-label", "float-order", "float-length", "float-power",
        "cap-none", "base-not-artinian", "element-not-dict",
        "axioms-str-arity", "axioms-float-arity", "morphism-str-arity",
        "module-str-arity", "model-str-arity", "model-float-arity",
        "compare-str-order"])
def test_malformed_arguments_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call()
