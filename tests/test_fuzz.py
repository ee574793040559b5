"""Seeded fuzzing of the public entry points, and the refusals it pins.

Mutated JSON descriptions, constructor arguments, Maurer-Cartan
elements and gauge vectors go to the entry points that take them.
Every call must return a value or raise ValueError, HypothesisNotMet or
MathCheckFailure.  Scalar's own refusals are exempt: the TypeError it
raises on a float or a bool and the FieldMismatch it raises on mixed
fields.  Field arguments are not replaced by junk (their documented
type is Field).  An algebra argument may be replaced by junk, a base,
its StructureMaps or its Field, and a base may be swapped for the bare
algebra under it: those are the mistakes a caller makes.

The mutations come from random.Random with fixed seeds and the inputs
stay small, so the file runs in seconds in one process.
"""

import copy
import random
import re

import pytest

from barmc.ainfinity import (
    AInfAlgebra,
    StructureMaps,
    check_ainf_axioms,
    check_ainf_morphism,
    cohomology_algebra,
    compose_morphisms,
    identity_morphism,
    tensor_with_dg,
    unitize,
)
from barmc.artin import (
    fiber_product,
    quotient_by_power,
    square_zero,
    truncated_polynomial,
    validate_artinian,
)
from barmc.bar import (
    BarTruncation,
    SHatCohomology,
    dual_dg_algebra,
    koszul_probe,
    universal_twisting_cochain,
)
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import (
    acyclic_cone,
    kpoints,
    ngr,
    njac,
    random_instance,
    xy,
    xy_bare,
)
from barmc.linalg import GradedSpace
from barmc.mc import (
    DeformationSetup,
    HomComplex,
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
from barmc.scalars import Field, FieldMismatch
from barmc.serialize import (
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    vector_from_json,
)
from barmc.transfer import build_splitting, minimal_model
from barmc.twisting import (
    CorepresentingHom,
    H0Presentation,
    ModuleIsomorphism,
    TwistedModule,
    UniversalDeformation,
    algebra_maps,
    invert_unit,
    prorep_compare,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)

ALLOWED = (ValueError, HypothesisNotMet, MathCheckFailure)

# values a mutation puts where something else was due
JUNK = (None, True, -1, 0, 1, 2, 3, 1.5, "x", "2", "", [], [1, "x"], {},
        {"x": 1}, ("x", "t"))


def settles(call, *args):
    """call(*args), or None when it raises an allowed exception.

    Anything else fails the test, naming the call and its arguments.
    """
    try:
        return call(*args)
    except ALLOWED + (FieldMismatch,):
        return None
    except Exception as exc:
        if type(exc) is TypeError and str(exc).startswith("refusing to treat"):
            return None
        raise AssertionError("%s%r raised %r" % (
            getattr(call, "__name__", call), args, exc)) from exc


# ---------------------------------------------------------------------------
# JSON descriptions


def _slots(doc):
    """Every (container, key) in a JSON document, depth first."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = (sorted(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


def _strings(doc):
    return sorted({v for c, k in _slots(doc) for v in [c[k]]
                   if isinstance(v, str)})


def mutate_json(rng, doc):
    """One to three edits: replace, delete, duplicate or relabel a slot."""
    doc = copy.deepcopy(doc)
    strings = _strings(doc) + ["zz"]
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc)
        if not slots:
            return rng.choice(JUNK)
        node, key = rng.choice(slots)
        op = rng.randrange(4)
        if op == 0:
            node[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == 1:
            del node[key]
        elif op == 2 and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        else:
            node[key] = rng.choice(strings)
    return doc


ALGEBRAS = [lambda: kpoints(F2, 1), lambda: njac(F3, 2), lambda: xy(Q),
            lambda: truncated_polynomial(F3, 3).algebra,
            lambda: tensor_with_dg(kpoints(F2, 1), acyclic_cone(F2))]


def test_mutated_algebra_descriptions():
    loaded = 0
    for case, make in enumerate(ALGEBRAS):
        doc = algebra_to_json(make())
        rng = random.Random(case)
        for _ in range(200):
            B = settles(algebra_from_json, mutate_json(rng, doc))
            if B is None:
                continue
            loaded += 1
            settles(check_ainf_axioms, B, 3)
            settles(koszul_probe, B, 2)
            settles(enumerate_mc, B, truncated_polynomial(B.field, 2), 64)
    assert loaded  # some mutants are valid descriptions and go further


def test_mutated_vector_and_element_documents():
    alpha = {(("x", 1), "t"): F3(2), ("y", ("h", 0, 2)): F3(1),
             ("x", "t2"): F3(1)}
    doc = element_to_json(alpha)
    rng = random.Random(11)
    for _ in range(500):
        mutant = mutate_json(rng, doc)
        settles(vector_from_json, F3, mutant)
        settles(element_from_json, F3, mutant)


# ---------------------------------------------------------------------------
# constructor and entry-point arguments


def _calls():
    """(entry point, arguments, positions that may be mutated)."""
    R3 = truncated_polynomial(F3, 3)
    R2 = truncated_polynomial(F2, 3)
    A1, A2 = njac(F2, 1), kpoints(F2, 1)
    return [
        (kpoints, (F2, 2), (1,)),
        (njac, (F3, 2), (1,)),
        (ngr, (F2, 3, 1), (1, 2)),
        (truncated_polynomial, (F2, 3, 0, "t"), (1, 2, 3)),
        (square_zero, (F3, [("m1", 0), ("m2", -1)]), (1,)),
        (random_instance, (F3, 4), (1,)),
        (Field.prime, (5,), (0,)),
        (quotient_by_power, (R3, 2), (0, 1)),
        (fiber_product, (R2, truncated_polynomial(F2, 2, var="s")), (0, 1)),
        (dual_dg_algebra, (A2, 2), (0, 1)),
        (BarTruncation, (A2, 2), (0, 1)),
        (koszul_probe, (A2, 2), (0, 1)),
        (SHatCohomology, (A2, 2), (0, 1)),
        (H0Presentation, (A2, 2), (0, 1)),
        (check_ainf_axioms, (A2, 3), (0, 1)),
        (DeformationSetup, (A1, R2), (0, 1)),
        (mc_residual, (A1, R2, {}), (0, 1, 2)),
        (enumerate_mc, (A1, R2, 64), (0, 1, 2)),
        (pi0, (A1, R2, 64), (0, 1, 2)),
        (lift_mc, (xy(F2), R2, {}, 1), (0, 1, 2, 3)),
        (obstruction_o2, (xy(F2), R2, {}, 1), (0, 1, 2, 3)),
        (prorep_compare, (A1, R2, 3, 64), (0, 1, 2, 3)),
        (UniversalDeformation, (kpoints(Q, 1), 2), (0, 1)),
        (UniversalDeformation, (random_instance(F3, 7)[0], 3), (0, 1)),
        (minimal_model, (tensor_with_dg(kpoints(F2, 1), acyclic_cone(F2)),
                         3), (0, 1)),
        (tensor_with_dg, (A2, acyclic_cone(F2)), (0, 1)),
    ]


def _replacements(value):
    """What a mutation may put in place of value."""
    out = list(JUNK)
    if hasattr(value, "algebra"):  # a base: offer the bare algebra too
        out.append(value.algebra)
    if isinstance(value, AInfAlgebra):  # an algebra: offer a base too
        out += [truncated_polynomial(value.field, 2), value.m, value.field]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_mutated_entry_point_arguments(seed):
    rng = random.Random(seed)
    for call, args, mutable in _calls():
        settles(call, *args)  # the unmutated call settles as well
        for _ in range(30):
            mutant = list(args)
            for pos in rng.sample(mutable, rng.randint(1, len(mutable))):
                mutant[pos] = rng.choice(_replacements(args[pos]))
            settles(call, *mutant)


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and gauge vectors


def mutate_vector(rng, v, labels):
    """One to three edits of a label -> F3 scalar dict, or a non-dict."""
    if rng.random() < 0.1:
        return rng.choice(JUNK)
    v = dict(v)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0 and v:
            l = rng.choice(sorted(v, key=repr))
            v[l] = F3(rng.randrange(3))
        elif op == 1:
            v[rng.choice(labels)] = F3(rng.randrange(1, 3))
        elif op == 2:
            v[rng.choice([("zz", "t"), ("x1", "zz"), "x1", 3])] = F3.one
        elif op == 3 and v:
            l = rng.choice(sorted(v, key=repr))
            v[l] = rng.choice([1, 1.5, None, "1", F2.one, Q.one])
        elif v:
            del v[rng.choice(sorted(v, key=repr))]
    return v


def test_mutated_mc_elements():
    A, R = njac(F3, 1), truncated_polynomial(F3, 3)
    setup = DeformationSetup(A, R)
    labels = list(setup.T.space.labels)
    elements = setup.enumerate_mc()
    groupoid = MCGroupoid(setup)
    S = dual_dg_algebra(A, 3)
    module = TwistedModule(setup, {}, check=False)
    extension = setup.extension
    rng = random.Random(5)
    for _ in range(150):
        alpha = mutate_vector(rng, rng.choice(elements), labels)
        beta = rng.choice(elements)
        settles(setup.mc_residual, alpha)
        settles(setup.is_mc, alpha)
        settles(extension.project, alpha)
        settles(lift_mc, A, R, alpha)
        settles(obstruction_o2, A, R, alpha)
        settles(CorepresentingHom, setup, alpha, S)
        settles(TwistedModule, setup, alpha, False)
        settles(HomComplex, setup, alpha, beta)
        settles(groupoid.hom, alpha, beta)
        x = mutate_vector(rng, {labels[1]: F3.one}, labels)
        a_vecs = rng.choice([[{"x1": F3.one}], [x], x, 3, None, ()])
        settles(module.op, x, a_vecs)
        settles(module.differential, x)
        settles(module.right_action, x, rng.choice([{"t": F3.one}, x, 3]))


def test_mc_memory_refuses_what_check_mc_input_refuses(monkeypatch):
    """A known element passes is_mc at once, even up to dict order and
    explicit zeros on valid labels, with no second residual; a copy with
    an int value, an F2 value or a zero outside A x m is still refused."""
    A, R = njac(F3, 2), truncated_polynomial(F3, 3)
    setup = DeformationSetup(A, R)
    labels = setup.ideal_labels_of_degree(1)
    alpha = next(a for a in enumerate_mc(A, R) if 2 <= len(a) < len(labels)
                 and F3.one in a.values())
    calls = []
    residual = DeformationSetup.mc_residual

    def counted(self, a):
        calls.append(a)
        return residual(self, a)

    monkeypatch.setattr(DeformationSetup, "mc_residual", counted)
    assert len(alpha) >= 2 and setup.is_mc(alpha) and len(calls) == 1
    first = next(l for l, c in alpha.items() if c == F3.one)
    spare = next(l for l in labels if l not in alpha)
    outside = next(l for l in setup.T.space.labels if l not in labels)
    for bad in ({**alpha, first: alpha[first].val},
                {**alpha, first: F2.one},
                {**alpha, outside: F3.zero}):
        with pytest.raises(ValueError):
            setup.is_mc(bad)
    assert setup.is_mc(dict(reversed(alpha.items())))
    assert setup.is_mc({**alpha, spare: F3.zero})
    assert setup.is_mc({spare: F3.zero, **alpha})
    assert len(calls) == 1
    report = pi0(A, R)
    member = next(a for cls in report.classes for a in cls if a)
    assert report.class_index_of(member) is not None
    for field in (Q, Field.prime(5)):
        assert report.class_index_of(
            {l: field(c.val) for l, c in member.items()}) is None


def test_mutated_gauge_vectors():
    A, R = njac(F3, 1), truncated_polynomial(F3, 3)
    setup = DeformationSetup(A, R)
    below = setup.below
    labels = list(setup.T.space.labels)
    elements = setup.enumerate_mc()
    groupoid = MCGroupoid(setup)
    rng = random.Random(7)
    for _ in range(150):
        a, b = rng.choice(elements), rng.choice(elements)
        homset = groupoid.hom(a, b)
        g = mutate_vector(rng, setup.one_vec, labels)
        g_bar = mutate_vector(rng, below.one_vec, list(below.T.space.labels))
        settles(setup.gauge_part, g)
        settles(homset.classify, g)
        settles(homset.contains_vector, g)
        settles(obstruction_o1, A, R, a, b, g_bar)
        settles(obstruction_o0, A, R, a, a, setup.one_vec, g)


# ---------------------------------------------------------------------------
# refusals that used to surface as TypeError or AttributeError


def _prorep_on_bare_algebra():
    R = truncated_polynomial(F2, 3)
    prorep_compare(njac(F2, 1), R.algebra, 3)


def _gauge_part_of_int():
    DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3)).gauge_part(3)


def _o1_of_int():
    obstruction_o1(njac(F2, 1), truncated_polynomial(F2, 3), {}, {}, 5)


def _project_none_coefficient():
    ext = DeformationSetup(njac(F3, 1), truncated_polynomial(F3, 3)).extension
    ext.project({("1", "1"): None, ("x1", "t"): F3.one})


def _op_on_int_slots():
    setup = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 2))
    TwistedModule(setup, {}).op({("x1", "1"): F2.one}, 3)


def _category_op_short_of_objects():
    setup = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 2))
    setup.category_op([{}], [{}, {}])


def _corepresenting_on(S):
    setup = DeformationSetup(njac(F2, 2), truncated_polynomial(F2, 3))
    return CorepresentingHom(setup, {("x1", "t"): F2.one}, S)


def _corepresenting_apply(vec):
    _corepresenting_on(dual_dg_algebra(njac(F2, 2), 3)).apply(vec)


def _maps_into_poly_f2(A):
    """A presentation of H^0(S_3) of A against a base over F2."""
    return algebra_maps(H0Presentation(A, 3), truncated_polynomial(F2, 3))


def _groupoid():
    return MCGroupoid(DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3)))


def _pushforward_identity(A, R, alpha, g):
    return pushforward_morphism(identity_morphism(A), R, alpha, alpha, g)


def test_pushforward_morphism_refuses_ends_that_are_not_mc():
    """alpha = x t is not MC over k[t]/t^3 (pushforward_mc refuses it
    too); pushforward_morphism refuses it before evaluating anything."""
    A, R = xy(F2), truncated_polynomial(F2, 3)
    alpha = {("x", "t"): F2.one}
    assert not DeformationSetup(A, R).is_mc(alpha)
    with pytest.raises(HypothesisNotMet, match="defined on MC elements"):
        _pushforward_identity(A, R, alpha, {("1", "1"): F2.one})


def _algebra_with_op_above_bound():
    ops = StructureMaps({3: {("a", "a", "a"): {"a": Q.one}}})
    AInfAlgebra(GradedSpace([("a", 1)]), Q, ops, arity_bound=2)


@pytest.mark.parametrize("call, named", [
    (_prorep_on_bare_algebra, "ArtinianDGAlgebra"),
    (_gauge_part_of_int, "3"),
    (_o1_of_int, "5"),
    (_op_on_int_slots, "3"),
    (_project_none_coefficient, "None at ('1', '1')"),
    (lambda: kpoints(F2, "2"), "'2'"),
    (lambda: random_instance(F2, "x"), "'x'"),
    (lambda: truncated_polynomial(F2, 3, deg="a"), "'a'"),
    (lambda: njac(F2, -1), "nonnegative"),
    (lambda: kpoints(F2, -1), "nonnegative"),
    (lambda: ngr(F2, "3", 1), "'3'"),
    (lambda: square_zero(F2, [("e", "a")]), "'a'"),
    (lambda: UniversalDeformation(kpoints(Q, 1), 0), "order N >= 1, got N = 0"),
    (lambda: DeformationSetup(njac(F2, 1), truncated_polynomial(F3, 2)),
     "different fields"),
    (_category_op_short_of_objects, "needs n+1 objects"),
    (lambda: invert_unit(truncated_polynomial(F3, 3), {"t": F3.one}),
     "not a unit"),
    (lambda: fiber_product(truncated_polynomial(F2, 2),
                           truncated_polynomial(F3, 2)), "different fields"),
    (lambda: tensor_with_dg(kpoints(F2, 2), truncated_polynomial(F3, 2).algebra),
     "different fields"),
    (lambda: unitize(kpoints(F2, 2), "e1"), "already used"),
    (lambda: BarTruncation(xy_bare(Q), 2), "augmented"),
    (lambda: universal_twisting_cochain(xy_bare(Q)), "augmented"),
    (lambda: compose_morphisms(identity_morphism(kpoints(F2, 2)),
                               identity_morphism(njac(F2, 1))),
     "do not compose"),
    (lambda: AInfAlgebra(GradedSpace([("u", 1)]), Q, StructureMaps(), unit="u"),
     "must have degree 0"),
    (_algebra_with_op_above_bound, "above the declared bound"),
    (lambda: _corepresenting_on(dual_dg_algebra(xy(F2), 3)),
     "not the dual of the setup's algebra"),
    (lambda: _corepresenting_on(dual_dg_algebra(kpoints(F2, 2), 3)),
     "not the dual of the setup's algebra"),
    (lambda: _corepresenting_on(dual_dg_algebra(njac(F3, 2), 3)),
     "not the dual of the setup's algebra"),
    (lambda: _corepresenting_on(dual_dg_algebra(njac(F2, 2), 3).algebra),
     "not the dual of the setup's algebra"),
    (lambda: _corepresenting_apply({("x1",) * 4: F2.one}),
     "('x1', 'x1', 'x1', 'x1') outside S_3"),
    (lambda: _corepresenting_apply({("zz",): F2.one}), "('zz',) outside S_3"),
    (lambda: _corepresenting_apply({("x1",): None}), "None at ('x1',)"),
    (lambda: _corepresenting_apply({("x1",): 1}), "1 at ('x1',)"),
    (lambda: _maps_into_poly_f2(njac(F3, 2)), "over F3 and the base over F2"),
    (lambda: _maps_into_poly_f2(kpoints(F3, 2)),
     "over F3 and the base over F2"),
    (lambda: algebra_maps(None, truncated_polynomial(F2, 3)),
     "needs an H0Presentation, got NoneType"),
    (lambda: H0Presentation(None, 3), "AInfAlgebra, got NoneType"),
    (lambda: _groupoid().identity(5), "element 5 is not a dict"),
    (lambda: _groupoid().compose("x", "y"), "MCMorphism, got str"),
    (lambda: _groupoid().invert(None), "MCMorphism, got NoneType"),
    (lambda: _pushforward_identity(xy(F2), truncated_polynomial(F2, 3), {},
                                   {("zz", "1"): F2.one}),
     "component ('zz', '1') outside A x R"),
    (lambda: _pushforward_identity(xy(F3), truncated_polynomial(F3, 3), {},
                                   {("1", "1"): F2.one}),
     "is not a scalar over F3"),
    (lambda: koszul_probe(truncated_polynomial(F2, 3), 2),
     "AInfAlgebra, got ArtinianDGAlgebra; for an artinian base pass its "
     ".algebra"),
    (lambda: BarTruncation(None, 2), "AInfAlgebra, got NoneType"),
    (lambda: check_ainf_axioms(StructureMaps(), 2),
     "AInfAlgebra, got StructureMaps"),
    (lambda: DeformationSetup(F2, truncated_polynomial(F2, 3)),
     "AInfAlgebra, got Field"),
    (lambda: pi0("x", truncated_polynomial(F2, 3)), "AInfAlgebra, got str"),
    (lambda: minimal_model(3, 3), "AInfAlgebra, got int"),
    (lambda: tensor_with_dg({}, acyclic_cone(F2)), "AInfAlgebra, got dict"),
    (lambda: tensor_with_dg(kpoints(F2, 1), truncated_polynomial(F2, 2)),
     "AInfAlgebra, got ArtinianDGAlgebra; for an artinian base pass its "
     ".algebra"),
    (lambda: ModuleIsomorphism(_groupoid().setup, None),
     "MCMorphism, got NoneType"),
    (lambda: unitize(5), "AInfAlgebra, got int"),
    (lambda: validate_artinian(5), "AInfAlgebra, got int"),
    (lambda: cohomology_algebra(5), "AInfAlgebra, got int"),
    (lambda: build_splitting(5), "AInfAlgebra, got int"),
    (lambda: compose_morphisms(5, identity_morphism(njac(F2, 1))),
     "AInfMorphism, got int"),
    (lambda: check_ainf_morphism(5, 3), "AInfMorphism, got int"),
    (lambda: pushforward_mc(5, truncated_polynomial(F2, 3), {}),
     "AInfMorphism, got int"),
    (lambda: pushforward_morphism(5, truncated_polynomial(F2, 3), {}, {}, {}),
     "AInfMorphism, got int"),
    (lambda: invariance_check(5, truncated_polynomial(F2, 3)),
     "AInfMorphism, got int"),
], ids=["prorep-bare-algebra", "gauge-part-int", "o1-int", "op-int-slots",
        "project-none",
        "kpoints-str", "random-instance-str", "poly-degree-str",
        "njac-negative", "kpoints-negative", "ngr-str", "square-zero-str",
        "universal-order-zero", "setup-across-fields", "category-op-objects",
        "invert-non-unit", "fiber-product-across-fields",
        "tensor-across-fields", "unitize-used-label", "bar-of-bare",
        "tau-of-bare", "compose-non-composable", "unit-of-degree-one",
        "op-above-arity-bound", "corepresenting-foreign-xy",
        "corepresenting-foreign-kpoints", "corepresenting-foreign-field",
        "corepresenting-not-a-dual",
        "apply-word-too-long", "apply-unknown-word", "apply-none-coefficient",
        "apply-int-coefficient", "maps-across-fields-free",
        "maps-across-fields-related", "maps-of-none", "presentation-of-none",
        "identity-of-int", "compose-of-str", "invert-of-none",
        "pushforward-foreign-label", "pushforward-foreign-field",
        "probe-of-base", "bar-of-none", "axioms-of-maps", "setup-of-field",
        "pi0-of-str", "minimal-model-of-int", "tensor-of-dict",
        "tensor-with-base", "module-iso-of-none", "unitize-of-int",
        "validate-artinian-of-int", "cohomology-algebra-of-int",
        "splitting-of-int", "compose-of-int", "morphism-axioms-of-int",
        "pushforward-mc-of-int", "pushforward-morphism-of-int",
        "invariance-of-int"])
def test_entry_point_refuses_with_value_error(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


@pytest.mark.parametrize("seed, N", [(7, 3), (9, 4), (12, 4)],
                         ids=["m3-seed7", "m4-seed9", "m4-seed12"])
def test_universal_deformation_refuses_the_higher_arity_sign_defect(seed, N):
    """Draws with an m_3 or an m_4 over F3, where tau is not MC over S_N:
    the known sign defect is a refusal naming it with the residual, not
    a MathCheckFailure about the engine's own construction."""
    with pytest.raises(HypothesisNotMet,
                       match=r"not Maurer-Cartan over S_%d \(residual \{.*"
                       r"ROADMAP item 1" % N):
        UniversalDeformation(random_instance(F3, seed)[0], N)


# ---------------------------------------------------------------------------
# ROADMAP item 1: valid input on which two arities meet in one identity


def _reproducer_a(field):
    """Unit, a1 and a2 in degree 1, c in degree 2, with m_2(a1, a2) = c
    and m_3(a1, a1, a1) = -c."""
    ops = StructureMaps()
    ops.set(2, ("a1", "a2"), {"c": field.one})
    ops.set(3, ("a1", "a1", "a1"), {"c": -field.one})
    space = GradedSpace([("a1", 1), ("a2", 1), ("c", 2)])
    return unitize(AInfAlgebra(space, field, ops, arity_bound=3), "1")


def _reproducer_b(field):
    """Unit, a (1), p (2), q (3), r (2) with m_2(a, a) = p, m_2(p, a) = q,
    m_3(a, a, a) = r and m_1(r) = -q: m_1 m_3 cancels the associator."""
    ops = StructureMaps()
    ops.set(1, ("r",), {"q": -field.one})
    ops.set(2, ("a", "a"), {"p": field.one})
    ops.set(2, ("p", "a"), {"q": field.one})
    ops.set(3, ("a", "a", "a"), {"r": field.one})
    space = GradedSpace([("a", 1), ("p", 2), ("q", 3), ("r", 2)])
    return unitize(AInfAlgebra(space, field, ops, arity_bound=3), "1")


PI0_OF_REPRODUCER_A = {3: 189, 5: 1625}


def test_item_one_reproducers_are_valid_input():
    """Both reproducers satisfy the Stasheff identities, so any refusal
    of them as "identity false" is an engine fault."""
    for field in (F3, F5):
        A = _reproducer_a(field)
        assert check_ainf_axioms(A, 6)
        assert (len(pi0(A, truncated_polynomial(field, 4)).classes)
                == PI0_OF_REPRODUCER_A[field.p])
    for field in (F3, Q):
        assert check_ainf_axioms(_reproducer_b(field), 5)


@pytest.mark.xfail(strict=True, raises=MathCheckFailure,
                   reason="ROADMAP item 1 (a): b_n sign defect")
@pytest.mark.parametrize("field, N", [(F3, 3), (F3, 4), (F5, 3), (F5, 4)],
                         ids=["F3-N3", "F3-N4", "F5-N3", "F5-N4"])
def test_comparison_agrees_on_reproducer_a(field, N):
    report = prorep_compare(_reproducer_a(field), truncated_polynomial(field, 4), N)
    count = PI0_OF_REPRODUCER_A[field.p]
    assert report.ok and report.lhs == report.rhs == count


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 1 (b): b_n sign defect")
@pytest.mark.parametrize("field, N", [(F3, 3), (F3, 4), (Q, 3), (Q, 4)],
                         ids=["F3-N3", "F3-N4", "Q-N3", "Q-N4"])
def test_dual_builds_on_reproducer_b(field, N):
    assert dual_dg_algebra(_reproducer_b(field), N).algebra
