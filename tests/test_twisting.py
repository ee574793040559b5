"""Twisting cochains, corepresenting maps, twisted modules, comparison.

The golden algebras are DG, so the twisted differential has the
two-term form d(x) + alpha x and every module operation can be
recomputed by hand from the tensor-algebra tables; the category-style
insertion machinery provides a second, independently signed path to
the same numbers.  Frobenius self-duality of k[t]/t^n pairs the module
with the dual-side module, and the classical comparison is
cross-checked by enumerating algebra maps directly on the adapted
basis of H^0 instead of through the presentation.
"""

import random
import re
from itertools import product as iter_product

import pytest

from barmc import twisting
from barmc.ainfinity import (
    AInfAlgebra,
    StructureMaps,
    check_ainf_axioms,
    unitize,
)
from barmc.artin import (
    ArtinianDGAlgebra,
    fiber_product,
    quotient_by_power,
    square_zero,
    truncated_polynomial,
)
from barmc.bar import (
    DualTruncation,
    SHatCohomology,
    bar_words,
    dual_dg_algebra,
    is_admissible,
    koszul_probe,
)
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import kpoints, njac, random_instance, xy
from barmc.linalg import Complex, GradedSpace, Subspace, vec_add, vec_clean
from barmc.mc import DeformationSetup, HomComplex, HomSet, pi0
from barmc.scalars import Field
from barmc.transfer import minimal_model
from barmc.twisting import (
    CorepresentingHom,
    H0Presentation,
    ModuleIsomorphism,
    TwistedComodule,
    TwistedModule,
    UniversalDeformation,
    algebra_maps,
    conjugation_orbits,
    enumerate_units,
    induced_map,
    invert_unit,
    prorep_compare,
)

from oracles import (
    H0PresentationOracle,
    algebra_maps_oracle,
    all_pairs_dg_map_failure,
    check_tower_compatibility,
    class_coords,
    comodule_ops_oracle,
    corepresenting_table_oracle,
    conjugation_orbits_oracle,
    induced_map_oracle,
    product_table,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


# ---------------------------------------------------------------------------
# oracles


def all_vectors(field, labels):
    for coeffs in iter_product(range(field.p), repeat=len(labels)):
        yield vec_clean({l: field(c) for l, c in zip(labels, coeffs)})


def dg_module_d_oracle(setup, alpha, v):
    """d(x) + alpha x, the two-term twisted differential, by hand."""
    T = setup.T
    out = {}
    vec_add(out, T.eval_m_vectors([v]))
    vec_add(out, T.eval_m_vectors([alpha, v]))
    return vec_clean(out)


def dg_module_m2_oracle(setup, x_vec, a_vec):
    """m_2(x, a x 1) with no insertions; exact for arity-2 algebras."""
    embed = {(a, setup.R.unit): c for a, c in a_vec.items()}
    return vec_clean(setup.T.eval_m_vectors([x_vec, embed]))


def category_module_op(setup, alpha, n, x, rest):
    """The same operation through the generic insertion machinery."""
    one = setup.field.one
    embedded = [{(a, setup.R.unit): one} for a in rest]
    morphisms = list(reversed(embedded)) + [{x: one}]
    return setup.category_op([{}] * n + [alpha], morphisms)


def frobenius_pairing(n):
    """t^j paired with the functional on t^(n-1-j), as a label map."""
    def lab(j):
        return "1" if j == 0 else ("t" if j == 1 else "t%d" % j)
    return {lab(j): lab(n - 1 - j) for j in range(n)}


def brute_h0_maps(rep, R):
    """Algebra maps out of H^0 enumerated on the adapted basis.

    Independent of the generators-and-relations route: a candidate
    assigns an ideal value to every non-unit basis class and survives
    when it multiplies through the full product table.
    """
    field = R.field
    unit_coords = class_coords(rep, {(): field.one})
    assert list(unit_coords.values()) == [field.one]
    unit_idx = next(iter(unit_coords))
    others = [i for i in range(rep.h0.dim) if i != unit_idx]
    table = product_table(rep)
    found = []
    for flat in iter_product(range(field.p),
                             repeat=len(R.ideal_labels) * len(others)):
        phi = {unit_idx: {R.unit: field.one}}
        for k, i in enumerate(others):
            chunk = flat[k * len(R.ideal_labels):(k + 1) * len(R.ideal_labels)]
            phi[i] = vec_clean(
                {l: field(c) for l, c in zip(R.ideal_labels, chunk)})
        ok = True
        for i in range(rep.h0.dim):
            for j in range(rep.h0.dim):
                want = {}
                for k, c in table.get((i, j), {}).items():
                    vec_add(want, phi[k], c)
                if R.multiply(phi[i], phi[j]) != vec_clean(want):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(phi)
    return found


def project_alpha(pi, alpha):
    out = {}
    for (a, r), c in alpha.items():
        for r2, c2 in pi.get(r, {}).items():
            vec_add(out, {(a, r2): c * c2})
    return vec_clean(out)


def project_rvec(pi, v):
    out = {}
    for r, c in v.items():
        vec_add(out, pi.get(r, {}), c)
    return vec_clean(out)


# ---------------------------------------------------------------------------
# fixtures


def pq_algebra(field):
    """Unit, p in degree 0, q = d(p) in degree 1, ideal products zero."""
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
    return square_zero(field, [("e", 0), ("f", -1)], d={"f": {"e": 1}})


def local_noncommutative(field):
    """k<a,b> / (a^2, b^2, ba): local, artinian, ab is not ba."""
    space = GradedSpace([("1", 0), ("a", 0), ("b", 0), ("ab", 0)])
    ops = StructureMaps()
    one = field.one
    for l in space.labels:
        ops.set(2, ("1", l), {l: one})
        if l != "1":
            ops.set(2, (l, "1"), {l: one})
    ops.set(2, ("a", "b"), {"ab": one})
    return ArtinianDGAlgebra(AInfAlgebra(space, field, ops, arity_bound=2,
                                         unit="1"))


def upper_triangular_2x2(field):
    """Upper triangular 2 x 2 matrices: unital but not local."""
    space = GradedSpace([("1", 0), ("h", 0), ("n", 0)])
    ops = StructureMaps()
    one = field.one
    for l in space.labels:
        ops.set(2, ("1", l), {l: one})
        if l != "1":
            ops.set(2, (l, "1"), {l: one})
    ops.set(2, ("h", "h"), {"h": one})
    ops.set(2, ("h", "n"), {"n": one})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


# ---------------------------------------------------------------------------
# the cochain is the MC element


def test_cochain_reads_off_the_element():
    """The weight-one layer is alpha transposed: (a)* |-> sum_r alpha(a, r) r."""
    A = njac(F2, 2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    gh = CorepresentingHom(setup, {("x1", "t"): F2.one, ("x2", "t2"): F2.one},
                           dual_dg_algebra(A, 3))
    assert gh.entries[("x1",)] == {"t": F2.one}
    assert gh.entries[("x2",)] == {"t2": F2.one}


def test_zero_element_gives_zero_cochain_and_back():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    gh = CorepresentingHom(DeformationSetup(A, R), {}, dual_dg_algebra(A, 3))
    assert all(img == {} for w, img in gh.entries.items() if w)


def test_roundtrip_on_every_mc_element():
    """Transposing the weight-one layer back returns alpha, so distinct
    elements give distinct corepresenting maps."""
    for A, R in ((njac(F2, 1), truncated_polynomial(F2, 3)),
                 (xy(F2), truncated_polynomial(F2, 3)),
                 (kpoints(F3, 2), truncated_polynomial(F3, 2))):
        setup = DeformationSetup(A, R)
        S = dual_dg_algebra(A, R.nu)
        for alpha in setup.enumerate_mc():
            gh = CorepresentingHom(setup, alpha, S)
            back = {(a, r): c for a in A.ideal_labels()
                    for r, c in gh.entries[(a,)].items()}
            assert back == alpha


def test_cochain_rejects_wrong_degree():
    A = xy(F2)
    setup = DeformationSetup(A, truncated_polynomial(F2, 3))
    with pytest.raises(ValueError):
        CorepresentingHom(setup, {("y", "t"): F2.one}, dual_dg_algebra(A, 3))


def test_cochain_rejects_unit_functional_key():
    A = xy(F2)
    setup = DeformationSetup(A, truncated_polynomial(F2, 3))
    with pytest.raises(ValueError):
        CorepresentingHom(setup, {("x", "1"): F2.one}, dual_dg_algebra(A, 3))


@pytest.mark.parametrize("alpha,named", [
    ([(("x", "t"), F2.one)], ("('x', 't')",)),
    ({("zz", "t"): F2.one}, ("'zz'", "'t'")),
    ({("zz", "t"): F2.zero}, ("'zz'", "'t'")),
], ids=["value-not-a-dict", "unknown-algebra-label", "unknown-label-zero"])
def test_cochain_rejects_malformed_table_entries(alpha, named):
    A = xy(F2)
    setup = DeformationSetup(A, truncated_polynomial(F2, 3))
    with pytest.raises(ValueError) as e:
        CorepresentingHom(setup, alpha, dual_dg_algebra(A, 3))
    assert all(part in str(e.value) for part in named)


def test_cochain_rejects_table_failing_mc():
    A = xy(F2)
    setup = DeformationSetup(A, truncated_polynomial(F2, 3))
    with pytest.raises(ValueError) as e:
        CorepresentingHom(setup, {("x", "t"): F2.one}, dual_dg_algebra(A, 3))
    assert "Maurer-Cartan" in str(e.value)


# ---------------------------------------------------------------------------
# the corepresenting map


def test_corepresenting_frozen_on_njac():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    gh = CorepresentingHom(setup, {("x1", "t"): F2.one}, dual_dg_algebra(A, 3))
    assert gh.entries[()] == {"1": F2.one}
    assert gh.entries[("x1",)] == {"t": F2.one}
    assert gh.entries[("x1", "x1")] == {"t2": F2.one}
    assert gh.entries[("x1", "x1", "x1")] == {}


def test_zero_cochain_corepresents_the_augmentation():
    A = njac(F2, 2)
    R = truncated_polynomial(F2, 2)
    gh = CorepresentingHom(DeformationSetup(A, R), {}, dual_dg_algebra(A, 2))
    for w, img in gh.entries.items():
        assert img == ({"1": F2.one} if w == () else {})


def test_weight_one_layer_returns_the_cochain():
    A = kpoints(F3, 2)
    R = truncated_polynomial(F3, 2)
    setup = DeformationSetup(A, R)
    for alpha in setup.enumerate_mc():
        gh = CorepresentingHom(setup, alpha, dual_dg_algebra(A, 2))
        for a in A.ideal_labels():
            assert gh.entries[(a,)] == {r: c for (b, r), c in alpha.items()
                                        if b == a}


def test_corepresenting_accepts_nu_minus_one_and_refuses_below():
    """m^3 = 0 in k[t]/t^3, so S_2 is deep enough: its words of length 3
    vanish, and so do their images, products of three elements of m.
    S_1 would kill (x1)(x1), whose image t^2 is not 0."""
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x1", "t"): F2.one}
    gh = CorepresentingHom(setup, alpha, dual_dg_algebra(A, 2))
    assert gh.entries == {(): {"1": F2.one}, ("x1",): {"t": F2.one},
                          ("x1", "x1"): {"t2": F2.one}}
    assert gh.entries == corepresenting_table_oracle(setup, alpha, gh.S)
    assert all_pairs_dg_map_failure(
        gh.S, gh.entries, R.multiply, R.d_of) is None
    with pytest.raises(HypothesisNotMet) as e:
        CorepresentingHom(setup, alpha, dual_dg_algebra(A, 1))
    assert "nilpotency" in str(e.value)


def test_corepresenting_refuses_a_component_on_the_unit():
    """The element is MC, but its cochain leaves the augmentation ideal."""
    A = njac(F2, 1)
    setup = DeformationSetup(A, square_zero(F2, [("s", 1)]))
    alpha = {("1", "s"): F2.one}
    assert setup.is_mc(alpha)
    with pytest.raises(HypothesisNotMet) as e:
        CorepresentingHom(setup, alpha, dual_dg_algebra(A, 2))
    assert "unit" in str(e.value)


def test_corepresenting_tower_compatible():
    A = njac(F2, 2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x1", "t"): F2.one, ("x2", "t2"): F2.one}
    big = CorepresentingHom(setup, alpha, dual_dg_algebra(A, 4))
    small = CorepresentingHom(setup, alpha, dual_dg_algebra(A, 3))
    assert check_tower_compatibility(big, small)
    with pytest.raises(ValueError):
        check_tower_compatibility(small, big)


def test_corepresenting_certified_on_every_mc_element():
    """The lazy images are the eager oracle's, which the generator
    certificate passes, and the all-pairs certificate passes too."""
    for A, R in ((njac(F2, 1), truncated_polynomial(F2, 3)),
                 (xy(F2), truncated_polynomial(F2, 3)),
                 (kpoints(F2, 2), truncated_polynomial(F2, 2)),
                 (kpoints(F3, 2), truncated_polynomial(F3, 2)),
                 (xy(F3), truncated_polynomial(F3, 3))):
        setup = DeformationSetup(A, R)
        S = dual_dg_algebra(A, R.nu)
        for alpha in setup.enumerate_mc():
            gh = CorepresentingHom(setup, alpha, S)
            assert gh.entries == corepresenting_table_oracle(setup, alpha, S)
            assert all_pairs_dg_map_failure(
                S, gh.entries, R.multiply, R.d_of) is None


def test_lazy_images_match_the_oracle_on_every_compared_element():
    """All 81 elements of the comparison, each word of S_3 through apply."""
    A, R = njac(F3, 2), truncated_polynomial(F3, 3)
    rep = prorep_compare(A, R, 3)
    setup, S = DeformationSetup(A, R), dual_dg_algebra(A, 3)
    elements = [alpha for cls in rep.classes.classes for alpha in cls]
    assert len(elements) == 81
    for alpha in elements:
        gh = CorepresentingHom(setup, alpha, S)
        want = corepresenting_table_oracle(setup, alpha, S)
        assert {w: gh.apply({w: F3.one}) for w in S.words} == want


def test_comparison_multiplies_only_the_words_it_reads(monkeypatch):
    """The comparison builds no S_N, and each of the 81 induced maps
    makes at most one product per prefix of a relation word: (e1),
    (e1 e2), (e2) and (e2 e1) for the one relation of kpoints(F3,2)."""
    A, R = kpoints(F3, 2), truncated_polynomial(F3, 3)
    built, inside, products = [], [], []
    real_multiply = R.multiply
    real_induced = twisting.induced_map

    def multiply(u, v):
        products.append(bool(inside))
        return real_multiply(u, v)

    def induced(*args):
        inside.append(True)
        try:
            return real_induced(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(DualTruncation, "__init__",
                        lambda *args: built.append(args))
    monkeypatch.setattr(R, "multiply", multiply)
    monkeypatch.setattr(twisting, "induced_map", induced)
    rep = prorep_compare(A, R, 3)
    assert rep.ok and rep.rhs == 81
    assert list(rep.presentation.relations.values()) == [
        {("e1", "e2"): F3(2), ("e2", "e1"): F3.one}]
    assert built == []
    assert 0 < sum(products) <= 4 * 81


def test_generator_certificate_catches_a_wrong_sign_in_a_long_word(
        monkeypatch):
    """A flipped product sign on (x)(x x), written into S_4 at
    construction, is refused by its Leibniz certificate on the
    generators: d(y) reaches (x x), so the pair ((x), (y)) fails.  Over
    F3 the sign shows."""
    import barmc.bar as bar_module
    A, pair = xy(F3), (("x",), ("x", "x"))
    S = dual_dg_algebra(A, 4)
    assert S.algebra.m.get(2, pair) == {("x", "x", "x"): F3.one}
    assert ("x", "x") in S.algebra.m.get(1, (("y",),))

    class FlippedEntry(StructureMaps):
        def set(self, n, args, vec):
            if n == 2 and tuple(args) == pair:
                vec = {k: -c for k, c in vec.items()}
            super().set(n, args, vec)

    monkeypatch.setattr(bar_module, "StructureMaps", FlippedEntry)
    with pytest.raises(MathCheckFailure) as e:
        dual_dg_algebra(A, 4)
    assert "arity-2 identity fails on (('x',), ('y',))" in str(e.value)


def test_each_element_certifies_the_differential_of_its_letters(monkeypatch):
    """A non-MC cochain that slips past is_mc is caught per element."""
    A = xy(F2)
    setup = DeformationSetup(A, truncated_polynomial(F2, 3))
    alpha = {("x", "t"): F2.one}
    assert not setup.is_mc(alpha)
    monkeypatch.setattr(setup, "is_mc", lambda alpha: True)
    with pytest.raises(MathCheckFailure) as e:
        CorepresentingHom(setup, alpha, dual_dg_algebra(A, 3))
    assert "differential compatibility fails at" in str(e.value)


def test_corepresenting_over_graded_base():
    A = xy(F2)
    R = negative_base(F2)
    setup = DeformationSetup(A, R)
    for alpha in setup.enumerate_mc():
        gh = CorepresentingHom(setup, alpha, dual_dg_algebra(A, 2))
        assert gh.entries[()] == {"1": F2.one}


def test_corepresenting_kills_boundaries():
    """Images do not depend on the chosen cocycle representatives."""
    A = njac(F2, 2)
    R = truncated_polynomial(F2, 3)
    rep = SHatCohomology(A, 3)
    setup = DeformationSetup(A, R)
    for alpha in ({("x1", "t"): F2.one},
                  {("x1", "t2"): F2.one, ("x2", "t"): F2.one}):
        gh = CorepresentingHom(setup, alpha, rep.S)
        for b in rep.h0.boundaries.rows:
            assert gh.apply(b) == {}


# ---------------------------------------------------------------------------
# twisted modules


def test_twisted_module_frozen_differential():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    mod = TwistedModule(DeformationSetup(A, R), {("x", "t2"): F2.one})
    one = F2.one
    assert mod.differential({("1", "1"): one}) == {("x", "t2"): one}
    assert mod.differential({("x", "1"): one}) == {("y", "t2"): one}
    assert mod.differential({("1", "t"): one}) == {}
    assert mod.differential({("y", "1"): one}) == {}


def test_untwisted_module_is_the_tensor_algebra():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    mod = TwistedModule(setup, {})
    one = F2.one
    for n in range(1, A.arity_bound + 1):
        for x in setup.T.space.labels:
            for rest in iter_product(A.space.labels, repeat=n - 1):
                tail = [{(a, R.unit): one} for a in rest]
                want = vec_clean(setup.T.eval_m_vectors([{x: one}] + tail))
                assert vec_clean(dict(mod.ops.get(n, (x,) + rest))) == want


def test_twisted_module_matches_category_insertions():
    for A, R, alpha in (
            (xy(F2), truncated_polynomial(F2, 3), {("x", "t2"): F2.one}),
            (njac(F3, 1), truncated_polynomial(F3, 3),
             {("x1", "t"): F3.one, ("x1", "t2"): F3(2)})):
        setup = DeformationSetup(A, R)
        mod = TwistedModule(setup, alpha)
        for n in range(1, A.arity_bound + 1):
            for x in setup.T.space.labels:
                for rest in iter_product(A.space.labels, repeat=n - 1):
                    got = vec_clean(dict(mod.ops.get(n, (x,) + rest)))
                    want = vec_clean(
                        category_module_op(setup, alpha, n, x, rest))
                    assert got == want


def test_twisted_d_matches_two_term_oracle():
    for field in (F2, F3):
        A = xy(field)
        R = truncated_polynomial(field, 3)
        setup = DeformationSetup(A, R)
        for alpha in setup.enumerate_mc():
            mod = TwistedModule(setup, alpha)
            for l in mod.space.labels:
                got = mod.differential({l: field.one})
                assert got == dg_module_d_oracle(setup, alpha, {l: field.one})


def test_twisted_d_matches_hom_complex_on_the_ideal():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x1", "t"): F2.one}
    mod = TwistedModule(setup, alpha)
    hc = HomComplex(setup, {}, alpha)
    for l in setup.ideal:
        assert mod.differential({l: F2.one}) == hc.apply({l: F2.one})
    assert mod.differential(dict(setup.one_vec)) == hc.d_of_one


def test_twisted_m2_matches_strict_oracle():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    mod = TwistedModule(setup, {("x", "t2"): F2.one})
    one = F2.one
    for x in mod.space.labels:
        for a in A.space.labels:
            got = mod.op({x: one}, [{a: one}])
            assert got == dg_module_m2_oracle(setup, {x: one}, {a: one})


def test_d_squared_iff_mc_exhaustively():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    labels = setup.ideal_labels_of_degree(1)
    hits = 0
    for v in all_vectors(F2, labels):
        if setup.is_mc(v):
            TwistedModule(setup, v)
            hits += 1
        else:
            with pytest.raises(MathCheckFailure) as e:
                TwistedModule(setup, v)
            assert "Maurer-Cartan" in str(e.value)
    assert hits == 2


def test_non_mc_witness_names_the_residue():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    with pytest.raises(MathCheckFailure) as e:
        TwistedModule(DeformationSetup(A, R), {("x", "t"): F2.one})
    assert "'y'" in str(e.value) and "t2" in str(e.value)


def test_module_axioms_reported():
    A = njac(F2, 2)
    R = truncated_polynomial(F2, 2)
    mod = TwistedModule(DeformationSetup(A, R),
                        {("x1", "t"): F2.one, ("x2", "t"): F2.one})
    rep = mod.check_module_axioms()
    assert rep.ok and rep.checked_to == A.arity_bound + 1


def test_right_action_and_base_linearity():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    mod = TwistedModule(setup, {("x1", "t"): F2.one})
    one = F2.one
    assert mod.right_action({("x1", "t"): one}, {"t": one}) == \
        {("x1", "t2"): one}
    for l in mod.space.labels:
        for r in R.ideal_labels:
            lhs = mod.differential(mod.right_action({l: one}, {r: one}))
            rhs = mod.right_action(mod.differential({l: one}), {r: one})
            assert lhs == rhs


def test_twisted_module_on_kpoints():
    A = kpoints(F2, 2)
    R = truncated_polynomial(F2, 2)
    mod = TwistedModule(DeformationSetup(A, R), {("e1", "t"): F2.one})
    dims = mod.cohomology_dims()
    assert sum(dims.values()) > 0


def test_twisted_module_rejects_malformed_input():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    with pytest.raises(ValueError):
        TwistedModule(DeformationSetup(A, R), {("y", "t"): F2.one})
    with pytest.raises(ValueError, match="'zz'"):
        TwistedModule(DeformationSetup(A, R), {("zz", "t"): F2.zero})


# ---------------------------------------------------------------------------
# gauge transport between twisted modules


def test_identity_transport_is_the_identity():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x1", "t"): F2.one}
    g = next(m for m in HomSet(setup, alpha, alpha).orbits() if not m.u)
    iso = ModuleIsomorphism(setup, g)
    one = F2.one
    for l in setup.T.space.labels:
        assert iso.apply({l: one}) == {l: one}


def test_transport_certified_for_all_automorphisms():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    setup = DeformationSetup(A, R)
    alpha = {("x1", "t"): F2.one}
    morphs = HomSet(setup, alpha, alpha).orbits()
    assert len(morphs) == 4
    for g in morphs:
        ModuleIsomorphism(setup, g)


def test_transport_between_distinct_objects():
    A = pq_algebra(F2)
    R = truncated_polynomial(F2, 2)
    setup = DeformationSetup(A, R)
    alpha, beta = {}, {("q", "t"): F2.one}
    morphs = HomSet(setup, alpha, beta).orbits()
    assert morphs
    for g in morphs:
        iso = ModuleIsomorphism(setup, g)
        assert iso.source.cohomology_dims() == iso.target.cohomology_dims()


def test_transport_higher_components_vanish_for_dg_pairs():
    A = pq_algebra(F2)
    R = truncated_polynomial(F2, 2)
    setup = DeformationSetup(A, R)
    g = HomSet(setup, {}, {("q", "t"): F2.one}).orbits()[0]
    iso = ModuleIsomorphism(setup, g)
    one = F2.one
    for x in setup.T.space.labels:
        for a in A.space.labels:
            assert iso.component(2, {x: one}, [{a: one}]) == {}


def test_gauge_classes_share_module_cohomology():
    A = pq_algebra(F3)
    R = truncated_polynomial(F3, 2)
    setup = DeformationSetup(A, R)
    classes = pi0(A, R)
    for cls in classes.classes:
        dims = {tuple(sorted(
            TwistedModule(setup, alpha, check=False)
            .cohomology_dims().items())) for alpha in cls}
        assert len(dims) == 1


# ---------------------------------------------------------------------------
# the dual-side module


def test_comodule_requires_classical_base():
    A = xy(F2)
    R = negative_base(F2)
    with pytest.raises(HypothesisNotMet):
        TwistedComodule(DeformationSetup(A, R), {})


def test_comodule_alpha_zero_has_bare_differential():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    com = TwistedComodule(DeformationSetup(A, R), {})
    one = F2.one
    for (a, r) in com.space.labels:
        want = {(a2, r): c for a2, c in A.eval_m((a,)).items()}
        assert com.differential({(a, r): one}) == vec_clean(want)


def test_comodule_frobenius_pairing_with_the_module():
    for A, alphas in ((xy(F2), ({}, {("x", "t2"): F2.one})),
                      (njac(F2, 1), ({("x1", "t"): F2.one},))):
        R = truncated_polynomial(F2, 3)
        setup = DeformationSetup(A, R)
        pair = frobenius_pairing(3)
        one = F2.one
        for alpha in alphas:
            mod = TwistedModule(setup, alpha)
            com = TwistedComodule(setup, alpha)
            for (a, r) in mod.space.labels:
                pushed = {}
                for (b, u), c in mod.differential({(a, r): one}).items():
                    pushed[(b, pair[u])] = c
                assert pushed == com.differential({(a, pair[r]): one})
                for a2 in A.space.labels:
                    moved = {}
                    img = mod.op({(a, r): one}, [{a2: one}])
                    for (b, u), c in img.items():
                        moved[(b, pair[u])] = c
                    assert moved == com.op({(a, pair[r]): one}, [{a2: one}])


def test_comodule_non_mc_witness():
    A = xy(F2)
    R = truncated_polynomial(F2, 3)
    with pytest.raises(MathCheckFailure) as e:
        TwistedComodule(DeformationSetup(A, R), {("x", "t"): F2.one})
    assert "Maurer-Cartan" in str(e.value)


def test_comodule_axioms_reported():
    A = njac(F3, 1)
    R = truncated_polynomial(F3, 2)
    com = TwistedComodule(DeformationSetup(A, R), {("x1", "t"): F3.one})
    assert com.check_module_axioms().ok


def test_comodule_refuses_the_right_action():
    setup = DeformationSetup(xy(F2), truncated_polynomial(F2, 3))
    com = TwistedComodule(setup, {})
    with pytest.raises(HypothesisNotMet):
        com.right_action({("x", "t"): F2.one}, {"t": F2.one})


# ---------------------------------------------------------------------------
# the one join against the per-tuple paths


def module_ops_by_category(setup, alpha):
    """The twisted tables tuple by tuple through category_op."""
    ops = StructureMaps()
    for n in range(1, setup.A.arity_bound + 1):
        for x in setup.T.space.labels:
            for rest in iter_product(setup.A.space.labels, repeat=n - 1):
                ops.set(n, (x,) + rest,
                        category_module_op(setup, alpha, n, x, rest))
    return ops


def _drawn_mc(setup, rng):
    """A degree-one element with coefficients in {0, 1, 2}, else 0.

    Up to four draws; the first that satisfies the MC equation wins.
    """
    labels = setup.ideal_labels_of_degree(1)
    for _ in range(4):
        alpha = vec_clean({l: setup.field(rng.randrange(3)) for l in labels})
        if setup.is_mc(alpha):
            return alpha
    return {}


def twist_cases():
    """Seeded (setup, alpha) pairs over F2, F3 and Q.

    Over F2 and F3, two MC elements sampled per pair of xy, njac(1) or
    kpoints(2) with k[t]/t^3, the noncommutative base or a fiber
    product.  Over F2, F3 and Q, random draws of every family, m_4
    (up to three insertions) among them, each with an element drawn
    from its seed.
    """
    rng = random.Random(20)
    cases = []
    for field in (F2, F3):
        bases = (truncated_polynomial(field, 3), local_noncommutative(field),
                 fiber_product(truncated_polynomial(field, 3),
                               truncated_polynomial(field, 2, var="s")))
        for A in (xy(field), njac(field, 1), kpoints(field, 2)):
            for R in bases:
                setup = DeformationSetup(A, R)
                elements = setup.enumerate_mc()
                cases += [(setup, a) for a in
                          rng.sample(elements, min(2, len(elements)))]
    for field, seeds in ((F2, (0, 1, 5, 16)), (F3, (3, 5, 9, 11)),
                         (Q, (0, 5, 8, 11))):
        for seed in seeds:
            A, R, _ = random_instance(field, seed)
            setup = DeformationSetup(A, R)
            cases.append((setup, _drawn_mc(setup, random.Random(seed))))
    return cases


def test_twist_cases_reach_past_one_insertion():
    cases = twist_cases()
    assert len(cases) == 48
    assert sum(bool(a) for _, a in cases) == 43
    assert any(s.A.arity_bound == 4 and s.R.nu >= 3 and a for s, a in cases)
    assert any(not s.R.commutative and a for s, a in cases)


def test_module_tables_match_the_category_insertions():
    for setup, alpha in twist_cases():
        got = TwistedModule(setup, alpha).ops.entries
        assert got == module_ops_by_category(setup, alpha).entries


def test_comodule_tables_match_the_contraction_oracle():
    for setup, alpha in twist_cases():
        got = TwistedComodule(setup, alpha).ops.entries
        assert got == comodule_ops_oracle(setup, alpha).entries


# ---------------------------------------------------------------------------
# malformed input


def test_op_takes_labels_of_mixed_types():
    """A minimal model's labels mix strings and tuples; op does not sort."""
    A, _, _ = random_instance(F2, 17)
    M, _ = minimal_model(A, 3)
    assert {type(l) for l in M.space.labels} == {str, tuple}
    mod = TwistedModule(DeformationSetup(M, truncated_polynomial(F2, 2)), {})
    one = F2.one
    both = {"1": one, ("h", 1, 0): one}
    for x in mod.space.labels:
        want = {}
        for a in both:
            vec_add(want, mod.op({x: one}, [{a: one}]))
        assert mod.op({x: one}, [both]) == vec_clean(want)
    assert mod.op({("1", "t"): one}, [both]) == {
        ("1", "t"): one, (("h", 1, 0), "t"): one}


def test_twisted_maps_refuse_labels_outside_their_spaces():
    setup = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3))
    one = F2.one
    for mod in (TwistedModule(setup, {("x1", "t"): one}),
                TwistedComodule(setup, {("x1", "t"): one})):
        with pytest.raises(ValueError, match="'zz', 't'"):
            mod.differential({("zz", "t"): one})
        with pytest.raises(ValueError, match="'zz', 't'"):
            mod.op({("zz", "t"): one}, [{"x1": one}])
        with pytest.raises(ValueError, match="'zz'"):
            mod.op({("x1", "t"): one}, [{"zz": one}])
        with pytest.raises(ValueError, match="not a scalar"):
            mod.differential({("x1", "t"): 1})
    mod = TwistedModule(setup, {("x1", "t"): one})
    with pytest.raises(ValueError, match="'zz', 't'"):
        mod.right_action({("zz", "t"): one}, {"t": one})
    with pytest.raises(ValueError, match="'zz'"):
        mod.right_action({("x1", "t"): one}, {"zz": one})


@pytest.mark.parametrize("n_max", [0, -1])
def test_module_axioms_refuse_an_empty_check(n_max):
    setup = DeformationSetup(njac(F2, 1), truncated_polynomial(F2, 3))
    for mod in (TwistedModule(setup, {}), TwistedComodule(setup, {}),
                UniversalDeformation(njac(F2, 1), 2)):
        with pytest.raises(ValueError, match="at least 1"):
            mod.check_module_axioms(n_max)


# ---------------------------------------------------------------------------
# the classical comparison


def test_prorep_njac_line_over_t3():
    rep = prorep_compare(njac(F2, 1), truncated_polynomial(F2, 3), 3)
    assert rep.ok
    assert rep.lhs == 4 and rep.rhs == 4
    assert sorted(rep.matching) == [0, 1, 2, 3]
    assert len(set(rep.matching.values())) == 4
    assert len(rep.maps) == 4 and rep.classes.count == 4


def test_prorep_matched_map_reads_alpha():
    """Each class goes to the map sending the generator to its twist."""
    rep = prorep_compare(njac(F2, 1), truncated_polynomial(F2, 3), 3)
    for ci, mi in rep.matching.items():
        alpha = rep.classes.representatives[ci]
        want = vec_clean({r: c for (a, r), c in alpha.items()})
        assert rep.maps[mi][0] == want


def test_prorep_point_base():
    rep = prorep_compare(njac(F2, 1), truncated_polynomial(F2, 1), 1)
    assert rep.ok and rep.lhs == 1 and rep.rhs == 1


def test_prorep_kpoints_over_dual_numbers():
    rep = prorep_compare(kpoints(F2, 2), truncated_polynomial(F2, 2), 2)
    assert rep.ok and rep.lhs == 4 and rep.rhs == 4
    assert rep.presentation.relations


def test_prorep_njac_two_generators():
    rep2 = prorep_compare(njac(F2, 2), truncated_polynomial(F2, 2), 2)
    assert rep2.ok and rep2.lhs == 4 and rep2.rhs == 4
    rep3 = prorep_compare(njac(F2, 2), truncated_polynomial(F2, 3), 3)
    assert rep3.ok and rep3.lhs == 16 and rep3.rhs == 16


def test_prorep_lhs_agrees_with_basis_enumeration():
    for A, R, N in ((njac(F2, 1), truncated_polynomial(F2, 3), 3),
                    (kpoints(F2, 2), truncated_polynomial(F2, 2), 2)):
        pres = H0Presentation(A, N)
        assert len(algebra_maps(pres, R)) == len(
            brute_h0_maps(SHatCohomology(A, N), R))


def test_prorep_natural_under_base_quotient():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    Rbar, pi_map, _ = quotient_by_power(R, 2)
    pres = H0Presentation(A, 3)
    setup = DeformationSetup(A, R)
    setup_bar = DeformationSetup(A, Rbar)
    for alpha in setup.enumerate_mc():
        upstairs = induced_map(setup, pres, alpha)
        downstairs = induced_map(setup_bar, pres,
                                 project_alpha(pi_map, alpha))
        assert tuple(project_rvec(pi_map, w) for w in upstairs) == downstairs


def test_prorep_stable_at_next_order():
    A = njac(F2, 1)
    R = truncated_polynomial(F2, 3)
    rep3 = prorep_compare(A, R, 3)
    rep4 = prorep_compare(A, R, 4)
    assert rep3.ok and rep4.ok
    assert (rep3.lhs, rep3.rhs) == (rep4.lhs, rep4.rhs)
    key = lambda t: tuple(tuple(sorted((r, str(c)) for r, c in w.items()))
                          for w in t)
    assert {key(t) for t in rep3.maps} == {key(t) for t in rep4.maps}


def test_prorep_gate_messages():
    A = njac(F2, 1)
    with pytest.raises(HypothesisNotMet) as e:
        prorep_compare(A, truncated_polynomial(F2, 3), 1)
    assert "nilpotency" in str(e.value)
    with pytest.raises(HypothesisNotMet) as e:
        prorep_compare(A, negative_base(F2), 2)
    assert "degree 0" in str(e.value)
    with pytest.raises(HypothesisNotMet) as e:
        prorep_compare(njac(Q, 1), truncated_polynomial(Q, 2), 2)
    assert "finite" in str(e.value)


def test_sweeps_refuse_a_graded_base():
    """d f = e on this base, so a degree-0 generator sent to f or to e + f
    is not a chain map; both sweeps refuse the base outright."""
    R = negative_base(F2)
    pres = H0Presentation(njac(F2, 1), 2)
    for sweep in (lambda: algebra_maps(pres, R), lambda: enumerate_units(R)):
        with pytest.raises(HypothesisNotMet) as e:
            sweep()
        assert "not concentrated in degree 0" in str(e.value)


def test_prorep_answers_non_koszul_input():
    """xy fails the Koszulness probe at order 3, which the comparison
    does not need: a DG map S_3 -> R is an algebra map out of H^0(S_3)."""
    A, R = xy(F2), truncated_polynomial(F2, 3)
    assert not koszul_probe(A, 3).ok
    rep = prorep_compare(A, R, 3)
    assert rep.ok and rep.lhs == 2 and rep.rhs == 2


def test_presentation_refuses_what_s_n_refused():
    """The gates that building S_N gave, read off A instead: an algebra
    complete only to arity 2 at order 3 (HypothesisNotMet), and one
    that fails associativity on (e1, e2, e3), the d^2 = 0 of S_3
    (ValueError naming the tuple and its residual)."""
    A = xy(F2)
    incomplete = AInfAlgebra(A.space, F2, A.m, arity_bound=6, unit="1",
                             complete_to_arity=2)
    assert H0Presentation(incomplete, 2).gens == ["x"]
    with pytest.raises(HypothesisNotMet, match="only complete to arity 2"):
        H0Presentation(incomplete, 3)
    A = kpoints(F3, 3)
    ops = A.m.copy()
    ops.set(2, ("e12", "e3"), {"e123": -F3.one})
    B = AInfAlgebra(A.space, F3, ops, arity_bound=2, unit=A.unit)
    assert H0Presentation(B, 2).gens == ["e1", "e2", "e3"]
    with pytest.raises(ValueError, match=re.escape(
            "Stasheff identity of arity 3 fails on ('e1', 'e2', 'e3')")):
        prorep_compare(B, truncated_polynomial(F3, 2), 3)


def m1_resolved_associator(field):
    """k 1 + <a> + <p, r> + <q> in degrees 0..3 with m_2(a, a) = p,
    m_2(p, a) = q, m_3(a, a, a) = r and m_1(r) = -q: the m_2
    associator on (a, a, a) is cancelled by m_1 m_3, so one Stasheff
    identity mixes three arities."""
    one = field.one
    ops = StructureMaps()
    ops.set(2, ("a", "a"), {"p": one})
    ops.set(2, ("p", "a"), {"q": one})
    ops.set(3, ("a", "a", "a"), {"r": one})
    ops.set(1, ("r",), {"q": -one})
    space = GradedSpace([("a", 1), ("p", 2), ("q", 3), ("r", 2)])
    return unitize(AInfAlgebra(space, field, ops, arity_bound=3), "1")


def test_prorep_answers_where_m1_m3_cancel_the_m2_associator():
    """The Stasheff identities hold, and the comparison answers 9 = 9
    over F3[t]/t^4 at N = 3 and 4: H^0 is k<a>/(a^2, a^3), read off the
    tables.  Reading it off S_N refused this input, because the dual's
    d^2 = 0 check meets the arity-dependent sign of ROADMAP item 1."""
    A, R = m1_resolved_associator(F3), truncated_polynomial(F3, 4)
    assert check_ainf_axioms(A, 5).ok
    for N in (3, 4):
        rep = prorep_compare(A, R, N)
        assert rep.ok and rep.lhs == rep.rhs == 9
        assert rep.presentation.relations == {
            "p": {("a", "a"): F3(2)}, "r": {("a", "a", "a"): F3(2)}}


def test_prorep_refuses_a_non_admissible_algebra_before_building_s_n(
        monkeypatch):
    def no_dual(*args):
        raise AssertionError("built S_N")
    monkeypatch.setattr(DualTruncation, "__init__", no_dual)
    R = truncated_polynomial(F2, 3)
    with pytest.raises(HypothesisNotMet) as e:
        prorep_compare(R.algebra, R, 3)
    assert "the comparison needs a strictly unital" in str(e.value)


def test_prorep_refuses_orders_below_nu_minus_one():
    """N = nu - 2 is refused for each base; nu - 1 is not (below)."""
    for A, R in ((njac(F2, 1), truncated_polynomial(F2, 3)),
                 (kpoints(F2, 2), truncated_polynomial(F2, 4)),
                 (njac(F3, 2), fiber_product(truncated_polynomial(F3, 3),
                                             truncated_polynomial(F3, 2,
                                                                  var="s")))):
        with pytest.raises(HypothesisNotMet) as e:
            prorep_compare(A, R, R.nu - 2)
        assert "nilpotency index nu = %d" % R.nu in str(e.value)


# (algebra, base, N = nu - 1, |Hom| = |pi_0|)
NU_MINUS_ONE_CASES = {
    "njac2-F3-t3-2": (lambda: njac(F3, 2), lambda: truncated_polynomial(F3, 3),
                      2, 81),
    "kpoints2-F2-t4-3": (lambda: kpoints(F2, 2),
                         lambda: truncated_polynomial(F2, 4), 3, 64),
    "kpoints3-F3-t2-1": (lambda: kpoints(F3, 3),
                         lambda: truncated_polynomial(F3, 2), 1, 27),
}


@pytest.mark.parametrize("case", sorted(NU_MINUS_ONE_CASES))
def test_prorep_agrees_at_nu_minus_one(case):
    make_a, make_r, N, count = NU_MINUS_ONE_CASES[case]
    A, R = make_a(), make_r()
    assert N == R.nu - 1
    rep = prorep_compare(A, R, N)
    assert rep.ok and rep.lhs == count and rep.rhs == count
    assert len(rep.matching) == count


def test_prorep_reads_only_h0_and_never_runs_the_probe(monkeypatch):
    """H^0(S_4) is read off the tables of A: no block of S_4 is
    eliminated (the full probe eliminates blocks -9 to 0, and reading
    H^0 off S_4 took blocks -1 and 0), and koszul_probe is not called."""
    import barmc.bar as bar_module
    asked = set()
    real_block = Complex.block

    def block(cx, i):
        asked.add(i)
        return real_block(cx, i)

    def no_probe(*args):
        raise AssertionError("the comparison ran the Koszulness probe")

    monkeypatch.setattr(Complex, "block", block)
    monkeypatch.setattr(bar_module, "koszul_probe", no_probe)
    rep = prorep_compare(kpoints(F3, 3), truncated_polynomial(F3, 2), 4)
    assert rep.ok and rep.lhs == 27
    assert asked == set()


def test_prorep_builds_no_dual_truncation_cohomology_or_corepresenting_map(
        monkeypatch):
    """The comparison answers with S_N, its cohomology and the
    per-element corepresenting maps all unbuildable."""
    def refuse(*args):
        raise AssertionError("the comparison built an S_N object")

    for cls in (DualTruncation, SHatCohomology, CorepresentingHom):
        monkeypatch.setattr(cls, "__init__", refuse)
    for A, R, N in ((njac(F3, 2), truncated_polynomial(F3, 3), 3),
                    (kpoints(F3, 3), truncated_polynomial(F3, 2), 5),
                    (xy(F2), truncated_polynomial(F2, 3), 3)):
        rep = prorep_compare(A, R, N)
        assert rep.ok and rep.lhs == rep.rhs > 1


def test_prorep_random_corpus():
    """Admissible or not, every random draw over F2 and F3 at N = nu - 1
    and N = nu is answered, and in agreement, or refused for a reason
    that stays true: A is not admissible, or a sweep passes the cap.
    Every answer matches the presentation read off S_N; 38 of them
    have relations with a linear term, hence pivot letters."""
    answered, linear, refused = 0, 0, {"admissible": 0, "cap": 0}
    sweeps = []
    for field in (F2, F3):
        for seed in range(40):
            A, R, _ = random_instance(field, seed)
            for N in (R.nu - 1, R.nu):
                try:
                    rep = prorep_compare(A, R, N, cap=2 ** 14)
                except HypothesisNotMet as e:
                    msg = str(e)
                    assert "exceeds the cap" in msg or (
                        not is_admissible(A) and "strictly unital" in msg), msg
                    refused["cap" if "cap" in msg else "admissible"] += 1
                    if "Hom sweep" in msg:
                        sweeps.append((seed, N, msg))
                    continue
                assert rep.ok, (field, seed, N, rep.problems)
                _matches_the_s_n_presentation(A, R, N, rep)
                answered += 1
                linear += bool(rep.presentation.pivots)
    assert answered == 126 and linear == 38
    assert refused == {"admissible": 28, "cap": 6}
    # the sweep size counts the generators, as the S_N presentation did
    assert sweeps == [(seed, N, "Hom sweep 3^9 exceeds the cap 16384")
                      for seed, N in ((3, 3), (3, 4), (14, 2), (14, 3))]


def test_presentation_certifies_generation():
    """njac(F2,2) has no product, so H^0(S_3) is free on both letters:
    no relation, no pivot, and both letters generate."""
    pres = H0Presentation(njac(F2, 2), 3)
    assert pres.gens == pres.letters == ["x1", "x2"]
    assert pres.relations == {} and pres.pivots == {}


# ---------------------------------------------------------------------------
# the noncommutative comparison


def test_noncomm_matches_on_local_noncommutative_base():
    R = local_noncommutative(F2)
    rep = prorep_compare(njac(F2, 1), R, 3)
    assert rep.ok
    assert rep.lhs == 5 and rep.rhs == 5
    assert sorted(len(o) for o in rep.orbits) == [1, 1, 2, 2, 2]


# every commutative comparison of this module: (algebra, base, order)
COMMUTATIVE_CASES = {
    "njac1-t3-3": (lambda: njac(F2, 1), lambda: truncated_polynomial(F2, 3), 3),
    "njac1-t1-1": (lambda: njac(F2, 1), lambda: truncated_polynomial(F2, 1), 1),
    "kpoints2-t2-2": (lambda: kpoints(F2, 2),
                      lambda: truncated_polynomial(F2, 2), 2),
    "njac2-t2-2": (lambda: njac(F2, 2), lambda: truncated_polynomial(F2, 2), 2),
    "njac2-t3-3": (lambda: njac(F2, 2), lambda: truncated_polynomial(F2, 3), 3),
    "njac1-t3-4": (lambda: njac(F2, 1), lambda: truncated_polynomial(F2, 3), 4),
}


# the commutative cases, a noncommutative base and a bigger field
SWEEP_CASES = dict(COMMUTATIVE_CASES, **{
    "njac1-noncomm-3": (lambda: njac(F2, 1),
                        lambda: local_noncommutative(F2), 3),
    "njac2-F3-t3-3": (lambda: njac(F3, 2), lambda: truncated_polynomial(F3, 3),
                      3),
})


def _listed(maps):
    return [[list(w.items()) for w in t] for t in maps]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_algebra_maps_match_the_oracle_sweep(case):
    """Item for item, and key order within every generator image: the
    presentation read off A against the one read off S_N."""
    make_a, make_r, N = SWEEP_CASES[case]
    A, R = make_a(), make_r()
    assert _listed(algebra_maps(H0Presentation(A, N), R)) == _listed(
        algebra_maps_oracle(H0PresentationOracle(A, N), R))


def _ideal_rows(pres):
    """u r_c v for all words u, v over the letters, cut at weight N."""
    rows = []
    for r in pres.relations.values():
        room = pres.N - min(map(len, r))
        words = bar_words(pres.letters, room)
        rows += [{u + w + v: c for w, c in r.items()
                  if len(u) + len(w) + len(v) <= pres.N}
                 for u in words for v in words if len(u) + len(v) <= room]
    return rows


def _weight_profile(rows, field, N):
    """The span, and its dimension inside the words of length >= w for
    w = 0..N: the rows of its echelon form, shortest word first, whose
    pivot has length >= w."""
    span = Subspace([{(len(w), w): c for w, c in r.items()} for r in rows],
                    field)
    return span, [sum(k[0] >= w for k in span.pivot_keys)
                  for w in range(N + 1)]


def _matches_the_s_n_presentation(A, R, N, rep):
    """The report's presentation against the one read off S_N: the same
    generators, the same maps in the same order, the same induced map
    of every element, and where no relation has a linear term the same
    relation span at each weight."""
    new, old = rep.presentation, H0PresentationOracle(A, N)
    assert [list(g.items()) for g in old.gens] == [
        [((a,), A.field.one)] for a in new.gens]
    assert _listed(rep.maps) == _listed(algebra_maps_oracle(old, R))
    setup = DeformationSetup(A, R)
    for cls in rep.classes.classes:
        for alpha in cls:
            assert induced_map(setup, new, alpha) == \
                induced_map_oracle(setup, old, alpha)
    if not any(len(w) == 1 for r in new.relations.values() for w in r):
        old_rows = [{tuple(new.gens[i] for i in m): c for m, c in r.items()}
                    for r in old.relations]
        old_span, old_dims = _weight_profile(old_rows, A.field, N)
        new_span, new_dims = _weight_profile(_ideal_rows(new), A.field, N)
        assert old_dims == new_dims
        assert all(old_span.contains(v) for v in new_span.rows)


# every comparison of this module (the noncommutative one and the
# benchmark's gauge job, njac2-F3-t3-3, among them), the largest, and
# order 0, where S_0 has no letters
ORACLE_CASES = dict(SWEEP_CASES, **{
    case: (make_a, make_r, N)
    for case, (make_a, make_r, N, _) in NU_MINUS_ONE_CASES.items()}, **{
    "kpoints3-F3-t2-5": (lambda: kpoints(F3, 3),
                         lambda: truncated_polynomial(F3, 2), 5),
    "njac1-t1-0": (lambda: njac(F2, 1), lambda: truncated_polynomial(F2, 1),
                   0)})


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_presentation_matches_the_s_n_oracle(case):
    make_a, make_r, N = ORACLE_CASES[case]
    A, R = make_a(), make_r()
    rep = prorep_compare(A, R, N)
    assert rep.ok
    _matches_the_s_n_presentation(A, R, N, rep)


@pytest.mark.parametrize("case", sorted(COMMUTATIVE_CASES))
def test_noncomm_reduces_over_commutative_base(case):
    """Conjugating by every unit fixes every map: the singleton orbits
    the comparison reports without enumerating units are the true ones."""
    make_a, make_r, N = COMMUTATIVE_CASES[case]
    A, R = make_a(), make_r()
    rep = prorep_compare(A, R, N)
    assert rep.ok
    singletons = [[i] for i in range(len(rep.maps))]
    assert rep.orbits == singletons
    orbits, orbit_of = conjugation_orbits(R, rep.maps)
    assert orbits == singletons
    assert [orbit_of[i] for i in range(len(rep.maps))] == list(
        range(len(rep.maps)))


def test_noncomm_point_base_has_trivial_units():
    R = truncated_polynomial(F2, 1)
    assert enumerate_units(R) == [{R.unit: F2.one}]
    rep = prorep_compare(njac(F2, 1), R, 1)
    assert rep.ok and rep.lhs == 1 and rep.rhs == 1


@pytest.mark.parametrize("field,R,cap,named", [
    (F2, truncated_polynomial(F2, 3), 1, "Hom sweep 2^2 exceeds the cap 1"),
    (F2, local_noncommutative(F2), 1, "Hom sweep 2^3 exceeds the cap 1"),
    (F3, local_noncommutative(F3), 27,
     "unit sweep (3-1)*3^3 exceeds the cap 27"),
], ids=["hom-commutative", "hom-noncommutative", "units"])
def test_prorep_refuses_past_cap_before_sweeping(field, R, cap, named,
                                                 monkeypatch):
    """The refusal names p, the exponent and the cap, and no sweep runs.
    With one generator over F3 the (p-1)*p^|m| units outnumber the p^|m|
    generator images, so the unit sweep alone can pass the cap."""
    def no_sweep(*args):
        raise AssertionError("swept past the cap")
    monkeypatch.setattr(twisting, "algebra_maps", no_sweep)
    monkeypatch.setattr(twisting, "enumerate_units", no_sweep)
    monkeypatch.setattr(DeformationSetup, "enumerate_mc", no_sweep)
    with pytest.raises(HypothesisNotMet) as e:
        prorep_compare(njac(field, 1), R, 3, cap=cap)
    assert named in str(e.value)


def test_upper_triangular_base_is_refused_as_non_local():
    with pytest.raises(ValueError) as e:
        ArtinianDGAlgebra(upper_triangular_2x2(F2))
    assert "nilpotent" in str(e.value)


def test_unit_inversion_certified_everywhere():
    for R in (truncated_polynomial(F3, 3), local_noncommutative(F2)):
        units = enumerate_units(R)
        assert len(units) == (R.field.p - 1) * R.field.p ** len(R.ideal_labels)
        one = {R.unit: R.field.one}
        for u in units:
            assert R.multiply(u, invert_unit(R, u)) == one


@pytest.mark.parametrize("u, named", [
    ({"1": F2(1), "zz": F2(1)}, "'zz'"),
    ({"1": 1}, "'1'"),
    ({"1": F3(1)}, "'1'"),
    ([("1", 1)], "dict"),
], ids=["foreign-label", "int-coefficient", "other-field", "not-a-dict"])
def test_unit_inversion_refuses_what_the_certificate_cannot_see(u, named):
    """R.multiply reads a label outside its table as zero."""
    with pytest.raises(ValueError, match=re.escape(named)):
        invert_unit(truncated_polynomial(F2, 3), u)


def test_conjugation_orbits_partition_the_maps():
    R = local_noncommutative(F2)
    pres = H0Presentation(njac(F2, 1), 3)
    maps = algebra_maps(pres, R)
    orbits, orbit_of = conjugation_orbits(R, maps)
    covered = sorted(i for o in orbits for i in o)
    assert covered == list(range(len(maps)))
    assert all(orbit_of[i] == k for k, o in enumerate(orbits) for i in o)


# the noncommutative comparison of this module and more algebras over
# its base and over F3, run on their map sets without the Koszul gate
NONCOMMUTATIVE_CASES = {
    "njac1-noncomm-F2-3": (lambda: njac(F2, 1), 3, F2),
    "njac2-noncomm-F2-3": (lambda: njac(F2, 2), 3, F2),
    "kpoints2-noncomm-F2-3": (lambda: kpoints(F2, 2), 3, F2),
    "xy-noncomm-F2-3": (lambda: xy(F2), 3, F2),
    "njac1-noncomm-F3-3": (lambda: njac(F3, 1), 3, F3),
}


@pytest.mark.parametrize("case", sorted(NONCOMMUTATIVE_CASES))
def test_conjugation_orbits_match_the_search(case):
    """One pass over the units per orbit gives the breadth-first orbits."""
    make_a, N, field = NONCOMMUTATIVE_CASES[case]
    R = local_noncommutative(field)
    maps = algebra_maps(H0Presentation(make_a(), N), R)
    orbits, orbit_of = conjugation_orbits(R, maps)
    assert (orbits, orbit_of) == conjugation_orbits_oracle(R, maps)
    assert any(len(o) > 1 for o in orbits)


# ---------------------------------------------------------------------------
# a declared unit that is not strict


def _nonstrict_kpoints():
    """kpoints(F2,1) without its m_2(e1, 1) entry: degrees as an
    admissible algebra, but check_strict_unit fails at (2, (1, e1))."""
    A = kpoints(F2, 1)
    ops = A.m.copy()
    ops.set(2, ("e1", A.unit), {})
    return AInfAlgebra(A.space, F2, ops, arity_bound=A.arity_bound,
                       unit=A.unit)


def test_koszul_probe_refuses_a_unit_that_is_not_strict():
    with pytest.raises(HypothesisNotMet, match="strictly unital"):
        koszul_probe(_nonstrict_kpoints(), 3)
    assert koszul_probe(kpoints(F2, 1), 3).ok


def test_universal_deformation_refuses_a_unit_that_is_not_strict():
    with pytest.raises(HypothesisNotMet, match="strictly unital"):
        UniversalDeformation(_nonstrict_kpoints(), 2)
    UniversalDeformation(kpoints(F2, 1), 2)


def test_prorep_compare_refuses_a_unit_that_is_not_strict():
    R = truncated_polynomial(F2, 3)
    with pytest.raises(HypothesisNotMet, match="strictly unital"):
        prorep_compare(_nonstrict_kpoints(), R, 2)
    assert prorep_compare(kpoints(F2, 1), R, 2).ok
