"""Bar truncations, dual algebras, and the universal cochain.

The oracles here recompute everything the long way: products by
deconcatenation instead of concatenation, Maurer-Cartan residuals in
the convolution algebra of word functionals instead of the tensor
model, and cohomology by dense division-based Gauss.
"""

import copy
import random
import re
from itertools import combinations

import pytest

from barmc.ainfinity import (
    AInfAlgebra,
    StructureMaps,
    check_ainf_axioms,
    check_strict_unit,
    tensor_block_exponent,
    tensor_with_dg,
)
from barmc.artin import truncated_polynomial
from barmc.bar import (
    BarTruncation,
    DualTruncation,
    SHatCohomology,
    bar_words,
    check_tower_surjection,
    dual_dg_algebra,
    is_admissible,
    koszul_probe,
    universal_twisting_cochain,
)
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import (
    acyclic_cone,
    golden_dg_pair,
    kpoints,
    ngr,
    njac,
    random_instance,
    xy,
)
from barmc.linalg import (
    Complex,
    Elimination,
    GradedSpace,
    SpanSolver,
    vec_add,
    vec_clean,
)
from barmc.mc import DeformationSetup
from barmc.scalars import Field
from barmc.serialize import algebra_to_json, label_to_json
from barmc.transfer import minimal_model
import barmc.twisting as twisting_module
from barmc.twisting import UniversalDeformation, prorep_compare

from oracles import (
    BarComplex,
    SubspaceOracle,
    adapted_reps_oracle,
    all_pairs_dg_map_failure,
    class_coords,
    class_coords_oracle,
    check_base_change_oracle,
    coderivation_failure_oracle,
    cohomology_dims_oracle,
    cohomology_oracle,
    dense_kernel,
    dense_rank,
    dual_tables_oracle,
    filtered_dims_oracle,
    pivot_columns_oracle,
    product_class,
    product_table,
    product_table_oracle,
    restricted_kernel_oracle,
    span_coordinates_oracle,
    tower_surjection_oracle,
    universal_ops_oracle,
    weight1_commutators_vanish,
    weight_one_reps,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


# ---------------------------------------------------------------------------
# oracles


def deconcat_product_oracle(dual, phi, psi):
    """(phi psi)(w) = sum over w = uv of +- phi(u) psi(v).

    Evaluates the transposed product by splitting each word, the
    opposite direction from the engine's concatenation table.
    """
    field = dual.field
    out = {}
    for w in dual.words:
        total = field.zero
        for u, v in ((w[:i], w[i:]) for i in range(len(w) + 1)):
            cu = phi.get(u)
            cv = psi.get(v)
            if cu and cv:
                sign = field.sign(dual.bar.word_degree[v]
                                  * dual.bar.word_degree[u])
                total = total + sign * cu * cv
        if total:
            out[w] = total
    return out


def hom_mc_residual_oracle(A, bar, cochain):
    """Generalized MC residual of a cochain, word by word.

    cochain maps words to sparse vectors in A.  The n = 1 term is the
    convolution differential m_1 tau + tau d_bar; for n >= 2 the
    n-fold coproduct splits the word into nonempty parts and the odd
    cochain copies pick up passage signs over the parts they skip.
    """
    field = A.field
    residual = {}
    for w in bar.words:
        acc = {}
        head = cochain.get(w, {})
        if head:
            vec_add(acc, A.eval_m_vectors([head]), -field.one)
        for w2, c in bar.d.get(w, {}).items():
            vec_add(acc, cochain.get(w2, {}), -c)
        for s in range(2, min(A.arity_bound, len(w)) + 1):
            base = field.sign(s * (s + 1) // 2)
            for cuts in combinations(range(1, len(w)), s - 1):
                bounds = (0,) + cuts + (len(w),)
                parts = [w[bounds[i]:bounds[i + 1]] for i in range(s)]
                vecs = [cochain.get(p, {}) for p in parts]
                if any(not v for v in vecs):
                    continue
                exponent = 0
                passed = 0
                for p in parts:
                    exponent += passed
                    passed += bar.word_degree[p]
                term = A.eval_m_vectors(vecs)
                if term:
                    vec_add(acc, term, base * field.sign(exponent))
        acc = vec_clean(acc)
        if acc:
            residual[w] = acc
    return residual


def h0_weight_dims_oracle(dual, N):
    """Filtration dims of H^0 by dense ranks, no engine elimination."""
    field = dual.field
    cx = dual.complex
    boundary_vecs = [v for v in
                     (cx.apply_d({l: field.one})
                      for l in dual.space.labels_of_degree(-1)) if v]
    b_rank = dense_rank(boundary_vecs, field)
    ranks = []
    for w in range(N + 2):
        labels = [x for x in dual.space.labels_of_degree(0) if len(x) >= w]
        kern = dense_kernel([cx.apply_d({l: field.one}) for l in labels], field)
        kern_vecs = [{labels[j]: c for j, c in kv.items()} for kv in kern]
        ranks.append(dense_rank(boundary_vecs + kern_vecs, field) - b_rank)
    return [ranks[w] - ranks[w + 1] for w in range(N + 1)]


def total_dims_oracle(dual):
    labels_by_degree = {i: dual.space.labels_of_degree(i)
                        for i in dual.space.degrees_present()}
    return cohomology_dims_oracle(labels_by_degree, dual.complex.apply_d,
                                  dual.field)


def group_by_word(vec):
    out = {}
    for (a, w), c in vec.items():
        out.setdefault(w, {})[a] = c
    return out


def universal_cochain_table(A):
    one = A.field.one
    return {(a,): {a: one} for a in A.ideal_labels()}


# ---------------------------------------------------------------------------
# word bases and small frozen structures


def test_word_basis_is_length_lexicographic():
    A = njac(F2, 2)
    bar = BarTruncation(A, 2)
    assert bar.words == [
        (), ("x1",), ("x2",),
        ("x1", "x1"), ("x1", "x2"), ("x2", "x1"), ("x2", "x2"),
    ]
    assert len(bar.words) == 7


def test_bar_words_counts_grow_geometrically():
    assert len(bar_words(["a", "b", "c"], 4)) == 1 + 3 + 9 + 27 + 81


def test_ground_field_bar_is_trivial():
    A = kpoints(Q, 0)
    bar = BarTruncation(A, 3)
    assert bar.words == [()]
    assert bar.d == {}
    dual = DualTruncation(bar)
    assert dual.space.dim() == 1
    rep = SHatCohomology(A, 3)
    assert rep.total_dims == {0: 1}
    assert rep.weight_dims == [1, 0, 0, 0]


def test_njac_dual_is_truncated_tensor_algebra():
    A = njac(F2, 2)
    dual = dual_dg_algebra(A, 2)
    assert dual.space.dim() == 7
    assert dual.algebra.m.entries.get(1, {}) == {}
    one = F2.one
    m = dual.algebra.m
    assert m.get(2, (("x1",), ("x2",))) == {("x1", "x2"): one}
    assert m.get(2, (("x2",), ("x1",))) == {("x2", "x1"): one}
    # truncation kills weight 3
    assert m.get(2, (("x1", "x2"), ("x1",))) == {}
    # strict unit
    assert check_strict_unit(dual.algebra).ok


def test_lambda1_dual_is_truncated_polynomial_ring():
    for field in (Q, F2):
        A = kpoints(field, 1)
        dual = dual_dg_algebra(A, 3)
        R = truncated_polynomial(field, 4)
        words = [("e1",) * i for i in range(4)]
        names = ["1", "t", "t2", "t3"]
        rename = dict(zip(words, names))
        assert dual.algebra.m.entries.get(1, {}) == {}
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                got = {rename[w]: c
                       for w, c in dual.algebra.m.get(2, (u, v)).items()}
                want = dict(R.algebra.m.get(2, (names[i], names[j])))
                assert got == want


def test_lambda2_bar_differential_frozen_entries():
    A = kpoints(Q, 2)
    bar = BarTruncation(A, 2)
    minus = -Q.one
    assert bar.d[("e1", "e2")] == {("e12",): minus}
    assert bar.d[("e2", "e1")] == {("e12",): Q.one}
    dual = DualTruncation(bar)
    # transpose with the degree sign: the weight-1 functional on e12
    # differentiates to -(e1,e2)* + (e2,e1)*
    assert dual.algebra.m.get(1, (("e12",),)) == {
        ("e1", "e2"): minus, ("e2", "e1"): Q.one}


def test_dual_is_a_dg_algebra_on_small_truncations():
    cases = [
        (kpoints(Q, 2), 2),
        (njac(Q, 2), 2),
        (ngr(Q, 3, 1), 2),
        (xy(Q), 3),
        (golden_dg_pair(F2)[0], 1),
    ]
    for A, N in cases:
        dual = dual_dg_algebra(A, N)
        assert check_ainf_axioms(dual.algebra, 3).ok
        assert check_strict_unit(dual.algebra).ok


def _admissible_draws():
    for field in (F2, F3, Q):
        for seed in range(16):
            A = random_instance(field, seed)[0]
            if is_admissible(A):
                yield A


def test_bar_differential_is_a_coderivation_by_the_replay_oracle():
    """The bar-side fact the dual's DG check transposes, replayed word by
    word on the golden probe inputs and the admissible random draws."""
    cases = [(kpoints(Q, 2), 5), (xy(Q), 4), (kpoints(Q, 3), 3)]
    cases += [(A, 3) for A in _admissible_draws()]
    assert len(cases) > 30
    for A, N in cases:
        assert coderivation_failure_oracle(BarTruncation(A, N)) is None


@pytest.mark.parametrize("A, witness", [
    (kpoints(Q, 2), "(('e1',), ('e12',)) (residual {('e1', 'e1', 'e2'): "),
    (xy(Q), "(('x',), ('y',)) (residual {('x', 'x', 'x'): "),
], ids=["kpoints2", "xy"])
def test_dual_refuses_a_bar_differential_that_is_not_a_coderivation(
        A, witness):
    """One length-2 entry of d_bar negated after construction: d_bar is no
    longer a coderivation, the replay oracle sees it on the bar side, and
    the dual refuses with the failing Leibniz tuple and its residual."""
    bar = BarTruncation(A, 3)
    w = next(w for w in bar.words if len(w) == 2 and w in bar.d)
    bar.d[w] = {k: -c for k, c in bar.d[w].items()}
    assert coderivation_failure_oracle(bar) is not None
    with pytest.raises(MathCheckFailure, match="arity-2 identity fails on "
                       + re.escape(witness)):
        DualTruncation(bar)


def test_each_dual_is_certified_once_at_arity_two(monkeypatch):
    """The Leibniz certificate on the generators runs once per
    DualTruncation, and bar.py builds one Complex, the one d^2 check,
    per DualTruncation, over the koszul benchmark jobs; the comparison
    builds none, and bar.py no longer runs the all-pairs
    check_ainf_axioms."""
    import barmc.bar as bar_module
    assert not hasattr(bar_module, "check_ainf_axioms")
    checked, built, complexes = [], [], []
    real_check, real_init = DualTruncation._leibniz_failure, \
        DualTruncation.__init__

    def counting_check(self):
        checked.append(self)
        return real_check(self)

    def recording_init(self, bar):
        real_init(self, bar)
        built.append(self)

    def counting_complex(*args):
        complexes.append(Complex(*args))
        return complexes[-1]

    monkeypatch.setattr(DualTruncation, "_leibniz_failure", counting_check)
    monkeypatch.setattr(DualTruncation, "__init__", recording_init)
    monkeypatch.setattr(bar_module, "Complex", counting_complex)
    koszul_probe(kpoints(Q, 2), 5)
    koszul_probe(kpoints(F3, 3), 3)
    koszul_probe(xy(Q), 4)
    assert prorep_compare(njac(F3, 2), truncated_polynomial(F3, 3), 3).ok
    assert len(built) == 3
    assert checked == built
    assert [S.complex for S in built] == complexes


def test_dual_refuses_an_algebra_that_is_not_associative():
    """kpoints(Q, 3) with m_2(e12, e3) negated fails associativity on
    (e1, e2, e3), so d_bar^2 != 0; the dual's Complex, the one d^2 check
    of S_N, refuses it with ValueError.  (kpoints(Q, 2) has no nonzero
    associator on its ideal, so negating one of its entries does not.)"""
    A = kpoints(Q, 3)
    ops = A.m.copy()
    ops.set(2, ("e12", "e3"), {"e123": -Q.one})
    B = AInfAlgebra(A.space, Q, ops, arity_bound=2, unit=A.unit)
    assert not check_ainf_axioms(B, 3).ok
    for refuse in (dual_dg_algebra, koszul_probe):
        with pytest.raises(ValueError, match=re.escape("d*d is nonzero")):
            refuse(B, 3)


def _dual_cases():
    """The golden probes and the admissible random draws at N = 3."""
    return [(make(), N) for make, N in GOLDEN_PROBES] + [
        (A, 3) for A in _admissible_draws()]


def test_dual_tables_match_the_all_pairs_oracle():
    """The product written from the word degrees is the oracle's
    (-1)^(|U||V|) product, the word signs are the prefix products of
    the Koszul signs, and the all-pairs arity-2 check accepts what the
    generator certificate accepts."""
    for A, N in _dual_cases():
        bar = BarTruncation(A, N)
        S = DualTruncation(bar)
        algebra, rep = dual_tables_oracle(bar)
        assert rep.ok
        assert S.algebra.m.entries == algebra.m.entries
        for w in S.words:
            degs = [bar.sdeg[l] for l in w]
            assert S.word_signs[w] == S.field.sign(
                tensor_block_exponent(degs, degs))


def test_empty_word_leibniz_rows_are_zero():
    """The Leibniz rows the certificate skips, u = (), are zero: d(()) = 0
    and d(() V) = d(V), over the golden probes, the other two duals the
    benchmark builds and the admissible F_2 and F_3 draws (seeds 0-39)
    at N = 3."""
    cases = [(make(), N) for make, N in GOLDEN_PROBES]
    cases += [(kpoints(F3, 3), 3), (njac(F3, 2), 3)]
    cases += [(A, 3) for field in (F2, F3) for seed in range(40)
              for A in [random_instance(field, seed)[0]] if is_admissible(A)]
    assert len(cases) == 71
    rows = 0
    for A, N in cases:
        S = dual_dg_algebra(A, N)
        d, product = S.complex.d, S.algebra.m.entries[2]
        assert () not in d and all(() not in v for v in d.values())
        for V in S.words:
            acc = S.complex.apply_d(product[((), V)])
            for y, c in d.get(V, {}).items():
                vec_add(acc, product[((), y)], -c)
            assert vec_clean(acc) == {}, (A, N, V)
            rows += 1
    assert rows == 4060


def test_dual_refuses_what_the_all_pairs_oracle_refuses():
    """One d_bar entry negated after construction, over every word of
    length 2 and 3 of the smaller cases: the generator certificate and
    the all-pairs check agree on the verdict, and on a refusal name the
    same tuple and residual."""
    refused = 0
    for A, N in _dual_cases()[1:]:
        bar = BarTruncation(A, N)
        for w in [w for w in bar.words if 2 <= len(w) <= 3 and w in bar.d][:6]:
            mutant = copy.copy(bar)
            mutant.d = dict(bar.d)
            mutant.d[w] = {k: -c for k, c in bar.d[w].items()}
            _, rep = dual_tables_oracle(mutant)
            if not rep.ok and rep.failure[0] == 1:
                continue  # d^2 = 0 fails too; the Complex refuses that
            if rep.ok:
                DualTruncation(mutant)
                continue
            n, args, residual = rep.failure
            with pytest.raises(MathCheckFailure) as e:
                DualTruncation(mutant)
            assert str(e.value) == (
                "S_%d is not a DG algebra: the arity-%d identity fails on %r "
                "(residual %r)" % (N, n, args, residual))
            refused += 1
    assert refused >= 60


class _UnsignedProducts(StructureMaps):
    """Every product entry written with coefficient +1."""

    def set(self, n, args, vec):
        if n == 2:
            vec = {k: c * c for k, c in vec.items()}
        super().set(n, args, vec)


@pytest.mark.parametrize("A, N", [
    (kpoints(Q, 2), 4), (xy(Q), 4), (kpoints(F3, 3), 3), (ngr(Q, 3, 1), 3),
], ids=["kpoints2", "xy", "kpoints3-F3", "ngr"])
def test_dual_refuses_products_without_their_sign(monkeypatch, A, N):
    """S_N with the product sign dropped at construction is still
    associative, and its Leibniz certificate refuses it."""
    import barmc.bar as bar_module
    monkeypatch.setattr(bar_module, "StructureMaps", _UnsignedProducts)
    with pytest.raises(MathCheckFailure, match="arity-2 identity fails on"):
        dual_dg_algebra(A, N)


# ---------------------------------------------------------------------------
# the transpose against the deconcatenation oracle


@pytest.mark.parametrize("make,field,N", [
    (lambda f: kpoints(f, 2), Q, 3),
    (lambda f: kpoints(f, 2), F2, 3),
    (lambda f: njac(f, 2), F3, 3),
    (lambda f: xy(f), Q, 3),
])
def test_product_matches_deconcatenation_oracle(make, field, N):
    A = make(field)
    dual = dual_dg_algebra(A, N)
    one = field.one
    for U in dual.words:
        for V in dual.words:
            engine = dual.algebra.m.get(2, (U, V))
            oracle = deconcat_product_oracle(dual, {U: one}, {V: one})
            assert engine == oracle, (U, V)
    rng = random.Random(7)
    for _ in range(5):
        phi = {w: field(rng.randrange(-3, 4)) for w in rng.sample(dual.words, 3)}
        psi = {w: field(rng.randrange(-3, 4)) for w in rng.sample(dual.words, 3)}
        phi, psi = vec_clean(phi), vec_clean(psi)
        hom_phi = {w: c for w, c in phi.items()}
        engine = dual.algebra.eval_m_vectors([phi, psi])
        assert vec_clean(engine) == deconcat_product_oracle(dual, hom_phi, psi)


@pytest.mark.parametrize("make,field", [
    (lambda f: kpoints(f, 2), Q),
    (lambda f: golden_dg_pair(f)[0], F2),
])
def test_differential_transposes_the_pairing(make, field):
    A = make(field)
    dual = dual_dg_algebra(A, 2)
    bar = dual.bar
    for W in dual.words:
        dW = dual.algebra.m.get(1, (W,))
        for w in dual.words:
            # <d W*, w> must equal -(-1)^{|W*|} <W*, d_bar w>
            left = dW.get(w, field.zero)
            sign = field.sign(1 + bar.word_degree[W])
            right = sign * bar.d.get(w, {}).get(W, field.zero)
            assert left == right, (W, w)


# ---------------------------------------------------------------------------
# cohomology, weight filtration, koszulness


def test_lambda2_h0_weight_dims_resolve_to_symmetric_algebra():
    for field in (F2, Q):
        rep3 = SHatCohomology(kpoints(field, 2), 3)
        assert rep3.weight_dims == [1, 2, 3, 4]
        assert sum(rep3.weight_dims) == 10
        assert rep3.weight_dims == h0_weight_dims_oracle(rep3.S, 3)
        assert weight1_commutators_vanish(rep3)
    rep4 = SHatCohomology(kpoints(F2, 2), 4)
    assert rep4.weight_dims == [1, 2, 3, 4, 5]
    assert rep4.weight_dims == h0_weight_dims_oracle(rep4.S, 4)
    assert weight1_commutators_vanish(rep4)
    assert rep4.total_dims == total_dims_oracle(rep4.S)


def test_njac_h0_weight_dims_are_free_and_noncommutative():
    rep = SHatCohomology(njac(F2, 2), 3)
    assert rep.weight_dims == [1, 2, 4, 8]
    assert rep.weight_dims == h0_weight_dims_oracle(rep.S, 3)
    assert not weight1_commutators_vanish(rep)
    assert rep.total_dims == {0: 15}


def test_koszul_probe_lambda2_at_order_4():
    verdict = koszul_probe(kpoints(F2, 2), 4)
    assert verdict.ok
    assert verdict.verdict == "koszul-at-order-4"
    assert verdict.window == (0, 3)
    assert verdict.h0_weight_dims == [1, 2, 3, 4, 5]
    assert verdict.dims == total_dims_oracle(verdict.cohomology.S)


def test_koszul_probe_detects_non_koszul_truncated_polynomials():
    # k[x]/(x^3) with the square split off as a degree-2 generator is
    # the standard non-Koszul cubic: a genuine class of weight 2
    # survives in degree -1 and persists at the next order.
    for N in (3, 4):
        verdict = koszul_probe(xy(Q), N)
        assert not verdict.ok
        assert any(i == -1 and w == 2 for i, w, _ in verdict.failures), N
        assert verdict.verdict == "fails at (-1, %d)" % N


@pytest.mark.parametrize("make, top", [
    (lambda: kpoints(F2, 2), 2),
    (lambda: xy(F3), 2),
    (lambda: njac(F2, 2), 2),
    (lambda: random_instance(F3, 7)[0], 3),
    (lambda: random_instance(F3, 0)[0], 4),
], ids=["kpoints2-F2", "xy-F3", "njac2-F2", "m3-seed7", "m4-seed0"])
def test_koszul_window_slices_match_two_orders_deeper(make, top):
    """Every arity present bounds the window, whatever N: below the top
    arity the window holds weight 0 only, which certifies nothing, and
    the probe refuses it naming the window; from the top arity on, each
    slice gr_w H^i in the window equals the slice two orders deeper."""
    A = make()
    assert A.m.max_arity() == top
    for N in range(top):
        with pytest.raises(HypothesisNotMet, match=re.escape(
                "order %d has the window (0, 0)" % N)):
            koszul_probe(A, N)
    for N in (top, top + 1):
        verdict = koszul_probe(A, N)
        lo, hi = verdict.window
        assert lo == 0 < hi == N - top + 1
        near = verdict.cohomology.filtered_dims
        deep = koszul_probe(A, N + 2).cohomology.filtered_dims
        for i in set(near) | set(deep):
            assert (near.get(i, [0] * (N + 1))[:hi + 1]
                    == deep.get(i, [0] * (N + 3))[:hi + 1]), (N, i)


def test_koszul_probe_njac_every_order():
    with pytest.raises(HypothesisNotMet, match=re.escape("window (0, 0)")):
        koszul_probe(njac(F2, 1), 1)
    for N in range(2, 5):
        verdict = koszul_probe(njac(F2, 1), N)
        assert verdict.ok, N
    assert koszul_probe(njac(Q, 2), 3).ok


def test_koszul_probe_ngr_order_4():
    for field in (F2, Q):
        verdict = koszul_probe(ngr(field, 3, 1), 4)
        assert verdict.dims == total_dims_oracle(verdict.cohomology.S)
        assert verdict.h0_weight_dims == h0_weight_dims_oracle(
            verdict.cohomology.S, 4)
        assert verdict.ok, verdict.dims


@pytest.mark.parametrize("make, field, N", [
    (lambda f: kpoints(f, 2), Q, 5),
    (lambda f: kpoints(f, 3), F3, 3),
    (xy, Q, 4),
    (lambda f: njac(f, 2), Q, 4),
], ids=["kpoints2-Q-5", "kpoints3-F3-3", "xy-Q-4", "njac2-Q-4"])
def test_filtered_cohomology_matches_rebuild_loop_oracles(make, field, N):
    rep = koszul_probe(make(field), N).cohomology
    for i in rep.S.space.degrees_present():
        h = rep.cx.cohomology(i)
        assert h is rep.cx.cohomology(i)
        assert (h.boundaries.rows, h.representatives) == \
            cohomology_oracle(rep.cx, i)
        assert rep.filtered_dims[i] == filtered_dims_oracle(rep, i)
    assert rep.weight_dims == filtered_dims_oracle(rep, 0)
    weight_reps = adapted_reps_oracle(rep)
    assert rep.weight_reps == weight_reps
    assert product_table(rep) == product_table_oracle(rep, weight_reps)


def _filtration_cases():
    """The golden probes and every admissible F_2 and F_3 draw at N = 2, 3."""
    cases = [(make(), N) for make, N in GOLDEN_PROBES]
    for field in (F2, F3):
        for seed in range(40):
            A = random_instance(field, seed)[0]
            if is_admissible(A):
                cases += [(A, 2), (A, 3)]
    return cases


def test_weight_filtration_from_one_elimination_matches_the_per_weight_oracle():
    """Reading the filtration off cx.cohomology(i) gives the dims, the
    adapted H^0 representatives and the product table of one restricted
    kernel per weight; each representative of weight w, its shortest
    word, lies in Z(F^w) as that kernel computes it."""
    cases = _filtration_cases()
    assert len(cases) > 60
    for A, N in cases:
        rep = SHatCohomology(A, N)
        for i in rep.S.space.degrees_present():
            assert rep.filtered_dims[i] == filtered_dims_oracle(rep, i)
            for v in rep.cx.cohomology(i).representatives:
                w = min(map(len, v))
                z = SubspaceOracle(restricted_kernel_oracle(rep, i, w), A.field)
                assert z.contains(v), (A, N, i, v)
        weight_reps = adapted_reps_oracle(rep)
        assert rep.weight_reps == weight_reps
        assert product_table(rep) == product_table_oracle(rep, weight_reps)


def test_koszul_probe_builds_no_span_solver(monkeypatch):
    """The koszul benchmark jobs read every step of the filtration off
    the block eliminations: no SpanSolver is built."""
    built = []
    init = SpanSolver.__init__

    def counted_init(self, vectors, field):
        built.append(self)
        init(self, vectors, field)

    monkeypatch.setattr(SpanSolver, "__init__", counted_init)
    koszul_probe(kpoints(Q, 2), 5)
    koszul_probe(kpoints(F3, 3), 3)
    koszul_probe(xy(Q), 4)
    assert built == []


def test_dual_complex_lists_each_degree_longest_first():
    """S.complex has the labels and degrees of S.space, stably sorted by
    descending word length; S.space and the serialized algebra stay
    length-lexicographic."""
    for A, N in [(kpoints(Q, 2), 3), (xy(F2), 4), (njac(F3, 2), 3)]:
        S = dual_dg_algebra(A, N)
        words = bar_words(A.ideal_labels(), N)
        assert S.space.labels == tuple(words)
        assert [b["label"] for b in algebra_to_json(S.algebra)["basis"]] == \
            [label_to_json(w) for w in words]
        space = S.complex.space
        assert space.labels == tuple(sorted(words, key=lambda w: -len(w)))
        assert space.degree == S.space.degree
        assert S.complex.d == S.algebra.complex().d


def test_koszul_probe_refuses_non_admissible_input():
    R = truncated_polynomial(F2, 3)
    with pytest.raises(HypothesisNotMet):
        koszul_probe(R.algebra, 2)
    assert not is_admissible(R.algebra)
    assert is_admissible(kpoints(Q, 2))


def test_probe_certifies_that_s_n_sits_in_degrees_at_most_zero(monkeypatch):
    """The probe's windows need S_N in degrees <= 0, which admissibility
    gives; an admissibility test that let a degree-0 ideal through would
    put S_N in positive degrees, and that is an engine fault."""
    import barmc.bar as bar_module
    monkeypatch.setattr(bar_module, "is_admissible", lambda A: True)
    R = truncated_polynomial(F2, 3)
    with pytest.raises(MathCheckFailure) as e:
        koszul_probe(R.algebra, 3)
    assert "positive dual degrees" in str(e.value)


def test_h_dim_tables_are_consistent():
    rep = SHatCohomology(kpoints(F2, 2), 3)
    table = rep.h_dim_table()
    assert sum(d for (i, _), d in table.items() if i == 0) == rep.h0.dim
    for (i, _), dim in table.items():
        assert dim > 0
        assert rep.total_dims.get(i, 0) >= dim
    dual_table = rep.S.dim_table()
    assert sum(dual_table.values()) == rep.S.space.dim()


def test_h0_product_table_matches_polynomial_multiplication():
    rep = SHatCohomology(kpoints(Q, 2), 3)
    reps1 = weight_one_reps(rep)
    assert len(reps1) == 2
    u, v = reps1
    uv = product_class(rep, u, v)
    vu = product_class(rep, v, u)
    assert uv == vu
    assert uv
    weights = [w for w, _ in rep.weight_reps]
    for pos in uv:
        assert weights[pos] == 2


# ---------------------------------------------------------------------------
# towers


def test_tower_surjections_hold():
    """To every lower order; the kept-words check agrees, and the quotient
    passes the all-pairs certificate on every word of the finer order."""
    cases = [
        (kpoints(F2, 2), 3),
        (njac(Q, 2), 3),
        (golden_dg_pair(F2)[0], 2),
        (xy(Q), 3),
        (njac(F3, 2), 4),
    ]
    for A, N in cases:
        big = dual_dg_algebra(A, N)
        for n in range(N):
            small = dual_dg_algebra(A, n)
            assert check_tower_surjection(big, small).ok
            assert tower_surjection_oracle(big, small).ok
            m = small.algebra.eval_m_vectors
            table = {w: {w: A.field.one} for w in small.words}
            assert all_pairs_dg_map_failure(
                big, table, lambda u, v: m([u, v]), lambda v: m([v])) is None


def test_tower_surjection_names_a_mutated_long_product():
    """One product entry (letter, two-letter word) of the finer truncation
    is doubled; the generator certificate names exactly that pair."""
    A = njac(Q, 2)
    big, small = dual_dg_algebra(A, 4), dual_dg_algebra(A, 3)
    pair = (("x1",), ("x2", "x1"))
    entry = big.algebra.m.get(2, pair)
    assert list(entry) == [("x1", "x2", "x1")]
    big.algebra.m.set(2, pair, {w: 2 * c for w, c in entry.items()})
    rep = check_tower_surjection(big, small)
    assert not rep.ok
    assert rep.failure == ("product", pair)
    assert not tower_surjection_oracle(big, small).ok


def test_tower_rejects_wrong_direction():
    A = kpoints(Q, 2)
    with pytest.raises(ValueError):
        check_tower_surjection(dual_dg_algebra(A, 1), dual_dg_algebra(A, 2))


def test_tower_accepts_duals_of_equal_algebras():
    assert check_tower_surjection(dual_dg_algebra(kpoints(Q, 2), 3),
                                  dual_dg_algebra(kpoints(Q, 2), 2)).ok


@pytest.mark.parametrize("big, small", [
    (lambda: dual_dg_algebra(kpoints(Q, 2), 3),
     lambda: dual_dg_algebra(xy(Q), 2)),
    (lambda: dual_dg_algebra(xy(Q), 3), lambda: dual_dg_algebra(xy(F2), 2)),
    (lambda: dual_dg_algebra(xy(Q), 3),
     lambda: dual_dg_algebra(xy(Q), 2).algebra),
    (lambda: dual_dg_algebra(xy(Q), 3).algebra,
     lambda: dual_dg_algebra(xy(Q), 2)),
], ids=["foreign-letters", "foreign-field", "small-not-a-dual",
        "big-not-a-dual"])
def test_tower_refuses_truncations_of_different_algebras(big, small):
    """Refused before any check, with the shared is_dual_of test that
    CorepresentingHom refuses with."""
    with pytest.raises(ValueError, match="two dual truncations of one"):
        check_tower_surjection(big(), small())


def test_h0_weight_dims_stabilize_along_the_tower():
    for A in (kpoints(F2, 2), njac(F2, 2), ngr(Q, 3, 1)):
        tables = {order: SHatCohomology(A, order).weight_dims
                  for order in (2, 3, 4)}
        for order in (2, 3):
            assert tables[order] == tables[order + 1][:order + 1], tables


def test_truncation_completeness_gate():
    A = xy(Q)
    incomplete = AInfAlgebra(A.space, A.field, A.m, arity_bound=6,
                             unit="1", complete_to_arity=2)
    with pytest.raises(HypothesisNotMet):
        BarTruncation(incomplete, 4)
    assert BarTruncation(incomplete, 2).words is not None
    with pytest.raises(HypothesisNotMet):
        BarComplex(incomplete, 2)
    with pytest.raises(HypothesisNotMet):
        UniversalDeformation(incomplete, 2)


# ---------------------------------------------------------------------------
# the universal twisting cochain


def test_cochain_values_and_degree():
    A = kpoints(Q, 2)
    elem = universal_twisting_cochain(A)
    # tau sends the one-letter word (a) to a and every other word to 0
    assert elem == {(a, (a,)): Q.one for a in A.ideal_labels()}
    dual = dual_dg_algebra(A, 2)
    for (a, w) in elem:
        assert A.deg(a) - dual.bar.word_degree[w] == 1


@pytest.mark.parametrize("make,field,N", [
    (lambda f: kpoints(f, 2), F2, 3),
    (lambda f: kpoints(f, 2), Q, 3),
    (lambda f: xy(f), Q, 3),
    (lambda f: xy(f), F2, 3),
    (lambda f: njac(f, 2), F3, 2),
    (lambda f: golden_dg_pair(f)[0], F2, 2),
])
def test_universal_cochain_satisfies_convolution_mc(make, field, N):
    A = make(field)
    dual = dual_dg_algebra(A, N)
    elem = universal_twisting_cochain(A)
    residual = DeformationSetup(A, dual.as_artinian()).mc_residual(elem)
    assert residual == {}
    oracle = hom_mc_residual_oracle(A, dual.bar, universal_cochain_table(A))
    assert oracle == {}


@pytest.mark.parametrize("make,field", [
    (lambda f: kpoints(f, 2), F2),
    (lambda f: xy(f), Q),
])
def test_perturbed_cochain_fails_mc_identically_both_ways(make, field):
    A = make(field)
    dual = dual_dg_algebra(A, 3)
    dropped = A.ideal_labels()[-1]
    table = universal_cochain_table(A)
    del table[(dropped,)]
    elem = universal_twisting_cochain(A)
    del elem[(dropped, (dropped,))]
    engine = DeformationSetup(A, dual.as_artinian()).mc_residual(elem)
    oracle = hom_mc_residual_oracle(A, dual.bar, table)
    assert engine, "perturbation should break the MC equation"
    assert group_by_word(engine) == oracle


# ---------------------------------------------------------------------------
# the one-sided bar complex


def test_bar_complex_lambda1_acyclic_in_complete_positive_weights():
    for field in (Q, F2):
        P = BarComplex(kpoints(field, 1), 3)
        # the differential preserves the weight here, so slices are complexes
        for label, img in P.d.items():
            for out in img:
                assert P.weight_of(out) == P.weight_of(label)
        for w in range(1, 4):
            labels = [l for l in P.space.labels if P.weight_of(l) == w]
            sub_space_basis = [(l, P.space.degree[l]) for l in labels]
            slice_cx = Complex(GradedSpace(sub_space_basis),
                               {l: P.d.get(l, {}) for l in labels}, field)
            assert slice_cx.total_cohomology_dims() == {}, w
        # weight 0 is the unit line, weight N+1 is the truncation edge
        edge = [l for l in P.space.labels if P.weight_of(l) == 4]
        assert edge and all(not P.d.get(l) for l in edge)


def test_bar_complex_d_squared_on_golden_inputs():
    # construction certifies d^2 = 0 exactly; failure raises
    BarComplex(kpoints(F2, 2), 3)
    BarComplex(xy(Q), 3)
    BarComplex(golden_dg_pair(F2)[0], 2)


def test_hom_from_k_slice_matches_the_algebra():
    cases = [
        (kpoints(Q, 2), 3),
        (xy(Q), 3),
        (njac(F2, 2), 2),
        (golden_dg_pair(F2)[0], 2),
    ]
    for A, N in cases:
        P = BarComplex(A, N)
        assert P.hom_from_k_report().ok


def test_end_k_probe_matches_dual_algebra():
    cases = [
        (kpoints(Q, 2), 3),
        (kpoints(F2, 2), 3),
        (xy(Q), 3),
        (golden_dg_pair(F2)[0], 2),
    ]
    for A, N in cases:
        P = BarComplex(A, N)
        assert P.end_k_probe().ok


# ---------------------------------------------------------------------------
# the universal deformation


def test_universal_deformation_njac1_frozen_maps():
    for field in (Q, F2):
        E = UniversalDeformation(njac(field, 1), 2)
        one = field.one
        assert E.ops.get(1, (("1", ()),)) == {("x1", ("x1",)): one}
        assert E.ops.get(1, (("1", ("x1",)),)) == {("x1", ("x1", "x1")): one}
        assert E.ops.get(1, (("1", ("x1", "x1")),)) == {}
        assert E.ops.get(1, (("x1", ()),)) == {}
        assert E.ops.get(2, (("1", ()), "x1")) == {("x1", ()): one}
        assert E.check_module_axioms(3).ok
        assert E.check_base_change().ok


def test_universal_deformation_module_axioms_lambda2():
    E = UniversalDeformation(kpoints(F2, 2), 2)
    assert E.check_module_axioms(3).ok
    assert E.check_base_change().ok
    # d^2 = 0 at the next truncation, where sums have more insertions
    E3 = UniversalDeformation(kpoints(Q, 2), 3)
    assert E3.check_module_axioms(1).ok
    assert E3.check_base_change().ok


def test_universal_deformation_golden_base_change():
    E = UniversalDeformation(golden_dg_pair(F2)[0], 1)
    assert E.check_module_axioms(3).ok
    assert E.check_base_change().ok


@pytest.mark.parametrize("make,field,N", [
    (lambda f: njac(f, 1), Q, 2),
    (lambda f: njac(f, 1), F2, 2),
    (lambda f: kpoints(f, 2), F2, 2),
    (lambda f: kpoints(f, 2), Q, 3),
    (lambda f: golden_dg_pair(f)[0], F2, 1),
    (lambda f: xy(f), Q, 3),
    (lambda f: njac(f, 2), F3, 2),
])
def test_universal_deformation_matches_the_insertion_oracle(make, field, N):
    A = make(field)
    E = UniversalDeformation(A, N)
    assert E.ops.entries == universal_ops_oracle(A, N).entries


def _universal_draws():
    """Universal deformations of seeded random algebras, m_4 among them."""
    for field, seeds in ((F2, (0, 1, 10, 16)), (F3, (3, 9)), (Q, (6, 11))):
        for seed in seeds:
            A = random_instance(field, seed)[0]
            yield A, UniversalDeformation(A, 2)


def test_universal_deformation_matches_the_oracle_on_random_draws():
    for A, E in _universal_draws():
        assert E.ops.entries == universal_ops_oracle(A, 2).entries


def _planted(E, rng):
    """E with its tables copied and three weight-zero entries disturbed."""
    F = copy.copy(E)
    F.ops = E.ops.copy()
    n = rng.randint(1, E.A.arity_bound)
    for _ in range(3):
        args = tuple(rng.choice(E.A.space.labels) for _ in range(n))
        key = ((args[0], ()),) + args[1:]
        out = (rng.choice(E.A.space.labels), ())
        F.ops.add(n, key, {out: E.field.one})
    return F


def test_base_change_reads_the_entries_like_the_sweep():
    """Same verdict and witness as the all-tuple sweep, planted or not."""
    rng = random.Random(5)
    cases = [E for _, E in _universal_draws()]
    cases += [UniversalDeformation(kpoints(F2, 2), 2),
              UniversalDeformation(njac(F3, 2), 2)]
    failures = 0
    for E in cases:
        assert E.check_base_change().ok and check_base_change_oracle(E).ok
        for _ in range(6):
            F = _planted(E, rng)
            got, want = F.check_base_change(), check_base_change_oracle(F)
            assert (got.ok, got.failure) == (want.ok, want.failure)
            failures += not got.ok
    assert failures >= 40


def test_universal_deformation_refuses_a_twist_that_is_not_mc(monkeypatch):
    """tau is certified MC before any table is built; over an m_2-only
    algebra a twist that fails is a MathCheckFailure with the residual."""
    def doubled(A):
        return {k: c + c for k, c in universal_twisting_cochain(A).items()}

    monkeypatch.setattr(twisting_module, "universal_twisting_cochain", doubled)
    # building a table would now raise TypeError
    monkeypatch.setattr(twisting_module.TwistedModule, "_tables", None)
    with pytest.raises(MathCheckFailure,
                       match=re.escape("not Maurer-Cartan over S_2 (residual {")):
        UniversalDeformation(kpoints(Q, 2), 2)


def test_universal_deformation_refuses_non_admissible():
    R = truncated_polynomial(F2, 2)
    with pytest.raises(HypothesisNotMet):
        UniversalDeformation(R.algebra, 2)


# ---------------------------------------------------------------------------
# the dual as a coefficient ring


def test_dual_truncation_is_artinian():
    S = dual_dg_algebra(kpoints(Q, 2), 2).as_artinian()
    assert S.nu == 3
    assert not S.classical
    assert not S.commutative
    T = dual_dg_algebra(njac(F2, 2), 2).as_artinian()
    assert T.nu == 3
    assert T.classical
    assert not T.commutative


# ---------------------------------------------------------------------------
# coordinate solvers, built on the first query


# the probes of tests/test_golden.py
GOLDEN_PROBES = [(lambda: kpoints(Q, 2), 5), (lambda: xy(Q), 4),
                 (lambda: kpoints(Q, 3), 3)]


def test_koszul_probe_leaves_the_coordinate_solvers_unbuilt():
    """The probe reads dimensions and representatives, never coordinates;
    the first class_coords or project builds the solver of the H^i it
    asks, and class_coords asks H^0."""
    rep = koszul_probe(kpoints(Q, 2), 4).cohomology
    built = list(rep.cx._cohomology.values())
    assert 0 in rep.cx._cohomology and len(built) > 1
    assert not any("_solver" in vars(h) for h in built)
    _, v = rep.weight_reps[-1]
    assert class_coords(rep, v) == {len(rep.weight_reps) - 1: Q.one}
    assert "_solver" in vars(rep.h0)
    h = rep.cx.cohomology(-1)
    assert h.dim and "_solver" not in vars(h)
    assert h.project(h.representatives[0]) == {0: Q.one}
    assert "_solver" in vars(h)


def test_each_block_is_eliminated_once_per_complex(monkeypatch):
    """Cohomology, the weight filtration and build_splitting read one
    elimination per block: over the golden probes and one minimal
    model, every Elimination built is a distinct block asked for."""
    built = []
    asked = {}
    init, block = Elimination.__init__, Complex.block

    def counted_init(self, matrix):
        built.append(matrix)
        init(self, matrix)

    def recorded_block(self, i):
        asked[(id(self), i)] = self  # holds the complex, so ids stay unique
        return block(self, i)

    monkeypatch.setattr(Elimination, "__init__", counted_init)
    monkeypatch.setattr(Complex, "block", recorded_block)
    for make, N in GOLDEN_PROBES:
        koszul_probe(make(), N)
    minimal_model(tensor_with_dg(kpoints(Q, 2), acyclic_cone(Q)), 5)
    assert built and len(built) == len(asked)


def combinations_of(rng, field, reps, boundaries):
    """A random class combination plus a random boundary, and its coordinates."""
    coords = {j: field(rng.randint(-2, 2)) for j in range(len(reps))}
    v = {}
    for j, c in coords.items():
        vec_add(v, reps[j], c)
    for b in boundaries:
        vec_add(v, b, field(rng.randint(-2, 2)))
    return vec_clean(v), {j: c for j, c in coords.items() if c}


@pytest.mark.parametrize("case", range(len(GOLDEN_PROBES)))
def test_class_coordinates_match_the_eager_solvers(case):
    """project and class_coords give the coordinates an eager solve over
    the parent's basis gives: the image basis of d for Cohomology, the
    boundary rows for SHatCohomology, then the representatives."""
    make, N = GOLDEN_PROBES[case]
    rep = koszul_probe(make(), N).cohomology
    rng = random.Random(case)
    for i, h in sorted(rep.cx._cohomology.items()):
        if not h.dim:
            continue
        d_prev, _, dst = rep.cx.matrix_of_d(i - 1)
        image = [{dst[r]: c for r, c in col.items()}
                 for col in pivot_columns_oracle(d_prev)]
        for _ in range(3):
            v, want = combinations_of(rng, Q, h.representatives, image)
            eager = span_coordinates_oracle(image + h.representatives, Q, v)
            assert {j - len(image): c for j, c in eager.items()
                    if j >= len(image) and c} == want
            assert h.project(v) == want
    reps = [v for _, v in rep.weight_reps]
    bounds = rep.h0.boundaries.rows
    for _ in range(3):
        v, want = combinations_of(rng, Q, reps, bounds)
        assert class_coords(rep, v) == want


def _class_coords_cases():
    cases = [(make(), N) for make, N in GOLDEN_PROBES]
    for field in (F2, F3):
        for seed in range(40):
            A = random_instance(field, seed)[0]
            if is_admissible(A):
                cases += [(A, 2), (A, 3)]
    return cases


def test_class_coords_match_the_tagged_solver():
    """class_coords reads h0.project; the tagged solver over the boundary
    rows and the adapted representatives gives the same coordinates, key
    by key, on every representative, every product of two, and random
    combinations plus boundaries.  A vector off degree 0 is refused by
    both with the same message."""
    cases = _class_coords_cases()
    assert len(cases) == 3 + 132
    for i, (A, N) in enumerate(cases):
        rep = SHatCohomology(A, N)
        rng = random.Random(i)
        reps = [v for _, v in rep.weight_reps]
        vecs = reps + [rep.S.algebra.eval_m_vectors([u, v])
                       for u in reps[:8] for v in reps[:8]]
        vecs += [combinations_of(rng, A.field, reps, rep.h0.boundaries.rows)[0]
                 for _ in range(3)]
        assert [list(class_coords(rep, v).items()) for v in vecs] == \
            [list(c.items()) for c in class_coords_oracle(rep, vecs)]
        off = [w for w in rep.S.words if rep.S.space.degree[w] != 0]
        if off:
            v = {off[0]: A.field.one}
            for coords in (lambda v: class_coords(rep, v),
                           lambda v: class_coords_oracle(rep, [v])):
                with pytest.raises(ValueError, match="does not represent a "
                                   "class in H\\^0"):
                    coords(v)
