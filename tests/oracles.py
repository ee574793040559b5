"""Independent recomputation helpers shared by test modules.

The dense helpers deliberately avoid the package's elimination code:
dense, division-based Gauss working directly on scalars, with full row
scans instead of sparse bookkeeping.  Slow and simple on purpose.

``rref_oracle``, ``SubspaceOracle`` and ``span_coordinates_oracle`` are
the package's batch elimination as it was before every echelon form
came from ``Subspace.insert``: a dense core below 64 rows and columns,
sparse cores above it (fraction-free over Q, division-based over F_p),
then back-substitution; a batch ``Subspace`` built on that; and
coordinates by one augmented solve per query, or for many queries at
once (``span_coordinates_all_oracle``).

``kernel_oracle`` and ``pivot_columns_oracle`` read a kernel basis and
an image basis off ``rref_oracle``, as ``Elimination`` does off its
own echelon form.

The rebuild-loop oracles are the cohomology code as it was before
``Subspace.insert``: they rebuild a batch ``SubspaceOracle`` after
every accepted vector and compute each step of the weight filtration
in its own pass.  ``restricted_kernel_oracle`` is that pass's kernel,
as ``SHatCohomology`` computed it before it read every step off one
elimination per degree: a ``SpanSolver`` over d of the degree's words
of length >= w, in the length-lexicographic order of ``S.space``.

``universal_ops_oracle`` is the universal deformation's own insertion
loop, from before it became a twisted module over S_N.
``comodule_ops_oracle`` is the dual-side comodule's own insertion,
with ordered products of the twist's base parts contracted against
each functional, from before its tables were the module's transposed
on the base factor.  ``is_commutative_oracle`` and
``check_base_change_oracle`` are ``artin._is_commutative`` and
``UniversalDeformation.check_base_change`` from before they read the
table entries: one comparison per basis pair or tuple, in
``itertools.product`` order.

``minimal_model_oracle`` is the transfer recursion with its own
hand-written W_n on every tuple, from before W_n was the shared
morphism residual and then the morphism join; ``eval_f_tensor_oracle``
is the pushforward's own regrouping loop, from before it called the
shared tensor regrouping in ``ainfinity``.

``check_ainf_axioms_oracle``, ``check_module_axioms_oracle`` and
``check_ainf_morphism_oracle`` are the identity checkers as they were
before the sparse joins: they replay ``stasheff_residual`` or
``morphism_residual`` on every basis tuple in ``itertools.product``
order and stop at the first nonzero one.

``gauge_classes_oracle`` is the pi_0 partition as it was before the
tower refinement: each element is tested against every earlier class
representative with the groupoid's hom set, in input order.

``BarComplex`` is the one-sided bar complex B(A) x A cut at weight N.
Nothing in the package builds it; its ``end_k_probe`` recomputes the
differential of the dual truncation S_N from an independent complex.

``coderivation_failure_oracle`` is the bar truncation's own
coderivation check from before the dual certified its DG algebra
structure: Delta d = (d x 1 + 1 x d) Delta replayed on every word's
deconcatenations, on the bar side, without the dual's signs.

``dual_tables_oracle`` is ``DualTruncation`` as it was before it wrote
its product from the word signs and certified the Leibniz rule on its
generators: the product sign (-1)^(|U||V|) on every pair of words and
``check_ainf_axioms`` at arity 2 over all of them.
``ideal_powers_oracle`` and ``base_words_oracle`` are
``artin._ideal_powers`` and ``ainfinity._base_words`` from before they
read the m_2 entries through a first-slot index: one product per
(row or word, label) pair.

``all_pairs_dg_map_failure`` is the word-algebra map certificate as it
was before it checked only the generators of S_N: multiplicativity on
every ordered pair of words and d-compatibility on every word.
``tower_surjection_oracle`` is ``check_tower_surjection`` from then,
which read only the words the quotient keeps.  ``algebra_maps_oracle``
is ``algebra_maps`` as it was on an ``H0PresentationOracle``, with its
own coefficient sweep, chunked into generator images, and its own
monomial products.
``check_tower_compatibility`` compares the corepresenting maps of one
element at two orders word by word; nothing in the package needs it.
``corepresenting_table_oracle`` is ``CorepresentingHom`` as it was
before it certified products once per S_N and computed images on
demand: every word's signed letter product up front (``word_products``)
and ``first_dg_map_failure`` on the whole table.
``H0PresentationOracle`` is ``twisting.H0Presentation`` as it was
before it read T_{<=N}(V)/(r_c) off the tables of A: it builds S_N,
eliminates H^0, takes the weight-one classes as generators and spans
the relations among the products of their representatives.
``induced_map_oracle`` is ``induced_map`` from then, the
``CorepresentingHom`` of each element applied to those generators.

``compose_morphisms_oracle`` is ``compose_morphisms`` as it was before
it read its components off the morphism join: the block terms of every
|A|^n label tuple, in ``itertools.product`` order.
``conjugation_orbits_oracle`` is ``conjugation_orbits`` from before it
made one pass over the units per orbit: a breadth-first search over
the map set.

``expand_oracle`` is the multilinear evaluation kernel as it was
before it ran on raw values: a recursion over the vectors that
multiplies Scalars along each tuple and adds with ``vec_add``.
``tensor_with_dg_oracle`` is ``tensor_with_dg`` from then, which
regrouped every entry of A against all |C|^n base tuples and
multiplied each tuple's product afresh.  ``base_product_oracle`` is
the loop that ``ArtinianDGAlgebra.d_of`` and ``multiply`` and
``CohomologyAlgebra.multiply`` each wrote out before they called
``eval_m_vectors``: ``vec_add`` over the labels or label pairs.

``enumerate_mc_oracle`` is ``DeformationSetup.enumerate_mc`` as it was
before lifting along the tower: the full residual on every one of the
p^k candidates, in ``itertools.product`` order, with the same refusals.

``mc_residual_oracle``, ``category_op_oracle``, ``pushforward_mc_oracle``
and ``pushforward_morphism_oracle`` are the insertion sums as they were
before they shared one routine, each with its sign exponent written out
by hand: the residual's n(n+1)/2, the category exponent, the
pushforward's n(n-1)/2 and the morphism-level exponent with i(i-1)/2
per slot.  The pushforward oracles evaluate through
``eval_f_tensor_oracle``.

``class_coords``, ``product_class``, ``product_table``,
``weight_one_reps`` and ``weight1_commutators_vanish`` read the H^0
algebra of an ``SHatCohomology`` off its adapted representatives and
``h0.project``.  They were its methods while the comparison read H^0
off S_N; nothing in the package multiplies classes of S_N now.  The
product is well defined because S_N is a DG algebra: by Leibniz a
product of cocycles is a cocycle, and for a cocycle v and any b,
(db) v = d(b v) and v (db) = +-d(v b), so boundaries form an ideal in
the cocycles.

``tower_coordinates_oracle`` is ``SmallExtension.coordinates`` and
``class_coords_oracle`` is ``class_coords`` as they were
before they read their coordinates off an echelon form the package
already held: a tagged ``SpanSolver`` over the kernel rows of the
layer, and one over the H^0 boundary rows followed by the adapted
representatives.

``slot_index_oracle``, ``insertion_join_oracle``,
``output_index_oracle`` and ``block_join_oracle`` are the sparse joins
of ``ainfinity`` as they were before they ran on raw values: every
term a ``Scalar`` product with a ``field.sign`` or ``field.one``
factor, summed into the accumulator ``Scalar`` by ``Scalar``, entries
that cancel kept as zeros.  ``first_failure_oracle`` reads the first
failing tuple of ``check_ainf_axioms`` or ``check_ainf_morphism`` off
them, with the witness of the per-tuple residual.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from barmc.ainfinity import (
    _block_terms,
    _compositions,
    _expand,
    _live_tables,
    _printed_exponent,
    AInfAlgebra,
    AInfMorphism,
    CheckReport,
    StructureMaps,
    b_from_m,
    check_ainf_axioms,
    check_strict_unital_morphism,
    koszul_pass_exponent,
    morphism_residual,
    stasheff_residual,
    tensor_block_exponent,
    tensor_with_dg,
)
from barmc.artin import MAX_NILPOTENCY_SCAN
from barmc.bar import (
    BarTruncation,
    DualTruncation,
    SHatCohomology,
    bar_words,
    dual_dg_algebra,
    first_dg_map_failure,
)
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.linalg import (
    Complex,
    GradedSpace,
    Matrix,
    SpanSolver,
    Subspace,
    vec_add,
    vec_clean,
    vec_scale,
)
from barmc.mc import ENUMERATION_CAP, Pi0Report, _vec_key
from barmc.twisting import CorepresentingHom, enumerate_units, invert_unit

DENSE_CUTOFF = 64


def dense_rank(vectors, field):
    """Rank of the span of sparse vectors (dicts key -> Scalar)."""
    keys = sorted({k for v in vectors for k in v}, key=repr)
    rows = [[v.get(k, field.zero) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_kernel(columns, field):
    """Kernel basis of the matrix with the given sparse columns.

    Returns vectors as dicts {column index -> Scalar}.
    """
    keys = sorted({k for c in columns for k in c}, key=repr)
    n = len(columns)
    rows = [[columns[j].get(k, field.zero) for j in range(n)] for k in keys]
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        v = {free: field.one}
        for r, p in enumerate(pivots):
            c = rows[r][free]
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def cohomology_dims_oracle(labels_by_degree, apply_d, field):
    """{i: dim H^i} for a finite complex given degree slices and d.

    dim H^i = dim_i - rank(d_i) - rank(d_{i-1}), all ranks dense.
    """
    degrees = sorted(labels_by_degree)
    rank_out = {}
    for i in degrees:
        images = [apply_d({l: field.one}) for l in labels_by_degree[i]]
        rank_out[i] = dense_rank([v for v in images if v], field)
    dims = {}
    for i in degrees:
        dim = (len(labels_by_degree[i]) - rank_out.get(i, 0)
               - rank_out.get(i - 1, 0))
        if dim:
            dims[i] = dim
    return dims


# ---------------------------------------------------------------------------
# batch elimination


def rref_oracle(matrix):
    """(rows, pivots) of the reduced row-echelon form of a Matrix."""
    field = matrix.field
    rows = [r for r in matrix.rows() if r]
    if matrix.nrows < DENSE_CUTOFF and matrix.ncols < DENSE_CUTOFF:
        echelon = _reduce_dense(rows, matrix.ncols, field)
    elif field.kind == "Q":
        echelon = _reduce_rational(rows, field)
    else:
        echelon = _reduce_prime(rows)
    echelon.sort(key=lambda r: min(r))
    # back-substitute to reach reduced echelon form
    for a in range(len(echelon) - 1, -1, -1):
        pa = min(echelon[a])
        lead = echelon[a][pa]
        if lead != field.one:
            inv = lead.inverse()
            echelon[a] = {j: inv * c for j, c in echelon[a].items()}
        for b in range(a):
            coeff = echelon[b].get(pa)
            if coeff is not None:
                vec_add(echelon[b], echelon[a], -coeff)
    return echelon, [min(r) for r in echelon]


def kernel_oracle(matrix):
    """Kernel basis off rref_oracle: e_f minus the rows at f, per free column f."""
    rows, pivots = rref_oracle(matrix)
    kernel = []
    for f in sorted(set(range(matrix.ncols)) - set(pivots)):
        v = {f: matrix.field.one}
        for row, p in zip(rows, pivots):
            if f in row:
                v[p] = -row[f]
        kernel.append(v)
    return kernel


def pivot_columns_oracle(matrix):
    """The columns of a Matrix at the pivots of rref_oracle, a basis of its image."""
    _, pivots = rref_oracle(matrix)
    return [{i: c for (i, j), c in matrix.entries.items() if j == p}
            for p in pivots]


def _reduce_dense(rows, ncols, field):
    zero = field.zero
    work = []
    for r in rows:
        row = [zero] * ncols
        for j, c in r.items():
            row[j] = c
        work.append(row)
    rix = 0
    for col in range(ncols):
        piv = None
        for i in range(rix, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rix], work[piv] = work[piv], work[rix]
        prow = work[rix]
        pv = prow[col]
        for i in range(rix + 1, len(work)):
            c = work[i][col]
            if c:
                factor = c / pv
                row_i = work[i]
                for j in range(col, ncols):
                    if prow[j]:
                        row_i[j] = row_i[j] - factor * prow[j]
        rix += 1
        if rix == len(work):
            break
    return [{j: c for j, c in enumerate(work[i]) if c} for i in range(rix)]


def _reduce_prime(rows):
    work = [dict(r) for r in rows]
    done = []
    while work:
        col = min(min(r) for r in work)
        k = next(i for i, r in enumerate(work) if min(r) == col)
        pivot_row = work.pop(k)
        pv = pivot_row[col]
        rest = []
        for r in work:
            c = r.get(col)
            if c is not None:
                r = vec_add(dict(r), pivot_row, -(c / pv))
            if r:
                rest.append(r)
        done.append(pivot_row)
        work = rest
    return done


def _integerize(row):
    """Scale a dict row of Fractions to coprime integers; returns int dict."""
    denom = 1
    for c in row.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {j: int(c * denom) for j, c in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def _reduce_rational(rows, field):
    """Fraction-free: integer rows combined by cross-multiplication."""
    work = [_integerize({j: c.val for j, c in r.items()}) for r in rows]
    done = []
    while work:
        col = min(min(r) for r in work)
        # smallest pivot magnitude keeps the growth down
        cands = [i for i, r in enumerate(work) if min(r) == col]
        k = min(cands, key=lambda i: abs(work[i][col]))
        pivot_row = work.pop(k)
        pv = pivot_row[col]
        rest = []
        for r in work:
            c = r.get(col)
            if c is not None:
                new = {}
                for j in set(r) | set(pivot_row):
                    v = r.get(j, 0) * pv - pivot_row.get(j, 0) * c
                    if v:
                        new[j] = v
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
                r = new
            if r:
                rest.append(r)
        done.append(pivot_row)
        work = rest
    return [{j: field(Fraction(v)) for j, v in r.items()} for r in done]


class SubspaceOracle:
    """Batch echelon of a span, keys in ``repr`` order, via ``rref_oracle``."""

    def __init__(self, vectors, field):
        keys = []
        seen = set()
        vecs = []
        for v in vectors:
            v = vec_clean(v)
            if v:
                vecs.append(v)
            for k in v:
                if k not in seen:
                    seen.add(k)
                    keys.append(k)
        keys.sort(key=repr)
        kidx = {k: i for i, k in enumerate(keys)}
        m = Matrix(len(vecs), len(keys), field)
        for i, v in enumerate(vecs):
            for k, c in v.items():
                m.entries[(i, kidx[k])] = c
        rows, pivots = rref_oracle(m)
        self.rows = [{keys[j]: c for j, c in row.items()} for row in rows]
        self.pivot_keys = [keys[p] for p in pivots]
        self.dim = len(rows)
        self._row_at = dict(zip(self.pivot_keys, self.rows))

    def reduce(self, v):
        v = dict(v)
        for pk in [k for k in v if k in self._row_at]:
            vec_add(v, self._row_at[pk], -v[pk])
        return vec_clean(v)

    def contains(self, v):
        return not self.reduce(v)


def span_coordinates_oracle(vectors, field, v):
    """Coordinates of v in the spanning vectors by one augmented solve.

    The unique solution supported on the earliest independent vectors
    (free coordinates zero), or None when v is not in the span.
    """
    return span_coordinates_all_oracle(vectors, field, [v])[0]


def span_coordinates_all_oracle(vectors, field, targets):
    """span_coordinates_oracle for every target, by one augmented solve.

    The targets are columns after the spanning vectors.  A target in the
    span is not a pivot column, and its reduced column is supported on
    pivot columns among the spanning vectors: those entries are its
    coordinates.  Any other target gets None.
    """
    vectors = [vec_clean(u) for u in vectors]
    keys = sorted({k for u in vectors for k in u}, key=repr)
    idx = {k: i for i, k in enumerate(keys)}
    for k in sorted({k for v in targets for k in v if k not in idx}, key=repr):
        idx[k] = len(idx)
    n = len(vectors)
    aug = Matrix(len(idx), n + len(targets), field)
    for j, col in enumerate(vectors):
        for k, c in col.items():
            aug.entries[(idx[k], j)] = c
    for t, v in enumerate(targets):
        for k, c in v.items():
            if c:
                aug.entries[(idx[k], n + t)] = c
    rows, pivots = rref_oracle(aug)
    out = []
    for t in range(n, n + len(targets)):
        x = {}
        for row, p in zip(rows, pivots):
            c = row.get(t)
            if p >= n and (p == t or c is not None):
                x = None
                break
            if c is not None:
                x[p] = c
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# rebuild-loop oracles


def cohomology_oracle(cx, i):
    """(boundary rows, representatives) of H^i(cx), rebuilding the span."""
    field = cx.field
    d_i, src, _ = cx.matrix_of_d(i)
    kernel = kernel_oracle(d_i)
    d_prev, _, dst_prev = cx.matrix_of_d(i - 1)
    boundaries = [{dst_prev[r]: c for r, c in col.items()}
                  for col in pivot_columns_oracle(d_prev)]
    reps = []
    span = list(boundaries)
    sub = SubspaceOracle(span, field)
    for kv in kernel:
        v = {src[j]: c for j, c in kv.items()}
        if sub.reduce(v):
            reps.append(v)
            span.append(v)
            sub = SubspaceOracle(span, field)
    return SubspaceOracle(boundaries, field).rows, reps


def restricted_kernel_oracle(rep, degree, min_weight):
    """Basis of ker(d) on the degree's words of length >= min_weight."""
    labels = [w for w in rep.S.space.labels_of_degree(degree)
              if len(w) >= min_weight]
    cols = [rep.cx.apply_d({l: rep.field.one}) for l in labels]
    return [{labels[j]: c for j, c in kv.items()}
            for kv in SpanSolver(cols, rep.field).relations]


def filtered_dims_oracle(rep, degree):
    """Weight-graded dims of H^degree of an SHatCohomology, one pass per w."""
    h = rep.cx.cohomology(degree)
    brows = h.boundaries.rows
    bdim = h.boundaries.dim
    ranks = []
    for w in range(rep.N + 2):
        kernel = restricted_kernel_oracle(rep, degree, w)
        ranks.append(SubspaceOracle(brows + kernel, rep.field).dim - bdim)
    assert ranks[0] == h.dim
    return [ranks[w] - ranks[w + 1] for w in range(rep.N + 1)]


def adapted_reps_oracle(rep):
    """(weight, cocycle) pairs adapted to the filtration of H^0."""
    per_weight = {w: [] for w in range(rep.N + 1)}
    base = list(rep.h0.boundaries.rows)
    sub = SubspaceOracle(base, rep.field)
    for w in range(rep.N, -1, -1):
        for v in restricted_kernel_oracle(rep, 0, w):
            if not sub.contains(v):
                per_weight[w].append(v)
                base.append(v)
                sub = SubspaceOracle(base, rep.field)
    return [(w, v) for w in range(rep.N + 1) for v in per_weight[w]]


def class_coords(rep, vec):
    """Coordinates of a degree-0 cocycle's class in rep's adapted basis:
    h0.project, renumbered into weight_reps order."""
    reps = rep.h0.representatives
    order = sorted(range(len(reps)), key=lambda j: min(map(len, reps[j])))
    slot = {j: i for i, j in enumerate(order)}
    return dict(sorted((slot[j], c) for j, c in rep.h0.project(vec).items()))


def product_class(rep, u, v):
    """Class of u v for degree-0 cocycles u, v, in adapted coordinates."""
    return class_coords(rep, rep.S.algebra.eval_m_vectors([u, v]))


def weight_one_reps(rep):
    return [v for w, v in rep.weight_reps if w == 1]


def weight1_commutators_vanish(rep):
    """Whether u v - v u is a boundary for all weight-one representatives."""
    reps = weight_one_reps(rep)
    alg = rep.S.algebra
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            c = alg.eval_m_vectors([u, v])
            vec_add(c, alg.eval_m_vectors([v, u]), -rep.field.one)
            if not rep.h0.class_is_zero(vec_clean(c)):
                return False
    return True


def product_table(rep):
    """Products of adapted representatives, as class coordinates."""
    table = {}
    for i, (_, u) in enumerate(rep.weight_reps):
        for j, (_, v) in enumerate(rep.weight_reps):
            coords = product_class(rep, u, v)
            if coords:
                table[(i, j)] = coords
    return table


def product_table_oracle(rep, weight_reps):
    """Products of the given H^0 representatives in their class coordinates."""
    brows = rep.h0.boundaries.rows
    basis = list(brows) + [v for _, v in weight_reps]
    pairs = [(i, j) for i in range(len(weight_reps))
             for j in range(len(weight_reps))]
    products = [rep.S.algebra.eval_m_vectors([weight_reps[i][1],
                                              weight_reps[j][1]])
                for i, j in pairs]
    table = {}
    for pair, coords in zip(pairs, span_coordinates_all_oracle(
            basis, rep.field, products)):
        coords = {k - len(brows): c for k, c in coords.items()
                  if k >= len(brows) and c}
        if coords:
            table[pair] = coords
    return table


def universal_ops_oracle(A, N):
    """Structure maps of A x S_N twisted by the universal cochain.

    Sums at most N insertions of tau = sum_a a x (a)* on the left of
    each basis tuple, evaluated in the tensor algebra over S_N.
    """
    field = A.field
    one = field.one
    S = dual_dg_algebra(A, N)
    T = tensor_with_dg(A, S.algebra)
    tau = {(a, (a,)): one for a in A.ideal_labels()}
    ops = StructureMaps()
    for n in range(1, A.arity_bound + 1):
        for x in T.space.labels:
            xvec = {x: one}
            for rest in product(A.space.labels, repeat=n - 1):
                tail = [{(a, ()): one} for a in rest]
                acc = {}
                for i in range(min(A.arity_bound - n, N) + 1):
                    term = T.eval_m_vectors([tau] * i + [xvec] + tail)
                    if term:
                        vec_add(acc, term, field.sign(i * (i + 1) // 2 + n * i))
                acc = vec_clean(acc)
                if acc:
                    ops.set(n, (x,) + rest, acc)
    return ops


def minimal_model_oracle(C, arity_max, t):
    """(m, f) of the minimal model of C along the splitting t.

    W_n collects the products m_2^C(f_a x f_b) and the insertions
    f(1^r x m_s x 1^t) with the signs of the morphism identity written
    out by hand; m_n = (-1)^n p W_n and f_n = h W_n.
    """
    field = C.field
    H = t.space
    mops = StructureMaps()
    comps = StructureMaps()
    for x in H.labels:
        iv = t.i.get(x, {})
        if iv:
            comps.set(1, (x,), dict(iv))
    for n in range(2, arity_max + 1):
        for args in product(H.labels, repeat=n):
            degs = [H.degree[a] for a in args]
            w = {}
            for a in range(1, n):
                fa = comps.get(a, args[:a])
                fb = comps.get(n - a, args[a:])
                if not fa or not fb:
                    continue
                exponent = a + 1 + (1 - (n - a)) * sum(degs[:a])
                vec_add(w, C.eval_m_vectors([fa, fb]), field.sign(exponent))
            for s in range(2, n):
                for r in range(0, n - s + 1):
                    inner = mops.get(s, args[r:r + s])
                    if not inner:
                        continue
                    exponent = r + s * (n - s - r) + s + s * sum(degs[:r])
                    sign = field.sign(exponent)
                    for lbl, c in inner.items():
                        piece = comps.get(
                            n - s + 1, args[:r] + (lbl,) + args[r + s:])
                        if piece:
                            vec_add(w, piece, -sign * c)
            w = vec_clean(w)
            if not w:
                continue
            pw = t.apply_p(w)
            if pw:
                mops.set(n, args, vec_scale(pw, field.sign(n)))
            hw = t.apply_h(w)
            if hw:
                comps.set(n, args, hw)
    return mops, comps


def eval_f_tensor_oracle(f, R, vecs):
    """(f_n x mu_R)(v_1, .., v_n) on A x R.

    The R-factors multiply left to right, and moving each R-factor past
    the later A-factors costs deg_A * deg_R.
    """
    n = len(vecs)
    field = f.source.field
    out = {}
    for combo in product(*[sorted(v.items(), key=lambda kv: repr(kv[0]))
                           for v in vecs]):
        labels = [l for l, _ in combo]
        coeff = field.one
        for _, c in combo:
            coeff = coeff * c
        a_args = tuple(a for a, _ in labels)
        r_args = [r for _, r in labels]
        fvec = f.eval_f(a_args)
        if not fvec:
            continue
        rprod = {r_args[0]: field.one}
        for r in r_args[1:]:
            nxt = {}
            for lbl, c in rprod.items():
                vec_add(nxt, R.algebra.m.get(2, (lbl, r)), c)
            rprod = vec_clean(nxt)
            if not rprod:
                break
        if not rprod:
            continue
        exponent = 0
        for i in range(n):
            for j in range(i + 1, n):
                exponent += f.source.deg(a_args[j]) * R.deg(r_args[i])
        sign = field.sign(exponent)
        for out_a, ca in fvec.items():
            for out_r, cr in rprod.items():
                vec_add(out, {(out_a, out_r): sign * coeff * ca * cr})
    return vec_clean(out)


def mc_residual_oracle(setup, alpha):
    """sum (-1)^(n(n+1)/2) m_n(alpha..alpha), the arity-nu term checked zero."""
    setup.check_mc_input(alpha)
    acc = {}
    for n in range(1, min(setup.A.arity_bound, setup.nu) + 1):
        term = setup.T.eval_m_vectors([alpha] * n)
        if n >= setup.nu:
            if vec_clean(term):
                raise MathCheckFailure(
                    "nilpotency truncation unsound: arity-%d term "
                    "survives m^%d = 0" % (n, setup.nu))
            break
        vec_add(acc, term, setup.field.sign(n * (n + 1) // 2))
    return vec_clean(acc)


def _insertion_tuples(slots, budget):
    if budget < 0:
        return
    for counts in product(range(budget + 1), repeat=slots):
        if sum(counts) <= budget:
            yield counts


def category_op_oracle(setup, objects, morphisms):
    """m_n^{a_0..a_n}(x_n, .., x_1) with every count up to the arity bound."""
    n = len(morphisms)
    out = {}
    parts = [sorted(setup.T.space.homogeneous_parts(x).items())
             for x in morphisms]
    for choice in product(*parts):
        degs = [deg for deg, _ in choice]
        xs = [v for _, v in choice]
        for counts in _insertion_tuples(n + 1, setup.A.arity_bound - n):
            eps = 0
            for k in range(1, n + 1):
                for j in range(k):
                    eps += (degs[k - 1] + counts[k]) * counts[j]
            for k in range(n + 1):
                eps += counts[k] * (counts[k] + 1) // 2 + k * counts[k]
            args = []
            for k in range(n, 0, -1):
                args.extend([objects[k]] * counts[k])
                args.append(xs[k - 1])
            args.extend([objects[0]] * counts[0])
            term = setup.T.eval_m_vectors(args)
            if term:
                vec_add(out, term, setup.field.sign(eps))
    return vec_clean(out)


def pushforward_mc_oracle(f, R, alpha):
    """sum (-1)^(n(n-1)/2) f_n(alpha, .., alpha) for n < nu."""
    field = f.source.field
    out = {}
    for n in range(1, min(f.arity_bound, R.nu - 1) + 1):
        term = eval_f_tensor_oracle(f, R, [alpha] * n)
        vec_add(out, term, field.sign(n * (n - 1) // 2))
    return vec_clean(out)


def pushforward_morphism_oracle(setup, f, R, alpha, beta, g):
    """sum of (-1)^eps f(beta^i, g, alpha^j); setup is over f.source and R."""
    field = setup.field
    out = {}
    for deg, part in sorted(setup.T.space.homogeneous_parts(g).items()):
        for counts in _insertion_tuples(2, f.arity_bound - 1):
            j, i = counts
            eps = (deg + i) * j + i * (i - 1) // 2 + j * (j - 1) // 2 + i
            term = eval_f_tensor_oracle(f, R, [beta] * i + [part] + [alpha] * j)
            if term:
                vec_add(out, term, field.sign(eps))
    return vec_clean(out)


def check_ainf_axioms_oracle(A, n_max):
    """The Stasheff replay over all basis tuples of arity <= n_max."""
    for n in range(1, n_max + 1):
        for args in product(A.space.labels, repeat=n):
            res = stasheff_residual(A, args)
            if res:
                return CheckReport(False, failure=(n, args, res), checked_to=n_max)
    return CheckReport(True, checked_to=n_max)


def check_module_axioms_oracle(E, n_max=None):
    """The Stasheff replay on (module label, algebra labels..) tuples."""
    cap = n_max if n_max is not None else E.A.arity_bound + 1
    for n in range(1, cap + 1):
        for x in E.space.labels:
            for rest in product(E.A.space.labels, repeat=n - 1):
                res = stasheff_residual(E._shim, (x,) + rest)
                if res:
                    return CheckReport(False, failure=(n, (x,) + rest, res),
                                       checked_to=cap)
    return CheckReport(True, checked_to=cap)


def check_ainf_morphism_oracle(f, n_max):
    """The morphism-identity replay over all basis tuples of arity <= n_max."""
    top = min(n_max, f.arity_bound)
    note = None
    if top < n_max:
        note = "arities %d..%d not checked (component bound %d)" % (
            top + 1, n_max, f.arity_bound)
    for n in range(1, top + 1):
        for args in product(f.source.space.labels, repeat=n):
            res = morphism_residual(f, args)
            if res:
                return CheckReport(False, failure=(n, args, res),
                                   checked_to=top, note=note)
    if f.strict_unital:
        rep = check_strict_unital_morphism(f)
        if not rep.ok:
            return rep
    return CheckReport(True, checked_to=top, note=note)


def gauge_classes_oracle(elements, groupoid):
    classes = []
    for alpha in elements:
        for cls in classes:
            if not groupoid.hom(cls[0], alpha).is_empty():
                cls.append(alpha)
                break
        else:
            classes.append([alpha])
    return Pi0Report(classes)


def enumerate_mc_oracle(setup, cap=ENUMERATION_CAP):
    p = setup.field.p
    if not p:
        raise HypothesisNotMet("enumeration needs a finite prime field")
    labels = setup.ideal_labels_of_degree(1)
    if p ** len(labels) > cap:
        raise HypothesisNotMet(
            "enumeration space %d^%d exceeds the cap %d"
            % (p, len(labels), cap))
    found = []
    for coeffs in product(range(p), repeat=len(labels)):
        alpha = vec_clean({l: setup.field(c)
                           for l, c in zip(labels, coeffs)})
        if not setup.mc_residual(alpha):
            found.append(alpha)
    return found


# ---------------------------------------------------------------------------
# the one-sided bar complex, a cross-check of the dual differential


class BarComplex:
    """Words of weight <= N with one module slot from A, in A[1] throughout.

    The differential applies b_s inside the word and folds suffixes
    into the module slot with b_{j+1}; both families carry only Koszul
    passage signs because every b has degree +1.
    """

    def __init__(self, A, N):
        if A.unit is None:
            raise ValueError(
                "the bar complex needs a strictly unital augmented algebra")
        needed = min(N + 1, A.arity_bound)
        if not A.op_complete_for(needed):
            raise HypothesisNotMet(
                "weight-%d bar complex applies operations up to arity %d, but "
                "the algebra is only complete to arity %d"
                % (N, needed, A.complete_to_arity))
        self.A = A
        self.N = N
        self.field = A.field
        self.bar = BarTruncation(A, N)
        self.b_full = b_from_m(A)
        basis = []
        for w in self.bar.words:
            for a in A.space.labels:
                basis.append(((w, a), self.bar.word_degree[w] + A.deg(a) - 1))
        self.space = GradedSpace(basis)
        self.d = self._assemble()
        self.complex = Complex(self.space, self.d, self.field)

    def _assemble(self):
        A = self.A
        d = {}
        for w in self.bar.words:
            wdegs = [self.bar.sdeg[l] for l in w]
            for a in A.space.labels:
                acc = {}
                for w2, c in self.bar.d.get(w, {}).items():
                    vec_add(acc, {(w2, a): c})
                for j in range(min(len(w), A.arity_bound - 1) + 1):
                    head, tail = w[:len(w) - j], w[len(w) - j:]
                    out = self.b_full.get(j + 1, tail + (a,))
                    if not out:
                        continue
                    sign = self.field.sign(
                        koszul_pass_exponent(1, wdegs[:len(w) - j]))
                    for a2, c in out.items():
                        vec_add(acc, {(head, a2): sign * c})
                acc = vec_clean(acc)
                if acc:
                    d[(w, a)] = acc
        return d

    def weight_of(self, label):
        """Word length plus one for a module slot outside the unit line."""
        w, a = label
        return len(w) + (0 if a == self.A.unit else 1)

    def hom_from_k_report(self):
        """The empty-word slice is a subcomplex matching (A, -m_1) exactly."""
        A = self.A
        for a in A.space.labels:
            img = self.d.get(((), a), {})
            for w2, _ in img:
                if w2 != ():
                    return CheckReport(False, failure=("slice not closed", a))
            expected = vec_clean({((), l): -c for l, c in A.m.get(1, (a,)).items()})
            if dict(img) != expected:
                return CheckReport(False, failure=("slice differential", a))
        return CheckReport(True, checked_to=self.N)

    def end_k_probe(self):
        """Functionals on the unit-slot lines against the dual algebra.

        A graded A-linear functional into the augmentation module is
        determined by its values on the (word, unit) lines, one per
        word; transporting the bar-complex differential to these
        functionals must reproduce the dual algebra differential up to
        the global sign of the degree shift.  Checked entrywise, which
        exercises the unit and suffix bookkeeping of the assembled
        differential.
        """
        dual = DualTruncation(self.bar)
        unit = self.A.unit
        for w1 in self.bar.words:
            expected = vec_clean(
                {w: -c for w, c in dual.algebra.m.get(1, (w1,)).items()})
            got = {}
            sign = self.field.sign(self.bar.word_degree[w1])
            for w2 in self.bar.words:
                c = self.d.get((w2, unit), {}).get((w1, unit))
                if c:
                    vec_add(got, {w2: sign * c})
            if vec_clean(got) != expected:
                return CheckReport(False, failure=(w1, got, expected))
        return CheckReport(True, checked_to=self.N)


def coderivation_failure_oracle(bar):
    """First word where d_bar is not a coderivation, or None.

    Compares Delta d(w) with (d x 1 + 1 x d) Delta(w) exactly, Delta
    splitting a word at every position and (1 x d)(u x v) carrying the
    sign (-1)^|u|.
    """
    def splits(word):
        return [(word[:i], word[i:]) for i in range(len(word) + 1)]

    for w in bar.words:
        lhs = {}
        for big, c in bar.d.get(w, {}).items():
            for u, v in splits(big):
                vec_add(lhs, {(u, v): c})
        rhs = {}
        for u, v in splits(w):
            for u2, c in bar.d.get(u, {}).items():
                vec_add(rhs, {(u2, v): c})
            sign = bar.field.sign(bar.word_degree[u])
            for v2, c in bar.d.get(v, {}).items():
                vec_add(rhs, {(u, v2): sign * c})
        if vec_clean(lhs) != vec_clean(rhs):
            return w
    return None


def dual_tables_oracle(bar):
    """S_N's algebra with the all-pairs product sign, and its arity-2 check.

    Returns (algebra, check_ainf_axioms(algebra, 2)).
    """
    field, degree = bar.field, bar.word_degree
    ops = StructureMaps()
    for w, img in bar.d.items():
        for big, c in img.items():
            ops.add(1, (big,), {w: field.sign(1 + degree[big]) * c})
    for U in bar.words:
        for V in bar.words:
            if len(U) + len(V) <= bar.N:
                ops.set(2, (U, V), {U + V: field.sign(degree[U] * degree[V])})
    space = GradedSpace([(w, -degree[w]) for w in bar.words])
    algebra = AInfAlgebra(space, field, ops, arity_bound=2, unit=())
    return algebra, check_ainf_axioms(algebra, 2)


def ideal_powers_oracle(A, ideal):
    """Spanning rows of m, m^2, .. through the first zero power, pair by pair."""
    one = A.field.one
    power = [{x: one} for x in ideal]
    yield power
    for _ in range(MAX_NILPOTENCY_SCAN):
        if not power:
            return
        nxt = []
        for v in power:
            for x in ideal:
                prod = A.eval_m_vectors([v, {x: one}])
                if prod:
                    nxt.append(prod)
        power = Subspace(nxt, A.field).rows
        yield power


def base_words_oracle(C, n):
    """The nonzero ordered products of basis labels of C, word by letter."""
    one = C.field.one
    layers = [{(c,): {c: one} for c in C.space.labels}]
    m2 = C.m.entries.get(2, {}).get
    while len(layers) < n:
        longer = {}
        for word, product in layers[-1].items():
            for letter, letter_vec in layers[0].items():
                vec = _expand(C.field, [product, letter_vec], m2)
                if vec:
                    longer[word + letter] = vec
        layers.append(longer)
    return layers


# ---------------------------------------------------------------------------
# maps out of S_N, all pairs


def all_pairs_dg_map_failure(S, table, multiply, d):
    """First word pair or word where w |-> table[w] fails to be DG, or None."""
    def image(vec):
        out = {}
        for w, c in vec.items():
            vec_add(out, table.get(w, {}), c)
        return vec_clean(out)

    for U in S.words:
        for V in S.words:
            lhs = image(S.algebra.m.get(2, (U, V)))
            if lhs != multiply(table.get(U, {}), table.get(V, {})):
                return ("product", (U, V))
    for w in S.words:
        if image(S.algebra.m.get(1, (w,))) != d(table.get(w, {})):
            return ("differential", w)
    return None


def tower_surjection_oracle(big, small):
    keep = set(small.words)

    def trunc(vec):
        return vec_clean({w: c for w, c in vec.items() if w in keep})

    for w in small.words:
        if trunc(dict(big.algebra.m.get(1, (w,)))) \
                != dict(small.algebra.m.get(1, (w,))):
            return CheckReport(False, failure=("differential", w))
    for U in small.words:
        for V in small.words:
            got = trunc(dict(big.algebra.m.get(2, (U, V))))
            want = dict(small.algebra.m.get(2, (U, V)))
            if got != want:
                return CheckReport(False, failure=("product", (U, V)))
    return CheckReport(True, checked_to=small.N)


def word_products(words, multiply, unit, image):
    """Every word's ordered letter product, out[w[:-1]] . image[w[-1]].

    words is length-lexicographic (bar_words), so each prefix is ready
    before its extensions; the empty word goes to unit.
    """
    out = {(): unit}
    for w in words:
        if w:
            out[w] = multiply(out[w[:-1]], image[w[-1]])
    return out


def corepresenting_table_oracle(setup, alpha, S):
    """Every word's image under the corepresenting map of alpha, eagerly.

    The signed letter products of the transposed cochain, certified as
    a DG map out of S_N on its generators; MathCheckFailure names the
    first failing (u, V) or generator.
    """
    R, field = setup.R, setup.field
    rho = {a: {} for a in S.bar.letters}
    for (a, r), c in vec_clean(alpha).items():
        rho[a][r] = c
    table = {}
    for w, img in word_products(S.words, R.multiply, {R.unit: field.one},
                                rho).items():
        degs = [S.bar.sdeg[l] for l in w]
        sign = field.sign(tensor_block_exponent(degs, degs))
        table[w] = vec_clean({r: sign * c for r, c in img.items()})
    failure = first_dg_map_failure(S, table, R.multiply, R.d_of)
    if failure and failure[0] == "product":
        raise MathCheckFailure(
            "multiplicativity fails at (%r, %r)" % failure[1])
    if failure:
        raise MathCheckFailure(
            "differential compatibility fails at %r" % (failure[1],))
    return table


def check_tower_compatibility(big, small):
    """The corepresenting maps at two orders agree on shared words."""
    if big.N < small.N:
        raise ValueError("pass the finer truncation first")
    for w in small.S.words:
        if big.entries.get(w, {}) != small.entries.get(w, {}):
            return False
    return True


class H0PresentationOracle:
    """Generators and relations for H^0(S_N), read off S_N itself.

    Generators are the weight-one classes of SHatCohomology(A, N); a
    monomial is a tuple of generator indices whose value is the ordered
    product of the adapted representatives.  Relations span the kernel
    of the evaluation from the free span of monomials of length <= N
    into H^0, and generation by weight one is certified
    (HypothesisNotMet otherwise).
    """

    def __init__(self, A, N):
        self.rep = rep = SHatCohomology(A, N)
        self.N = N
        self.field = rep.field
        self.S = rep.S
        self.gens = weight_one_reps(rep)
        self.monomials = monomials = bar_words(range(len(self.gens)), N)
        m2 = self.S.algebra.eval_m_vectors
        self.values = word_products(monomials, lambda u, v: m2([u, v]),
                                    {(): self.field.one}, self.gens)
        self.classes = {m: class_coords(rep, v)
                        for m, v in self.values.items()}
        solver = SpanSolver([self.classes[mono] for mono in monomials],
                            self.field)
        spanned = len(solver.independent)
        if spanned != rep.h0.dim:
            raise HypothesisNotMet(
                "weight-one classes span a %d-dimensional piece of the "
                "%d-dimensional H^0 at order %d; generation by weight one "
                "is not established" % (spanned, rep.h0.dim, N))
        self.relations = [{monomials[j]: c for j, c in kv.items()}
                          for kv in solver.relations]

    def generator_count(self):
        return len(self.gens)


def induced_map_oracle(setup, pres, alpha):
    """The corepresenting map of alpha on S_N, applied to the generators
    of an H0PresentationOracle."""
    gh = CorepresentingHom(setup, alpha, pres.S)
    return tuple(gh.apply(g) for g in pres.gens)


def algebra_maps_oracle(pres, R):
    p = R.field.p
    if not p:
        raise HypothesisNotMet("map enumeration needs a finite prime field")
    ideal = R.ideal_labels
    m = pres.generator_count()
    maps = []
    for flat in product(range(p), repeat=len(ideal) * m):
        images = []
        for g in range(m):
            chunk = flat[g * len(ideal):(g + 1) * len(ideal)]
            images.append(vec_clean(
                {l: R.field(c) for l, c in zip(ideal, chunk)}))
        mono_val = {(): {R.unit: R.field.one}}
        for mono in pres.monomials:
            if mono:
                mono_val[mono] = R.multiply(mono_val[mono[:-1]],
                                            images[mono[-1]])
        ok = True
        for rel in pres.relations:
            acc = {}
            for mono, c in rel.items():
                vec_add(acc, mono_val[mono], c)
            if vec_clean(acc):
                ok = False
                break
        if ok:
            maps.append(tuple(images))
    return maps


def expand_oracle(field, vecs, value):
    """The multilinear extension of value(label tuple) to vecs.

    Tuples in itertools.product order over the vectors' item orders,
    skipping zero coefficients, each with the Scalar product of its
    coefficients starting from field.one.
    """
    out = {}

    def walk(i, args, coeff):
        if i == len(vecs):
            vec = value(args)
            if vec:
                vec_add(out, vec, coeff)
            return
        for lbl, c in vecs[i].items():
            if c:
                walk(i + 1, args + (lbl,), coeff * c)

    walk(0, (), field.one)
    return out


def base_product_oracle(A, *vecs):
    """m_1(v) or m_2(u, v) of A, one vec_add per label or label pair."""
    out = {}
    if len(vecs) == 1:
        for lbl, c in vecs[0].items():
            vec_add(out, A.m.get(1, (lbl,)), c)
    else:
        u, v = vecs
        for lu, cu in u.items():
            for lv, cv in v.items():
                vec_add(out, A.m.get(2, (lu, lv)), cu * cv)
    return vec_clean(out)


def tensor_with_dg_oracle(A, C):
    """A x C with every entry of A regrouped against all |C|^n tuples."""
    field = A.field
    basis = []
    for a in A.space.labels:
        for c in C.space.labels:
            basis.append(((a, c), A.deg(a) + C.deg(c)))
    space = GradedSpace(basis)
    ops = StructureMaps()
    for a in A.space.labels:
        for c in C.space.labels:
            vec = {}
            for out_a, coeff in A.m.get(1, (a,)).items():
                vec_add(vec, {(out_a, c): coeff})
            dc = C.m.get(1, (c,))
            if dc:
                sgn = field.sign(A.deg(a))
                for out_c, coeff in dc.items():
                    vec_add(vec, {(a, out_c): sgn * coeff})
            if vec_clean(vec):
                ops.set(1, ((a, c),), vec)
    for n, table in A.m.entries.items():
        if n < 2:
            continue
        for a_args, a_vec in table.items():
            a_degs = [A.deg(a) for a in a_args]
            for c_args in product(C.space.labels, repeat=n):
                prod = {c_args[0]: C.field.one}
                for c in c_args[1:]:
                    nxt = {}
                    for lbl, coeff in prod.items():
                        vec_add(nxt, C.m.get(2, (lbl, c)), coeff)
                    prod = vec_clean(nxt)
                    if not prod:
                        break
                if not prod:
                    continue
                sign = C.field.sign(tensor_block_exponent(
                    a_degs, [C.deg(c) for c in c_args]))
                vec = {}
                for out_a, ca in a_vec.items():
                    for out_c, cc in prod.items():
                        vec_add(vec, {(out_a, out_c):
                                      sign * ca * cc})
                if vec:
                    args = tuple(zip(a_args, c_args))
                    ops.add(n, args, vec)
    unit = None
    if A.unit is not None and C.unit is not None:
        unit = (A.unit, C.unit)
    return AInfAlgebra(space, field, ops, arity_bound=A.arity_bound,
                       unit=unit, complete_to_arity=A.complete_to_arity)


# ---------------------------------------------------------------------------
# twisted tables and base checks, one tuple at a time


def comodule_ops_oracle(setup, alpha):
    """TwistedComodule's tables by its own insertion, one tuple at a time.

    The label (a, r) stands for a x r*.  The i-fold twist multiplies
    the A-parts of i components of alpha on the left, in every order,
    and contracts r* against the ordered product s of their base
    parts, giving the functional u |-> r*(s u).  Insertions stop below
    the nilpotency index; the sign is (-1)^(i(i+1)/2 + n i).
    """
    A, R, field = setup.A, setup.R, setup.field
    one = field.one
    comps = sorted(vec_clean(alpha).items())

    def contract(s_vec, r):
        out = {}
        for s, cs in s_vec.items():
            for u in R.space.labels:
                c = R.algebra.m.get(2, (s, u)).get(r)
                if c:
                    vec_add(out, {u: cs * c})
        return vec_clean(out)

    def insertion(i, a, r, rest):
        out = {}
        if i == 0:
            for a2, c in A.eval_m((a,) + rest).items():
                vec_add(out, {(a2, r): c})
            return out
        for combo in product(comps, repeat=i):
            coeff = one
            for _, c in combo:
                coeff = coeff * c
            sprod = {combo[0][0][1]: one}
            for lbl, _ in combo[1:]:
                sprod = R.multiply(sprod, {lbl[1]: one})
            avec = A.eval_m(tuple(l[0] for l, _ in combo) + (a,) + rest)
            if not sprod or not avec:
                continue
            dual = contract(sprod, r)
            for a2, ca in avec.items():
                for u, cu in dual.items():
                    vec_add(out, {(a2, u): coeff * ca * cu})
        return out

    bound = A.arity_bound
    ops = StructureMaps()
    for n in range(1, bound + 1):
        for a in A.space.labels:
            for r in R.space.labels:
                for rest in product(A.space.labels, repeat=n - 1):
                    acc = {}
                    for i in range(min(bound - n, setup.nu - 1) + 1):
                        vec_add(acc, insertion(i, a, r, rest),
                                field.sign(i * (i + 1) // 2 + n * i))
                    ops.set(n, ((a, r),) + rest, acc)
    return ops


def is_commutative_oracle(A):
    """Graded commutativity of m_2 on all |A|^2 ordered label pairs."""
    sign = A.field.sign
    zero = A.field.zero
    for x in A.space.labels:
        for y in A.space.labels:
            xy = A.m.get(2, (x, y))
            yx = A.m.get(2, (y, x))
            s = sign(A.deg(x) * A.deg(y))
            if vec_clean({k: xy.get(k, zero) - s * yx.get(k, zero)
                          for k in set(xy) | set(yx)}):
                return False
    return True


def check_base_change_oracle(E):
    """UniversalDeformation.check_base_change over every basis tuple of A."""
    A = E.A
    for n in range(1, A.arity_bound + 1):
        for args in product(A.space.labels, repeat=n):
            full = E.ops.get(n, ((args[0], ()),) + args[1:])
            got = vec_clean({a2: c for (a2, w2), c in full.items()
                             if w2 == ()})
            want = vec_clean(dict(A.m.get(n, args)))
            if got != want:
                return CheckReport(False, failure=(n, args, got, want))
    return CheckReport(True, checked_to=A.arity_bound)


# ---------------------------------------------------------------------------
# composites of morphisms and conjugation orbits, tuple by tuple


def compose_morphisms_oracle(g, f, arity_bound=None):
    """compose_morphisms over all |A|^n label tuples, one at a time."""
    if f.target is not g.source:
        raise ValueError("morphisms do not compose")
    bound = arity_bound or min(f.arity_bound, g.arity_bound)
    comps = StructureMaps()
    A1 = f.source
    for n in range(1, bound + 1):
        for args in product(A1.space.labels, repeat=n):
            acc = {}
            for blocks, exponent, pieces in _block_terms(f, args, g.f.arities()):
                out = _expand(A1.field, pieces, g.f.entries[len(blocks)].get)
                vec_add(acc, out, A1.field.sign(exponent))
            if vec_clean(acc):
                comps.set(n, args, acc)
    return AInfMorphism(f.source, g.target, comps, arity_bound=bound,
                        strict_unital=f.strict_unital and g.strict_unital)


def conjugation_orbits_oracle(R, maps):
    """conjugation_orbits by breadth-first search over the map set."""
    units = [(u, invert_unit(R, u)) for u in enumerate_units(R)]
    index_of = {tuple(_vec_key(w) for w in t): i for i, t in enumerate(maps)}
    seen = set()
    orbits = []
    orbit_of = {}
    for i in range(len(maps)):
        if i in seen:
            continue
        frontier = [i]
        orbit = []
        while frontier:
            j = frontier.pop()
            if j in seen:
                continue
            seen.add(j)
            orbit.append(j)
            for u, uinv in units:
                moved = tuple(R.multiply(R.multiply(u, w), uinv)
                              for w in maps[j])
                k = index_of.get(tuple(_vec_key(w) for w in moved))
                if k is None:
                    raise MathCheckFailure(
                        "conjugation left the enumerated map set")
                if k not in seen:
                    frontier.append(k)
        orbit.sort()
        for j in orbit:
            orbit_of[j] = len(orbits)
        orbits.append(orbit)
    return orbits, orbit_of


def tower_coordinates_oracle(ext, vec):
    """An A x R vector supported in A x I over the kernel rows of ext."""
    solver = SpanSolver(ext.kernel_rows, ext.field)
    by_a = {}
    for (a, r), c in vec_clean(vec).items():
        by_a.setdefault(a, {})[r] = c
    out = {}
    for a, rvec in by_a.items():
        coords = solver.coordinates(rvec)
        if coords is None:
            raise MathCheckFailure(
                "vector escapes the kernel layer at %r" % (a,))
        for k, c in coords.items():
            out[(a, k)] = c
    return vec_clean(out)


def class_coords_oracle(rep, vecs):
    """Class coordinates of each degree-0 vector in rep's adapted basis."""
    solver = SpanSolver(rep.h0.boundaries.rows +
                        [v for _, v in rep.weight_reps], rep.field)
    nb = rep.h0.boundaries.dim
    out = []
    for vec in vecs:
        vec = vec_clean(dict(vec))
        coords = solver.coordinates(vec) if vec else {}
        if coords is None:
            raise ValueError("vector does not represent a class in H^0")
        out.append({j - nb: c for j, c in coords.items() if j >= nb and c})
    return out


# ---------------------------------------------------------------------------
# the sparse joins on Scalars


def slot_index_oracle(tables, degree):
    """arity k -> (slot r, label at r) -> [(args, vec, degree sum of args[:r])]."""
    index = {}
    for k, table in tables.items():
        by_slot = index.setdefault(k, {})
        for args, vec in table.items():
            before = 0
            for r, lbl in enumerate(args):
                by_slot.setdefault((r, lbl), []).append((args, vec, before))
                before += degree.get(lbl, 0)
    return index


def insertion_join_oracle(inner, outer, n, field, shift):
    """_insertion_join on Scalars; outer is a slot_index_oracle."""
    acc = {}
    signs = (field.one, -field.one)
    for s, table in inner.items():
        k = n + 1 - s
        by_slot = outer.get(k)
        if not by_slot:
            continue
        for in_args, in_vec in table.items():
            for lbl, c in in_vec.items():
                for r in range(k):
                    base = r + s * (k - 1 - r) + shift * (s + 1)
                    for out_args, out_vec, before in by_slot.get((r, lbl), ()):
                        args = out_args[:r] + in_args + out_args[r + 1:]
                        coeff = signs[(base + s * before) % 2] * c
                        for o, v in out_vec.items():
                            acc[args, o] = acc.get((args, o), 0) + coeff * v
    return acc


def output_index_oracle(comps, degree):
    """output label -> arity i -> [(args, coefficient, degree sum of args)]."""
    index = {}
    for i, table in comps.items():
        for args, vec in table.items():
            total = sum(degree.get(a, 0) for a in args)
            for lbl, c in vec.items():
                index.setdefault(lbl, {}).setdefault(i, []).append((args, c, total))
    return index


def block_join_oracle(ops, by_output, n, field, acc, printed_exponent):
    """_block_join on Scalars; by_output is an output_index_oracle."""
    for s, table in ops.items():
        if s > n:
            continue
        for blocks in _compositions(n, s):
            op_parities = [(1 - i) % 2 for i in blocks]
            printed = printed_exponent(blocks)
            for m_args, m_vec in table.items():
                choices = [by_output.get(b, {}).get(i)
                           for b, i in zip(m_args, blocks)]
                if not all(choices):
                    continue
                for combo in product(*choices):
                    args = ()
                    coeff = field.one
                    for f_args, c, _ in combo:
                        args += f_args
                        coeff = coeff * c
                    exponent = printed + tensor_block_exponent(
                        op_parities, [total for _, _, total in combo])
                    coeff = field.sign(exponent) * coeff
                    for o, v in m_vec.items():
                        acc[args, o] = acc.get((args, o), 0) + coeff * v


def morphism_join_oracle(f, n):
    """The morphism residual of f on every arity-n tuple, on Scalars."""
    A1, degree = f.source, f.source.space.degree
    comps = _live_tables(f.f, f.arity_bound)
    acc = insertion_join_oracle(_live_tables(A1.m, A1.arity_bound),
                                slot_index_oracle(comps, degree), n,
                                A1.field, 1)
    block_join_oracle(_live_tables(f.target.m, f.target.arity_bound),
                      output_index_oracle(comps, degree), n, A1.field, acc,
                      _printed_exponent)
    return acc


def first_failure_oracle(structure, n_max):
    """(n, tuple, residual) of the first failing tuple, or None.

    structure is an AInfAlgebra (the Stasheff identities) or an
    AInfMorphism (the morphism identities, up to its component bound);
    the tuple is the one with a nonzero Scalar entry that
    itertools.product reaches first, as the joins' checkers report it.
    """
    if isinstance(structure, AInfMorphism):
        index = structure.source.space.index
        top = min(n_max, structure.arity_bound)
        join = lambda n: morphism_join_oracle(structure, n)
        residual = morphism_residual
    else:
        index = structure.space.index
        top = n_max
        ops = _live_tables(structure.m, structure.arity_bound)
        outer = slot_index_oracle(ops, structure.space.degree)
        join = lambda n: insertion_join_oracle(ops, outer, n,
                                               structure.field, 0)
        residual = stasheff_residual
    for n in range(1, top + 1):
        found = [([index[l] for l in a], a)
                 for (a, _), c in join(n).items() if c]
        if found:
            args = min(found)[1]
            return (n, args, residual(structure, args))
    return None
