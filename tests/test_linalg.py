"""Row reduction, spans, graded spaces and complexes.

Rank and kernel claims are cross-checked against two oracles that share
no code with the package: sympy's rref over Q, and a short dense
elimination over F_p written directly in this file.  ``Elimination``,
batch ``Subspace`` builds and ``SpanSolver`` answers are compared
exactly with the batch elimination kept in ``tests/oracles.py``.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from barmc.linalg import (
    Complex,
    Elimination,
    GradedSpace,
    Matrix,
    SpanSolver,
    Subspace,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_sub,
)
from barmc.scalars import Field
from oracles import (
    SubspaceOracle,
    dense_rank,
    kernel_oracle,
    rref_oracle,
    span_coordinates_oracle,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


# ---------------------------------------------------------------------------
# oracles


def sympy_rank_and_nullity(rows, nrows, ncols):
    m = sympy.zeros(nrows, ncols)
    for i, row in enumerate(rows):
        for j, c in row.items():
            m[i, j] = sympy.Rational(c)
    return m.rank(), ncols - m.rank()


def dense_rank_mod_p(rows, nrows, ncols, p):
    work = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if work[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        for i in range(nrows):
            if i != rank and work[i][col] % p:
                f = work[i][col] * inv % p
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def as_matrix(rows, ncols, field):
    m = Matrix(len(rows), ncols, field)
    for i, row in enumerate(rows):
        for j, c in row.items():
            c = field(c)
            if c:
                m.entries[(i, j)] = c
    return m


def columns(m):
    cols = [{} for _ in range(m.ncols)]
    for (i, j), c in sorted(m.entries.items()):
        cols[j][i] = c
    return cols


def mul_vec(m, x):
    """m x for a sparse column vector x (dict column -> Scalar)."""
    out = {}
    for (i, j), c in m.entries.items():
        if j in x:
            vec_add(out, {i: c * x[j]})
    return out


def eliminate(m):
    e = Elimination(m)
    return e.rank, e.kernel_basis(), e.pivots


def span_solve(m, b):
    """The solution of m x = b on the earliest independent columns."""
    return SpanSolver(columns(m), m.field).coordinates(b)


# ---------------------------------------------------------------------------
# the three pinned row-reduction cases


def test_proportional_rows_over_q():
    m = as_matrix([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, Q)
    rank, kernel, pivots = eliminate(m)
    assert rank == 1
    assert len(kernel) == 1
    assert pivots == [0]
    assert vec_is_zero(mul_vec(m, kernel[0]))


def test_identity_three_by_three():
    m = as_matrix([{0: 1}, {1: 1}, {2: 1}], 3, Q)
    rank, kernel, pivots = eliminate(m)
    assert rank == 3 and kernel == [] and pivots == [0, 1, 2]


def test_all_ones_over_f2():
    m = as_matrix([{0: 1, 1: 1}, {0: 1, 1: 1}], 2, F2)
    rank, kernel, _ = eliminate(m)
    assert rank == 1
    assert kernel == [{1: F2(1), 0: F2(1)}]


# ---------------------------------------------------------------------------
# randomized agreement with the oracles

entry = st.integers(min_value=-4, max_value=4)


@st.composite
def int_rows(draw, max_dim=6):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            v = draw(entry)
            if v:
                row[j] = v
        rows.append(row)
    return rows, nrows, ncols


@settings(max_examples=80, deadline=None)
@given(int_rows())
def test_rank_matches_sympy_over_q(data):
    rows, nrows, ncols = data
    m = as_matrix(rows, ncols, Q)
    rank, kernel, _ = eliminate(m)
    want_rank, want_nullity = sympy_rank_and_nullity(rows, nrows, ncols)
    assert rank == want_rank
    assert len(kernel) == want_nullity
    for k in kernel:
        assert vec_is_zero(mul_vec(m, k))


@settings(max_examples=80, deadline=None)
@given(int_rows(), st.sampled_from([2, 3, 5]))
def test_rank_matches_dense_oracle_mod_p(data, p):
    rows, nrows, ncols = data
    field = Field.prime(p)
    m = as_matrix(rows, ncols, field)
    rank, kernel, _ = eliminate(m)
    assert rank == dense_rank_mod_p(rows, nrows, ncols, p)
    assert rank + len(kernel) == ncols
    for k in kernel:
        assert vec_is_zero(mul_vec(m, k))


@settings(max_examples=60, deadline=None)
@given(int_rows())
def test_rank_plus_nullity_is_column_count(data):
    rows, _, ncols = data
    e = Elimination(as_matrix(rows, ncols, Q))
    assert e.rank + len(e.kernel_basis()) == ncols


def test_sparse_path_agrees_with_oracle_above_cutoff():
    # 70 columns, past the 64 at which rref_oracle leaves its dense
    # core; band structure keeps the oracles cheap
    rows = []
    for i in range(70):
        row = {i: 1}
        if i + 1 < 70:
            row[i + 1] = 2
        if i % 7 == 0 and i + 3 < 70:
            row[i + 3] = -3
        rows.append(row)
    rows[69] = {j: v * 2 for j, v in rows[33].items()}  # force a dependency
    m = as_matrix(rows, 70, Q)
    rank, kernel, _ = eliminate(m)
    want_rank, want_nullity = sympy_rank_and_nullity(rows, 70, 70)
    assert (rank, len(kernel)) == (want_rank, want_nullity)
    mp = as_matrix(rows, 70, F3)
    rank_p, _, _ = eliminate(mp)
    assert rank_p == dense_rank_mod_p(rows, 70, 70, 3)


# ---------------------------------------------------------------------------
# solving


def test_solve_consistent_and_inconsistent():
    m = as_matrix([{0: 1, 1: 1}, {1: 1}], 2, F2)
    x = span_solve(m, {0: F2(1)})
    assert x == {0: F2(1)}
    assert vec_eq(mul_vec(m, x), {0: F2(1)})
    m2 = as_matrix([{0: 1}, {0: 2}], 1, Q)
    assert span_solve(m2, {0: Q(1), 1: Q(3)}) is None


def test_solve_sets_free_coordinates_to_zero():
    m = as_matrix([{0: 1, 1: 1}], 2, Q)
    assert span_solve(m, {0: Q(5)}) == {0: Q(5)}


@settings(max_examples=60, deadline=None)
@given(int_rows())
def test_solve_returns_actual_solutions(data):
    rows, nrows, ncols = data
    m = as_matrix(rows, ncols, Q)
    # build a right-hand side that is certainly consistent
    x0 = {j: Q(j + 1) for j in range(ncols)}
    b = mul_vec(m, x0)
    x = span_solve(m, b)
    assert x is not None
    assert vec_eq(mul_vec(m, x), b)


# ---------------------------------------------------------------------------
# spans and cosets


def test_span_solver_coordinates_reassemble():
    v1 = {"a": Q(1), "b": Q(2)}
    v2 = {"b": Q(1), "c": Q(-1)}
    sp = SpanSolver([v1, v2], Q)
    target = vec_add(vec_add({}, v1, Q(3)), v2, Q("-1/2"))
    coords = sp.coordinates(target)
    assert coords == {0: Q(3), 1: Q("-1/2")}
    assert not sp.contains({"z": Q(1)})


def test_subspace_reduction_is_canonical_and_idempotent():
    sub = Subspace([{"a": Q(1), "b": Q(1)}, {"b": Q(2), "c": Q(2)}], Q)
    assert sub.dim == 2
    v = {"a": Q(1), "c": Q(1)}
    r = sub.reduce(v)
    assert sub.reduce(r) == r
    # the difference lies in the subspace
    assert sub.contains(vec_sub(v, r))
    assert sub.contains({"a": Q(2), "b": Q(2)})
    assert not sub.contains(v) or not r


def test_subspace_of_zero_vectors_is_trivial():
    sub = Subspace([{}, {"a": Q(0)}], Q)
    assert sub.dim == 0
    assert sub.reduce({"a": Q(1)}) == {"a": Q(1)}


# ints from 0 to 11 sort differently by repr ("10" < "2") than by value
span_key = st.one_of(st.integers(0, 11), st.sampled_from(["a", ("b", 1)]))
span_vectors = st.lists(
    st.dictionaries(span_key, st.fractions(-3, 3, max_denominator=3),
                    max_size=5),
    max_size=10)


def assert_same_subspace(got, want):
    assert got.rows == want.rows
    assert got.pivot_keys == want.pivot_keys
    assert got.dim == want.dim


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Q, F2, F3]), span_vectors, st.integers(0, 10))
def test_subspace_insert_matches_batch_build(field, raw, cut):
    vecs = []
    for v in raw:
        try:
            vecs.append({k: field(c) for k, c in v.items()})
        except ZeroDivisionError:  # denominator divisible by p
            continue
    sub = Subspace(vecs[:cut], field)
    for v in vecs[cut:]:
        held = sub.contains(v)
        assert sub.insert(v) is not held
    assert_same_subspace(sub, SubspaceOracle(vecs, field))
    assert sub.dim == dense_rank(vecs, field)


def test_subspace_insert_matches_batch_build_on_sparse_path():
    # 70 keys puts the oracle batch build on its sparse cores
    for field in (Q, F3):
        vecs = [{i: field(2), (i + 3) % 70: field(1), (5 * i) % 70: field(-1)}
                for i in range(70)]
        sub = Subspace(vecs[:20], field)
        accepted = [v for v in vecs[20:] if sub.insert(v)]
        assert_same_subspace(sub, SubspaceOracle(vecs, field))
        assert sub.dim == SubspaceOracle(vecs[:20], field).dim + len(accepted)
        assert sub.dim == dense_rank(vecs, field)


def _vectors_in(field, raw):
    out = []
    for v in raw:
        try:
            out.append({k: field(c) for k, c in v.items()})
        except ZeroDivisionError:  # denominator divisible by p
            continue
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([Q, F2, F3]), span_vectors,
       st.lists(st.lists(st.integers(-2, 2), min_size=10, max_size=10),
                min_size=1, max_size=4),
       span_vectors, st.data())
def test_span_solver_matches_coordinates_oracle(field, raw, mixes, others, data):
    base = _vectors_in(field, raw)
    combos = []
    for mix in mixes:
        comb = {}
        for c, v in zip(mix, base):
            vec_add(comb, v, field(c))
        combos.append(comb)
    # the combinations make some spanning vectors dependent on earlier ones
    vecs = data.draw(st.permutations(base + combos))
    solver = SpanSolver(vecs, field)
    for q in combos + base + _vectors_in(field, others):
        want = span_coordinates_oracle(vecs, field, q)
        assert solver.coordinates(q) == want
        assert solver.contains(q) is (want is not None)


@st.composite
def eliminated_matrices(draw):
    field = draw(st.sampled_from([Q, F2, F3]))
    # small shapes and shapes past 64, where rref_oracle runs its sparse cores
    lo, hi = draw(st.sampled_from([(1, 9), (60, 72)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nrows, ncols = rng.randint(lo, hi), rng.randint(lo, hi)
    density = rng.choice([0.05, 0.15, 0.4]) if hi < 64 else rng.choice([0.03, 0.06])
    m = Matrix(nrows, ncols, field)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                c = field(rng.randint(-3, 3))
                if c:
                    m.entries[(i, j)] = c
    return m


@settings(max_examples=40, deadline=None)
@given(eliminated_matrices())
def test_elimination_matches_rref_oracle(m):
    e = Elimination(m)
    rows, pivots = rref_oracle(m)
    assert e.rows == rows
    assert e.pivots == pivots and e.rank == len(pivots)
    assert e.kernel_basis() == kernel_oracle(m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Q, F3]), st.integers(0, 2**32))
def test_kernel_basis_is_the_oracle_key_by_key(field, seed):
    """One pass over the rows gives the kernel the per-column scan of
    kernel_oracle gives: the same vectors with keys in the same order."""
    rng = random.Random(seed)
    m = Matrix(rng.randint(1, 30), rng.randint(1, 30), field)
    for i in range(m.nrows):
        for j in range(m.ncols):
            if rng.random() < 0.15:
                c = field(rng.randint(-3, 3))
                if c:
                    m.entries[(i, j)] = c
    assert [list(k.items()) for k in Elimination(m).kernel_basis()] == \
        [list(k.items()) for k in kernel_oracle(m)]


@settings(max_examples=40, deadline=None)
@given(eliminated_matrices())
def test_span_solver_relations_are_the_kernel_basis(m):
    """Same vectors, same order, same key order as the matrix echelon."""
    e = Elimination(m)
    solver = SpanSolver(columns(m), m.field)
    assert solver.independent == e.pivots
    assert [list(r.items()) for r in solver.relations] == \
        [list(k.items()) for k in e.kernel_basis()]


def matrix_complex(m):
    """0 -> C^0 -> C^1 -> 0 with d the matrix m.

    Column j is the label ("c", j) and row i the label ("r", i); by
    repr ("r", 10) sorts before ("r", 2), so the span solver's label
    order is not the row order.
    """
    space = GradedSpace([(("c", j), 0) for j in range(m.ncols)]
                        + [(("r", i), 1) for i in range(m.nrows)])
    d = {}
    for (i, j), c in m.entries.items():
        d.setdefault(("c", j), {})[("r", i)] = c
    return Complex(space, d, m.field)


@settings(max_examples=40, deadline=None)
@given(eliminated_matrices())
def test_block_is_the_span_solver_on_its_columns(m):
    """The pivots are the earliest independent columns, and the kernel
    is the solver's relations, vector by vector and key by key."""
    cx = matrix_complex(m)
    block = cx.block(0)
    assert block.labels == [("c", j) for j in range(m.ncols)]
    solver = SpanSolver([cx.d.get(l, {}) for l in block.labels], m.field)
    assert block.pivots == solver.independent
    assert [[(block.labels[j], c) for j, c in k.items()]
            for k in block.kernel_basis()] == \
        [[(block.labels[j], c) for j, c in r.items()]
         for r in solver.relations]


def test_each_block_is_eliminated_once():
    sp = GradedSpace([("x", 0), ("y", 1), ("y2", 1), ("z", 2)])
    cx = Complex(sp, {"x": {"y": Q(1)}, "y2": {"z": Q(2)}}, Q)
    for i in (-1, 0, 1, 2):
        assert cx.block(i) is cx.block(i)
    assert cx.block(1).labels == ["y", "y2"]
    assert cx.block(1).pivots == [1]
    h1 = cx.cohomology(1)
    assert h1.dim == 0
    assert sorted(cx._blocks) == [-1, 0, 1, 2]

# ---------------------------------------------------------------------------
# graded spaces


def test_graded_space_basics():
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 1)])
    assert sp.dim() == 3
    assert sp.labels_of_degree(1) == ["y", "z"]
    assert sp.slice_dims() == {0: 1, 1: 2}
    assert sp.shifted(1).degree == {"x": -1, "y": 0, "z": 0}


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        GradedSpace([("x", 0), ("x", 1)])


def test_degree_of_vec():
    sp = GradedSpace([("x", 0), ("y", 1)])
    assert sp.degree_of_vec({"x": Q(2)}) == 0
    assert sp.degree_of_vec({}) is None
    assert sp.degree_of_vec({"x": Q(0), "y": Q(1)}) == 1
    with pytest.raises(ValueError):
        sp.degree_of_vec({"x": Q(1), "y": Q(1)})
    parts = sp.homogeneous_parts({"x": Q(1), "y": Q(2)})
    assert list(parts) == [0, 1] and parts[0] == {"x": Q(1)}


# ---------------------------------------------------------------------------
# complexes and cohomology


def test_zero_differential_gives_slice_dims():
    sp = GradedSpace([("a", 0), ("b", 1), ("c", 1), ("d", 2)])
    cx = Complex(sp, {}, Q)
    assert [cx.cohomology(i).dim for i in (0, 1, 2)] == [1, 2, 1]


def test_acyclic_two_term_complex():
    sp = GradedSpace([("x", 0), ("y", 1)])
    cx = Complex(sp, {"x": {"y": Q(1)}}, Q)
    assert cx.total_cohomology_dims() == {}


def test_d_squared_nonzero_rejected():
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    with pytest.raises(ValueError):
        Complex(sp, {"x": {"y": Q(1)}, "y": {"z": Q(1)}}, Q)


def test_inhomogeneous_differential_rejected():
    sp = GradedSpace([("x", 0), ("y", 2)])
    with pytest.raises(ValueError):
        Complex(sp, {"x": {"y": Q(1)}}, Q)


def test_cohomology_outside_support_is_zero_not_error():
    sp = GradedSpace([("x", 0)])
    cx = Complex(sp, {}, Q)
    h = cx.cohomology(5)
    assert h.dim == 0 and h.representatives == []


def test_projection_kills_coboundaries():
    # x --> y, with y' surviving in degree 1
    sp = GradedSpace([("x", 0), ("y", 1), ("y2", 1)])
    cx = Complex(sp, {"x": {"y": Q(1)}}, Q)
    h1 = cx.cohomology(1)
    assert h1.dim == 1
    assert h1.project({"y": Q(7)}) == {}
    assert h1.class_is_zero({"y": Q(7)})
    rep = h1.representatives[0]
    assert h1.project(rep) == {0: Q(1)}
    assert h1.classes_equal({"y2": Q(1), "y": Q(5)}, {"y2": Q(1)})


def test_projection_rejects_non_cocycles():
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 0)])
    cx = Complex(sp, {"x": {"y": Q(1)}}, Q)
    h0 = cx.cohomology(0)
    assert h0.dim == 1  # z survives
    with pytest.raises(ValueError):
        h0.project({"x": Q(1)})


def test_matrix_of_d_blocks():
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 1)])
    cx = Complex(sp, {"x": {"y": Q(2), "z": Q(-1)}}, Q)
    m, src, dst = cx.matrix_of_d(0)
    assert src == ["x"] and dst == ["y", "z"]
    assert m.entries == {(0, 0): Q(2), (1, 0): Q(-1)}


def test_cohomology_dims_q_vs_f_p_agreement():
    # the regression from the module contract: dims agree when p is
    # larger than anything elimination can produce from the entries
    sp = GradedSpace([("a", 0), ("b", 0), ("u", 1), ("v", 1), ("w", 2)])
    d = {
        "a": {"u": 1, "v": 2},
        "b": {"u": 3, "v": 6},
        "u": {},
        "v": {},
    }
    dims = {}
    for field in (Q, Field.prime(101)):
        dq = {
            k: {kk: field(c) for kk, c in vv.items()} for k, vv in d.items()
        }
        cx = Complex(sp, dq, field)
        dims[field.kind + str(field.p or "")] = cx.total_cohomology_dims()
    assert dims["Q"] == dims["Fp101"]
