"""Independent recomputation helpers shared by test modules.

The dense helpers deliberately avoid the package's elimination code:
dense, division-based Gauss working directly on scalars, with full row
scans instead of sparse bookkeeping.  Slow and simple on purpose.

The rebuild-loop oracles at the end are the cohomology code as it was
before ``Subspace.insert``: they rebuild a batch ``Subspace`` after
every accepted vector and compute each step of the weight filtration
in its own pass.  The batch build is the reference that ``insert`` is
tested against, so they may use it.

``universal_ops_oracle`` is the universal deformation's own insertion
loop, from before it became a twisted module over S_N.
"""

from itertools import product

from barmc.ainfinity import StructureMaps, tensor_label, tensor_with_dg
from barmc.bar import dual_dg_algebra
from barmc.linalg import SpanSolver, Subspace, vec_add, vec_clean


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
# rebuild-loop oracles


def cohomology_oracle(cx, i):
    """(boundary rows, representatives) of H^i(cx), rebuilding the span."""
    field = cx.field
    d_i, src, _ = cx.matrix_of_d(i)
    kernel = d_i.row_reduce().kernel_basis()
    d_prev, _, dst_prev = cx.matrix_of_d(i - 1)
    boundaries = [{dst_prev[r]: c for r, c in col.items()}
                  for col in d_prev.row_reduce().image_basis()]
    reps = []
    span = list(boundaries)
    sub = Subspace(span, field)
    for kv in kernel:
        v = {src[j]: c for j, c in kv.items()}
        if sub.reduce(v):
            reps.append(v)
            span.append(v)
            sub = Subspace(span, field)
    return Subspace(boundaries, field).rows, reps


def filtered_dims_oracle(rep, degree):
    """Weight-graded dims of H^degree of an SHatCohomology, one pass per w."""
    h = rep.cx.cohomology(degree)
    brows = h.boundaries.rows
    bdim = h.boundaries.dim
    ranks = []
    for w in range(rep.N + 2):
        kernel = rep._restricted_kernel(rep._labels_at(degree, w))
        ranks.append(Subspace(brows + kernel, rep.field).dim - bdim)
    assert ranks[0] == h.dim
    return [ranks[w] - ranks[w + 1] for w in range(rep.N + 1)]


def adapted_reps_oracle(rep):
    """(weight, cocycle) pairs adapted to the filtration of H^0."""
    per_weight = {w: [] for w in range(rep.N + 1)}
    base = list(rep.h0.boundaries.rows)
    sub = Subspace(base, rep.field)
    for w in range(rep.N, -1, -1):
        for v in rep._restricted_kernel(rep._labels_at(0, w)):
            if not sub.contains(v):
                per_weight[w].append(v)
                base.append(v)
                sub = Subspace(base, rep.field)
    return [(w, v) for w in range(rep.N + 1) for v in per_weight[w]]


def product_table_oracle(rep, weight_reps):
    """Products of the given H^0 representatives in their class coordinates."""
    brows = rep.h0.boundaries.rows
    solver = SpanSolver(list(brows) + [v for _, v in weight_reps], rep.field)
    table = {}
    for i, (_, u) in enumerate(weight_reps):
        for j, (_, v) in enumerate(weight_reps):
            coords = solver.coordinates(rep.S.algebra.eval_m_vectors([u, v]))
            coords = {k - len(brows): c for k, c in coords.items()
                      if k >= len(brows) and c}
            if coords:
                table[(i, j)] = coords
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
    tau = {tensor_label(a, (a,)): one for a in A.ideal_labels()}
    ops = StructureMaps()
    for n in range(1, A.arity_bound + 1):
        for x in T.space.labels:
            xvec = {x: one}
            for rest in product(A.space.labels, repeat=n - 1):
                tail = [{tensor_label(a, ()): one} for a in rest]
                acc = {}
                for i in range(min(A.arity_bound - n, N) + 1):
                    term = T.eval_m_vectors([tau] * i + [xvec] + tail)
                    if term:
                        vec_add(acc, term, field.sign(i * (i + 1) // 2 + n * i))
                acc = vec_clean(acc)
                if acc:
                    ops.set(n, (x,) + rest, acc)
    return ops
