"""Exact sparse linear algebra and graded complexes.

Vectors are dicts mapping a basis key (an integer index, a string
label, or a structured tuple label) to a nonzero Scalar.

Every echelon form comes from one kernel, ``Subspace.insert``.  It
reduces a vector by the rows held so far, scales the remainder to one
at its smallest key, clears that key from the other rows and files the
new row by pivot, so the rows are always the reduced row-echelon basis
for a fixed key order.  ``Subspace`` orders keys by ``repr``.
Arithmetic is ordinary division over Q and F_p alike.

Linear systems go through one of two interfaces:

* ``Elimination`` is the reduced echelon form of a ``Matrix``, the
  integer-indexed block of a complex's differential; it orders keys by
  column index.  ``Complex.block(i)`` builds it once per degree, and
  ``Cohomology``, ``bar.SHatCohomology`` and
  ``transfer.build_splitting`` all read their kernels and pivot
  columns off that one elimination.
* ``SpanSolver`` takes label-keyed vectors as they are and reports the
  coordinates of a vector in their span, the independent vectors, and
  the relations among the others; it puts the labels before the
  coordinate tags through which it tracks combinations.

``Cohomology`` builds the ``SpanSolver`` that gives class coordinates
on the first ``project`` call, so a caller that only reads dimensions
and representatives, such as the Koszul probe, never builds it.
Nothing in the package asks for class coordinates in S_N: the
classical comparison reads H^0 as a presentation off the algebra
(``twisting.H0Presentation``).
"""

from bisect import bisect
from functools import cached_property


# ---------------------------------------------------------------------------
# sparse vectors


def vec_add(dst, src, coeff=None):
    """dst += coeff * src, in place; drops entries that cancel to zero."""
    if coeff is not None and not coeff:
        return dst
    for k, v in src.items():
        w = v if coeff is None else coeff * v
        if k in dst:
            s = dst[k] + w
            if s:
                dst[k] = s
            else:
                del dst[k]
        elif w:
            dst[k] = w
    return dst


def vec_scale(v, coeff):
    if not coeff:
        return {}
    return {k: coeff * c for k, c in v.items()}


def vec_neg(v):
    return {k: -c for k, c in v.items()}


def vec_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        if k in out:
            s = out[k] - v
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = -v
    return out


def vec_eq(a, b):
    return vec_is_zero(vec_sub(a, b))


def vec_is_zero(v):
    return all(not c for c in v.values())


def vec_clean(v):
    return {k: c for k, c in v.items() if c}


def _apply_table(table, v):
    """The linear map label -> table[label] on v; missing labels go to zero."""
    out = {}
    for k, c in v.items():
        vec_add(out, table.get(k, {}), c)
    return out


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse matrix over one field, rows and columns indexed from 0."""

    def __init__(self, nrows, ncols, field):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {}

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for (i, j), c in sorted(self.entries.items()):
            out[i][j] = c
        return out


class Elimination:
    """Reduced row-echelon data for one matrix.

    ``rows`` is the reduced echelon basis of the row space, columns in
    index order, built by ``Subspace.insert``.  Exposes rank, the pivot
    columns (the earliest columns independent of the ones before them,
    so the matching columns of the matrix are a basis of its image) and
    a kernel basis (columns = domain) read off the free columns.
    """

    def __init__(self, matrix):
        self.ncols = matrix.ncols
        self.field = matrix.field
        echelon = _ColumnEchelon(matrix.rows(), self.field)
        self.rows = echelon.rows
        self.pivots = echelon.pivot_keys
        self.rank = echelon.dim

    def kernel_basis(self):
        """Basis of {x : Mx = 0}, one vector per free column, canonical order.

        One pass over the rows: a reduced row vanishes at the other
        pivots, so each of its other keys is a free column.
        """
        pivot_set = set(self.pivots)
        one = self.field.one
        basis = {j: {j: one} for j in range(self.ncols) if j not in pivot_set}
        for row, p in zip(self.rows, self.pivots):
            for f, c in row.items():
                if f != p:
                    basis[f][p] = -c
        return list(basis.values())


class SpanSolver:
    """Membership, coordinates and relations of a fixed list of spanning vectors.

    Each spanning vector v_j is reduced as v_j + e_j, where the tag e_j
    sorts after every label, and kept only when v_j is new modulo the
    earlier vectors; ``independent`` lists those j.  Otherwise the
    remainder holds only tags: it is the relation e_j - sum c_p e_p
    with v_j = sum c_p v_p over earlier independent p, which is what
    ``Elimination.kernel_basis`` gives on the matrix with columns v_j,
    keys in the same order (j first, then the p ascending).  Reducing
    a vector v clears all of its labels exactly when v is in the span,
    and the tags left over are minus the coordinates of v: the unique
    ones supported on the independent vectors.
    """

    def __init__(self, vectors, field):
        self._echelon = _TaggedEchelon((), field)
        self.independent = []
        self.relations = []
        one = field.one
        for j, v in enumerate(vectors):
            # no row holds e_j yet, so v + e_j reduces to reduce(v) + e_j
            r = self._echelon.reduce(v)
            if _only_tags(r):
                relation = {j: one}
                relation.update(sorted((t.j, c) for t, c in r.items()))
                self.relations.append(relation)
            else:
                r[_Tag(j)] = one
                self._echelon._add_reduced(r)
                self.independent.append(j)

    def coordinates(self, v):
        """Coefficients expressing v in the spanning set, or None."""
        r = self._echelon.reduce(v)
        if not _only_tags(r):
            return None
        return {t.j: -c for t, c in sorted(r.items(), key=lambda tc: tc[0].j)}

    def contains(self, v):
        return self.coordinates(v) is not None


class Subspace:
    """Echelonized span of sparse vectors; supports canonical coset reps.

    Keys are ordered by ``repr``.  ``rows`` is the reduced echelon basis
    of the span in that order: each row has coefficient one at its pivot
    key (its smallest key), zero at every other pivot key, and rows are
    listed by pivot.  That basis is unique, so it does not depend on the
    insertion order.  ``insert`` is the package's only row reduction;
    ``Elimination`` and ``SpanSolver`` use subclasses with other key orders.
    """

    # sort key of the key order; a row's pivot is its smallest key
    _order = staticmethod(repr)

    def __init__(self, vectors, field):
        self.field = field
        self.rows = []
        self.pivot_keys = []
        self.dim = 0
        self._row_at = {}
        for v in vectors:
            self.insert(v)

    def reduce(self, v):
        """Canonical representative of v modulo this subspace."""
        v = vec_clean(v)
        # rows vanish at each other's pivots, so one pass over the
        # pivots present in v clears them all; vec_add keeps v clean
        for pk in [k for k in v if k in self._row_at]:
            vec_add(v, self._row_at[pk], -v[pk])
        return v

    def contains(self, v):
        return not self.reduce(v)

    def insert(self, v):
        """Add v to the span: True if it was new, False (no change) if not."""
        r = self.reduce(v)
        if not r:
            return False
        self._add_reduced(r)
        return True

    def _add_reduced(self, r):
        """File a nonzero vector that is already reduced modulo the rows."""
        order = self._order
        pk = min(r, key=order)
        if r[pk] != self.field.one:
            inv = r[pk].inverse()
            r = {k: inv * c for k, c in r.items()}
        for i in [i for i, row in enumerate(self.rows) if pk in row]:
            row = vec_add(dict(self.rows[i]), r, -self.rows[i][pk])
            self.rows[i] = self._row_at[self.pivot_keys[i]] = row
        at = bisect(self.pivot_keys, order(pk), key=order)
        self.pivot_keys.insert(at, pk)
        self.rows.insert(at, r)
        self._row_at[pk] = r
        self.dim += 1


class _ColumnEchelon(Subspace):
    """The row space of a matrix, keys being column indices in order."""

    _order = staticmethod(int)


class _Tag:
    """The coordinate tag e_j of a SpanSolver; equal only to itself."""

    __slots__ = ("j",)

    def __init__(self, j):
        self.j = j


def _only_tags(v):
    return all(type(k) is _Tag for k in v)


def _labels_then_tags(k):
    return (1, k.j) if type(k) is _Tag else (0, repr(k))


class _TaggedEchelon(Subspace):
    """A SpanSolver's echelon: labels by ``repr``, then tags by index."""

    _order = staticmethod(_labels_then_tags)


# ---------------------------------------------------------------------------
# graded spaces and complexes


class GradedSpace:
    """Finite-dimensional Z-graded space with an ordered, labeled basis.

    Labels are hashable (strings for user input, tuples for internal
    tensor constructions); the listed order is canonical and is the
    serialization order.
    """

    def __init__(self, basis):
        labels = []
        degree = {}
        for label, deg in basis:
            if label in degree:
                raise ValueError("duplicate basis label %r" % (label,))
            labels.append(label)
            degree[label] = int(deg)
        self.labels = tuple(labels)
        self.degree = degree
        self.index = {lbl: i for i, lbl in enumerate(self.labels)}

    def dim(self):
        return len(self.labels)

    def degrees_present(self):
        return sorted(set(self.degree.values()))

    def labels_of_degree(self, d):
        return [lbl for lbl in self.labels if self.degree[lbl] == d]

    def dim_of_degree(self, d):
        return sum(1 for lbl in self.labels if self.degree[lbl] == d)

    def slice_dims(self):
        return {d: self.dim_of_degree(d) for d in self.degrees_present()}

    def shifted(self, k):
        """The shift by k: an element of degree d gets degree d - k."""
        return GradedSpace([(lbl, self.degree[lbl] - k) for lbl in self.labels])

    def degree_of_vec(self, v):
        """Degree of a homogeneous vector; None for 0; error if mixed."""
        degs = {self.degree[k] for k, c in v.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous: degrees %s" % degs)
        return degs.pop()

    def homogeneous_parts(self, v):
        parts = {}
        for k, c in v.items():
            if c:
                parts.setdefault(self.degree[k], {})[k] = c
        return dict(sorted(parts.items()))


class Complex:
    """A graded space with a degree +1 differential, d*d = 0.

    The differential is sparse, label -> vector.  Construction checks
    homogeneity of every entry and the exact vanishing of d squared.
    """

    def __init__(self, space, d, field):
        self.space = space
        self.field = field
        self.d = {k: w for k, v in d.items() if (w := vec_clean(v))}
        self._blocks = {}
        self._cohomology = {}
        self._validate()

    def _validate(self):
        for src, v in self.d.items():
            dsrc = self.space.degree[src]
            for dst in v:
                if self.space.degree[dst] != dsrc + 1:
                    raise ValueError(
                        "differential entry %r -> %r is not of degree +1"
                        % (src, dst)
                    )
        for src in self.d:
            acc = {}
            for mid, c in self.d[src].items():
                vec_add(acc, self.d.get(mid, {}), c)
            if not vec_is_zero(acc):
                raise ValueError(
                    "d*d is nonzero on basis element %r: %r" % (src, acc)
                )

    def apply_d(self, v):
        return _apply_table(self.d, v)

    def matrix_of_d(self, i):
        """The block d: degree i -> degree i+1, with its label lists."""
        src = self.space.labels_of_degree(i)
        dst = self.space.labels_of_degree(i + 1)
        dst_index = {lbl: r for r, lbl in enumerate(dst)}
        m = Matrix(len(dst), len(src), self.field)
        for j, lbl in enumerate(src):
            for out_lbl, c in self.d.get(lbl, {}).items():
                m.entries[(dst_index[out_lbl], j)] = c
        return m, src, dst

    def block(self, i):
        """The elimination of d: degree i -> i+1, computed once per degree.

        Its ``labels`` are the degree-i labels, one per column.
        """
        if i not in self._blocks:
            m, src, _ = self.matrix_of_d(i)
            e = self._blocks[i] = Elimination(m)
            e.labels = src
        return self._blocks[i]

    def cohomology(self, i):
        """H^i, computed once per degree; d is never changed after construction."""
        if i not in self._cohomology:
            self._cohomology[i] = Cohomology(self, i)
        return self._cohomology[i]

    def total_cohomology_dims(self):
        degs = self.space.degrees_present()
        out = {}
        for i in range(min(degs, default=0), max(degs, default=-1) + 1):
            h = self.cohomology(i)
            if h.dim:
                out[i] = h.dim
        return out


class Cohomology:
    """H^i of a Complex: dimension, representative cocycles, projection.

    Both blocks come from the complex: the kernel of d_i is read off
    ``cx.block(i)``, and the boundaries are d(x) for the pivot labels x
    of ``cx.block(i - 1)``, a basis of the image of d_(i-1).
    """

    def __init__(self, cx, i):
        self.cx = cx
        self.i = i
        field = cx.field
        prev = cx.block(i - 1)
        self.boundaries = Subspace([cx.d[prev.labels[j]] for j in prev.pivots],
                                   field)
        # pick representatives: kernel vectors whose reductions mod the
        # boundary space stay independent
        block = cx.block(i)
        reps = []
        span = Subspace(self.boundaries.rows, field)
        for kv in block.kernel_basis():
            v = {block.labels[j]: c for j, c in kv.items()}
            if span.insert(v):
                reps.append(v)
        self.representatives = reps
        self.dim = len(reps)
        self.field = field

    @cached_property
    def _solver(self):
        """Coordinates over the boundary rows, then the representatives.

        Built on the first project: the rows are a basis of the same
        boundary space, so the coordinates on the representatives are
        the unique ones whatever basis the boundaries are given in.
        """
        return SpanSolver(self.boundaries.rows + self.representatives,
                          self.field)

    def project(self, v):
        """Coordinates of the class of a cocycle v in the representatives.

        Returns a dict position -> Scalar over range(dim); raises if v
        is not in ker + im (i.e. not a cocycle of this degree).
        """
        v = vec_clean(v)
        if not v:
            return {}
        coords = self._solver.coordinates(v)
        if coords is None:
            raise ValueError("vector does not represent a class in H^%d" % self.i)
        nb = self.boundaries.dim
        return {j - nb: c for j, c in coords.items() if j >= nb and c}

    def class_is_zero(self, v):
        return self.boundaries.contains(v)

    def classes_equal(self, v, w):
        return self.class_is_zero(vec_sub(v, w))
