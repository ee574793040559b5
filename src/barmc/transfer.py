"""Minimal models by homotopy transfer along an exact splitting.

The builder does not carry a sign table of its own.  At each arity
the morphism identity for (f_1, ..., f_{n-1}) and the operations
found so far has exactly two unknown terms left, m_1 f_n on one side
and f_1 m_n on the other; every other term is a number already.  So
the join check_ainf_morphism runs (ainfinity._morphism_join), taken
over the tables of arity < n, hands us one known vector W_n per
argument tuple, all tuples at once, with d f_n + (-1)^n i m_n = W_n,
and the splitting takes it apart: m_n is (-1)^n p W_n and f_n is
h W_n.  Every sign that enters is the one the checker joins too, so
there is no convention here to get wrong; and the result is still not
trusted, since the assembled model and morphism go through the axiom
checkers before being returned.

The splitting itself is elementary linear algebra, done degree by
degree through the canonical echelon solvers: representatives for
cohomology, a basis of boundaries d(x) with the labels x as preimages,
and a homotopy that kills representatives and preimages.  The side
conditions hold by construction, because the homotopy lands in the
span of chosen preimages, on which both the projection and the
homotopy vanish.  The same algebra over the same field always yields
the same splitting and hence the same model.
"""

from .ainfinity import (
    _algebra,
    _degree_window_bound,
    _entries_in_order,
    _live_tables,
    _morphism_join,
    AInfAlgebra,
    AInfMorphism,
    StructureMaps,
    check_ainf_axioms,
    check_ainf_morphism,
    check_strict_unit,
    degree_certified_arity_bound,
)
from .errors import _integer, MathCheckFailure
from .linalg import (
    _apply_table,
    Complex,
    GradedSpace,
    SpanSolver,
    vec_add,
    vec_clean,
    vec_scale,
    vec_sub,
)


class TransferData:
    """An exact splitting (i, p, h) of a DG algebra over its cohomology.

    i embeds chosen representative cocycles, p projects onto them, and
    h is the chain homotopy contracting everything else:

        d h + h d = 1 - i p,  p i = 1,  h h = 0,  h i = 0,  p h = 0.

    The constructor verifies all five identities exactly on every
    basis label, along with d i = 0 and p d = 0, so holding an
    instance is proof of exactness rather than a promise of it.  The
    three maps are stored as sparse label tables; missing labels map
    to zero.
    """

    def __init__(self, C, space, i, p, h):
        self.C = C
        self.space = space
        self.field = C.field
        self.i = {k: vec_clean(dict(v)) for k, v in i.items()}
        self.p = {k: vec_clean(dict(v)) for k, v in p.items()}
        self.h = {k: vec_clean(dict(v)) for k, v in h.items()}
        self._certify()

    def apply_i(self, v):
        return _apply_table(self.i, v)

    def apply_p(self, v):
        return _apply_table(self.p, v)

    def apply_h(self, v):
        return _apply_table(self.h, v)

    def _certify(self):
        cx = self.C.complex()
        one = self.field.one
        for x in self.space.labels:
            k = self.space.degree[x]
            ix = self.i.get(x, {})
            for l in ix:
                if self.C.deg(l) != k:
                    raise ValueError(
                        "i(%r) is not homogeneous of degree %d" % (x, k))
            if vec_clean(cx.apply_d(ix)):
                raise ValueError("i(%r) is not a cocycle" % (x,))
            if self.apply_p(ix) != {x: one}:
                raise ValueError("p i is not the identity at %r" % (x,))
            if self.apply_h(ix):
                raise ValueError("h i is nonzero at %r" % (x,))
        for l in self.C.space.labels:
            e = {l: one}
            k = self.C.deg(l)
            for out in self.p.get(l, {}):
                if self.space.degree[out] != k:
                    raise ValueError("p(%r) is not homogeneous" % (l,))
            hl = self.h.get(l, {})
            for out in hl:
                if self.C.deg(out) != k - 1:
                    raise ValueError(
                        "h(%r) does not have degree -1" % (l,))
            if self.apply_h(hl):
                raise ValueError("h h is nonzero at %r" % (l,))
            if self.apply_p(hl):
                raise ValueError("p h is nonzero at %r" % (l,))
            if self.apply_p(cx.apply_d(e)):
                raise ValueError("p d is nonzero at %r" % (l,))
            lhs = cx.apply_d(hl)
            vec_add(lhs, self.apply_h(cx.apply_d(e)))
            rhs = vec_sub(e, self.apply_i(self.apply_p(e)))
            if vec_clean(vec_sub(lhs, rhs)):
                raise ValueError(
                    "d h + h d differs from 1 - i p at %r" % (l,))


def _h_label(rep, degree, idx, seen, one):
    """A deterministic name for a cohomology representative.

    Unit-vector representatives keep the underlying label, which makes
    the splitting of a minimal algebra the identity on the nose; the
    rest get counter names, bumped past any collision.
    """
    if len(rep) == 1:
        (l, c), = rep.items()
        if c == one and l not in seen:
            return l
    cand = ("h", degree, idx)
    bump = 1
    while cand in seen:
        bump += 1
        cand = ("h", degree, idx, bump)
    return cand


def build_splitting(C):
    """The canonical exact splitting of a finite DG algebra.

    Degree by degree, everything is read off the complex's one
    elimination of each block d_k (``Complex.block``): the cohomology
    representatives, and the boundaries d(x) of its pivot labels x,
    which form a basis of the image, each with the preimage x.  The
    homotopy sends that boundary back to its preimage while killing
    representatives and preimages.

    A strict unit is split off first, onto its own line with zero
    homotopy, which is the discipline that later makes the transferred
    model strictly unital without any cleanup pass; a declared unit
    whose line fails to separate is rejected.
    """
    if _algebra(C).m.max_arity() > 2:
        raise ValueError("splittings are built for DG algebras (arity <= 2)")
    field = C.field
    one = field.one
    unit = C.unit
    i_tbl = {}
    p_tbl = {}
    h_tbl = {}
    basis = []
    seen = set()
    if unit is not None:
        rep = check_strict_unit(C)
        if not rep.ok:
            raise ValueError("the declared unit is not strict: %r" % (rep,))
        block = [l for l in C.space.labels if l != unit]
        for l in block:
            if unit in C.m.get(1, (l,)):
                raise ValueError(
                    "d(%r) has a unit component; the unit line does not "
                    "split off" % (l,))
        basis.append((unit, 0))
        seen.add(unit)
        i_tbl[unit] = {unit: one}
        p_tbl[unit] = {unit: one}
    else:
        block = list(C.space.labels)
    space_blk = GradedSpace([(l, C.deg(l)) for l in block])
    d_blk = {}
    for l in block:
        dl = C.m.get(1, (l,))
        if dl:
            d_blk[l] = dict(dl)
    cx = Complex(space_blk, d_blk, field)
    reps_at = {}
    bnd_into = {}
    pre_at = {}
    for k in space_blk.degrees_present():
        h_k = cx.cohomology(k)
        named = []
        for idx, rep in enumerate(h_k.representatives):
            name = _h_label(rep, k, idx, seen, one)
            seen.add(name)
            basis.append((name, k))
            i_tbl[name] = dict(rep)
            named.append((name, rep))
        reps_at[k] = named
        elim = cx.block(k)
        pivots = [elim.labels[j] for j in elim.pivots]
        bnd_into[k + 1] = [cx.d[l] for l in pivots]
        pre_at[k] = [{l: one} for l in pivots]
    for k in space_blk.degrees_present():
        named = reps_at[k]
        bnd = bnd_into.get(k, [])
        pre = pre_at.get(k, [])
        solver = SpanSolver([r for _, r in named] + bnd + pre, field)
        nr = len(named)
        for l in space_blk.labels_of_degree(k):
            coords = solver.coordinates({l: one})
            if coords is None:
                raise MathCheckFailure(
                    "the splitting decomposition misses %r" % (l,))
            pvec = {}
            hvec = {}
            for j, c in coords.items():
                if j < nr:
                    pvec[named[j][0]] = c
                elif j < nr + len(bnd):
                    vec_add(hvec, pre_at[k - 1][j - nr], c)
            if vec_clean(pvec):
                p_tbl[l] = pvec
            if vec_clean(hvec):
                h_tbl[l] = hvec
    return TransferData(C, GradedSpace(basis), i_tbl, p_tbl, h_tbl)


def minimal_model(C, arity_max):
    """A minimal model of a DG algebra with its comparison morphism.

    Returns (A, f) where A has m_1 = 0, its binary operation is the
    induced product p m_2 (i x i), and f: A -> C restricts to the
    chosen representatives in arity one.  Operations and morphism
    components are computed through arity_max; when the degree window
    certifies that everything above must vanish the results are marked
    complete, otherwise they carry their bound honestly and consumers
    that would need more refuse.

    The recursion solves the morphism identity arity by arity.  With
    everything below arity n in hand, the identity on a tuple leaves
    d f_n on the product side and (-1)^n i m_n on the insertion side;
    the remaining terms form a known vector W_n, the morphism residual
    of the partial (A, f) because f_n and m_n are still absent there.
    It is read for every tuple at once off the morphism join over the
    tables of arity < n.  The splitting disassembles it:
    m_n = (-1)^n p W_n and f_n = h W_n.  The homotopy identity is
    what makes this choice close the recursion, and the axiom checkers
    verify the result before it is returned, so a discrepancy anywhere
    raises instead of propagating.
    """
    if _integer(arity_max, "arity_max") < 2:
        raise ValueError("arity_max must be at least 2, got %d" % (arity_max,))
    if _algebra(C).m.max_arity() > 2:
        raise ValueError(
            "minimal models are transferred from DG algebras (arity <= 2)")
    t = build_splitting(C)
    field = C.field
    H = t.space
    mops = StructureMaps()
    comps = StructureMaps()
    for x in H.labels:
        iv = t.i.get(x, {})
        if iv:
            comps.set(1, (x,), dict(iv))
    ops = _live_tables(C.m, C.arity_bound)
    for n in range(2, arity_max + 1):
        # the residual of the partial (model, morphism), f_n and m_n unset
        acc = _morphism_join(_live_tables(comps, n - 1),
                             _live_tables(mops, n - 1), ops, H.degree, n, field)
        for args, w in _entries_in_order(acc, H.index, C.space.index, field):
            pw = t.apply_p(w)
            if pw:
                mops.set(n, args, vec_scale(pw, field.sign(n)))
            hw = t.apply_h(w)
            if hw:
                comps.set(n, args, hw)

    unit = None
    if C.unit is not None and C.unit in H.index:
        if t.i.get(C.unit) == {C.unit: field.one} \
                and not t.h.get(C.unit):
            unit = C.unit
    A = AInfAlgebra(H, field, mops, arity_bound=arity_max,
                    unit=unit, complete_to_arity=arity_max)
    dcb = degree_certified_arity_bound(A)
    if dcb is not None and dcb <= arity_max:
        if mops.max_arity() > dcb:
            raise MathCheckFailure(
                "an operation survives above the degree-certified bound %d"
                % (dcb,))
        A = AInfAlgebra(H, field, mops, arity_bound=dcb, unit=unit)
    fb = None if unit is None else \
        _degree_window_bound(A, set(C.space.degree.values()), 1)
    if fb is not None and fb <= arity_max:
        if comps.max_arity() > fb:
            raise MathCheckFailure(
                "a morphism component survives above the degree-certified "
                "bound %d" % (fb,))
        f_bound = fb
    else:
        f_bound = arity_max
    f = AInfMorphism(A, C, comps, arity_bound=f_bound,
                     strict_unital=unit is not None)

    rep = check_ainf_axioms(A, n_max=arity_max)
    if not rep.ok:
        raise MathCheckFailure(
            "the transferred operations fail the Stasheff identities: %r"
            % (rep,))
    if unit is not None:
        rep = check_strict_unit(A)
        if not rep.ok:
            raise MathCheckFailure(
                "the transferred operations are not strictly unital: %r"
                % (rep,))
    rep = check_ainf_morphism(f, arity_max)
    if not rep.ok:
        raise MathCheckFailure(
            "the comparison morphism fails the morphism identities: %r"
            % (rep,))
    return A, f
