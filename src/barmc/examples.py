"""Built-in algebras and seeded random instances.

The fixed zoo covers the geometric examples the engine is tested
against: exterior algebras (self-extensions of points), the extension
algebra of the skyscraper family with trivial products, the quadratic
Grassmannian-type algebra, and the two-generator (x, y) algebra whose
deformations exhibit a nonzero obstruction.  Random instances are
constructed from families whose defining identities hold for arbitrary
structure constants, so a seeded draw is always a valid algebra and
never needs rejection.
"""

import random
from itertools import combinations, product

from .ainfinity import (AInfAlgebra, StructureMaps, _compositions, _unit_laws,
                        tensor_with_dg, unitize)
from .artin import (
    fiber_product,
    square_zero,
    truncated_polynomial,
)
from .errors import _integer
from .linalg import GradedSpace


def kpoints(field, n):
    """Exterior algebra on n degree-1 generators, strictly unital.

    This is the self-extension algebra of a point on a smooth
    n-dimensional variety; labels are 'e' followed by the strictly
    increasing index word, with '1' for the unit.
    """
    if _integer(n, "the number of generators n") < 0:
        raise ValueError("the number of generators must be nonnegative")
    labels = []
    for w in range(n + 1):
        for subset in combinations(range(1, n + 1), w):
            labels.append(subset)
    space = GradedSpace([(_e_label(s), len(s)) for s in labels])
    ops = StructureMaps()
    for s in labels:
        for t in labels:
            if set(s) & set(t):
                continue
            sign, merged = _shuffle_sign_and_merge(s, t)
            ops.set(2, (_e_label(s), _e_label(t)),
                    {_e_label(merged): field.sign(sign)})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


def _e_label(subset):
    if not subset:
        return "1"
    return "e" + "".join(str(i) for i in subset)


def _shuffle_sign_and_merge(s, t):
    """Sign of sorting the concatenation s + t, counting inversions."""
    merged = list(s) + list(t)
    inversions = 0
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                inversions += 1
    return inversions, tuple(sorted(merged))


def njac(field, g):
    """Unit plus g degree-1 classes with all products of classes zero.

    The extension algebra of a generic point module over a
    noncommutative Jacobian-type algebra: Ext^0 = k, Ext^1 = k^g and
    nothing above, so the bar dual is free on g letters.
    """
    if _integer(g, "the number of classes g") < 0:
        raise ValueError("the number of classes must be nonnegative")
    space = GradedSpace([("1", 0)] + [("x%d" % i, 1) for i in range(1, g + 1)])
    ops = StructureMaps()
    _unit_laws(ops, "1", space.labels, field.one)
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


def ngr(field, n, m):
    """Sum of Sym^i(W*) tensor Lambda^i(V/W) for a flag W < V.

    dim V = n, dim W = m; the i-th piece sits in degree i and products
    multiply the symmetric and exterior parts separately.  Quadratic,
    and Koszul in the cases the engine probes.
    """
    if not (0 < _integer(m, "dim W = m") <= _integer(n, "dim V = n")):
        raise ValueError("need 0 < m <= n")
    q = n - m
    pieces = []
    for i in range(q + 1):
        for comp in _compositions(i + m, m):
            mono = tuple(e - 1 for e in comp)
            for subset in combinations(range(1, q + 1), i):
                pieces.append((mono, subset))
    space = GradedSpace([(_ngr_label(mo, su), len(su)) for mo, su in pieces])
    ops = StructureMaps()
    for mo1, su1 in pieces:
        for mo2, su2 in pieces:
            if set(su1) & set(su2):
                continue
            sign, merged = _shuffle_sign_and_merge(su1, su2)
            mono = tuple(a + b for a, b in zip(mo1, mo2))
            ops.set(2, (_ngr_label(mo1, su1), _ngr_label(mo2, su2)),
                    {_ngr_label(mono, merged): field.sign(sign)})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit=_ngr_label((0,) * m, ()))


def _ngr_label(mono, subset):
    if not any(mono) and not subset:
        return "1"
    sym = "".join("w%d^%d" % (i + 1, e) if e > 1 else "w%d" % (i + 1)
                  for i, e in enumerate(mono) if e)
    ext = "".join("f%d" % i for i in subset)
    return (sym + "." + ext).strip(".")


def xy_bare(field):
    """x in degree 1, y in degree 2, x x = y; no unit.

    The minimal algebra with a nonzero quadratic obstruction: a
    Maurer-Cartan lift of x t along k[t]/t^3 -> k[t]/t^2 is blocked by
    the class of y t^2.
    """
    space = GradedSpace([("x", 1), ("y", 2)])
    ops = StructureMaps()
    ops.set(2, ("x", "x"), {"y": field.one})
    return AInfAlgebra(space, field, ops, arity_bound=2)


def xy(field):
    """The unitized (x, y) algebra; unit label '1'."""
    return unitize(xy_bare(field), unit_label="1")


def acyclic_cone(field):
    """Unit, a in degree 1, b = d(a) in degree 2, all class products zero.

    The smallest strictly unital DG algebra whose augmentation ideal is
    acyclic; tensoring with it leaves cohomology alone, which makes it
    the standard probe for invariance along quasi-isomorphisms.
    """
    space = GradedSpace([("1", 0), ("a", 1), ("b", 2)])
    ops = StructureMaps()
    _unit_laws(ops, "1", space.labels, field.one)
    ops.set(1, ("a",), {"b": field.one})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


def golden_dg_pair(field):
    """Two DG algebras with nontrivial differentials and small homology.

    Both are tensor products with the acyclic cone, so their cohomology
    algebras are the (x, y) algebra and the one-generator exterior
    algebra; transfer against them exercises every sign path.
    """
    e = acyclic_cone(field)
    c1 = tensor_with_dg(xy(field), e)
    c2 = tensor_with_dg(kpoints(field, 1), e)
    return c1, c2


# ---------------------------------------------------------------------------
# seeded random instances


def random_instance(field, seed):
    """A deterministic valid test instance: (algebra, base, description).

    Families mix square-top algebras (a space V whose products land in
    a top space W killing everything), single-arity structures where
    one m_k is free, and square-zero complexes; each family satisfies
    its identities for arbitrary structure constants.
    """
    rng = random.Random(_integer(seed, "the seed"))
    kind = rng.choice(["square_top", "single_arity", "complex_alg"])
    if kind == "square_top":
        algebra = _random_square_top(field, rng)
    elif kind == "single_arity":
        algebra = _random_single_arity(field, rng)
    else:
        algebra = _random_complex_algebra(field, rng)
    base = _random_base(field, rng)
    return algebra, base, "%s/seed=%d" % (kind, seed)


def _rand_scalar(field, rng):
    if field.kind == "Q":
        return field(rng.randint(-3, 3))
    return field(rng.randrange(field.p))


def _random_square_top(field, rng):
    nv = rng.randint(1, 3)
    nw = rng.randint(1, 2)
    dv = rng.choice([1, 1, 2])  # odd weight for the interesting parity
    basis = [("v%d" % i, dv) for i in range(1, nv + 1)]
    basis += [("w%d" % i, 2 * dv) for i in range(1, nw + 1)]
    space = GradedSpace(basis)
    ops = StructureMaps()
    for i in range(1, nv + 1):
        for j in range(1, nv + 1):
            vec = {}
            for k in range(1, nw + 1):
                c = _rand_scalar(field, rng)
                if c:
                    vec["w%d" % k] = c
            if vec:
                ops.set(2, ("v%d" % i, "v%d" % j), vec)
    if dv == 1 and rng.random() < 0.5:
        for i in range(1, nv + 1):
            vec = {}
            for k in range(1, nw + 1):
                c = _rand_scalar(field, rng)
                if c:
                    vec["w%d" % k] = c
            if vec:
                ops.set(1, ("v%d" % i,), vec)
    bare = AInfAlgebra(space, field, ops, arity_bound=2)
    return unitize(bare, unit_label="1")


def _random_single_arity(field, rng):
    k = rng.randint(3, 4)
    r = rng.randint(1, 2)
    basis = [("x%d" % i, 1) for i in range(1, r + 1)] + [("y", 2)]
    space = GradedSpace(basis)
    ops = StructureMaps()
    for args in product(["x%d" % i for i in range(1, r + 1)], repeat=k):
        c = _rand_scalar(field, rng)
        if c:
            ops.set(k, args, {"y": c})
    bare = AInfAlgebra(space, field, ops, arity_bound=k)
    return unitize(bare, unit_label="1")




def _random_complex_algebra(field, rng):
    nu = rng.randint(1, 2)
    nv = rng.randint(1, 2)
    d0 = rng.choice([0, 1])
    basis = [("u%d" % i, d0) for i in range(1, nu + 1)]
    basis += [("v%d" % i, d0 + 1) for i in range(1, nv + 1)]
    space = GradedSpace(basis)
    ops = StructureMaps()
    for i in range(1, nu + 1):
        vec = {}
        for j in range(1, nv + 1):
            c = _rand_scalar(field, rng)
            if c:
                vec["v%d" % j] = c
        if vec:
            ops.set(1, ("u%d" % i,), vec)
    bare = AInfAlgebra(space, field, ops, arity_bound=2)
    return unitize(bare, unit_label="1")


def _random_base(field, rng):
    kind = rng.choice(["poly", "poly", "squarezero", "fiber"])
    if kind == "poly":
        return truncated_polynomial(field, rng.randint(2, 4))
    if kind == "squarezero":
        gens = [("m%d" % i, 0) for i in range(1, rng.randint(2, 3))]
        return square_zero(field, gens)
    r1 = truncated_polynomial(field, rng.randint(2, 3))
    r2 = truncated_polynomial(field, 2, var="s")
    return fiber_product(r1, r2)
