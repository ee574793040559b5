"""Augmented local artinian DG algebras, the coefficient rings of deformations.

An artinian DG algebra here is an associative unital DG algebra R of
finite total dimension whose augmentation ideal m is nilpotent.  The
basis normal form used throughout: one basis label is the unit, the
remaining labels span m, and the augmentation is the unit's dual
functional.  So "augmented" means "has a unit": an AInfAlgebra with a
unit label is augmented by that label's dual, and one without a unit
is not augmented.  Validation checks the algebra axioms exactly,
computes the nilpotency index, and classifies R as negative
(degrees <= 0) or classical (degree 0 only).
"""

from .ainfinity import (_algebra, _right_products, _unit_laws, AInfAlgebra,
                        StructureMaps, check_ainf_axioms, check_strict_unit)
from .errors import _integer
from .linalg import GradedSpace, Subspace, vec_clean

MAX_NILPOTENCY_SCAN = 64


class ArtinianReport:
    def __init__(self, ok, problems, nu=None, classical=False, negative=False,
                 commutative=False, powers=()):
        self.ok = ok
        self.problems = problems
        self.nu = nu
        self.powers = powers  # echelon rows of m, .., m^nu (= 0) if ok
        self.classical = classical
        self.negative = negative
        self.commutative = commutative

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            tags = [t for t, on in (("classical", self.classical),
                                    ("negative", self.negative),
                                    ("commutative", self.commutative)) if on]
            return "ArtinianReport(ok, nu=%d%s)" % (
                self.nu, (", " + ", ".join(tags)) if tags else "")
        return "ArtinianReport(%d problems: %s)" % (
            len(self.problems), "; ".join(self.problems[:3]))


def validate_artinian(A):
    """Check that an arity <= 2 algebra is augmented local artinian.

    The associativity and Leibniz identities go through
    check_ainf_axioms up to arity 3, a sparse join over the product and
    differential tables that covers exactly the tuples a replay over
    all basis triples would, and names the first failing one; the unit
    laws and d(1) = 0 go through check_strict_unit.  The closure of the
    ideal is read off the stored m_1 and m_2 entries: an entry on ideal
    labels with a unit component is a problem, listed in the order of a
    sweep over the ideal labels.  Returns an
    ArtinianReport; problems carry witness labels.  Nothing raises
    here, so callers can surface all violations at once.
    """
    problems = []
    if _algebra(A).m.max_arity() > 2:
        return ArtinianReport(False, ["operations above arity 2 present"])
    if A.unit is None:
        return ArtinianReport(
            False, ["normal form requires a unit label carrying the augmentation"])
    rep = check_ainf_axioms(A, 3)
    if not rep.ok:
        n, args, res = rep.failure
        problems.append(
            "algebra axioms fail at n=%d on %r (residual %r)" % (n, args, res))
    unit = check_strict_unit(A)
    if not unit.ok:
        problems.append("strict unit fails at n=%d on %r (%r)" % unit.failure)
    e = A.unit
    leaks = sorted(([A.space.index[l] for l in args], args) for n in (1, 2)
                   for args, vec in A.m.entries.get(n, {}).items()
                   if e in vec and e not in args)
    problems += ["d(%r) has a unit component" % args if len(args) == 1 else
                 "product %r * %r leaves the augmentation ideal" % args
                 for _, args in leaks]
    if problems:
        return ArtinianReport(False, problems)
    ideal = A.ideal_labels()
    powers = list(_ideal_powers(A, ideal))
    if powers[-1]:
        problems.append("augmentation ideal is not nilpotent "
                        "(no vanishing power up to %d)" % MAX_NILPOTENCY_SCAN)
        return ArtinianReport(False, problems)
    degs = set(A.space.degree.values())
    return ArtinianReport(True, [], nu=len(powers), powers=powers,
                          classical=degs == {0} or not ideal and degs <= {0},
                          negative=max(degs) <= 0,
                          commutative=_is_commutative(A))


def _ideal_powers(A, ideal):
    """Spanning rows of m, m^2, .., through the first zero power.

    m is spanned by the unit vectors of ideal, and m^(k+1) by the
    echelon basis of the products of the rows of m^k with ideal labels,
    each row multiplied by all of them at once (_right_products).  The
    scan stops at m^(MAX_NILPOTENCY_SCAN + 1) even if it is nonzero.
    """
    power = [{x: A.field.one} for x in ideal]
    yield power
    for _ in range(MAX_NILPOTENCY_SCAN):
        if not power:
            return
        power = Subspace([vec for products in _right_products(A, power, ideal)
                          for _, vec in products], A.field).rows
        yield power


def _is_commutative(A):
    """m_2(x, y) = (-1)^(|x||y|) m_2(y, x), read off the m_2 entries.

    A pair with neither product stored commutes trivially, and a pair
    with one stored is met from that entry.
    """
    sign, zero = A.field.sign, A.field.zero
    table = A.m.entries.get(2, {})
    for (x, y), xy in table.items():
        yx = table.get((y, x), {})
        s = sign(A.deg(x) * A.deg(y))
        if vec_clean({k: xy.get(k, zero) - s * yx.get(k, zero)
                      for k in set(xy) | set(yx)}):
            return False
    return True


class ArtinianDGAlgebra:
    """A validated artinian DG algebra in basis normal form."""

    def __init__(self, algebra):
        report = validate_artinian(algebra)
        if not report.ok:
            raise ValueError("not an artinian DG algebra: " +
                             "; ".join(report.problems))
        self.algebra = algebra
        self.field = algebra.field
        self.space = algebra.space
        self.unit = algebra.unit
        self.nu = report.nu
        self.classical = report.classical
        self.negative = report.negative
        self.commutative = report.commutative
        self._powers = report.powers
        self.ideal_labels = algebra.ideal_labels()

    def deg(self, label):
        return self.algebra.deg(label)

    def d_of(self, v):
        return self.algebra.eval_m_vectors([v])

    def multiply(self, u, v):
        return self.algebra.eval_m_vectors([u, v])

    def ideal_power(self, n):
        """Echelon rows of m^n, as validation found them; n = 0 gives R."""
        if n <= 0:
            return [{x: self.field.one} for x in self.space.labels]
        return next((rows for k, rows in enumerate(self._powers, 1) if k == n),
                    [])

    def ideal_power_subspace(self, n):
        return Subspace(self.ideal_power(n), self.field)


def _artinian(R):
    """R when it is an ArtinianDGAlgebra, else ValueError naming it."""
    if not isinstance(R, ArtinianDGAlgebra):
        raise ValueError("the base R must be an ArtinianDGAlgebra, got %r"
                         % (R,))
    return R


def quotient_by_power(R, n):
    """R/m^n together with the projection and a basis of the kernel.

    The quotient keeps the basis labels whose coset representatives
    survive; the projection sends every original label to its canonical
    representative in those labels.  Returns (Rbar, pi, kernel_rows)
    where pi is a dict label -> vector over the quotient labels.
    """
    nu = _artinian(R).nu
    if not (1 <= _integer(n, "the power n") <= nu):
        raise ValueError("power %d outside 1..nu=%d" % (n, nu))
    ideal_n = R.ideal_power_subspace(n)
    dropped = set(ideal_n.pivot_keys)
    kept = [l for l in R.space.labels if l not in dropped]
    pi = {l: ideal_n.reduce({l: R.field.one}) for l in R.space.labels}
    space = GradedSpace([(l, R.deg(l)) for l in kept])
    ops = StructureMaps()
    for l in kept:
        dv = ideal_n.reduce(R.d_of({l: R.field.one}))
        if dv:
            ops.set(1, (l,), dv)
    units = [{a: R.field.one} for a in kept]
    for a, products in zip(kept, _right_products(R.algebra, units, kept)):
        for b, prod in products:
            ops.set(2, (a, b), ideal_n.reduce(prod))
    alg = AInfAlgebra(space, R.field, ops, arity_bound=2, unit=R.unit)
    return ArtinianDGAlgebra(alg), pi, ideal_n.rows


# ---------------------------------------------------------------------------
# the standard zoo


def truncated_polynomial(field, n, deg=0, var="t"):
    """k[t]/t^n with deg t = deg <= 0; n = 1 gives the ground field."""
    if _integer(n, "the length n") < 1:
        raise ValueError("length must be at least 1")
    if _integer(deg, "the degree of t") > 0:
        raise ValueError("artinian bases live in degrees <= 0")
    if not isinstance(var, str):
        raise ValueError("the variable name %r is not a string" % (var,))
    labels = ["1"] + [var if i == 1 else "%s%d" % (var, i) for i in range(1, n)]
    space = GradedSpace([(labels[i], deg * i) for i in range(n)])
    ops = StructureMaps()
    one = field.one
    for i in range(n):
        for j in range(n):
            if i + j < n:
                ops.set(2, (labels[i], labels[j]), {labels[i + j]: one})
    alg = AInfAlgebra(space, field, ops, arity_bound=2, unit="1")
    return ArtinianDGAlgebra(alg)


def square_zero(field, gens, d=None):
    """k + M with M^2 = 0; gens is a list of (label, integer degree).

    A base in degrees <= 0 is what the deformation functors take; a
    generator of positive degree is accepted and makes a base that is
    neither negative nor classical.  d, if given, maps labels of M to
    vectors in M and must have degree +1 with d of d zero; both are
    validated downstream.
    """
    if not isinstance(gens, (list, tuple)) or not all(
            isinstance(gen, (list, tuple)) and len(gen) == 2 for gen in gens):
        raise ValueError("gens must be a list of (label, degree) pairs, got %r"
                         % (gens,))
    space = GradedSpace([("1", 0)] + [(l, _integer(g, "the degree of %r" % (l,)))
                                      for l, g in gens])
    ops = StructureMaps()
    _unit_laws(ops, "1", space.labels, field.one)
    if d:
        for l, vec in d.items():
            ops.set(1, (l,), {k: field(c) for k, c in vec.items()})
    alg = AInfAlgebra(space, field, ops, arity_bound=2, unit="1")
    return ArtinianDGAlgebra(alg)


def fiber_product(R1, R2):
    """R1 x_k R2: pairs agreeing under the augmentations.

    Basis: the shared unit plus both ideals, labeled a.x and b.y; the
    two ideals multiply to zero against each other.
    """
    if _artinian(R1).field != _artinian(R2).field:
        raise ValueError("factors live over different fields")
    field = R1.field
    basis = [("1", 0)]
    basis += [("a.%s" % l, R1.deg(l)) for l in R1.ideal_labels]
    basis += [("b.%s" % l, R2.deg(l)) for l in R2.ideal_labels]
    space = GradedSpace(basis)
    ops = StructureMaps()
    _unit_laws(ops, "1", space.labels, field.one)

    def install(R, prefix):
        for x in R.ideal_labels:
            dv = R.algebra.m.get(1, (x,))
            if dv:
                ops.set(1, ("%s.%s" % (prefix, x),),
                        {"%s.%s" % (prefix, z): c for z, c in dv.items()})
            for y in R.ideal_labels:
                prod = R.algebra.m.get(2, (x, y))
                prod = {z: c for z, c in prod.items() if z != R.unit}
                if prod:
                    ops.set(2, ("%s.%s" % (prefix, x), "%s.%s" % (prefix, y)),
                            {"%s.%s" % (prefix, z): c for z, c in prod.items()})

    install(R1, "a")
    install(R2, "b")
    alg = AInfAlgebra(space, field, ops, arity_bound=2, unit="1")
    return ArtinianDGAlgebra(alg)
