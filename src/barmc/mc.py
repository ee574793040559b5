"""Maurer-Cartan theory over artinian coefficients.

Everything here happens inside A tensor R for an artinian DG algebra R
with nilpotent augmentation ideal m.  Nilpotency makes every
Maurer-Cartan sum finite, and the engine verifies the truncation
rather than assuming it: the first omitted term is evaluated and must
vanish.

The category structure on MC elements follows the insertion formula

    m_n^{a_0..a_n}(x_n, .., x_1) =
        sum (-1)^eps m(a_n^{i_n}, x_n, a_{n-1}^{i_{n-1}}, .., x_1, a_0^{i_0})

with eps = sum_{k>j} (|x_k| + i_k) i_j + sum_k i_k(i_k+1)/2 + sum_k k i_k.
Its n = 1 case is the differential on morphism complexes, and for a DG
algebra it collapses to d(x) + beta x - (-1)^|x| x alpha.  With f in
place of m and i_k(i_k-1)/2 in place of i_k(i_k+1)/2 it is the
pushforward along an A-infinity morphism f.  All of them are one
insertion sum (_insertion_sum), which checks that a term with nu
insertions vanishes.  The twisted modules of twisting.py run it once
per arity, with the twist in the last slot only and terms that are
whole tables rather than vectors; their dual-side comodules transpose
those tables and do not sum again.

The n = 0 case is the MC residual sum (-1)^(n(n+1)/2) m_n(alpha..alpha),
and it has one kernel of its own (DeformationSetup._residual_raw): the
m_n tables of A x R restricted to degree-1 ideal labels, indexed once
by first slot, with raw coefficients (ainfinity._raw) and the sign
applied.  A point is a tuple of raw values over those labels.  The sign
comes from _insertion_exponent, which _insertion_sum shares, so eps has
one copy.  The public mc_residual validates its input, runs the kernel
and wraps the result (ainfinity._canonical); enumerate_mc keeps its
points raw and wraps only each level's residuals, for the linear solve
of the lift (SmallExtension.correction), and its output.

Every operation here starts from the fact that its objects are MC
over R, and DeformationSetup.is_mc is the one place that decides it.
It remembers each element it accepted, zeros ignored, so the category
operations, hom complexes, the groupoid, the gauge classes, the
obstructions, lifting and the pushforward (and the corepresenting map
in twisting.py) check their objects on every call at the cost of one
key once an object passed.
What enumerate_mc and lift_mc compute themselves is certified by its
own residual, as a MathCheckFailure, not asked of is_mc; enumerate_mc
then hands the raw points it certified to is_mc's memory, which keys
them on first need.
"""

from functools import cached_property
from itertools import compress, product as iter_product
from random import Random

from .ainfinity import (
    _algebra,
    _base_words,
    _canonical,
    _expand,
    _morphism,
    _raw,
    _raw_row,
    _regrouped,
    check_ainf_morphism,
    check_strict_unit,
    check_strict_unital_morphism,
    tensor_block_exponent,
    tensor_with_dg,
)
from .artin import _artinian, quotient_by_power
from .errors import _integer, HypothesisNotMet, MathCheckFailure
from .linalg import (
    _apply_table,
    Complex,
    GradedSpace,
    SpanSolver,
    Subspace,
    vec_add,
    vec_clean,
    vec_scale,
    vec_sub,
)
from .scalars import Scalar

ENUMERATION_CAP = 1 << 16


def _check_vector(v, field, what, labels, where):
    """v is a dict from labels to Scalars over field; ValueError if not."""
    if not isinstance(v, dict):
        raise ValueError("%s %r is not a dict label -> scalar" % (what, v))
    for l, c in v.items():
        if not isinstance(c, Scalar) or (c.field is not field
                                         and c.field != field):
            raise ValueError("coefficient %r at %r is not a scalar over %r"
                             % (c, l, field))
        if l not in labels:
            raise ValueError("%s has a component %r outside %s"
                             % (what, l, where))

def _vec_key(v):
    """A hashable key of v that ignores how its zeros are written.

    It holds labels and raw values, not the field: vectors over
    different fields can share a key.
    """
    return frozenset([(l, c.val) for l, c in v.items() if c])


def _span_points(field, offset, basis):
    """offset + sum c_i v_i for every coefficient tuple over F_p.

    Listed lexicographically, the first coefficient major.  An empty
    basis gives [offset] over any field.
    """
    points = [dict(offset)]
    if basis:
        scalars = field.elements()
        for v in basis:
            points = [vec_add(dict(u), v, c) for u in points for c in scalars]
    return points


def _span_tuples(p, basis, size):
    """Every F_p-combination of raw tuples of the given size, zero included."""
    points = [(0,) * size]
    for v in basis:
        points = [tuple([(a + c * b) % p for a, b in zip(u, v)])
                  for u in points for c in range(p)]
    return points


def _cosets(p, bases, span):
    """base + z for each base, then each z in span, as raw tuples.

    Position j of base + z runs through (base[j] + z[j]) % p as z runs
    through the span, which depends on base[j] alone, so each such
    column is made once per value and zip assembles the tuples.
    """
    size = len(span[0])
    if not size:
        return [()] * (len(bases) * len(span))
    columns = [[tuple([(b + z[j]) % p for z in span]) for b in range(p)]
               for j in range(size)]
    out = []
    for base in bases:
        out.extend(zip(*[col[b] for col, b in zip(columns, base)]))
    return out


def _insertion_exponent(counts, degs, lam):
    """eps for i_k = counts[k] objects between x_k and x_(k+1) (_insertion_sum)."""
    eps = before = 0
    for k, i in enumerate(counts):
        if before:
            eps += (degs[k - 1] + i) * before
        eps += i * (i + lam) // 2 + k * i
        before += i
    return eps


def _insertion_sum(field, evaluate, objects, degs, budget, nu, lam):
    """sum (-1)^eps evaluate(counts) over insertion counts (i_0, .., i_n).

    i_k copies of objects[k] sit between x_k and x_(k+1), degs[k - 1] =
    |x_k|, and

        eps = sum_{k>j} (|x_k| + i_k) i_j + sum_k i_k(i_k+lam)/2
              + sum_k k i_k,

    lam = +1 for the category operations and -1 for the pushforward
    functor (_insertion_exponent).  The counts run in itertools.product
    order with sum at most budget, and zero objects are not inserted.
    The objects lie in A x m, so a term with nu insertions lies in
    m^nu = 0: totals above nu are not evaluated, and those of total nu
    are and must vanish.
    """
    top = min(budget, nu)
    out = {}
    for counts in iter_product(*[range(top + 1) if a else (0,)
                                 for a in objects]):
        total = sum(counts)
        if total > top:
            continue
        term = evaluate(counts)
        if total == nu:
            if vec_clean(term):
                raise _truncation_unsound(nu)
        elif term:
            vec_add(out, term,
                    field.sign(_insertion_exponent(counts, degs, lam)))
    return out


def _truncation_unsound(nu):
    return MathCheckFailure(
        "nilpotency truncation unsound: a term with %d insertions "
        "survives m^%d = 0" % (nu, nu))


def _add_raw(acc, term, p):
    """acc += term on raw values, deleting keys that cancel, as vec_add does."""
    for k, w in term.items():
        if k in acc:
            s = acc[k] + w
            if s % p if p else s:
                acc[k] = s
            else:
                del acc[k]
        else:
            acc[k] = w


class DeformationSetup:
    """A with coefficients extended by an artinian base R.

    Holds the tensor algebra on A x R, the ideal part A x m where
    Maurer-Cartan elements live, and the nilpotency index that bounds
    every sum.  All MC operations for the pair (A, R) route through
    one instance, and is_mc is where they learn that an object is MC.
    """

    def __init__(self, A, R):
        if _artinian(R).field != _algebra(A).field:
            raise ValueError("algebra and base live over different fields")
        self.A = A
        self.R = R
        self.field = A.field
        self.nu = R.nu
        needed = min(A.arity_bound, self.nu)
        if not A.op_complete_for(needed):
            raise HypothesisNotMet(
                "Maurer-Cartan sums need operations up to arity %d but the "
                "algebra is only complete to %d" % (needed, A.complete_to_arity))
        self.T = tensor_with_dg(A, R.algebra)
        radical = set(R.ideal_labels)
        self.ideal = [l for l in self.T.space.labels if l[1] in radical]
        self._ideal_set = set(self.ideal)
        self.ideal_space = GradedSpace(
            [(l, self.T.deg(l)) for l in self.ideal])
        self.one_vec = (
            {(A.unit, R.unit): self.field.one}
            if A.unit is not None else None)
        self._mc = set()  # _vec_key of every element found MC
        self._certified = []  # point lists enumerate_mc certified, unkeyed

    def ideal_labels_of_degree(self, k):
        return self.ideal_space.labels_of_degree(k)

    def check_mc_input(self, alpha):
        _check_vector(alpha, self.field, "element", self._ideal_set, "A x m")
        for l, c in alpha.items():
            if c and self.T.deg(l) != 1:
                raise ValueError("element has a component %r of degree %d"
                                 % (l, self.T.deg(l)))

    def mc_residual(self, alpha):
        """Sum (-1)^(n(n+1)/2) m_n(alpha..alpha), truncated and verified.

        check_mc_input, then the kernel (_residual_raw) on alpha's raw
        coordinates over ideal_labels_of_degree(1), then one Scalar per
        output entry.  Terms with n >= nu vanish because their
        coefficients land in m^nu = 0; when the arity bound reaches that
        far the first such term is computed anyway and checked to be
        zero.
        """
        self.check_mc_input(alpha)
        return _canonical(self.field,
                          self._residual_raw(self._raw_point(alpha)))

    @cached_property
    def _label_at(self):
        """The position of each label of ideal_labels_of_degree(1)."""
        return {l: i for i, l in enumerate(self.ideal_labels_of_degree(1))}

    @cached_property
    def _residual_index(self):
        """The m_n entries of T on degree-1 ideal labels, by first slot.

        One (n, by_first) per arity n <= min(arity bound, nu), ascending.
        by_first lists (i, entries) by ascending position i in
        ideal_labels_of_degree(1), for the positions that start an
        entry; entries holds (rest, row) ordered by rest, the positions
        of the other slots, and row is the output with raw coefficients
        (_raw) times (-1)^(n(n+1)/2).
        """
        at = self._label_at
        field = self.field
        top = min(self.A.arity_bound, self.nu)
        index = []
        for n in sorted(self.T.m.entries):
            if n > top:
                continue
            sign = -1 if _insertion_exponent((n,), (), 1) % 2 else 1
            by_first = {}
            for args, vec in self.T.m.entries[n].items():
                if all(a in at for a in args):
                    by_first.setdefault(at[args[0]], []).append((
                        tuple([at[a] for a in args[1:]]),
                        [(k, sign * _raw(field, c)) for k, c in vec.items()]))
            for entries in by_first.values():
                entries.sort()  # by rest: one entry per args tuple
            index.append((n, sorted(by_first.items())))
        return index

    def _residual_raw(self, x):
        """The MC residual of the point x, in raw values: the one kernel.

        x lists raw values (ints mod p, or ints and Fractions over Q)
        over ideal_labels_of_degree(1).  For each arity n the kernel
        walks the nonzero positions of x and the index entries whose
        other slots are nonzero too, in itertools.product order, and
        sums the arity-n term on its own; the terms then add up by
        vec_add's rule, so the keys come in the order that summing
        (-1)^(n(n+1)/2) m_n(alpha..alpha) term by term gives for alpha
        written in label order.  The term of arity nu lies in m^nu = 0
        and must vanish mod p: MathCheckFailure if it survives.
        """
        p, nu = self.field.p, self.nu
        acc = {}
        for n, by_first in self._residual_index:
            term = {}
            for i, entries in by_first:
                xi = x[i]
                if not xi:
                    continue
                for rest, row in entries:
                    c = xi
                    for j in rest:
                        c *= x[j]
                    if c:
                        for k, v in row:
                            if k in term:
                                s = term[k] + c * v
                                if s % p if p else s:
                                    term[k] = s
                                else:
                                    del term[k]
                            else:
                                term[k] = c * v
            if n == nu:
                if term:
                    raise _truncation_unsound(n)
            elif acc:
                _add_raw(acc, term, p)
            else:
                acc = term
        return acc

    def is_mc(self, alpha):
        """Whether alpha is MC over R, decided once per element.

        A dict of nonzero Scalars over this setup's field object whose
        key (_vec_key) is known passes at once: its labels and values
        are those of an input that passed.  Any other input is checked
        by check_mc_input (ValueError), and its residual is evaluated
        once per key.  Only positive answers are kept, so a non-MC
        object is refused on every call.  The raw points enumerate_mc
        certified are keyed on the first element not yet known, and
        need no residual.
        """
        field = self.field
        if type(alpha) is dict and all(
                type(c) is Scalar and c.field is field and c
                for c in alpha.values()) and _vec_key(alpha) in self._mc:
            return True
        self.check_mc_input(alpha)
        element = _vec_key(alpha)
        if element not in self._mc:
            while self._certified:
                labels, points = self._certified.pop()
                self._mc.update(
                    frozenset([(l, v) for l, v in zip(labels, x) if v])
                    for x in points)
            if element not in self._mc and self.mc_residual(alpha):
                return False
            self._mc.add(element)
        return True

    def require_mc(self, objects, refusal):
        """HypothesisNotMet(refusal) unless every object passes is_mc."""
        if not all(self.is_mc(a) for a in objects):
            raise HypothesisNotMet(refusal)

    def enumerate_mc(self, cap=ENUMERATION_CAP):
        """All MC elements, lifted along R/m <- R/m^2 <- .. <- R.

        Finite prime fields only, and only when the candidate space
        p^|labels| is within the cap.  Starting from the single point
        {} over R/m = k, each small extension R/m^(n+1) -> R/m^n
        (kernel I = m^n, I m = m I = 0) replaces every point by its
        fibre of lifts (see SmallExtension): residual(alpha~ + eta) =
        residual(alpha~) - m_1(eta) for eta in (A x I)^1, so the fibre
        is empty or alpha~ + eta0 + Z^1(A x I), one linear solve per
        point.  Every element over R projects to an MC element over
        each R/m^n, so nothing is missed.

        Points are raw: tuples of ints mod p over this setup's
        ideal_labels_of_degree(1), which hold every lower level's
        labels, since each quotient keeps R's labels.  Each level's
        Z^1 span is built once as tuples, a fibre is base + z over it
        (_cosets), and the residuals run through each level's kernel
        (_residual_raw); only a residual handed to the solve
        (SmallExtension.correction) is wrapped in Scalars.  The output
        dicts are built once, in label order, from the p Scalars of
        the field, and the list is ordered by the coefficient tuple,
        the order of an exhaustive sweep.

        Certificates: below the top level a wrong point shows when the
        next level's residual leaves A x I (SmallExtension.coordinates
        raises MathCheckFailure); at the top level the particular lift
        of every nonempty fibre is checked with one exact residual, and
        the Z^1 basis is checked to consist of cocycles.  The points so
        certified, at every level, go to the is_mc memory of that
        level's setup in chain() as raw tuples, keyed only when is_mc
        first meets an element it does not know, so _gauge_classes
        evaluates no residual of them again.
        """
        field = self.field
        p = field.p
        if not p:
            raise HypothesisNotMet("enumeration needs a finite prime field")
        labels = self.ideal_labels_of_degree(1)
        if p ** len(labels) > _integer(cap, "the cap"):
            raise HypothesisNotMet(
                "enumeration space %d^%d exceeds the cap %d"
                % (p, len(labels), cap))
        at = self._label_at
        points = particular = [(0,) * len(labels)]
        exts = [setup.extension for setup in self.chain() if setup.nu > 1]
        levels = []
        for ext in reversed(exts):
            setup = ext.setup
            own = [at[l] for l in setup.ideal_labels_of_degree(1)]
            span = _span_tuples(p, [self._raw_point(z) for z in ext.cocycles()],
                                len(labels))
            particular = []
            for x in points:
                eta = ext.correction(_canonical(
                    field, setup._residual_raw([x[j] for j in own])))
                if eta is None:
                    continue
                base = list(x)
                for l, c in eta.items():
                    base[at[l]] = (base[at[l]] + c.val) % p
                particular.append(base)
            points = _cosets(p, particular, span)
            levels.append((setup, points))
        scalars = field.elements().__getitem__
        for x in particular:
            if self._residual_raw(x):
                raise MathCheckFailure(
                    "lifted element fails the MC equation: %r"
                    % (dict(compress(zip(labels, map(scalars, x)), x)),))
        for setup, found in levels:
            setup._certified.append((labels, found))
        points.sort()
        return [dict(compress(zip(labels, map(scalars, x)), x))
                for x in points]

    def _raw_point(self, vec):
        """The raw values of vec over ideal_labels_of_degree(1), in order.

        vec has its nonzero entries there (check_mc_input); zeros
        written elsewhere are skipped.
        """
        at = self._label_at
        x = [0] * len(at)
        for l, c in vec.items():
            if c:
                x[at[l]] = c.val
        return x

    def chain(self):
        """Setups over R, R/m^(nu-1), .., R/m^2, each built from the one above.

        Every walk down the tower (enumerate_mc, _gauge_classes,
        lift_mc) goes through these shared levels, so each setup and
        its SmallExtension is built once per top setup.
        """
        out = [self]
        while out[-1].nu > 2:
            out.append(out[-1].below)
        return out

    @cached_property
    def extension(self):
        """The small extension R -> R/m^(nu-1), over this setup."""
        if self.nu < 2:
            raise HypothesisNotMet(
                "R = k (nu = %d) has no small extension R -> R/m^(nu-1)"
                % self.nu)
        return SmallExtension(self)

    @cached_property
    def below(self):
        """The setup over R/m^(nu-1), the base of self.extension."""
        return DeformationSetup(self.A, self.extension.Rbar)

    def category_op(self, objects, morphisms):
        """m_n^{a_0..a_n}(x_n, .., x_1) for x_k: a_{k-1} -> a_k.

        morphisms is [x_1, .., x_n], objects [a_0, .., a_n]; the
        insertion sum is finite by the arity bound and nilpotency.
        Objects must pass is_mc (HypothesisNotMet otherwise).
        """
        n = len(morphisms)
        if len(objects) != n + 1:
            raise ValueError("an n-ary operation needs n+1 objects")
        self.require_mc(objects,
                        "category operations are defined on MC objects only")
        for x in morphisms:
            _check_vector(x, self.field, "morphism", self.T.space.index,
                          "A x R")
        return self._insertions(self.T.eval_m_vectors, self.A.arity_bound,
                                objects, morphisms)

    def _insertions(self, evaluate, bound, objects, morphisms, lam=1):
        """_insertion_sum of evaluate(a_n^{i_n}, x_n, .., x_1, a_0^{i_0}).

        Each morphism is split into homogeneous parts; bound is the
        arity past which evaluate vanishes.
        """
        out = {}
        budget = bound - len(morphisms)
        parts = [sorted(self.T.space.homogeneous_parts(x).items())
                 for x in morphisms]
        for choice in iter_product(*parts):
            degs = [deg for deg, _ in choice]
            xs = [v for _, v in choice]

            def term(counts):
                args = []
                for k in range(len(xs), 0, -1):
                    args += [objects[k]] * counts[k] + [xs[k - 1]]
                args += [objects[0]] * counts[0]
                return evaluate(args) if args else {}

            vec_add(out, _insertion_sum(self.field, term, objects, degs,
                                        budget, self.nu, lam))
        return out

    def require_strict_unit(self):
        """Refuse unless A's unit is strict, so m_1^{alpha,beta}(1) = beta - alpha."""
        if not self._strict_unit.ok:
            raise HypothesisNotMet(
                "the gauge groupoid needs a strict unit: %r" % self._strict_unit)

    @cached_property
    def _strict_unit(self):
        return check_strict_unit(self.A)

    def gauge_part(self, g):
        """u for a gauge element g = 1 + u with u in (A x m)^0.

        Raises ValueError, naming the label, on any other shape, and
        HypothesisNotMet unless A's unit is strict.
        """
        self.require_strict_unit()
        _check_vector(g, self.field, "gauge element", self.T.space.index,
                      "1 + A x m")
        one_lbl = next(iter(self.one_vec))
        g = vec_clean(dict(g))
        if g.get(one_lbl) != self.field.one:
            raise ValueError("a gauge element must have unit coefficient 1")
        u = {l: c for l, c in g.items() if l != one_lbl}
        for l in u:
            if l not in self._ideal_set:
                raise ValueError(
                    "gauge element has a component %r outside 1 + A x m" % (l,))
            if self.T.deg(l) != 0:
                raise ValueError(
                    "gauge element has a component %r of degree %d, not 0"
                    % (l, self.T.deg(l)))
        return u


def mc_residual(A, R, alpha):
    return DeformationSetup(A, R).mc_residual(alpha)


def enumerate_mc(A, R, cap=ENUMERATION_CAP):
    return DeformationSetup(A, R).enumerate_mc(cap)


# ---------------------------------------------------------------------------
# the small extension at the top of the m-adic tower


def _base_change(vec, table):
    """1 x phi on A x R: each (a, r) goes to a x table[r]."""
    out = {}
    for (a, r), c in vec.items():
        for s, cc in table[r].items():
            vec_add(out, {(a, s): c * cc})
    return vec_clean(out)


class SmallExtension:
    """0 -> I -> R -> Rbar -> 0 with Rbar = R/m^(nu-1) and I = m^(nu-1).

    This is the top layer of the m-adic tower R -> R/m^(nu-1) -> .. ->
    k for setup's base R, and a small extension by construction: I m
    and m I are spanned by products of nu ideal elements (R is
    associative), so both lie in m^nu, which validate_artinian found to
    be zero.  Rbar keeps a subset of R's basis labels, so the section
    alpha~ of a point alpha_bar over Rbar is the label inclusion, and
    project reuses the quotient's reduction map.

    A x I carries the untwisted differential m_1 x 1 +- 1 x d, written
    over the row basis of I (space, complex).  Every twisted
    differential collapses to it on A x I, because I m = m I = 0 kills
    all insertion terms, so obstruction classes of every flavor live in
    its cohomology.  For the same reason every term of
    m_k(alpha~ + eta, ..) with k >= 2 and a slot in A x I vanishes, so
    for eta in (A x I)^1

        residual(alpha~ + eta) = residual(alpha~) - m_1(eta).

    The lifts of alpha_bar are therefore either none or the coset
    alpha~ + eta0 + Z^1(A x I), where m_1(eta0) = residual(alpha~).
    residual(alpha~) lies in A x I exactly when alpha_bar is MC over
    Rbar; otherwise coordinates raises MathCheckFailure.  The kernel
    rows are a reduced echelon basis of I, so the coordinates of a
    vector in their span are its values at their pivots.  eta0 is the
    unique solution supported on the earliest independent columns of
    m_1: (A x I)^1 -> (A x I)^2, and the relations among the other
    columns are a basis of Z^1(A x I).  correction is that solve, the
    one both walks up the tower share: enumerate_mc adds eta0 to its raw
    points and spans the fibre with the cocycles, and lift_mc takes the
    lift alpha~ + eta0.
    """

    def __init__(self, setup):
        A, R = setup.A, setup.R
        self.setup = setup
        self.field = setup.field
        self.Rbar, self._pi, rows = quotient_by_power(R, R.nu - 1)
        self._rows = Subspace(rows, self.field)
        self.kernel_rows = self._rows.rows
        degs = []
        for k, row in enumerate(self.kernel_rows):
            d = {R.deg(l) for l in row}
            if len(d) != 1:
                raise MathCheckFailure("kernel layer row %d is not homogeneous" % k)
            degs.append(d.pop())
        labels = [(a, k) for a in A.space.labels
                  for k in range(len(self.kernel_rows))]
        self.space = GradedSpace(
            [((a, k), A.deg(a) + degs[k]) for a, k in labels])

    @cached_property
    def complex(self):
        """A x I with m_1 x 1 +- 1 x d, built on first use.

        below needs only Rbar, and lift_mc can stop below this level.
        """
        d = {}
        one = self.field.one
        for l in self.space.labels:
            coords = self.coordinates(
                self.setup.T.eval_m_vectors([self.embed({l: one})]))
            if coords:
                d[l] = coords
        return Complex(self.space, d, self.field)

    @cached_property
    def _columns(self):
        """The labels of (A x I)^1 and the column solver of m_1 on them."""
        src = self.space.labels_of_degree(1)
        return src, SpanSolver([self.complex.d.get(l, {}) for l in src],
                               self.field)

    def project(self, vec):
        """A x R -> A x Rbar along the base projection."""
        _check_vector(vec, self.field, "vector", self.setup.T.space.index,
                      "A x R")
        return _base_change(vec, self._pi)

    def embed(self, coord_vec):
        """A vector in the coordinates of A x I, written in A x R."""
        return _base_change(coord_vec, self.kernel_rows)

    def coordinates(self, vec):
        """Rewrite an A x R vector supported in A x I over the row basis."""
        by_a = {}
        for (a, r), c in vec_clean(vec).items():
            by_a.setdefault(a, {})[r] = c
        out = {}
        pivots = self._rows.pivot_keys
        for a, rvec in by_a.items():
            if self._rows.reduce(rvec):
                raise MathCheckFailure(
                    "vector escapes the kernel layer at %r" % (a,))
            for k, r in enumerate(pivots):
                if r in rvec:
                    out[(a, k)] = rvec[r]
        return out

    def cohomology(self, degree):
        return self.complex.cohomology(degree)

    def correction(self, residual):
        """eta0, embedded in A x R, or None when the fibre is empty.

        residual is residual(alpha~) for a point alpha_bar over Rbar;
        its coordinates in A x I raise MathCheckFailure unless
        alpha_bar is MC over Rbar.
        """
        src, solver = self._columns
        sol = solver.coordinates(self.coordinates(residual))
        if sol is None:
            return None
        return self.embed({src[j]: c for j, c in sol.items()})

    def lift(self, alpha_bar, residual):
        """alpha~ + eta0 over R, or None when the fibre is empty.

        residual is residual(alpha~), setup.mc_residual(alpha_bar).
        """
        eta = self.correction(residual)
        if eta is None:
            return None
        return vec_clean(vec_add(dict(alpha_bar), eta))

    def cocycles(self):
        """A basis of Z^1(A x I) embedded in A x R, each checked d z = 0."""
        src, solver = self._columns
        out = []
        for kv in solver.relations:
            z = {src[j]: c for j, c in kv.items()}
            if vec_clean(self.complex.apply_d(z)):
                raise MathCheckFailure("Z^1 basis vector is not a cocycle")
            out.append(self.embed(z))
        return out


# ---------------------------------------------------------------------------
# morphism complexes and gauge orbits


class HomComplex:
    """(A x m, m_1^{alpha,beta}) for an MC pair.

    Construction checks both ends with setup.is_mc once, then assembles
    the differential on the ideal part and on the unit, whose image
    d_of_one is beta - alpha under strict unitality; its Complex
    certifies that the ideal part squares to zero.  That it stays in
    A x m is validate_artinian's: m is a two-sided DG ideal.  Refused
    unless the unit of A is strict (setup.require_strict_unit), the
    one gate that MCGroupoid.hom, HomSet and pi_0 all pass through.
    """

    def __init__(self, setup, alpha, beta):
        setup.require_strict_unit()
        setup.require_mc((alpha, beta),
                         "category operations are defined on MC objects only")
        self.setup = setup
        self.field = setup.field
        self.alpha = alpha
        self.beta = beta
        one = setup.field.one
        unit, = setup.one_vec
        d = {}
        for l in setup.ideal + [unit]:
            img = setup._insertions(setup.T.eval_m_vectors,
                                    setup.A.arity_bound, [alpha, beta],
                                    [{l: one}])
            if img:
                d[l] = img
        self.d_of_one = d.pop(unit, {})
        self.complex = Complex(setup.ideal_space, d, setup.field)
        self._d = {**self.complex.d, unit: self.d_of_one}

    def apply(self, v):
        """m_1^{alpha,beta} of any element of A x R written as c*1 + u."""
        return _apply_table(self._d, v)

    def cohomology_dims(self):
        return self.complex.total_cohomology_dims()

    def gauge_image(self):
        """Image of m_1^{alpha,beta} on the degree -1 part of A x m."""
        vecs = [self.complex.d.get(l, {})
                for l in self.setup.ideal_labels_of_degree(-1)]
        return Subspace([v for v in vecs if v], self.field)


class MCMorphism:
    """A gauge orbit in G(alpha, beta): the class of g = 1 + u.

    u is stored reduced against the image of the gauge action, so two
    orbits are equal exactly when their stored parts are equal.
    """

    def __init__(self, homset, u_reduced):
        self.homset = homset
        self.alpha = homset.alpha
        self.beta = homset.beta
        self.u = u_reduced
        self.key = (_vec_key(homset.alpha), _vec_key(homset.beta),
                    _vec_key(u_reduced))

    def vector(self):
        g = dict(self.homset.setup.one_vec)
        vec_add(g, self.u)
        return vec_clean(g)

    def __eq__(self, other):
        return isinstance(other, MCMorphism) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "MCMorphism(1 + %r)" % (self.u,)


class HomSet:
    """All morphisms alpha -> beta: gauge orbits of solutions of
    m_1^{alpha,beta}(1 + u) = 0 with u in (A x m)^0.

    The equation is affine-linear, so the solution set is a coset of a
    kernel and the orbit space a coset quotient; no search happens.
    Its HomComplex refuses ends that fail setup.is_mc, and its Complex
    certifies d_0 d_(-1) = 0, which puts the gauge image in the kernel.
    """

    def __init__(self, setup, alpha, beta):
        self.setup = setup
        self.field = setup.field
        self.alpha = alpha
        self.beta = beta
        self.hom_complex = HomComplex(setup, alpha, beta)
        deg0 = setup.ideal_labels_of_degree(0)
        deg1 = set(setup.ideal_labels_of_degree(1))
        if any(out not in deg1 for out in self.hom_complex.d_of_one):
            raise MathCheckFailure(
                "m_1 of the unit has a component outside (A x m)^1")
        d = self.hom_complex.complex.d
        solver = SpanSolver([d.get(l, {}) for l in deg0], self.field)
        particular = solver.coordinates(
            {out: -c for out, c in self.hom_complex.d_of_one.items()})
        self._deg0 = deg0
        self.image = self.hom_complex.gauge_image()
        self.kernel_vecs = [{deg0[j]: c for j, c in kv.items()}
                            for kv in solver.relations]
        if particular is None:
            self.particular = None
            self.count = 0
        else:
            self.particular = vec_clean(
                {deg0[j]: c for j, c in particular.items()})
            quotient_dim = len(self.kernel_vecs) - self.image.dim
            p = self.field.p
            self.count = p ** quotient_dim if p else (
                1 if quotient_dim == 0 else None)

    def is_empty(self):
        return self.particular is None

    def __len__(self):
        if self.count is None:
            raise HypothesisNotMet("infinite hom-set over this field")
        return self.count

    def orbits(self):
        """Orbit representatives; finite prime fields (or rigid) only."""
        if self.particular is None:
            return []
        quotient = []
        span = Subspace(self.image.rows, self.field)
        for v in self.kernel_vecs:
            if span.insert(v):
                quotient.append(v)
        if not self.field.p and quotient:
            raise HypothesisNotMet("infinitely many orbits over this field")
        return [MCMorphism(self, self.image.reduce(u))
                for u in _span_points(self.field, self.particular, quotient)]

    def classify(self, g):
        """The orbit of an explicit morphism vector g = 1 + u."""
        u = self.setup.gauge_part(g)
        if vec_clean(self.hom_complex.apply(g)):
            raise MathCheckFailure("classify() got a non-morphism")
        return MCMorphism(self, self.image.reduce(u))

    def contains_vector(self, g):
        try:
            self.setup.gauge_part(g)
        except ValueError:
            return False
        return not vec_clean(self.hom_complex.apply(g))


def _require_morphism(g):
    if not isinstance(g, MCMorphism):
        raise ValueError("expected an MCMorphism, got %s" % type(g).__name__)


class MCGroupoid:
    """The groupoid of MC elements and gauge orbits over one setup.

    Its objects are the elements that pass setup.is_mc; hom refuses any
    other (HypothesisNotMet) before it builds a HomSet.
    """

    def __init__(self, setup):
        self.setup = setup
        self._homsets = {}

    def hom(self, alpha, beta):
        self._require_objects(alpha, beta)
        return HomSet(self.setup, alpha, beta)

    def _require_objects(self, alpha, beta):
        self.setup.require_mc(
            (alpha, beta), "morphism complexes are defined between MC elements")

    def _homset(self, alpha, beta):
        """hom(alpha, beta) kept per pair, keyed once both ends pass is_mc."""
        self._require_objects(alpha, beta)
        key = (_vec_key(alpha), _vec_key(beta))
        if key not in self._homsets:
            self._homsets[key] = HomSet(self.setup, alpha, beta)
        return self._homsets[key]

    def identity(self, alpha):
        return self._homset(alpha, alpha).classify(self.setup.one_vec)

    def compose(self, g, h):
        """h after g for g: a -> b, h: b -> c, via m_2^{a,b,c}(h, g)."""
        _require_morphism(g)
        _require_morphism(h)
        if g.key[1] != h.key[0]:
            raise ValueError("morphisms do not compose")
        w = self.setup.category_op(
            [g.alpha, g.beta, h.beta], [g.vector(), h.vector()])
        return self._homset(g.alpha, h.beta).classify(w)

    def invert(self, g):
        """Inverse by successive approximation, then exact certification.

        The defect 1 - m_2(g', g) sinks one level deeper into the
        m-adic filtration on every correction, so nu rounds suffice;
        the result is certified to be a genuine morphism and a
        two-sided inverse.
        """
        _require_morphism(g)
        setup = self.setup
        gp = dict(setup.one_vec)
        for _ in range(setup.nu + 1):
            w = setup.category_op([g.alpha, g.beta, g.alpha],
                                  [g.vector(), gp])
            defect = vec_clean(vec_sub(setup.one_vec, w))
            if not defect:
                break
            vec_add(gp, defect)
            gp = vec_clean(gp)
        else:
            raise MathCheckFailure("inverse approximation did not land")
        back = self._homset(g.beta, g.alpha).classify(gp)
        left = self.setup.category_op([g.alpha, g.beta, g.alpha],
                                      [g.vector(), gp])
        right = self.setup.category_op([g.beta, g.alpha, g.beta],
                                       [gp, g.vector()])
        if vec_clean(vec_sub(left, setup.one_vec)) or \
                vec_clean(vec_sub(right, setup.one_vec)):
            raise MathCheckFailure("certified inverse is not two-sided")
        return back


class Pi0Report:
    """Isomorphism classes of MC elements with their members.

    levels has one row of ints per tower level that _gauge_classes
    walked, the bottom level (nu = 2) first, in the order of
    LEVEL_FIELDS: the level's nu, its downstairs points, the fibres
    keyed (those with two or more members), dim B^1(A x I), the rank
    the stabiliser images added on top of B^1 over all keyed fibres,
    and the pairwise hom tests run across fibres.
    """

    LEVEL_FIELDS = ("nu", "downstairs_points", "fibres_keyed", "dim_b1",
                    "stabiliser_rank", "pairwise_tests")

    def __init__(self, classes, levels=()):
        self.classes = classes
        self.representatives = [cls[0] for cls in classes]
        self.count = len(classes)
        self.levels = list(levels)
        self._index = {}
        for i, cls in enumerate(classes):
            for v in cls:
                self._index.setdefault(_vec_key(v), i)
        # the keys omit the field, so class_index_of compares it
        self._field = next((c.field for cls in classes for v in cls
                            for c in v.values()), None)

    def class_index_of(self, alpha):
        """The index of alpha's class, or None if alpha is in none.

        ValueError for a non-dict or a coefficient that is not a Scalar.
        """
        if not isinstance(alpha, dict):
            raise ValueError("element %r is not a dict label -> scalar"
                             % (alpha,))
        for l, c in alpha.items():
            if not isinstance(c, Scalar):
                raise ValueError("coefficient %r at %r is not a scalar"
                                 % (c, l))
        if any(c and c.field != self._field for c in alpha.values()):
            return None
        return self._index.get(_vec_key(alpha))

    def __repr__(self):
        return "Pi0Report(%d classes, %d elements)" % (
            self.count, sum(len(c) for c in self.classes))


def pi0(A, R, cap=ENUMERATION_CAP):
    """Partition of the MC set by existence of a gauge morphism.

    The partition refines along the tower R -> R/m^(nu-1) -> .. ->
    R/m^2 (see _gauge_classes): a gauge morphism over R projects to
    one over every quotient R/m^k.  Over each small extension the
    identity

        m_1^{alpha,beta}(1 + s(u_bar) + w)
            = eta + m_1^{alpha,alpha}(s(u_bar)) + m_1(w)

    (beta = alpha + eta in one fibre, w in A x I) makes the fibre of
    pi_0 MC(R) -> pi_0 MC(R/I) over [alpha_bar] the quotient of
    H^1(A x I) by the stabiliser's image, so each class is read off a
    canonical key instead of found by search.
    """
    setup = DeformationSetup(A, R)
    return _gauge_classes(setup.enumerate_mc(cap), MCGroupoid(setup))


def _gauge_classes(elements, groupoid):
    """Pi0Report of the listed MC elements, keyed fibre by fibre.

    Write Rbar = R/m^(nu-1), I = m^(nu-1) (so I m = m I = 0) and s for
    the label-inclusion section A x Rbar -> A x R.  Base change to Rbar
    is a functor on MC groupoids, so elements whose projections fall
    in different downstairs classes (classified the same way, one
    level lower, by one groupoid over Rbar) are never equivalent.

    Inside the fibre over one downstairs point alpha_bar, let alpha and
    beta = alpha + eta be two members (eta in Z^1(A x I)) and write a
    gauge element as 1 + u with u = s(u_bar) + w, w in (A x I)^0.  The
    unit is strict and I m = m I = 0 kills every insertion of eta or w
    next to an element of A x m, so

        m_1^{alpha,beta}(1 + s(u_bar) + w)
            = eta + m_1^{alpha,alpha}(s(u_bar)) + m_1(w).

    1 + u_bar must be a self-morphism of alpha_bar, and the middle term
    is linear in u_bar and the same for every point of the fibre.
    Hence alpha ~ beta exactly when eta lies in B^1(A x I) + Gamma,
    Gamma spanned by m_1^{alpha,alpha}(s(k)) over the kernel basis k of
    the self HomSet of alpha_bar over Rbar, each image checked to be a
    cocycle.  The reduction of alpha - s(alpha_bar) modulo that span
    is a canonical key of alpha's class in its fibre.  Gamma is zero
    when nu = 2 (Rbar = k) and is not needed for a one-point fibre.

    One downstairs class can hold several points; the keyed classes of
    its different fibres are then merged by HomSet tests between their
    first members, never two classes of one fibre.  Classes are
    ordered by their first member's position in elements and keep
    their members in input order, which is the partition of the plain
    greedy pairwise loop.
    """
    elements = list(elements)
    setup = groupoid.setup
    setup.require_mc(elements, "gauge classes are defined on MC elements only")
    if setup.nu < 2:
        # m = 0: every MC element is zero
        return Pi0Report([elements] if elements else [])
    ext = setup.extension
    images = [ext.project(alpha) for alpha in elements]
    fibres = {}
    for i, img in enumerate(images):
        fibres.setdefault(_vec_key(img), []).append(i)
    points = [images[fibre[0]] for fibre in fibres.values()]
    below_groupoid = None
    if setup.nu > 2:
        below_groupoid = MCGroupoid(setup.below)
        below = _gauge_classes(points, below_groupoid)
        downstairs, levels = below.classes, below.levels
    else:
        downstairs, levels = ([points] if points else []), []
    b1 = Subspace([ext.complex.d.get(l, {})
                   for l in ext.space.labels_of_degree(0)], setup.field)
    keyed = added = pairwise = 0
    classes = []
    for cls_points in downstairs:
        merged = []  # (fibres met, member indices) per class
        for f, point in enumerate(cls_points):
            fibre = fibres[_vec_key(point)]
            found = [fibre]
            if len(fibre) > 1:
                found, rank = _key_fibre(elements, fibre, point, ext, b1,
                                         below_groupoid)
                keyed += 1
                added += rank
            for members in found:
                for met, cls in merged:
                    if f in met:
                        continue
                    pairwise += 1
                    if not groupoid.hom(elements[cls[0]],
                                        elements[members[0]]).is_empty():
                        met.add(f)
                        cls.extend(members)
                        break
                else:
                    merged.append(({f}, list(members)))
        classes.extend(sorted(cls) for _, cls in merged)
    classes.sort(key=lambda cls: cls[0])
    levels.append([setup.nu, len(points), keyed, b1.dim, added, pairwise])
    return Pi0Report([[elements[i] for i in cls] for cls in classes], levels)


def _key_fibre(elements, fibre, point, ext, b1, below_groupoid):
    """The classes of one fibre over point, and the rank Gamma adds to B^1.

    below_groupoid is the groupoid over Rbar, or None when Rbar = k.
    """
    setup = ext.setup
    setup.require_strict_unit()
    span = b1
    if below_groupoid is not None:
        span = Subspace(b1.rows, setup.field)
        alpha = elements[fibre[0]]
        for k in below_groupoid.hom(point, point).kernel_vecs:
            gamma = ext.coordinates(
                setup.category_op([alpha, alpha], [k]))
            if vec_clean(ext.complex.apply_d(gamma)):
                raise MathCheckFailure("stabiliser image is not a cocycle")
            span.insert(gamma)
    found = {}
    for i in fibre:
        eta = ext.coordinates(vec_sub(elements[i], point))
        found.setdefault(_vec_key(span.reduce(eta)), []).append(i)
    return list(found.values()), span.dim - b1.dim


# ---------------------------------------------------------------------------
# obstruction calculus along the top layer of the m-adic tower


class ObstructionClass:
    """A cohomology class in A x I with its representative."""

    def __init__(self, extension, vec, degree):
        self.extension = extension
        self.vec = vec_clean(vec)
        self.degree = degree
        self.coords = extension.coordinates(self.vec)
        if vec_clean(extension.complex.apply_d(self.coords)):
            raise MathCheckFailure("obstruction representative is not a cocycle")
        self._h = extension.cohomology(degree)

    @property
    def is_zero(self):
        return self._h.class_is_zero(self.coords)

    def same_class_as(self, other):
        """Whether other is this class; ValueError unless other lies in
        the same group, H^degree of an equal complex A x I."""
        mine = self.extension
        theirs = getattr(other, "extension", None)
        if not isinstance(other, ObstructionClass) \
                or other.degree != self.degree \
                or theirs is not mine and (
                    theirs.space.degree != mine.space.degree
                    or theirs.complex.d != mine.complex.d):
            raise ValueError("%r and %r lie in different cohomology groups"
                             % (self, other))
        return self._h.classes_equal(self.coords, other.coords)

    def __repr__(self):
        return "ObstructionClass(deg %d, %s)" % (
            self.degree, "zero" if self.is_zero else repr(self.vec))


def obstruction_o2(A, R, alpha_bar, seed=1):
    """The lifting obstruction [sum (-1)^(n(n+1)/2 + 1) m_n(lift..lift)].

    For alpha_bar MC over R/m^(nu-1); sits in H^2(A x I), I = m^(nu-1)
    (see SmallExtension).  Computed from one lift, then recomputed from
    a perturbed second lift to certify independence.
    """
    _integer(seed, "the seed")
    setup = DeformationSetup(A, R)
    setup.below.require_mc([alpha_bar],
                           "obstruction is defined on MC elements only")
    return _obstruction_o2(setup.extension, alpha_bar,
                           setup.mc_residual(alpha_bar), seed)


def _obstruction_o2(ext, alpha_bar, residual, seed):
    """The o2 class of alpha_bar, MC over ext.Rbar, from residual(alpha~).

    lift_mc passes the residual it also solves the correction from.  The
    class is recomputed at a second lift, perturbed at random by seed.
    """
    field, minus = ext.field, -ext.field.one
    cls = ObstructionClass(ext, vec_scale(residual, minus), 2)
    labels = ext.space.labels_of_degree(1)
    if labels:
        rng = Random(seed)
        span = field.p if field.p else 7
        eta = {l: field(rng.randrange(1, span)) for l in labels
               if rng.random() < 0.7} or {labels[0]: field.one}
        second = vec_clean(vec_add(dict(alpha_bar), ext.embed(eta)))
        cls2 = ObstructionClass(
            ext, vec_scale(ext.setup.mc_residual(second), minus), 2)
        if not cls.same_class_as(cls2):
            raise MathCheckFailure("obstruction class depends on the lift")
    return cls


def obstruction_o1(A, R, alpha1, alpha2, f_bar):
    """Obstruction to lifting a morphism between chosen MC lifts.

    alpha1, alpha2 are MC over R and project to the endpoints of the
    morphism f_bar over R/m^(nu-1); the class of m_1^{alpha1,alpha2}
    of any set-level lift of f_bar lives in H^1(A x I), I = m^(nu-1)
    (see SmallExtension), and vanishes exactly when a morphism lift
    with these endpoints exists.
    """
    setup = DeformationSetup(A, R)
    hc = HomComplex(setup, alpha1, alpha2)
    ext = setup.extension
    setup.below.gauge_part(f_bar)
    down = HomComplex(setup.below, ext.project(alpha1), ext.project(alpha2))
    if vec_clean(down.apply(f_bar)):
        raise HypothesisNotMet("f is not a morphism downstairs")
    return ObstructionClass(ext, hc.apply(dict(f_bar)), 1)


class DifferenceClass:
    """o_0 of two lifts of one morphism: zero iff they are gauge equal."""

    def __init__(self, kernel_class, in_gauge_image):
        self.kernel_class = kernel_class
        self.is_zero = in_gauge_image

    def __repr__(self):
        return "DifferenceClass(%s)" % ("zero" if self.is_zero else "nonzero")


def obstruction_o0(A, R, alpha, beta, f_tilde, f_tilde2):
    """Difference class of two morphism lifts with equal projections.

    The projections go to R/m^(nu-1).  The difference is a cocycle in
    (A x I)^0, I = m^(nu-1) (see SmallExtension); its image in H^0 of
    the big morphism complex is the obstruction, so it vanishes exactly
    when the lifts agree as gauge orbits.
    """
    setup = DeformationSetup(A, R)
    ext = setup.extension
    hc = HomComplex(setup, alpha, beta)
    for g in (f_tilde, f_tilde2):
        setup.gauge_part(g)
        if vec_clean(hc.apply(g)):
            raise HypothesisNotMet("both arguments must be lifted morphisms")
    if vec_clean(vec_sub(ext.project(f_tilde), ext.project(f_tilde2))):
        raise ValueError("the two lifts project to different morphisms")
    delta = vec_sub(f_tilde2, f_tilde)
    cls = ObstructionClass(ext, delta, 0)
    return DifferenceClass(cls, hc.gauge_image().contains(delta))


class LiftOutcome:
    def __init__(self, ok, element=None, level=None, obstruction=None,
                 trace=None):
        self.ok = ok
        self.element = element
        self.level = level
        self.obstruction = obstruction
        self.trace = trace or []

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "LiftOutcome(lifted, %r)" % (self.element,)
        return "LiftOutcome(obstructed at level %d)" % self.level


def lift_mc(A, R, alpha0, seed=1):
    """Greedy order-by-order lifting of alpha0 from R/m^2 up to R.

    At each layer the obstruction is computed; when it vanishes the
    correction solves an affine-linear system, deterministically.  On
    failure the outcome carries the level and the obstruction class.
    Each layer evaluates residual(alpha~) once, for both the o2 class
    and the correction (see SmallExtension); the element it lifts was
    checked MC one layer down.
    """
    _integer(seed, "the seed")
    chain = DeformationSetup(A, R).chain()[::-1]
    chain[0].require_mc([alpha0], "the seed element must be MC over R/m^2")
    current = vec_clean(dict(alpha0))
    trace = []
    for setup in chain[1:]:
        n = setup.below.nu
        ext = setup.extension
        residual = setup.mc_residual(current)
        cls = _obstruction_o2(ext, current, residual, seed)
        trace.append({"level": n, "obstruction_zero": cls.is_zero})
        if not cls.is_zero:
            return LiftOutcome(False, level=n, obstruction=cls, trace=trace)
        lifted = ext.lift(current, residual)
        if lifted is None:
            raise MathCheckFailure(
                "zero obstruction but the correction system is inconsistent")
        current = lifted
        if setup.mc_residual(current):
            raise MathCheckFailure("corrected lift fails the MC equation")
    return LiftOutcome(True, element=current, level=R.nu, trace=trace)


# ---------------------------------------------------------------------------
# pushforward along morphisms and the invariance report


def _eval_f_tensor(f, R, vecs):
    """(f_n x mu_R)(v_1, .., v_n) with the tensor Koszul sign.

    The regrouping is the tensor-algebra one (ainfinity._regrouped),
    with f_n in place of m_n on the A-factors, against the nonzero
    words of R that tensor_with_dg reads (ainfinity._base_words);
    labels are visited in repr order.
    """
    words = _base_words(R.algebra, len(vecs))[-1]
    field = f.source.field

    def value(args):
        r_args = tuple(r for _, r in args)
        r_prod = words.get(r_args)
        if not r_prod:
            return {}
        a_args = tuple(a for a, _ in args)
        fvec = f.eval_f(a_args)
        if not fvec:
            return {}
        odd = tensor_block_exponent([f.source.deg(a) for a in a_args],
                                    [R.deg(r) for r in r_args]) % 2
        return _regrouped(field, _raw_row(field, fvec), odd,
                          _raw_row(field, r_prod))

    return _expand(field,
                   [dict(sorted(v.items(), key=lambda kv: repr(kv[0])))
                    for v in vecs], value)


def _require_strictly_unital(f):
    rep = check_strict_unital_morphism(_morphism(f))
    if not rep.ok:
        raise HypothesisNotMet("pushforward needs a strictly unital morphism")


def pushforward_mc(f, R, alpha):
    """f_R^*(alpha) = sum (-1)^(n(n-1)/2) f_n(alpha, .., alpha).

    The insertion sum with no morphisms, through f x mu_R, at lam = -1.
    """
    _require_strictly_unital(f)
    return _pushforward_mc(f, DeformationSetup(f.source, R),
                           DeformationSetup(f.target, R), alpha)


def _pushforward_mc(f, src, dst, alpha):
    """pushforward_mc over given setups of f.source and f.target."""
    src.require_mc([alpha], "pushforward is defined on MC elements")
    out = src._insertions(lambda vecs: _eval_f_tensor(f, src.R, vecs),
                          f.arity_bound, [alpha], [], lam=-1)
    if not dst.is_mc(out):
        raise MathCheckFailure("pushforward violates the MC equation")
    return out


def pushforward_morphism(f, R, alpha, beta, g):
    """f_R^* on a morphism vector g: sum of insertions f(beta^i, g, alpha^j).

    The insertion sum through f x mu_R at lam = -1: i(i-1)/2 per slot
    in place of the object-level i(i+1)/2.  Both ends must pass is_mc
    over the source (HypothesisNotMet), and g must be a vector on
    A x R (ValueError).
    """
    _require_strictly_unital(f)
    src = DeformationSetup(f.source, R)
    src.require_mc([alpha, beta], "pushforward is defined on MC elements")
    _check_vector(g, src.field, "morphism", src.T.space.index, "A x R")
    return src._insertions(lambda vecs: _eval_f_tensor(f, R, vecs),
                           f.arity_bound, [alpha, beta], [g], lam=-1)


class InvarianceReport:
    def __init__(self, ok, pi0_counts, hom_counts, hom_dims, problems):
        self.ok = ok
        self.pi0_counts = pi0_counts
        self.hom_counts = hom_counts
        self.hom_dims = hom_dims
        self.problems = problems

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "InvarianceReport(ok, pi0=%d)" % self.pi0_counts[0]
        return "InvarianceReport(%d problems)" % len(self.problems)


def _h_iso_check(f):
    """H(f_1) must be an isomorphism in every degree."""
    cx1 = f.source.complex()
    cx2 = f.target.complex()
    degrees = set(f.source.space.degrees_present()) | \
        set(f.target.space.degrees_present())
    for i in sorted(degrees):
        h1 = cx1.cohomology(i)
        h2 = cx2.cohomology(i)
        if h1.dim != h2.dim:
            return "H^%d dims differ: %d vs %d" % (i, h1.dim, h2.dim)
        if h1.dim == 0:
            continue
        images = []
        for rep in h1.representatives:
            img = {}
            for l, c in rep.items():
                vec_add(img, f.eval_f((l,)), c)
            images.append(h2.project(img))
        if Subspace(images, f.source.field).dim != h1.dim:
            return "H^%d map is not invertible" % i
    return None


def invariance_check(f, R, cap=ENUMERATION_CAP):
    """The finite shadow of gauge-equivalence invariance.

    For a strictly unital quasi-isomorphism f, pushforward must induce
    a bijection on isomorphism classes and preserve hom-set counts and
    morphism-complex cohomology.  Refuses anything that fails the
    hypothesis gates (the morphism identities are checked through
    arity 3); returns a report of exact count comparisons.
    """
    rep = check_ainf_morphism(f, 3)
    if not rep.ok:
        raise HypothesisNotMet("f fails the morphism identities: %r" % rep)
    _require_strictly_unital(f)
    problem = _h_iso_check(f)
    if problem:
        raise HypothesisNotMet("f is not a quasi-isomorphism: " + problem)
    setup1 = DeformationSetup(f.source, R)
    setup2 = DeformationSetup(f.target, R)
    mc1 = setup1.enumerate_mc(cap)
    g1 = MCGroupoid(setup1)
    g2 = MCGroupoid(setup2)
    problems = []
    report1 = _gauge_classes(mc1, g1)
    report2 = _gauge_classes(setup2.enumerate_mc(cap), g2)
    if report1.count != report2.count:
        problems.append("pi0 counts differ: %d vs %d"
                        % (report1.count, report2.count))
    images = {i: _pushforward_mc(f, setup1, setup2, alpha)
              for i, alpha in enumerate(mc1)}
    class_map = {}
    for i, alpha in enumerate(mc1):
        src_cls = report1.class_index_of(alpha)
        dst_cls = report2.class_index_of(images[i])
        if dst_cls is None:
            problems.append("pushforward left the MC set at element %d" % i)
            continue
        if src_cls in class_map and class_map[src_cls] != dst_cls:
            problems.append("pushforward is not constant on class %d" % src_cls)
        class_map[src_cls] = dst_cls
    if len(set(class_map.values())) != report1.count:
        problems.append("pushforward does not separate isomorphism classes")
    hom_counts = []
    hom_dims = []
    for i, a in enumerate(mc1):
        for j, b in enumerate(mc1):
            h1 = g1.hom(a, b)
            h2 = g2.hom(images[i], images[j])
            hom_counts.append((h1.count, h2.count))
            if h1.count != h2.count:
                problems.append(
                    "hom counts differ at pair (%d, %d): %d vs %d"
                    % (i, j, h1.count, h2.count))
            d1 = h1.hom_complex.cohomology_dims()
            d2 = h2.hom_complex.cohomology_dims()
            hom_dims.append((d1, d2))
            if d1 != d2:
                problems.append(
                    "hom-complex cohomology differs at pair (%d, %d)" % (i, j))
    return InvarianceReport(not problems,
                            (report1.count, report2.count),
                            hom_counts, hom_dims, problems)
