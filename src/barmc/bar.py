"""Bar construction at finite weight and its dual DG algebra.

For an augmented strictly unital algebra A with augmentation ideal
Abar, the tensor coalgebra on Abar[1] carries the coderivation d_bar
assembled from the suspended operations b_n.  Applying b_s replaces s
letters by one, so d_bar never raises the word length; cutting at
weight N therefore leaves an honest finite complex, and its linear
dual is a finite DG algebra S_N whose product transposes
deconcatenation.

DualTruncation certifies S_N once.  Its Complex checks d^2 = 0, which
is -(d_bar^2) transposed, and so refuses an A that fails the Stasheff
identities.  The product U* V* = (-1)^(|U||V|) (UV)* is associative
by construction, and d is certified a derivation on the letters
against every word; this is the transpose of d_bar being a
coderivation (Keller 2001).  A failure raises MathCheckFailure naming
the failing (u, V) tuple and its Stasheff residual.  A map out of S_N
given by a full word table is certified on the generators too
(first_dg_map_failure); a map given by its letters takes its products
from the word signs and checks only the differential of the
generators (twisting.CorepresentingHom).

SHatCohomology computes each degree of H(S_N) when it is first read;
the Koszulness probe reads every degree, and refuses an A that is not
admissible before S_N is built.  The classical comparison builds no
S_N: it reads H^0(S_N) off the tables of A (twisting.H0Presentation).

Everything this module reports about cohomology, Koszulness, or
presentations of H^0 is an order-N certificate about these finite
truncations.  No statement here is a claim about the inverse limit.
"""

from functools import cached_property
from itertools import groupby, takewhile

from .ainfinity import (
    _algebra,
    AInfAlgebra,
    CheckReport,
    StructureMaps,
    check_strict_unit,
    koszul_pass_exponent,
    m_from_b,
    restrict_to_ideal,
    stasheff_residual,
)
from .errors import _integer, HypothesisNotMet, MathCheckFailure
from .linalg import (
    _apply_table,
    Complex,
    GradedSpace,
    vec_add,
    vec_clean,
)


# ---------------------------------------------------------------------------
# the bar truncation and its dual


def bar_words(letters, weight_bound):
    """All words over the letters up to the weight bound.

    Length-lexicographic over the given letter order, so serialized
    bases are reproducible and diffable.
    """
    words = [()]
    layer = [()]
    for _ in range(weight_bound):
        layer = [w + (l,) for w in layer for l in letters]
        words.extend(layer)
    return words


def bar_tables(A, N):
    """The components b_n on the augmentation ideal of A, for weight N.

    The suspension rescaling b_from_m applies, which is its own
    inverse, on restrict_to_ideal(A) (ValueError when the ideal is not
    closed).  Refused first: an A that is no augmented AInfAlgebra and
    a negative N (ValueError), and an A not complete to the arities a
    weight-N word can merge (HypothesisNotMet).
    """
    if _algebra(A).unit is None:
        raise ValueError("bar construction needs an augmented algebra")
    if _integer(N, "the weight bound N") < 0:
        raise ValueError("weight bound must be nonnegative")
    needed = min(N, A.arity_bound)
    if not A.op_complete_for(needed):
        raise HypothesisNotMet(
            "weight-%d truncation applies operations up to arity %d, but "
            "the algebra is only complete to arity %d"
            % (N, needed, A.complete_to_arity))
    return m_from_b(A.space, A.field, restrict_to_ideal(A))


class BarTruncation:
    """Words of weight <= N in Abar[1] with the bar coderivation d.

    Nothing is certified here: d^2 = 0 and the coderivation property
    are certified on the dual, as d^2 = 0 and the Leibniz rule of S_N
    (DualTruncation).
    """

    def __init__(self, A, N):
        self.b = bar_tables(A, N)
        self.A = A
        self.N = N
        self.field = A.field
        self.letters = A.ideal_labels()
        self.sdeg = {l: A.deg(l) - 1 for l in self.letters}
        self.words = bar_words(self.letters, N)
        self.word_degree = {w: sum(self.sdeg[l] for l in w) for w in self.words}
        self.d = self._assemble()

    def _assemble(self):
        d = {}
        for word in self.words:
            acc = {}
            degs = [self.sdeg[l] for l in word]
            for s in range(1, min(len(word), self.A.arity_bound) + 1):
                table = self.b.entries.get(s)
                if not table:
                    continue
                for r in range(len(word) - s + 1):
                    out = table.get(word[r:r + s])
                    if not out:
                        continue
                    sign = self.field.sign(koszul_pass_exponent(1, degs[:r]))
                    for lbl, c in out.items():
                        vec_add(acc, {word[:r] + (lbl,) + word[r + s:]: sign * c})
            acc = vec_clean(acc)
            if acc:
                d[word] = acc
        return d


class DualTruncation:
    """Linear dual of a bar truncation: a finite DG algebra.

    Word functionals multiply by transposed deconcatenation,
    U* V* = (-1)^(|U||V|) (UV)*, vanishing past the weight bound.  The
    word sign sigma(w) = (-1)^(sum_{i<j} s_i s_j) over the shifted letter
    degrees s_i of w (word_signs) obeys sigma(UV) = sigma(U) sigma(V)
    (-1)^(|U||V|), so the signed letter products sigma(w) w_1* .. w_k*
    are the word functionals.  The differential transposes d_bar via
    (d phi)(w) = -(-1)^|phi| phi(d w).  The empty-word functional is a
    strict unit and the longer words span a nilpotent DG ideal.

    space, the algebra and their serialization are length-lexicographic
    (bar_words).  complex has the same labels, degrees and differential
    but lists each degree's words longest first, so that the words of
    length >= w are a prefix of the columns of each block of d, and one
    elimination per degree serves every step F^w of the weight
    filtration (SHatCohomology).

    Construction certifies that these tables make a DG algebra.  The
    Complex checks d^2 = 0 first; along any two steps of d the signs
    (-1)^(1+|w|) multiply to -1, so d^2 = -(d_bar^2) transposed, and this
    is the one d^2 check of S_N.  generators lists the empty word and
    the letters, which generate S_N, and the Leibniz rule
    d(u V) = d(u) V + (-1)^|u| u d(V) is checked on every letter u and
    word V (_leibniz_failure).  Associativity holds by construction,
    because the sign exponent is additive in each factor, so Leibniz
    extends to every pair by induction on word length.  This is the
    transpose of d_bar being a coderivation (Keller 2001).  Leibniz
    fails on some pair only if it fails on a generator pair, and those
    come first in itertools.product order, so a failure raises
    MathCheckFailure naming the same first failing arity-2 tuple, with
    its stasheff_residual, as a check over all pairs would.
    """

    def __init__(self, bar):
        self.bar = bar
        self.N = bar.N
        self.field = bar.field
        self.words = bar.words
        # length-lexicographic words start with () and the letters
        self.generators = self.words[:1 + len(bar.letters)]
        self.space = GradedSpace([(w, -bar.word_degree[w]) for w in self.words])
        sign = self.field.sign
        signs = self.word_signs = {(): self.field.one}
        for w in self.words[1:]:
            signs[w] = signs[w[:-1]] * sign(
                bar.sdeg[w[-1]] * bar.word_degree[w[:-1]])
        ops = StructureMaps()
        for w, img in bar.d.items():
            for big, c in img.items():
                ops.add(1, (big,), {w: sign(1 + bar.word_degree[big]) * c})
        by_len = {n: list(ws) for n, ws in groupby(self.words, len)}
        degree = bar.word_degree
        for lu in range(self.N + 1):
            for lv in range(self.N + 1 - lu):
                for U in by_len.get(lu, ()):
                    for V in by_len.get(lv, ()):
                        ops.set(2, (U, V),
                                {U + V: sign(degree[U] * degree[V])})
        self.algebra = AInfAlgebra(self.space, self.field, ops, arity_bound=2,
                                   unit=())
        # Complex() certifies d^2 = 0; sorted() is stable, so words of one
        # length keep their length-lexicographic order
        self.complex = Complex(
            GradedSpace([(w, self.space.degree[w])
                         for w in sorted(self.words, key=len, reverse=True)]),
            {u: v for (u,), v in ops.entries.get(1, {}).items()}, self.field)
        failure = self._leibniz_failure()
        if failure:
            raise MathCheckFailure(
                "S_%d is not a DG algebra: the arity-2 identity fails on %r "
                "(residual %r)" % (self.N, failure,
                                   stasheff_residual(self.algebra, failure)))

    def _leibniz_failure(self):
        """The first generator pair (u, V) where Leibniz fails, or None.

        The empty word is skipped: it is the unit and d(()) = 0 (each b_s
        turns s >= 1 letters into one), so its rows read d(V) - d(V).
        Pairs past weight N are skipped: d never lowers word length and
        products vanish past N, so there every term is zero.
        """
        d, product = self.complex.d, self.algebra.m.entries.get(2, {})
        for u in self.generators[1:]:
            sign = self.field.sign(self.space.degree[u])
            for V in takewhile(lambda V: len(u) + len(V) <= self.N, self.words):
                acc = _apply_table(d, product.get((u, V), {}))
                for x, c in d.get(u, {}).items():
                    vec_add(acc, product.get((x, V), {}), -c)
                for y, c in d.get(V, {}).items():
                    vec_add(acc, product.get((u, y), {}), -sign * c)
                if vec_clean(acc):
                    return (u, V)

    def dim_table(self):
        """Dimensions by (degree, weight)."""
        table = {}
        for w in self.words:
            key = (self.space.degree[w], len(w))
            table[key] = table.get(key, 0) + 1
        return table

    def as_artinian(self):
        from .artin import ArtinianDGAlgebra
        return ArtinianDGAlgebra(self.algebra)


def dual_dg_algebra(A, N):
    return DualTruncation(BarTruncation(A, N))


def first_dg_map_failure(S, table, multiply, d):
    """First witness that w |-> table[w] is not a DG map out of S_N, or None.

    For a map given by a full word table: for each generator u of S_N
    (the empty word and the letters) it checks g(u V) = g(u) g(V) on
    every word V, u V = 0 past weight N included, and d g(u) = g(d u);
    multiply and d act on the target.  Every word is +- a letter times a
    shorter word, both algebras are associative and both differentials
    are derivations, so induction on word length extends these checks
    to all pairs and all words.  The witness is ("product", (u, V)) or
    ("differential", u).  check_tower_surjection uses it; a
    CorepresentingHom, given by its letters, needs only the second
    half, since the signed letter products of S.word_signs multiply as
    the product of S_N (DualTruncation).  The classical comparison
    needs neither: it certifies its maps on the relations of H^0 read
    off A (twisting.induced_map).
    """
    m = S.algebra.m
    for u in S.generators:
        for V in S.words:
            if _apply_table(table, m.get(2, (u, V))) != multiply(
                    table.get(u, {}), table.get(V, {})):
                return ("product", (u, V))
    for u in S.generators:
        if _apply_table(table, m.get(1, (u,))) != d(table.get(u, {})):
            return ("differential", u)
    return None


def is_dual_of(S, A):
    """Whether S is a DualTruncation of A: A itself, or an algebra with
    the same field, letters, degrees and structure tables."""
    if not isinstance(S, DualTruncation):
        return False
    B = S.bar.A
    return B is A or (B.field == A.field
                      and S.bar.letters == A.ideal_labels()
                      and B.space.degree == A.space.degree
                      and B.m.entries == A.m.entries)


def check_tower_surjection(big, small):
    """The quotient S_{N'} -> S_N that kills words longer than N.

    Certified on the generators of S_{N'} (first_dg_map_failure), which
    covers the killed words too; surjectivity is by construction (kept
    words map to themselves).  Refuses, with ValueError and before any
    check, two truncations that are not duals of one algebra
    (is_dual_of), where kept words need not be words of both.
    """
    if not (isinstance(big, DualTruncation) and is_dual_of(small, big.bar.A)):
        raise ValueError("a tower map needs two dual truncations of one "
                         "algebra: their field, letters or tables differ")
    if small.N > big.N:
        raise ValueError("tower maps go from finer to coarser truncations")
    m = small.algebra.eval_m_vectors
    failure = first_dg_map_failure(
        big, {w: {w: small.field.one} for w in small.words},
        lambda u, v: m([u, v]), lambda v: m([v]))
    if failure:
        return CheckReport(False, failure=failure)
    return CheckReport(True, checked_to=small.N)


# ---------------------------------------------------------------------------
# cohomology of the dual, weight-filtered


def _weight(v):
    """Weight of a cocycle of the longest-first complex: its shortest word."""
    return min(map(len, v))


class SHatCohomology:
    """Cohomology of S_N with its weight filtration.

    The differential never lowers word weight, so functionals on words
    of length >= w form a subcomplex F^w.  The reported weight-w
    dimension of H^i is dim(F^w H^i) - dim(F^{w+1} H^i) where F^w H^i
    is the image of H^i(F^w) in H^i.

    Everything is read off the representatives of cx.cohomology(i), one
    elimination per degree.  S.complex lists each degree's words
    longest first, so the columns of length >= w are a prefix of the
    block of d, and the kernel vectors whose free column lies in that
    prefix are a basis of Z(F^w): the reduced echelon form of the block
    restricts to the echelon form of the prefix.  Cohomology takes
    representatives greedily in free-column order, so those of weight
    >= w are a basis of F^w H^i, and each class carries a well-defined
    weight.  A kernel vector is supported on its free column and on
    pivot columns before it, whose words are no shorter, so the weight
    of a representative is the length of its shortest word.
    weight_reps lists the degree-0 representatives by weight, stably.

    For an admissible A, S_N sits in degrees <= 0, so d vanishes on
    degree 0 and the degree-0 kernel basis is the unit vectors of the
    degree-0 words, longest first and in length-lexicographic order
    within a length.  Those are the cocycles a separate pass per weight
    w = N..0 would insert into the same boundary span in the same
    order, so weight_reps is that per-weight choice.

    Every degree is computed when it is first read: H^0 (h0,
    weight_reps, weight_dims) from the blocks of d in degrees -1 and 0,
    the others through filtered_dims or total_dims, as the Koszulness
    probe reads them.  Nothing here multiplies classes; the classical
    comparison reads H^0 as an algebra off the tables of A
    (twisting.H0Presentation).
    """

    def __init__(self, A, N):
        self.S = dual_dg_algebra(A, N)
        self.N = N
        self.field = self.S.field
        self.cx = self.S.complex

    @cached_property
    def h0(self):
        return self.cx.cohomology(0)

    @cached_property
    def weight_reps(self):
        return sorted(((_weight(v), v) for v in self.h0.representatives),
                      key=lambda wv: wv[0])

    @cached_property
    def weight_dims(self):
        return self._weight_dims(0)

    @cached_property
    def total_dims(self):
        """Nonzero dim H^i by degree, every degree of S_N."""
        return self.cx.total_cohomology_dims()

    @cached_property
    def filtered_dims(self):
        """Weight-graded dims of H^i, one list per degree of S_N."""
        return {i: self._weight_dims(i) for i in self.S.space.degrees_present()}

    def _weight_dims(self, degree):
        dims = [0] * (self.N + 1)
        for v in self.cx.cohomology(degree).representatives:
            dims[_weight(v)] += 1
        return dims

    def h_dim_table(self):
        """Nonzero filtered dimensions by (degree, weight)."""
        table = {}
        for i, dims in self.filtered_dims.items():
            for w, dim in enumerate(dims):
                if dim:
                    table[(i, w)] = dim
        return table


# ---------------------------------------------------------------------------
# the Koszulness probe


def is_admissible(A):
    """A strict unit (so augmented), ideal in degrees >= 1.

    The degree condition keeps every dual truncation in nonpositive
    degrees with finite slices, which the probe, the universal
    deformation and the comparison rely on; the unit laws are checked
    entrywise by check_strict_unit.
    """
    if _algebra(A).unit is None:
        return False
    return all(A.deg(l) >= 1 for l in A.ideal_labels()) \
        and check_strict_unit(A).ok


def weight_raise_bound(A):
    """Largest jump the dual differential makes along the weight filtration.

    Transposing an s-fold merge raises word weight by s - 1.  Every
    arity present counts, whatever the order N: a merge longer than N
    still acts in the deeper truncations a faithful slice must match.
    """
    r = 0
    for s, table in A.m.entries.items():
        if s >= 2 and any(v for v in table.values()):
            r = max(r, s - 1)
    return r


class KoszulVerdict:
    """Order-N certificate: graded H^i vanishes for i != 0 in the window.

    The window is the weight range the truncation computes faithfully,
    0 .. N - r with N > r (see koszul_probe).
    Functionals supported near the top weight are cocycles for free
    (their differential raises weight past the cutoff), so the raw
    H^i dims carry truncation-edge classes in negative degrees; dims
    records them as diagnostics and the certificate ignores them.
    Failures are (degree, weight, graded dim) triples inside the window.
    """

    def __init__(self, ok, order, window, failures, dims, h0_weight_dims,
                 cohomology):
        self.ok = ok
        self.order = order
        self.window = window
        self.failures = failures
        self.dims = dims
        self.h0_weight_dims = h0_weight_dims
        self.cohomology = cohomology

    def __bool__(self):
        return self.ok

    @property
    def verdict(self):
        if self.ok:
            return "koszul-at-order-%d" % self.order
        i, _, _ = self.failures[0]
        return "fails at (%d, %d)" % (i, self.order)

    def __repr__(self):
        return "KoszulVerdict(%s, window=%r)" % (self.verdict, (self.window,))


def koszul_probe(A, N):
    """Whether graded H^i(S_N) vanishes away from degree 0 where faithful.

    The faithful weights are w <= N - r with r the weight raise bound:
    there the cocycle condition on a weight-w functional and all the
    bounding elements it could receive stay inside the truncation, so
    the graded slice gr_w H^i agrees with every deeper truncation.
    Weight 0 is always faithful, as d never makes or takes the empty
    word, but its slice is the ground field in degree 0, so a window
    that holds no weight above 0 certifies nothing: when N <= r the
    probe refuses with HypothesisNotMet naming the window.  A
    truncation-level certificate only; refuses non-admissible input,
    where the probe has no degree bounds to work with, and a vacuous
    window, before S_N is built.  An admissible A puts S_N in degrees
    <= 0, which the windows rely on; a positive degree is an engine
    fault.
    """
    if not is_admissible(A):
        raise HypothesisNotMet(
            "koszul probe needs a strictly unital augmented algebra whose "
            "augmentation ideal sits in degrees >= 1")
    r = weight_raise_bound(A)
    if 0 <= _integer(N, "the weight bound N") <= r:
        raise HypothesisNotMet(
            "koszul probe at order %d has the window (0, 0): the weight "
            "raise bound %d leaves no weight above 0 to certify" % (N, r))
    rep = SHatCohomology(A, N)  # refuses a negative N
    if rep.S.space.degrees_present()[-1] > 0:
        raise MathCheckFailure("admissible input produced positive dual degrees")
    w_hi = N - r
    failures = [(i, w, dims[w]) for i, dims in sorted(rep.filtered_dims.items())
                if i for w in range(w_hi + 1) if dims[w]]
    return KoszulVerdict(not failures, N, (0, w_hi), failures,
                         dict(rep.total_dims), list(rep.weight_dims), rep)


# ---------------------------------------------------------------------------
# the universal twisting cochain


def universal_twisting_cochain(A):
    """The universal element tau = sum_a a x (a)* of A x S_N.

    As a cochain it is the projection from bar words onto single
    letters: it vanishes on the empty word and on words of length >= 2
    and sends the word (a) to a, a map of degree 1 because of the
    shift.  The element pairs each ideal label with its one-letter
    word, so it lives in S_N for every N >= 1 and in no S_0.
    """
    if A.unit is None:
        raise ValueError("twisting cochains need an augmented algebra")
    one = A.field.one
    return {(a, (a,)): one for a in A.ideal_labels()}
