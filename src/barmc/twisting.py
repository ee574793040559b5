"""Corepresenting maps, twisted modules, and the classical comparison.

A Maurer-Cartan element alpha in (A x m)^1 is itself the twisting
cochain: a degree-1 map R* -> A that kills the counit functional,
r* |-> the A-part of alpha at the base label r.  CorepresentingHom
reads the cochain off alpha by transposing it, and pushing it through
iterated deconcatenation gives a map from the dual word algebra S_N
into R.  The same left-insertion sums that twist the hom complexes
make A x R into an A-infinity module.

Every twisted table here comes from one join (TwistedModule._tables):
per arity, one mc._insertion_sum whose terms are read off the tensor
algebra's tables for all arguments at once.  TwistedModule holds A x R
twisted by alpha; UniversalDeformation is the same module over the
base S_N, twisted by the universal cochain; and TwistedComodule, A x R*
for a classical base, takes the module tables transposed on the base
factor.

The word-algebra map is forced by multiplicativity from its
weight-one entries and certified to be a DG algebra map on the
generators of S_N, which extends to every word by induction on word
length.  The product half does not depend on the element: the product
of S_N is U* V* = (-1)^(|U||V|) (UV)* (bar.DualTruncation, which
certifies its Leibniz rule on the letters once per S_N), and the
signed letter products w |-> sigma(w) rho(a_1) .. rho(a_k) multiply by
that sign for every letter assignment.  Each element passes
is_mc, which places its letter images, and certifies the
differential on the generators; a word's image is computed only when
it is read.  TwistedModule's complex certifies that the twisted
differential squares to zero, and the module Stasheff identities are
checked on every mixed tuple.
The classical comparison runs both sides by exhaustion: algebra maps
out of a presentation of H^0(S_N) on one side, gauge classes on the
other, matched through the maps g_alpha each element induces.  It
builds no S_N: for an admissible A, H^0(S_N) is T_{<=N}(V)/(r_c), with
V dual to the A^1 letters and r_c the transposed bar differential on
an A^2 letter c, read straight off the tables of A (H0Presentation).
For a base in degree 0 a DG map S_N -> R is exactly an algebra map out
of H^0(S_N), so neither Koszulness nor an order beyond nu - 1 is a
hypothesis of it, and it never runs the Koszulness probe.
"""

from functools import cached_property

from .ainfinity import (
    _expand,
    _first_stasheff_failure,
    AInfAlgebra,
    CheckReport,
    StructureMaps,
)
from .artin import _artinian
from .bar import (
    bar_tables,
    dual_dg_algebra,
    is_admissible,
    is_dual_of,
    universal_twisting_cochain,
)
from .errors import _integer, HypothesisNotMet, MathCheckFailure
from .linalg import (
    _apply_table,
    _ColumnEchelon,
    Complex,
    GradedSpace,
    Subspace,
    vec_add,
    vec_clean,
    vec_scale,
)
from .mc import (
    ENUMERATION_CAP,
    DeformationSetup,
    MCGroupoid,
    _gauge_classes,
    _check_vector,
    _insertion_sum,
    _require_morphism,
    _span_points,
    _vec_key,
)


# ---------------------------------------------------------------------------
# the corepresenting map S_N -> R


class CorepresentingHom:
    """The word-algebra map g*: S_N -> R induced by an MC element alpha.

    alpha in (A x m)^1 is a twisting cochain R* -> A, r* |-> the A-part
    of alpha at r.  Transposed, it gives the weight-one layer: a
    single-letter functional (a)* goes to rho(a) = sum_r alpha(a, r) r
    in m.  Multiplicativity forces the rest, a longer word going to the
    ordered product of its letters' images times the sign of moving
    the shifted letters past each other,

        (a_1 .. a_k)*  |->  (-1)^(sum_{i<j} s_i s_j) rho(a_1) .. rho(a_k)

    with s_i the shifted degree of a_i.  Only rho is stored: a word's
    image is computed when apply asks for it, by the prefix recursion
    over its letters that the comparison's evaluator runs
    (_word_values), and memoised; entries is the full table,
    computed on access.  S is the dual truncation S_N
    (bar.dual_dg_algebra) of setup.A; the order N is S.N.

    What makes this THE corepresenting map holds in two halves.  The
    product of S_N is U* V* = (-1)^(|U||V|) (UV)*, the sign by which
    the signs S.word_signs this map reads multiply, sigma(UV) =
    sigma(U) sigma(V) (-1)^(|U||V|), and it vanishes when
    |U| + |V| > N.  The signed letter products of any rho therefore
    multiply as S_N does when R is associative, graded with m an ideal
    (validate_artinian), and m^(N+1) = 0: a word of length
    N + 1 or more maps to a product of that many elements of m.  The
    guard N >= nu - 1 below is exactly that, since validate_artinian
    found m^nu = 0; at N = nu - 1 a word of length nu maps to a product
    of nu elements of m, which is 0.  Per element, construction
    refuses an S that is not the dual of setup.A (bar.is_dual_of, as
    check_tower_surjection does; ValueError), an element that fails
    setup.is_mc (ValueError carrying the residual), a component on the
    unit of A and an order below nu - 1 (HypothesisNotMet).  is_mc
    has checked each letter image for degree and augmentation
    (check_mc_input): alpha lies in (A x m)^1, so rho(a) lies in m in
    degree 1 - |a|, the degree of (a,) in S_N.  Construction checks
    g(du) = d g(u) on every generator, which reads only the words in
    d(letters) and extends to all of S_N because both differentials
    are derivations.
    The differential check is where the Maurer-Cartan equation
    re-enters; it can only trip if the upstream validation was unsound.
    """

    def __init__(self, setup, alpha, S):
        A = setup.A
        if not is_dual_of(S, A):
            raise ValueError(
                "S is not the dual of the setup's algebra: it is no "
                "DualTruncation, or its field, letters or tables differ")
        if not setup.is_mc(alpha):
            raise ValueError(
                "the element fails the generalized Maurer-Cartan equation "
                "(residual %r)" % (setup.mc_residual(alpha),))
        R = setup.R
        rho = {a: {} for a in S.bar.letters}
        for (a, r), c in vec_clean(alpha).items():
            if a == A.unit:
                raise HypothesisNotMet(
                    "the corepresenting map needs an admissible element "
                    "(no component on the unit of A)")
            rho[a][r] = c
        if S.N < R.nu - 1:
            raise HypothesisNotMet(
                "truncation order %d is below nu - 1 for the nilpotency index "
                "nu = %d; S_N would kill products of letters that the base "
                "still sees, and multiplicativity would fail" % (S.N, R.nu))
        self.A = A
        self.R = R
        self.N = S.N
        self.field = setup.field
        self.S = S
        self._value = _word_values(R, rho)
        self._certify()

    @cached_property
    def entries(self):
        """The full table word -> image over every word of S_N."""
        return {w: self._push({w: self.field.one}) for w in self.S.words}

    def apply(self, vec):
        """g* on a vector of S_N; ValueError names an entry outside it."""
        _check_vector(vec, self.field, "vector", self.S.space.index,
                      "S_%d" % self.N)
        return self._push(vec)

    def _push(self, vec):
        """sum c g*(w*): the letter products, each times its word sign."""
        signs = self.S.word_signs
        return self._value({w: signs[w] * c for w, c in vec.items()})

    def _certify(self):
        R, S = self.R, self.S
        for u in S.generators:
            if (self._push(S.algebra.m.get(1, (u,)))
                    != R.d_of(self._push({u: self.field.one}))):
                raise MathCheckFailure(
                    "differential compatibility fails at %r; the cochain does "
                    "not satisfy the Maurer-Cartan equation" % (u,))

    def __repr__(self):
        return "CorepresentingHom(order %d, %d words)" % (
            self.N, len(self.S.words))


# ---------------------------------------------------------------------------
# twisted modules


class TwistedModule:
    """A x R carrying the structure maps twisted by alpha.

    The n-th map takes one element of A x R and n - 1 elements of A,
    with the twist inserted on the left through the tensor algebra:

        m_n(x, a_1, .., a_{n-1}) =
            sum over i >= 0 of (-1)^(i(i+1)/2 + n i)
                m_{n+i}(alpha, .., alpha, x, a_1 x 1, .., a_{n-1} x 1).

    Setting alpha = 0 recovers the tensor algebra operations on the
    nose.  Construction builds the complex, whose d*d = 0 check names a
    witness basis element (MathCheckFailure); that is exactly how a
    non-Maurer-Cartan twist surfaces.  The module Stasheff identities
    are checked on every mixed tuple through a shim, built on the first
    check_module_axioms, that merges the twisted maps with the
    operations of A.
    """

    def __init__(self, setup, alpha, check=True):
        setup.check_mc_input(alpha)
        self.setup = setup
        self.A = setup.A
        self.R = setup.R
        self.T = setup.T
        self.field = setup.field
        self.alpha = vec_clean(dict(alpha))
        self.space = self.T.space
        self.ops = self._tables()
        self._d = {args[0]: vec
                   for args, vec in self.ops.entries.get(1, {}).items()}
        try:
            self.complex = Complex(self.space, self._d, self.field)
        except ValueError as exc:
            raise MathCheckFailure(
                "twisted differential: %s; the twist does not satisfy the "
                "Maurer-Cartan equation" % (exc,)) from None
        for a in self.A.space.labels:
            if a in self.space.index:
                raise ValueError(
                    "module and algebra labels collide at %r" % (a,))
        if check:
            rep = self.check_module_axioms()
            if not rep.ok:
                raise MathCheckFailure(
                    "module axioms fail on %r" % (rep.failure,))

    def _tables(self):
        """One mc._insertion_sum per arity n, with objects (0, .., 0, alpha).

        The sum holds the sign, the cut at the arity bound and at nu,
        and the check that the nu-fold term vanishes.  Its term for i
        insertions covers every (x, a_1, .., a_{n-1}) at once, keyed by
        (that tuple, output label): the entries of the tensor algebra's
        m_{n+i} whose first i slots lie in the support of alpha and
        whose last n - 1 slots sit on the unit of R.
        """
        field, alpha = self.field, self.alpha
        T_m, unit = self.T.m.entries, self.R.unit
        bound = self.A.arity_bound
        tables = {}
        for n in range(1, bound + 1):

            def insertions(counts, n=n):
                i = counts[-1]
                flat = {}
                for args, vec in T_m.get(n + i, {}).items():
                    coeff = None
                    for l in args[:i]:
                        c = alpha.get(l)
                        if c is None:
                            break
                        coeff = c if coeff is None else coeff * c
                    else:
                        tail = args[i + 1:]
                        if all(r == unit for _, r in tail):
                            key = (args[i],) + tuple(a for a, _ in tail)
                            vec_add(flat, {(key, o): v
                                           for o, v in vec.items()}, coeff)
                return flat

            table = tables.setdefault(n, {})
            flat = _insertion_sum(field, insertions, [{}] * n + [alpha],
                                  [0] * n, bound - n, self.setup.nu, 1)
            for (args, o), c in flat.items():
                table.setdefault(args, {})[o] = c
        return StructureMaps(tables)

    @cached_property
    def _shim(self):
        basis = [(l, self.space.degree[l]) for l in self.space.labels]
        basis += [(a, self.A.deg(a)) for a in self.A.space.labels]
        space = GradedSpace(basis)
        ops = self.ops.copy()
        for n, table in self.A.m.entries.items():
            for args, vec in table.items():
                ops.set(n, args, dict(vec))
        return AInfAlgebra(space, self.field, ops,
                           arity_bound=self.A.arity_bound)

    def check_module_axioms(self, n_max=None):
        """Stasheff identities on (module element, algebra elements) tuples.

        The same sparse join as check_ainf_axioms, run on the shim and
        kept to the tuples whose first label is a module label and whose
        other labels are algebra labels; it covers exactly the tuples a
        replay of stasheff_residual over all of them would, and reports
        the first failing one in that replay's order.  n_max below 1 is
        refused with ValueError.
        """
        cap = (_integer(n_max, "n_max") if n_max is not None
               else self.A.arity_bound + 1)
        if cap < 1:
            raise ValueError("n_max must be at least 1")
        failure = _first_stasheff_failure(self._shim, cap, self.space.index,
                                          self.A.space.index)
        if failure:
            return CheckReport(False, failure=failure, checked_to=cap)
        return CheckReport(True, checked_to=cap)

    def differential(self, v):
        _check_vector(v, self.field, "vector", self.space.index, "the module")
        return _apply_table(self._d, v)

    def op(self, x_vec, a_vecs):
        """m_n(x, a_1, .., a_{n-1}) extended linearly from the tables.

        ValueError names any label outside the space or outside A.
        """
        _check_vector(x_vec, self.field, "module element", self.space.index,
                      "the module")
        if not isinstance(a_vecs, (list, tuple)):
            raise ValueError("the algebra slots %r are not a list of vectors"
                             % (a_vecs,))
        for a in a_vecs:
            _check_vector(a, self.field, "algebra element", self.A.space.index,
                          "A")
        table = self.ops.entries.get(1 + len(a_vecs), {})
        return _expand(self.field, [x_vec] + list(a_vecs), table.get)

    def cohomology_dims(self):
        return self.complex.total_cohomology_dims()

    def right_action(self, x_vec, r_vec):
        """x . r through the tensor algebra; needs the strict unit of A."""
        if self.A.unit is None:
            raise HypothesisNotMet("the base action needs a strict unit")
        _check_vector(x_vec, self.field, "module element", self.space.index,
                      "the module")
        _check_vector(r_vec, self.field, "base element", self.R.space.index,
                      "R")
        embed = {(self.A.unit, r): c for r, c in r_vec.items()}
        return self.T.eval_m_vectors([x_vec, embed])


class UniversalDeformation(TwistedModule):
    """A x S_N with the structure maps twisted by the universal cochain.

    The twisted module over the base S_N, with the twist the universal
    element tau = sum_a a x (a)*.  Each insertion raises weight, so the
    sums are finite (S_N has nilpotency index N + 1); killing positive
    weight recovers the operations of A on the nose.  The module
    axioms are checked on demand, not at construction.  The order N
    must be at least 1, since tau lives in S_N only for N >= 1.

    tau is certified to be MC (setup.is_mc) before any table is built.
    Where it is not and A has operations of arity >= 3 over a field of
    characteristic other than 2, the sign conventions of those
    operations and of S_N disagree, and the construction is refused as
    HypothesisNotMet with the residual; any other failure is a
    MathCheckFailure carrying the residual.
    """

    def __init__(self, A, N):
        if not is_admissible(A):
            raise HypothesisNotMet(
                "the universal deformation needs a strictly unital augmented "
                "algebra whose augmentation ideal sits in degrees >= 1")
        if not A.op_complete_for(A.arity_bound):
            raise HypothesisNotMet(
                "the universal deformation inserts the cochain up to the full "
                "arity bound %d, but the algebra is only complete to arity %d"
                % (A.arity_bound, A.complete_to_arity))
        if _integer(N, "the order N") < 1:
            raise ValueError(
                "the universal deformation needs order N >= 1, got N = %d: "
                "tau pairs each letter with its one-letter word" % N)
        self.N = N
        self.S = dual_dg_algebra(A, N)
        self.tau = universal_twisting_cochain(A)
        setup = DeformationSetup(A, self.S.as_artinian())
        if not setup.is_mc(self.tau):
            known = A.m.max_arity() >= 3 and A.field.p != 2
            raise (HypothesisNotMet if known else MathCheckFailure)(
                "the universal element is not Maurer-Cartan over S_%d (residual "
                "%r)%s" % (N, setup.mc_residual(self.tau), known * "; a known "
                "sign defect of operations of arity >= 3 (ROADMAP item 1)"))
        super().__init__(setup, self.tau, check=False)

    def check_base_change(self):
        """Killing positive weight returns the operations of A exactly.

        Compared entry by entry against A.m, reporting the first
        failing tuple in itertools.product order, arity by arity.
        """
        A = self.A
        for n in range(1, A.arity_bound + 1):
            got = {}
            for args, vec in self.ops.entries.get(n, {}).items():
                if args[0][1] == ():
                    got[(args[0][0],) + args[1:]] = {
                        a2: c for (a2, w2), c in vec.items() if w2 == ()}
            want = A.m.entries.get(n, {})
            bad = [t for t in set(got) | set(want)
                   if got.get(t, {}) != want.get(t, {})]
            if bad:
                t = min(bad, key=lambda t: [A.space.index[l] for l in t])
                return CheckReport(False, failure=(
                    n, t, got.get(t, {}), dict(want.get(t, {}))))
        return CheckReport(True, checked_to=A.arity_bound)


class ModuleIsomorphism:
    """Composition with a gauge morphism, between twisted modules.

    For g: alpha -> beta the map x |-> m_2^{0,alpha,beta}(g, x) sends
    the alpha-twist to the beta-twist.  Construction certifies that it
    is a chain map and invertible; when the algebra is honestly DG the
    compatibility with the module action is strict and checked on
    every pair, otherwise the higher components are available but only
    the chain level is asserted.
    """

    def __init__(self, setup, g):
        _require_morphism(g)
        self.setup = setup
        self.field = setup.field
        self.g = g
        self.source = TwistedModule(setup, g.alpha, check=False)
        self.target = TwistedModule(setup, g.beta, check=False)
        one = self.field.one
        gvec = g.vector()
        self.phi = {}
        for l in setup.T.space.labels:
            img = setup.category_op([{}, g.alpha, g.beta],
                                    [{l: one}, gvec])
            if img:
                self.phi[l] = img
        self._certify()

    def apply(self, v):
        return _apply_table(self.phi, v)

    def component(self, k, x_vec, a_vecs):
        """The k-th higher piece m_{k+1}(g, x, a_1 x 1, .., a_{k-1} x 1)."""
        if len(a_vecs) != k - 1:
            raise ValueError("component %d takes %d algebra slots" % (k, k - 1))
        r_unit = self.setup.R.unit
        embedded = [{(a, r_unit): c for a, c in v.items()}
                    for v in a_vecs]
        morphisms = list(reversed(embedded)) + [x_vec, self.g.vector()]
        objects = [{}] * k + [self.g.alpha, self.g.beta]
        return self.setup.category_op(objects, morphisms)

    def _certify(self):
        labels = self.setup.T.space.labels
        one = self.field.one
        for l in labels:
            lhs = self.apply(self.source.differential({l: one}))
            rhs = self.target.differential(self.apply({l: one}))
            if lhs != rhs:
                raise MathCheckFailure(
                    "gauge transport is not a chain map at %r" % (l,))
        if Subspace([self.phi.get(l, {}) for l in labels],
                    self.field).dim != len(labels):
            raise MathCheckFailure("gauge transport is not invertible")
        if self.setup.A.arity_bound <= 2:
            for l in labels:
                for a in self.setup.A.space.labels:
                    lhs = self.apply(self.source.op({l: one}, [{a: one}]))
                    rhs = self.target.op(self.apply({l: one}), [{a: one}])
                    if lhs != rhs:
                        raise MathCheckFailure(
                            "gauge transport breaks the action at (%r, %r)"
                            % (l, a))


class TwistedComodule(TwistedModule):
    """A x R* for a classical base, twisted through contraction.

    The label (a, r) stands for a x r*.  Insertions multiply A-parts on
    the left as in the module, while left multiplication on the base
    becomes contraction of functionals, so the tables are the module's
    transposed on the base factor: ((a, u),) + rest -> (a2, r) becomes
    ((a, r),) + rest -> (a2, u).  Classical bases only: their dual has
    no differential and every regrouping sign is +1, so the transpose
    brings no second sign convention.  R* is no right R-module through
    the tensor algebra, so right_action is refused.
    """

    def __init__(self, setup, alpha, check=True):
        if not setup.R.classical:
            raise HypothesisNotMet(
                "the dual-side twist is implemented for bases concentrated "
                "in degree 0")
        super().__init__(setup, alpha, check=check)

    def _tables(self):
        tables = {}
        for n, table in super()._tables().entries.items():
            out = tables.setdefault(n, {})
            for args, vec in table.items():
                (a, u), rest = args[0], args[1:]
                for (a2, r), c in vec.items():
                    out.setdefault(((a, r),) + rest, {})[(a2, u)] = c
        return StructureMaps(tables)

    def right_action(self, x_vec, r_vec):
        raise HypothesisNotMet("the dual-side module carries no right "
                               "action through the tensor algebra")


# ---------------------------------------------------------------------------
# the classical comparison


class H0Presentation:
    """H^0(S_N) as T_{<=N}(V)/(r_c), read off the tables of A.

    For an admissible A every letter of S_N has shifted degree
    |a| - 1 >= 0, so S_N sits in degrees <= 0.  Degree 0 is spanned by
    the words in the A^1 letters, whose shifted degree is 0: it is the
    tensor algebra T_{<=N}(V) cut at weight N, with V dual to A^1, and
    no sign enters its product.  A word of degree -1 holds exactly one
    A^2 letter c.  S^1 = 0, so d kills the degree-0 letters, and by
    Leibniz d(S^-1) is the two-sided ideal generated by the d(c*), cut
    at weight N.  Only a whole word of A^1 letters merges into the
    single letter c, and for such words the transposition sign and the
    word sign are both +1, so

        d(c*) = r_c = sum_{n <= N} sum_{w in (A^1)^n} b_n(w)[c] w,

    read off the bar's own tables, m_from_b of restrict_to_ideal(A).
    Hence H^0(S_N) = T_{<=N}(V)/(r_c), the noncommutative hull of the
    MC functor (Laudal 2002; Segal 2008).  relations maps each A^2
    letter c with r_c != 0 to r_c, in letter order; words are tuples
    of A^1 letters.

    The linear parts of the r_c are brought to reduced echelon form
    with each pivot on its last letter; pivots maps each pivot letter p
    to its row minus the word (p,).  Modulo longer words the boundaries
    of degree 0 are those linear parts, so a letter is a pivot exactly
    when it lies in their span plus the earlier letters: the
    non-pivots, gens in letter order, are the weight-one
    representatives that a greedy pass over H^0 picks.  They generate:
    each row gives p = -(its rest) modulo the relations, and the words
    of that rest are either generators or longer.

    Refused: an A that is not admissible or not complete to the
    arities the order reads (HypothesisNotMet), an augmentation ideal
    that is not closed, and an A that fails a Stasheff identity among
    ideal letters up to arity N, the d^2 = 0 of S_N (ValueError naming
    the tuple).
    """

    def __init__(self, A, N):
        if not is_admissible(A):
            raise HypothesisNotMet(
                "the comparison needs a strictly unital augmented algebra "
                "whose augmentation ideal sits in degrees >= 1")
        b = bar_tables(A, N)
        ideal = {l: A.space.index[l] for l in A.ideal_labels()}
        failure = _first_stasheff_failure(A, N, ideal, ideal)
        if failure:
            raise ValueError("the Stasheff identity of arity %d fails on %r "
                             "(residual %r)" % failure)
        self.A, self.N, self.field = A, N, A.field
        self.letters = [l for l in ideal if A.deg(l) == 1] if N else []
        # a word goes to degree 2 exactly when its letters sit in degree 1
        relations = {c: {} for c in ideal if A.deg(c) == 2}
        for n in range(1, min(N, A.arity_bound) + 1):
            for w, vec in b.entries.get(n, {}).items():
                for c, x in vec.items():
                    if c in relations:
                        relations[c][w] = x
        self.relations = {c: r for c, r in relations.items() if r}
        # columns: the one-letter words, last letter first, then the rest
        words = [(a,) for a in reversed(self.letters)]
        words += {w: 0 for r in self.relations.values() for w in r
                  if len(w) > 1}
        col = {w: j for j, w in enumerate(words)}
        echelon = _ColumnEchelon([{col[w]: c for w, c in r.items()}
                                  for r in self.relations.values()], self.field)
        self.pivots = {
            words[k][0]: {words[j]: c for j, c in row.items() if j != k}
            for k, row in zip(echelon.pivot_keys, echelon.rows)
            if len(words[k]) == 1}
        self.gens = [a for a in self.letters if a not in self.pivots]

    def evaluator(self, R, images):
        """phi on word vectors, for the letter images that extend images.

        images maps each generator to its image in the ideal of R; each
        pivot p goes to -phi(its rest), found by iterating from 0.  An
        error in m^k leaves one in m^(k+1), because every word of a rest
        is a generator or has length >= 2, so at most nu rounds reach
        the fixed point (m^nu = 0).
        """
        phi = {**images, **dict.fromkeys(self.pivots, {})}
        for _ in range(R.nu):
            value = _word_values(R, phi)
            solved = {p: vec_scale(value(rest), -R.field.one)
                      for p, rest in self.pivots.items()}
            if solved == {p: phi[p] for p in solved}:
                break
            phi.update(solved)
        return value


def _word_values(R, images):
    """sum c w |-> sum c images[w_1] .. images[w_k] in R, each word's
    product memoised along its prefixes."""
    products = {(): {R.unit: R.field.one}}

    def product(w):
        if w not in products:
            products[w] = R.multiply(product(w[:-1]), images[w[-1]])
        return products[w]

    return lambda vec: _apply_table({w: product(w) for w in vec}, vec)


def _enumerable(R, sweep):
    """Refuse a base that the named sweep cannot exhaust."""
    if not _artinian(R).field.p:
        raise HypothesisNotMet("%s needs a finite prime field" % sweep)
    if not R.classical:
        raise HypothesisNotMet(
            "gate failed: base not concentrated in degree 0")


def _comparison_gates(R, N, what):
    """The base gates of the comparison, for what names the caller.

    The base is over a finite field and sits in degree 0, and
    N >= nu - 1, so that m^(N+1) = 0 and an algebra map out of
    T_{<=N}(V) is one into R; all are refused with HypothesisNotMet.
    H0Presentation refuses the rest.
    """
    _enumerable(R, what)
    if _integer(N, "the order N") < R.nu - 1:
        raise HypothesisNotMet("gate failed: order %d below nu - 1 for the "
                               "nilpotency index nu = %d" % (N, R.nu))


def algebra_maps(pres, R):
    """Augmented algebra maps H^0(S_N) -> R, as generator image tuples.

    Enumerated over the finite field: each generator image ranges over
    the augmentation ideal of R, the pivot letters take the images the
    relations force (H0Presentation.evaluator), and a candidate survives
    when every r_c evaluates to zero.  An algebra map out of T_{<=N}(V)
    kills the ideal (r_c) exactly when it kills each r_c, and words
    past N die in R once m^(N+1) = 0.  The sweep runs over coefficients
    keyed by (generator, ideal label), the first coefficient major, so
    reports are reproducible.  ValueError names the type of a pres that
    is no H0Presentation, and both fields when pres and R differ.
    """
    if not isinstance(pres, H0Presentation):
        raise ValueError("algebra_maps needs an H0Presentation, got %s"
                         % type(pres).__name__)
    _enumerable(R, "map enumeration")
    if pres.field != R.field:
        raise ValueError("the presentation lives over %r and the base over %r"
                         % (pres.field, R.field))
    one = R.field.one
    m = len(pres.gens)
    basis = [{(g, l): one} for g in range(m) for l in R.ideal_labels]
    maps = []
    for point in _span_points(R.field, {}, basis):
        images = [{} for _ in range(m)]
        for (g, l), c in point.items():
            images[g][l] = c
        value = pres.evaluator(R, dict(zip(pres.gens, images)))
        if not any(map(value, pres.relations.values())):
            maps.append(tuple(images))
    return maps


def induced_map(setup, pres, alpha):
    """The generator images of g_alpha: H^0(S_N) -> R, certified.

    alpha in (A x m)^1 over a base in degree 0 lies on the A^1 letters,
    and transposed it sends the letter a* to sum_r alpha(a, r) r;
    multiplicativity forces the rest.  That is an algebra map out of
    H^0(S_N) exactly when it kills every r_c, which is the
    Maurer-Cartan equation of alpha read through the bar: checked with
    the evaluator of algebra_maps, and a failure is a MathCheckFailure
    naming (c,).  Refused: the base gates of the comparison
    (HypothesisNotMet), and a setup over another algebra or an element
    that fails setup.is_mc (ValueError).
    """
    _comparison_gates(setup.R, pres.N, "the induced map")
    if setup.A is not pres.A or not setup.is_mc(alpha):
        raise ValueError("the induced map needs an MC element over the "
                         "presentation's algebra")
    rho = {a: {} for a in pres.letters}
    for (a, r), c in vec_clean(alpha).items():
        rho[a][r] = c
    value = _word_values(setup.R, rho)
    for c, r in pres.relations.items():
        if value(r):
            raise MathCheckFailure(
                "differential compatibility fails at %r; the cochain does "
                "not satisfy the Maurer-Cartan equation" % ((c,),))
    return tuple(rho[g] for g in pres.gens)


def enumerate_units(R):
    """All invertible elements of a classical local artinian base."""
    _enumerable(R, "unit enumeration")
    basis = [{l: R.field.one} for l in R.ideal_labels]
    return [u for c0 in R.field.elements()[1:]
            for u in _span_points(R.field, {R.unit: c0}, basis)]


def invert_unit(R, u):
    """Inverse through the geometric series, certified two-sided.

    R.multiply reads a label outside R as zero, so u is checked first.
    """
    _check_vector(u, R.field, "unit", R.space.index, "R")
    c0 = u.get(R.unit)
    if not c0:
        raise ValueError("not a unit: no invertible scalar part")
    scale = R.field.one / c0
    n = vec_clean({l: -scale * c for l, c in u.items() if l != R.unit})
    inv = {R.unit: scale}
    power = dict(n)
    for _ in range(R.nu):
        if not power:
            break
        vec_add(inv, {l: scale * c for l, c in power.items()})
        power = R.multiply(power, n)
    inv = vec_clean(inv)
    one = {R.unit: R.field.one}
    if R.multiply(u, inv) != one or R.multiply(inv, u) != one:
        raise MathCheckFailure("unit inversion failed to certify")
    return inv


def conjugation_orbits(R, maps):
    """Orbits of generator-image tuples under conjugation by units.

    The units form a group, so the orbit of a tuple is the set of its
    conjugates by every unit: one pass from each orbit's first tuple.
    """
    units = [(u, invert_unit(R, u)) for u in enumerate_units(R)]
    index_of = {tuple(_vec_key(w) for w in t): i for i, t in enumerate(maps)}
    orbits = []
    orbit_of = {}
    for i, t in enumerate(maps):
        if i in orbit_of:
            continue
        orbit = set()
        for u, uinv in units:
            moved = tuple(R.multiply(R.multiply(u, w), uinv) for w in t)
            k = index_of.get(tuple(_vec_key(w) for w in moved))
            if k is None:
                raise MathCheckFailure("conjugation left the enumerated map set")
            orbit.add(k)
        orbit = sorted(orbit)
        for j in orbit:
            orbit_of[j] = len(orbits)
        orbits.append(orbit)
    return orbits, orbit_of


class ProrepReport:
    """Both enumerations and the matching, for audit.

    orbits partitions the indices of maps into conjugation orbits; over
    a commutative base every orbit is a singleton.
    """

    def __init__(self, lhs, rhs, ok, problems, maps, classes, matching,
                 order, presentation, orbits):
        self.lhs = lhs
        self.rhs = rhs
        self.ok = ok
        self.problems = problems
        self.maps = maps
        self.classes = classes
        self.matching = matching
        self.order = order
        self.presentation = presentation
        self.orbits = orbits

    def __bool__(self):
        return self.ok

    def __repr__(self):
        tag = "agree" if self.ok else "PROBLEMS: " + "; ".join(self.problems)
        return "ProrepReport(lhs=%d, rhs=%d, %s)" % (self.lhs, self.rhs, tag)


def prorep_compare(A, R, N, cap=ENUMERATION_CAP):
    """|Hom_alg(H^0(S_N), R)| against |pi_0| with the matching checked.

    Both sides are computed by exhaustion over the finite field, and
    the bridge alpha |-> g* o section is verified to induce a genuine
    bijection: constant on gauge classes, landing in the enumerated
    map set, injective across classes, and exhaustive.  Over a
    noncommutative base the Hom side is quotiented by conjugation with
    the units of R; over a commutative one every algebra map is its
    own orbit and no unit is enumerated.  The sweeps over generator
    images, units and MC candidates are each refused past the cap
    before any of them runs.

    The hypotheses are those _comparison_gates and H0Presentation
    name: an admissible A, a base over a finite field in degree 0, and
    N >= nu - 1.  Neither Koszulness nor N >= nu is one; every answer
    is certified by the matching itself.
    """
    _comparison_gates(R, N, "the comparison, which enumerates both sides,")
    pres = H0Presentation(A, N)
    p, m = R.field.p, len(R.ideal_labels)
    e = m * len(pres.gens)
    if p ** e > _integer(cap, "the cap"):
        raise HypothesisNotMet(
            "Hom sweep %d^%d exceeds the cap %d" % (p, e, cap))
    if not R.commutative and (p - 1) * p ** m > cap:
        raise HypothesisNotMet(
            "unit sweep (%d-1)*%d^%d exceeds the cap %d" % (p, p, m, cap))
    setup = DeformationSetup(A, R)
    points = setup.enumerate_mc(cap)
    maps = algebra_maps(pres, R)
    if R.commutative:
        orbits = [[i] for i in range(len(maps))]
        orbit_of = list(range(len(maps)))
        what = "algebra maps"
    else:
        orbits, orbit_of = conjugation_orbits(R, maps)
        what = "conjugation orbits"
    index_of = {tuple(_vec_key(w) for w in t): i for i, t in enumerate(maps)}
    classes = _gauge_classes(points, MCGroupoid(setup))
    problems = []
    matching = {}
    for ci, cls in enumerate(classes.classes):
        hit = set()
        for alpha in cls:
            t = induced_map(setup, pres, alpha)
            k = tuple(_vec_key(w) for w in t)
            if k not in index_of:
                problems.append(
                    "class %d maps outside the enumerated Hom set" % ci)
                break
            hit.add(orbit_of[index_of[k]])
        else:
            if len(hit) != 1:
                problems.append("class %d meets %d %s"
                                % (ci, len(hit), what))
            else:
                matching[ci] = hit.pop()
    if len(set(matching.values())) != len(matching):
        problems.append("induced %s collide across gauge classes" % what)
    if len(orbits) != classes.count:
        problems.append("counts disagree: %d %s, %d classes"
                        % (len(orbits), what, classes.count))
    ok = not problems and len(matching) == classes.count
    return ProrepReport(len(orbits), classes.count, ok, problems, maps,
                        classes, matching, N, pres, orbits)
