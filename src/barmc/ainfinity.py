"""A-infinity algebras and morphisms with exact sign bookkeeping.

An A-infinity algebra is a graded space with multilinear operations
m_n of degree 2 - n obeying the Stasheff identities

    sum_{r+s+t=n} (-1)^(r+st) m_{r+1+t} (1^r x m_s x 1^t) = 0,

where evaluating an operator block inside a tensor power follows the
Koszul rule: sliding an operator of odd degree past an element of odd
degree costs a sign.  The Stasheff and morphism residuals and the
tensor regrouping route through the two sign helpers below.  Other
signs are still computed where their rule is stated, among them the
insertion exponent of the Maurer-Cartan category (mc._insertion_sum)
and the signs of the dual truncation (bar.DualTruncation).

Signs are computed as integer parities first and mapped into the
ground field at the very end, so prime fields (including F_2) see the
same bookkeeping as Q.

stasheff_residual and morphism_residual evaluate an identity on one
basis tuple.  The checkers do not call them tuple by tuple: the
residuals are sums of composites of table entries (the b o b = 0 form
of the identities; Stasheff 1963, Keller 2001), so check_ainf_axioms
and check_ainf_morphism join the tables and visit only the tuples some
composite produces; compose_morphisms reads its components, and
transfer.minimal_model its W_n, off the same join.  The per-tuple
functions only name the witness of a failure, and replayed over every
tuple they are the oracle the joins are tested against.

Every multilinear evaluation (eval_m_vectors, the twisted operations
and the pushforward's f x mu_R) runs through one kernel, _expand.
Values are raw inside it, and inside the joins and the tensor
regrouping (_regrouped): ints mod p, left unreduced until the end,
over F_p, and ints and Fractions over Q.  Each coefficient is read
once (_raw), and one helper, _canonical, is the edge that wraps one
Scalar per output entry.  The per-tuple residuals, which name
witnesses, stay on Scalars.

tensor_with_dg regroups each entry of A only against the words of C
whose product is nonzero (_base_words), built once per arity by prefix
extension; _right_products multiplies a vector by every label at once
through the m_2 entries indexed by their first slot, so that costs one
_expand per prefix, not one per (prefix, label) pair.
"""

from itertools import count, product as iter_product
from math import prod

from .errors import _integer
from .linalg import (
    Complex,
    GradedSpace,
    vec_add,
    vec_clean,
    vec_is_zero,
    vec_scale,
)
from .scalars import Scalar


# ---------------------------------------------------------------------------
# the centralized Koszul sign rule


def koszul_pass_exponent(op_parity, degrees):
    """Parity of the sign for sliding one operator past listed elements.

    For (1^r x op x ...) applied to homogeneous arguments, the operator
    moves past the first r of them and the rule (phi x psi)(x x y) =
    (-1)^(|psi||x|) phi(x) x psi(y) charges |op| * (deg x_1 + ... + deg x_r).
    """
    return (op_parity % 2) * sum(degrees)


def tensor_block_exponent(op_parities, block_degrees):
    """Parity for (phi_1 x ... x phi_s) on argument blocks.

    Iterating the two-factor Koszul rule gives
    sum over u < v of |phi_v| * deg(block_u).
    """
    total = 0
    acc = 0
    for v in range(len(op_parities)):
        total += (op_parities[v] % 2) * acc
        acc += block_degrees[v]
    return total


# ---------------------------------------------------------------------------
# sparse families of multilinear operations


class StructureMaps:
    """Sparse structure constants for a family of multilinear maps.

    entries[n] maps an input label tuple of length n to a sparse output
    vector.  The same container stores m-operations, bar coderivation
    components b_n, or morphism components f_n; degree conventions are
    imposed by the validators, not here.
    """

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for n, table in entries.items():
                for args, vec in table.items():
                    self.set(n, tuple(args), vec)

    def set(self, n, args, vec):
        vec = vec_clean(vec)
        if not vec:
            self.entries.get(n, {}).pop(tuple(args), None)
            return
        self.entries.setdefault(n, {})[tuple(args)] = vec

    def add(self, n, args, vec, coeff=None):
        table = self.entries.setdefault(n, {})
        cur = table.setdefault(tuple(args), {})
        vec_add(cur, vec, coeff)
        if not vec_clean(cur):
            del table[tuple(args)]

    def get(self, n, args):
        return self.entries.get(n, {}).get(tuple(args), {})

    def arities(self):
        return sorted(n for n, t in self.entries.items() if t)

    def max_arity(self):
        ar = self.arities()
        return ar[-1] if ar else 0

    def copy(self):
        out = StructureMaps()
        for n, table in self.entries.items():
            for args, vec in table.items():
                out.set(n, args, dict(vec))
        return out

    def support(self, n):
        return sorted(self.entries.get(n, {}).keys(), key=repr)


class AInfAlgebra:
    """Graded space plus structure maps plus a unit marker.

    An algebra with a unit is augmented by the unit's dual functional,
    so its augmentation ideal is spanned by the other basis labels.
    arity_bound declares that operations above it vanish identically;
    for algebras defined by explicit tables that is part of the
    definition.  A transfer-produced algebra whose higher operations
    were only computed up to some arity instead carries
    complete_to_arity, and consumers that would need more refuse.
    """

    def __init__(self, space, field, ops, arity_bound=None, unit=None,
                 complete_to_arity=None):
        self.space = space
        self.field = field
        self.m = ops
        self.arity_bound = arity_bound if arity_bound is not None else max(2, ops.max_arity())
        self.unit = unit
        self.complete_to_arity = complete_to_arity
        self._check_degrees()
        if unit is not None and space.degree.get(unit) != 0:
            raise ValueError("unit %r must have degree 0" % (unit,))

    def _check_degrees(self):
        for n, table in self.m.entries.items():
            if n < 1:
                raise ValueError("operation of arity %d; arities start at 1" % n)
            if n > self.arity_bound:
                raise ValueError("operation of arity %d above the declared bound" % n)
            for args, vec in table.items():
                if len(args) != n:
                    raise ValueError("arity mismatch in stored operation")
                for l in args + tuple(vec):
                    if l not in self.space.degree:
                        raise ValueError(
                            "m_%d%r uses %r, which is not a basis label"
                            % (n, args, l))
                want = sum(self.space.degree[a] for a in args) + 2 - n
                for out in vec:
                    if self.space.degree[out] != want:
                        raise ValueError(
                            "m_%d%r violates the degree 2-%d convention" % (n, args, n)
                        )

    def deg(self, label):
        return self.space.degree[label]

    def ideal_labels(self):
        """Basis labels of the augmentation ideal (everything but the unit line)."""
        if self.unit is None:
            raise ValueError("algebra carries no augmentation")
        return [l for l in self.space.labels if l != self.unit]

    def eval_m(self, args):
        """m_n on a tuple of basis labels."""
        n = len(args)
        if n > self.arity_bound:
            return {}
        return self.m.get(n, args)

    def eval_m_vectors(self, vecs):
        """Multilinear extension of m_n to sparse vectors (no extra signs)."""
        table = self.m.entries.get(len(vecs))
        if not table or len(vecs) > self.arity_bound:
            return {}
        return _expand(self.field, vecs, table.get)

    def complex(self):
        d = {args[0]: vec for args, vec in self.m.entries.get(1, {}).items()}
        return Complex(self.space, d, self.field)

    def op_complete_for(self, arity_needed):
        return self.complete_to_arity is None or arity_needed <= self.complete_to_arity


def _algebra(A):
    """A when it is an AInfAlgebra, else ValueError naming its type."""
    if not isinstance(A, AInfAlgebra):
        raise ValueError("expected an AInfAlgebra, got %s%s" % (
            type(A).__name__, "; for an artinian base pass its .algebra"
            * hasattr(A, "algebra")))
    return A


def _morphism(f):
    """f when it is an AInfMorphism, else ValueError naming its type."""
    if not isinstance(f, AInfMorphism):
        raise ValueError("expected an AInfMorphism, got %s" % type(f).__name__)
    return f


def _expand(field, vecs, value):
    """The multilinear extension of value(label tuple) to vecs, fresh.

    Tuples are visited in itertools.product order over the vectors'
    own item orders, each with the product of its coefficients, and
    the sum accumulates by vec_add's rule (a key that cancels is
    deleted), so the output keys come in the same order as summing
    Scalar by Scalar would give them.

    Values are raw inside the kernel: ints mod p over F_p (left
    unreduced until the end), ints and Fractions over Q.  Each
    coefficient is read once by _raw's rule, inlined for a Scalar over
    field itself; the edge, _canonical, wraps one Scalar per output
    key.
    """
    rows = []
    for vec in vecs:
        row = [(k, c.val if type(c) is Scalar and c.field is field
                else _raw(field, c))
               for k, c in vec.items() if c]
        if not row:
            return {}
        rows.append(row)
    if len(rows) == 1:
        terms = (((k,), c) for k, c in rows[0])
    elif len(rows) == 2:
        last = rows[1]
        terms = (((k1, k2), c1 * c2) for k1, c1 in rows[0] for k2, c2 in last)
    else:
        terms = ((tuple(k for k, _ in combo), prod(c for _, c in combo))
                 for combo in iter_product(*rows))
    p = field.p
    acc = {}
    for args, coeff in terms:
        vec = value(args)
        if not vec:
            continue
        for k, v in vec.items():
            w = coeff * (v.val if type(v) is Scalar and v.field is field
                         else _raw(field, v))
            if k in acc:
                s = acc[k] + w
                if s % p if p else s:
                    acc[k] = s
                else:
                    del acc[k]
            elif w:
                acc[k] = w
    return _canonical(field, acc)


def _raw(field, c):
    """The raw value of one coefficient.

    A Scalar over field itself gives its value; ints and Scalars over
    an equal field are coerced; a Scalar over another field raises
    FieldMismatch and anything else TypeError, as Scalar arithmetic
    does.
    """
    if type(c) is Scalar and c.field is field:
        return c.val
    if isinstance(c, Scalar) or (isinstance(c, int)
                                 and not isinstance(c, bool)):
        return field(c).val
    raise TypeError("coefficient %r is not a scalar over %r" % (c, field))


def _canonical(field, raw):
    """The edge of the raw arithmetic: raw values as canonical Scalars.

    raw maps keys to values nonzero in field: ints mod p, possibly
    unreduced, over F_p; ints and Fractions over Q.  Each comes out
    reduced mod p, or over Q as an int when its denominator is 1.
    """
    p = field.p
    if p:
        return {k: Scalar(field, s % p) for k, s in raw.items()}
    return {k: Scalar(field, s if type(s) is int or s.denominator != 1
                      else s.numerator)
            for k, s in raw.items()}


# ---------------------------------------------------------------------------
# the Stasheff identity checker


class CheckReport:
    def __init__(self, ok, failure=None, checked_to=None, note=None):
        self.ok = ok
        self.failure = failure
        self.checked_to = checked_to
        self.note = note

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CheckReport(pass, n <= %s)" % (self.checked_to,)
        return "CheckReport(fail at %r)" % (self.failure,)


def stasheff_residual(A, args):
    """The n-th identity evaluated on one basis tuple; zero means it holds."""
    n = len(args)
    degs = [A.deg(a) for a in args]
    out = {}
    for s in range(1, n + 1):
        if s > A.arity_bound and s < n:
            continue
        for r in range(0, n - s + 1):
            t = n - s - r
            if r + 1 + t > A.arity_bound:
                continue
            inner = A.eval_m(tuple(args[r:r + s]))
            if not inner:
                continue
            exponent = r + s * t + koszul_pass_exponent(s, degs[:r])
            sign = A.field.sign(exponent)
            for lbl, c in inner.items():
                outer = A.eval_m(tuple(args[:r]) + (lbl,) + tuple(args[r + s:]))
                if outer:
                    vec_add(out, outer, sign * c)
    return vec_clean(out)


def check_ainf_axioms(A, n_max):
    """Verify the Stasheff identities on all basis tuples of arity <= n_max.

    The arity-n residual is a sum of composites m_k o_r m_s with
    s + k = n + 1, so it is computed by a sparse join over the tables:
    every entry of m_s meets the entries of m_k that hold one of its
    output labels at slot r, and the product lands on the tuple it
    comes from.  A tuple that no composite produces has no term, so
    this covers exactly the tuples the replay of stasheff_residual over
    all of them would, and it switches no tuple off.  Returns a
    CheckReport; on failure it carries the first offending
    (n, basis tuple, residual vector) in itertools.product order, the
    residual taken from stasheff_residual on that tuple.
    """
    if _integer(n_max, "n_max") < 1:
        raise ValueError("n_max must be at least 1")
    index = _algebra(A).space.index
    failure = _first_stasheff_failure(A, n_max, index, index)
    if failure:
        return CheckReport(False, failure=failure, checked_to=n_max)
    return CheckReport(True, checked_to=n_max)


def _first_stasheff_failure(A, n_max, first_index, rest_index):
    """(n, tuple, residual) of the first failing tuple, or None.

    Only tuples whose first label is in first_index and whose other
    labels are in rest_index count; they are ordered as
    itertools.product orders them.
    """
    ops = _live_tables(A.m, A.arity_bound)
    outer = _slot_index(ops, A.space.degree, A.field)
    for n in range(1, n_max + 1):
        acc = _insertion_join(ops, outer, n, A.field, 0)
        args = _first_nonzero(acc, first_index, rest_index, A.field)
        if args is not None:
            return (n, args, stasheff_residual(A, args))
    return None


def _live_tables(maps, bound):
    """The tables of arity 1..bound; evaluation ignores anything else."""
    return {n: t for n, t in maps.entries.items() if 1 <= n <= bound and t}


def _slot_index(tables, degree, field):
    """arity k -> (slot r, label at r) -> [(args, row, degree sum of args[:r])].

    row lists the entry's (output label, raw coefficient) pairs, each
    coefficient read once by _raw.
    """
    index = {}
    for k, table in tables.items():
        by_slot = index.setdefault(k, {})
        for args, vec in table.items():
            row = [(o, _raw(field, c)) for o, c in vec.items()]
            before = 0
            for r, lbl in enumerate(args):
                by_slot.setdefault((r, lbl), []).append((args, row, before))
                before += degree.get(lbl, 0)
    return index


def _insertion_join(inner, outer, n, field, shift):
    """sum (-1)^(r + st + shift (s+1) + s deg(a_1..a_r)) outer(1^r x inner_s x 1^t).

    Keyed by (the arity-n tuple each term is evaluated on, output
    label); inner holds tables by arity and outer is a _slot_index.
    With shift 0 this is the Stasheff sum; with shift 1 it is minus the
    insertion side of the morphism identity, as morphism_residual
    subtracts it (_morphism_join).  The values are raw, as in _expand:
    each inner coefficient is read once by _raw, a sign is a negation,
    and nothing is reduced, so an entry may be zero in the field
    (_first_nonzero and _entries_in_order reduce and wrap).
    """
    acc = {}
    for s, table in inner.items():
        k = n + 1 - s
        by_slot = outer.get(k)
        if not by_slot:
            continue
        for in_args, in_vec in table.items():
            for lbl, c in in_vec.items():
                c = _raw(field, c)
                for r in range(k):
                    base = r + s * (k - 1 - r) + shift * (s + 1)
                    for out_args, out_row, before in by_slot.get((r, lbl), ()):
                        args = out_args[:r] + in_args + out_args[r + 1:]
                        coeff = -c if (base + s * before) % 2 else c
                        for o, v in out_row:
                            acc[args, o] = acc.get((args, o), 0) + coeff * v
    return acc


def _first_nonzero(acc, first_index, rest_index, field):
    """The tuple with an entry of acc nonzero in field that
    itertools.product reaches first, among those its two label indexes
    admit."""
    p = field.p
    found = [([first_index[a[0]]] + [rest_index[l] for l in a[1:]], a)
             for (a, _), c in acc.items()
             if (c % p if p else c) and a[0] in first_index
             and all(l in rest_index for l in a[1:])]
    return min(found, default=(None, None))[1]


def check_strict_unit(A):
    """The three strict unit conditions, checked entrywise."""
    if A.unit is None:
        return CheckReport(False, note="no unit declared")
    e = A.unit
    if A.m.get(1, (e,)):
        return CheckReport(False, failure=(1, (e,), A.m.get(1, (e,))))
    one = A.field.one
    for a in A.space.labels:
        left = A.m.get(2, (e, a))
        right = A.m.get(2, (a, e))
        if left != {a: one} or right != {a: one}:
            return CheckReport(False, failure=(2, (e, a), (left, right)))
    failure = _unit_input(A.m, e, 3)
    return CheckReport(failure is None, failure=failure)


def _unit_input(maps, e, lowest):
    """The first nonzero entry (n, args, vec) of arity n >= lowest with e
    among its inputs, or None: a strict unit is an input of no such entry."""
    for n, table in maps.entries.items():
        if n >= lowest:
            for args, vec in table.items():
                if e in args and vec_clean(vec):
                    return n, args, vec
    return None


# ---------------------------------------------------------------------------
# suspension: m-operations versus bar coderivation components


def suspension_exponent(degrees):
    """Parity relating m_n to b_n on elements of the listed A-degrees.

    b_n = - s . m_n . (s^{-1})^n with the Koszul cost of threading the
    n copies of s^{-1} (degree +1 each) past the shifted arguments:
    applying (s^{-1} x ... x s^{-1}) to (s a_1, ..., s a_n) charges
    sum over u < v of |s^{-1}| * deg(s a_u) = sum_{u<v} (deg a_u - 1),
    and the leading minus sign is the global convention fixed by the
    round-trip requirement with the sign-free b-identities.
    """
    e = 1  # the global minus sign
    acc = 0
    for v in range(len(degrees)):
        e += acc
        acc += degrees[v] - 1
    return e


def b_from_m(A):
    """The coderivation components b_n on A[1] from the operations m_n."""
    return m_from_b(A.space, A.field, A.m)


def m_from_b(space, field, b):
    """Inverse of b_from_m; labels keep their unshifted degrees in space.

    The suspension sign depends only on the input degrees, so the same
    rescaling goes both ways.
    """
    out = StructureMaps()
    for n, table in b.entries.items():
        for args, vec in table.items():
            degs = [space.degree[a] for a in args]
            sign = field.sign(suspension_exponent(degs))
            out.set(n, args, vec_scale(vec, sign))
    return out


def b_residual(space_shifted, field, b, args, arity_bound):
    """The sign-free coderivation identity sum b(1^r x b_s x 1^t) on a tuple.

    Degrees are taken in the shifted space; b_n has degree +1 so the
    only signs are Koszul passage signs.
    """
    n = len(args)
    degs = [space_shifted.degree[a] for a in args]
    out = {}
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            t = n - s - r
            if r + 1 + t > arity_bound and r + 1 + t != n:
                continue
            inner = b.get(s, tuple(args[r:r + s]))
            if not inner:
                continue
            sign = field.sign(koszul_pass_exponent(1, degs[:r]))
            for lbl, c in inner.items():
                outer = b.get(r + 1 + t, tuple(args[:r]) + (lbl,) + tuple(args[r + s:]))
                if outer:
                    vec_add(out, outer, sign * c)
    return vec_clean(out)


# ---------------------------------------------------------------------------
# morphisms


class AInfMorphism:
    """Components f_n : A1^n -> A2 of degree 1 - n."""

    def __init__(self, source, target, comps, arity_bound=None, strict_unital=False):
        self.source = source
        self.target = target
        self.f = comps
        self.arity_bound = arity_bound if arity_bound is not None else max(1, comps.max_arity())
        self.strict_unital = strict_unital
        for n, table in comps.entries.items():
            for args, vec in table.items():
                want = sum(source.deg(a) for a in args) + 1 - n
                for out in vec:
                    if target.deg(out) != want:
                        raise ValueError(
                            "f_%d%r violates the degree 1-%d convention" % (n, args, n)
                        )

    def eval_f(self, args):
        n = len(args)
        if n > self.arity_bound:
            return {}
        return self.f.get(n, args)


def identity_morphism(A):
    comps = StructureMaps()
    for lbl in A.space.labels:
        comps.set(1, (lbl,), {lbl: A.field.one})
    return AInfMorphism(A, A, comps, arity_bound=A.arity_bound, strict_unital=A.unit is not None)


def _compositions(n, s):
    """All (i_1, ..., i_s) of positive integers summing to n."""
    if s == 1:
        yield (n,)
        return
    for first in range(1, n - s + 2):
        for rest in _compositions(n - first, s - 1):
            yield (first,) + rest


def _block_terms(f, args, arities):
    """The terms f_{i_1} x ... x f_{i_s} on args, one per split into blocks.

    s runs over the listed arities (ascending) and the blocks of sizes
    i_1..i_s over the compositions of n.  A split is skipped as soon as
    one of its pieces vanishes; the surviving ones come with the Koszul
    exponent of evaluating the tensor of the f's on their blocks.
    Yields (blocks, exponent, pieces).
    """
    n = len(args)
    degs = [f.source.deg(a) for a in args]
    for s in arities:
        if s > n:
            break
        for blocks in _compositions(n, s):
            pieces = []
            block_degs = []
            pos = 0
            for i in blocks:
                piece = f.eval_f(args[pos:pos + i])
                if not piece:
                    break
                pieces.append(piece)
                block_degs.append(sum(degs[pos:pos + i]))
                pos += i
            else:
                op_parities = [(1 - i) % 2 for i in blocks]
                yield blocks, tensor_block_exponent(op_parities, block_degs), pieces


def _printed_exponent(blocks):
    """The printed exponent of the product side of morphism_residual."""
    s = len(blocks)
    return sum((s - 1 - j) * blocks[j] for j in range(s - 1)) + s * (s + 1) // 2


def morphism_residual(f, args):
    """Difference of the two sides of the n-th morphism identity.

    Left side: sum over decompositions of the inputs into s blocks of
    sizes i_1..i_s, with the printed exponent
    (s-1) i_1 + (s-2) i_2 + ... + i_{s-1} + s(s+1)/2
    plus the Koszul cost of evaluating f_{i_1} x ... x f_{i_s}.
    Right side: sum (-1)^(r + st + s) f_{r+1+t} (1^r x m_s x 1^t).
    It names the witness of a failed check_ainf_morphism; the checker
    and minimal_model read the same sums off the sparse joins.
    """
    A1, A2 = f.source, f.target
    args = tuple(args)
    n = len(args)
    out = {}
    for blocks, exponent, pieces in _block_terms(f, args, A2.m.arities()):
        vec_add(out, A2.eval_m_vectors(pieces),
                A1.field.sign(_printed_exponent(blocks) + exponent))
    degs = [A1.deg(a) for a in args]
    for s in A1.m.arities():
        if s > n:
            break
        for r in range(0, n - s + 1):
            t = n - s - r
            if r + 1 + t > f.arity_bound:
                continue
            inner = A1.eval_m(args[r:r + s])
            if not inner:
                continue
            exponent = r + s * t + s + koszul_pass_exponent(s, degs[:r])
            sign = A1.field.sign(exponent)
            for lbl, c in inner.items():
                piece = f.eval_f(args[:r] + (lbl,) + args[r + s:])
                if piece:
                    vec_add(out, piece, -sign * c)
    return vec_clean(out)


def check_ainf_morphism(f, n_max):
    """Verify the morphism identities on all basis tuples of arity <= n_max.

    Both sides are sparse joins over the tables, as in
    check_ainf_axioms: f o (1^r x m_s x 1^t) joins the entries of m_s
    with the f-entries that hold an output label at slot r, and
    sum m_s(f_{i_1} x ... x f_{i_s}) joins each entry of m_s with the
    f-entries whose outputs hold its inputs.  This covers exactly the
    tuples the replay of morphism_residual over all of them would; the
    first failing tuple in itertools.product order is reported with its
    morphism_residual.  Arities above the component bound of f are
    reported as unchecked rather than failed.
    """
    top = min(_integer(n_max, "n_max"), _morphism(f).arity_bound)
    note = None
    if top < n_max:
        note = "arities %d..%d not checked (component bound %d)" % (
            top + 1, n_max, f.arity_bound)
    A1 = f.source
    inner = _live_tables(A1.m, A1.arity_bound)
    comps = _live_tables(f.f, f.arity_bound)
    ops = _live_tables(f.target.m, f.target.arity_bound)
    index = A1.space.index
    for n in range(1, top + 1):
        acc = _morphism_join(comps, inner, ops, A1.space.degree, n, A1.field)
        args = _first_nonzero(acc, index, index, A1.field)
        if args is not None:
            return CheckReport(False, failure=(n, args, morphism_residual(f, args)),
                               checked_to=top, note=note)
    if f.strict_unital:
        rep = check_strict_unital_morphism(f)
        if not rep.ok:
            return rep
    return CheckReport(True, checked_to=top, note=note)


def _morphism_join(comps, inner, ops, degree, n, field):
    """morphism_residual on every arity-n tuple at once, keyed by
    (tuple, output label): the insertion join of the source tables
    inner into the components comps, plus the block join of comps into
    the target tables ops; degree is the source's.  Values are raw, as
    the two joins leave them."""
    acc = _insertion_join(inner, _slot_index(comps, degree, field), n,
                          field, 1)
    _block_join(ops, _output_index(comps, degree, field), n, field, acc,
                _printed_exponent)
    return acc


def _output_index(comps, degree, field):
    """output label -> arity i -> [(args, raw coefficient, degree sum of args)].

    Each coefficient is read once by _raw.
    """
    index = {}
    for i, table in comps.items():
        for args, vec in table.items():
            total = sum(degree.get(a, 0) for a in args)
            for lbl, c in vec.items():
                index.setdefault(lbl, {}).setdefault(i, []).append(
                    (args, _raw(field, c), total))
    return index


def _block_join(ops, by_output, n, field, acc, printed_exponent):
    """Add sum (-1)^e m_s(f_{i_1} x ... x f_{i_s}) on the arity-n tuples.

    e is printed_exponent(blocks) plus the Koszul cost of evaluating
    the tensor of the f's on their blocks: _printed_exponent gives the
    product side of morphism_residual (_morphism_join), and no printed
    sign gives a composite of morphisms (compose_morphisms).  Each
    entry m_s(b_1..b_s) meets, block by block, the f-entries of arity
    i_j whose output holds b_j; the tuple is their inputs concatenated.
    by_output is an _output_index, and acc takes raw values as
    _insertion_join leaves them: the f-coefficients multiply as raw
    values, a sign is a negation, and each entry of m_s is read by _raw
    once per block split it meets.
    """
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
                row = [(o, _raw(field, v)) for o, v in m_vec.items()]
                for combo in iter_product(*choices):
                    args = ()
                    coeff = 1
                    for f_args, c, _ in combo:
                        args += f_args
                        coeff *= c
                    if (printed + tensor_block_exponent(
                            op_parities, [total for _, _, total in combo])) % 2:
                        coeff = -coeff
                    for o, v in row:
                        acc[args, o] = acc.get((args, o), 0) + coeff * v


def _entries_in_order(acc, index, out_index, field):
    """The (tuple, vector) pairs of a join's raw accumulator: entries
    zero in field left out, tuples in itertools.product order, outputs
    in label order, coefficients wrapped by _canonical."""
    p = field.p
    entries = {}
    for (args, o), c in acc.items():
        if c % p if p else c:
            entries.setdefault(args, []).append((out_index[o], o, c))
    for args in sorted(entries, key=lambda a: [index[l] for l in a]):
        yield args, _canonical(
            field, {o: c for _, o, c in sorted(entries[args])})


def check_strict_unital_morphism(f):
    e1, e2 = f.source.unit, f.target.unit
    if e1 is None or e2 is None:
        return CheckReport(False, note="strict unitality requires units on both sides")
    if f.eval_f((e1,)) != {e2: f.source.field.one}:
        return CheckReport(False, failure=(1, (e1,), f.eval_f((e1,))))
    failure = _unit_input(f.f, e1, 2)
    return CheckReport(failure is None, failure=failure)


def compose_morphisms(g, f, arity_bound=None):
    """g after f, with components (g . f)_n = sum g_s (f_{i_1} x ... x f_{i_s}).

    The composite of two A-infinity morphisms; signs are pure Koszul
    block signs since no operations move past arguments.  Each
    component is read off _block_join, with g in place of m and no
    printed sign, so only the tuples some composite produces are
    visited.  Entries come in itertools.product order over the source
    labels and outputs in the target's label order.
    """
    if _morphism(f).target is not _morphism(g).source:
        raise ValueError("morphisms do not compose")
    bound = arity_bound or min(f.arity_bound, g.arity_bound)
    A1 = f.source
    ops = _live_tables(g.f, g.f.max_arity())
    by_output = _output_index(_live_tables(f.f, f.arity_bound),
                              A1.space.degree, A1.field)
    index, out_index = A1.space.index, g.target.space.index
    comps = StructureMaps()
    for n in range(1, bound + 1):
        acc = {}
        _block_join(ops, by_output, n, A1.field, acc, lambda blocks: 0)
        for args, vec in _entries_in_order(acc, index, out_index, A1.field):
            comps.set(n, args, vec)
    return AInfMorphism(f.source, g.target, comps, arity_bound=bound,
                        strict_unital=f.strict_unital and g.strict_unital)


# ---------------------------------------------------------------------------
# unitization and tensor product


def unitize(A, unit_label="e"):
    """Adjoin a strict unit: k 1 + A with the unit laws and nothing else."""
    if unit_label in _algebra(A).space.index:
        raise ValueError("label %r already used" % (unit_label,))
    basis = [(unit_label, 0)] + [(l, A.space.degree[l]) for l in A.space.labels]
    space = GradedSpace(basis)
    ops = A.m.copy()
    _unit_laws(ops, unit_label, A.space.labels, A.field.one)
    return AInfAlgebra(space, A.field, ops,
                       arity_bound=max(A.arity_bound, 2),
                       unit=unit_label,
                       complete_to_arity=A.complete_to_arity)


def _unit_laws(ops, unit, labels, one):
    """Write m_2(unit, unit) = unit, then m_2(unit, l) = m_2(l, unit) = l
    for every other label l, in label order: the strict unit laws."""
    ops.set(2, (unit, unit), {unit: one})
    for l in labels:
        if l != unit:
            ops.set(2, (unit, l), {l: one})
            ops.set(2, (l, unit), {l: one})


def restrict_to_ideal(A):
    """Structure maps of the augmentation ideal; checks closure under all m_n."""
    ideal = set(A.ideal_labels())
    out = StructureMaps()
    for n, table in A.m.entries.items():
        for args, vec in table.items():
            if all(a in ideal for a in args):
                for lbl in vec:
                    if lbl not in ideal:
                        raise ValueError(
                            "augmentation ideal is not closed: m_%d%r hits %r"
                            % (n, args, lbl))
                out.set(n, args, dict(vec))
    return out


def tensor_with_dg(A, C):
    """The A-infinity structure on A x C for a finite DG algebra C.

    m_1 is m_1 x 1 + 1 x d_C; for n >= 2,
    m_n(a_1 x c_1, ..., a_n x c_n) =
        (-1)^(sum_{i<j} deg(a_j) deg(c_i)) m_n(a_1..a_n) x c_1...c_n.

    Each entry of A is regrouped only against the words c_1 .. c_n
    whose product is nonzero (_base_words), in itertools.product order.
    """
    if _algebra(C).m.max_arity() > 2:
        raise ValueError("tensor factor must be a DG algebra (arity <= 2)")
    field = _algebra(A).field
    if C.field != field:
        raise ValueError("tensor factors live over different fields")
    basis = []
    for a in A.space.labels:
        for c in C.space.labels:
            basis.append(((a, c), A.deg(a) + C.deg(c)))
    space = GradedSpace(basis)
    ops = StructureMaps()
    # differential
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
    # higher operations
    words = _base_words(C, A.m.max_arity())
    for n, table in A.m.entries.items():
        if n < 2:
            continue
        for a_args, a_vec in table.items():
            a_degs = [A.deg(a) for a in a_args]
            for c_args, c_prod in words[n - 1].items():
                args = tuple(zip(a_args, c_args))
                ops.set(n, args, _regrouped(a_vec, a_degs, C, c_args, c_prod))
    unit = None
    if A.unit is not None and C.unit is not None:
        unit = (A.unit, C.unit)
    return AInfAlgebra(space, field, ops, arity_bound=A.arity_bound,
                       unit=unit,
                       complete_to_arity=A.complete_to_arity)


def _base_words(C, n):
    """The nonzero ordered products of basis labels of C, by length.

    Entry k of the list is a dict from each word of length k + 1 whose
    product is nonzero to that product, in itertools.product order over
    C's labels.  Words are built by prefix extension: a word whose
    prefix product vanishes vanishes too, so only nonzero prefixes are
    extended.
    """
    layers = [{(c,): {c: C.field.one} for c in C.space.labels}]
    while len(layers) < n:
        last = layers[-1]
        layers.append({word + (c,): vec for word, products in zip(
            last, _right_products(C, last.values(), C.space.labels))
                       for c, vec in products})
    return layers


def _right_products(C, vecs, labels):
    """Yield for each v in vecs [(y, v y)] over the listed labels y, in order.

    Zero products are left out.  The m_2 entries of C are indexed by
    their first slot, so each v takes one _expand, whose output keys
    (i, k), i the position of y in labels, carry every v y at once; each
    product comes out with the keys and values of
    _expand(C.field, [v, {y: 1}], m_2).
    """
    rank = {y: i for i, y in enumerate(labels)}
    by_first = {}
    for (x, y), vec in C.m.entries.get(2, {}).items():
        if y in rank:
            by_first.setdefault((x,), {}).update(
                ((rank[y], k), c) for k, c in vec.items())
    for v in vecs:
        split = {}
        for (i, k), c in _expand(C.field, [v], by_first.get).items():
            split.setdefault(i, {})[k] = c
        yield [(labels[i], split[i]) for i in sorted(split)]


def _regrouped(a_vec, a_degs, C, c_args, c_prod):
    """a_vec x c_prod with the sign of regrouping A x C factors.

    Gathering (a_1 x c_1) ... (a_n x c_n) into (a_1 ... a_n) x (c_1 ... c_n)
    moves each c_i past the later a_j, which costs
    sum_{i<j} deg(a_j) deg(c_i); a_vec is the value on a_1 .. a_n of
    whatever map acts on the A-factors, and c_prod is the nonzero
    product c_1 ... c_n in C (_base_words).  The coefficients multiply
    as raw values (_raw), the sign parity negates, and _canonical wraps
    the products.
    """
    field = C.field
    odd = tensor_block_exponent(a_degs, [C.deg(c) for c in c_args]) % 2
    c_row = [(out_c, _raw(field, cc)) for out_c, cc in c_prod.items()]
    out = {}
    for out_a, ca in a_vec.items():
        ca = _raw(field, ca)
        if odd:
            ca = -ca
        for out_c, cc in c_row:
            w = ca * cc
            if w:
                out[(out_a, out_c)] = w
    return _canonical(field, out)


# ---------------------------------------------------------------------------
# the cohomology algebra


class CohomologyAlgebra:
    """H(A) with the induced product, on chosen representative cocycles."""

    def __init__(self, algebra, reps, cohomologies):
        self.algebra = algebra  # H(A) with the induced m_2 as its only map
        self.space = algebra.space
        self.representatives = reps  # dict label -> vec in A
        self.cohomologies = cohomologies

    def multiply(self, x, y):
        return self.algebra.eval_m_vectors([x, y])


def cohomology_algebra(A):
    """The graded algebra H(A) with the product induced by m_2.

    Checks, exactly: products of cocycle representatives are cocycles,
    and boundaries multiply to boundaries (so the product is well
    defined on classes).  Associativity of the induced product is not
    checked.
    """
    cx = _algebra(A).complex()
    cohs = {}
    reps = {}
    labels = []
    for d in A.space.degrees_present():
        h = cx.cohomology(d)
        if h.dim:
            cohs[d] = h
            for idx, rep in enumerate(h.representatives):
                lbl = ("h", d, idx)
                labels.append((lbl, d))
                reps[lbl] = rep
    hspace = GradedSpace(labels)
    product = StructureMaps()
    for lx, vx in reps.items():
        for ly, vy in reps.items():
            prod = A.eval_m_vectors([vx, vy])
            if not vec_is_zero(cx.apply_d(prod)):
                raise ValueError("product of cocycles fails to be a cocycle")
            d = hspace.degree[lx] + hspace.degree[ly]
            vec = {}
            if prod:
                h = cohs.get(d)
                if h is None:
                    if not cx.cohomology(d).class_is_zero(prod):
                        raise ValueError("product escapes the computed cohomology")
                else:
                    for pos, c in h.project(prod).items():
                        vec[("h", d, pos)] = c
            product.set(2, (lx, ly), vec)
    for d, h in cohs.items():
        for b in h.boundaries.rows:
            for lx, vx in reps.items():
                for prod in (A.eval_m_vectors([b, vx]), A.eval_m_vectors([vx, b])):
                    dd = A.space.degree_of_vec(prod)
                    # cohs holds the same memoised objects as cx.cohomology
                    if dd is not None and not cx.cohomology(dd).class_is_zero(prod):
                        raise ValueError("a boundary multiplies to a nonzero class")
    return CohomologyAlgebra(
        AInfAlgebra(hspace, A.field, product, arity_bound=2), reps, cohs)


def degree_certified_arity_bound(A):
    """Largest arity that degree support cannot rule out, or None.

    m_n sends input degrees (d_1..d_n) to sum(d_i) + 2 - n, that is,
    sum(d_i - 1) + 2; see _degree_window_bound.
    """
    return _degree_window_bound(A, set(A.space.degree.values()), 2)


def _degree_window_bound(A, out_degs, offset):
    """Largest arity of a map out of A that out_degs leaves open, or None.

    The arity-n map has degree offset - n, so it sends input degrees
    (d_1..d_n) to sum(d_i - 1) + offset.  Strict unitality keeps units
    out of every arity above offset, so there the slots range over the
    other labels; when their shifted degrees d - 1 are all of one sign
    the reachable output window slides monotonically out of out_degs
    and the first empty window certifies the bound.  When they are all
    zero the output degree is offset at every arity.  Mixed signs
    certify nothing (returns None).
    """
    out_lo, out_hi = min(out_degs), max(out_degs)
    slot_degs = {A.space.degree[l] for l in A.space.labels if l != A.unit}
    if not slot_degs:
        return offset
    lo, hi = min(slot_degs) - 1, max(slot_degs) - 1
    if lo == hi == 0:
        return None if offset in out_degs else offset
    if lo <= 0 <= hi:
        return None
    for n in count(offset + 1):
        if lo > 0 and n * lo + offset > out_hi or \
                hi < 0 and n * hi + offset < out_lo:
            return n - 1
