"""MC(R) lifted along the tower against the exhaustive sweep it replaced.

DeformationSetup.enumerate_mc lifts {} over R/m = k through
R/m^2, .., R one small extension at a time (SmallExtension).  The exhaustive
sweep lives on as enumerate_mc_oracle in tests/oracles.py; both must
give the same elements in the same order, with the same keys in the
same order.  lift_mc shares the per-level extension, whose particular
solution must be the one span_coordinates_oracle gives on the columns
of m_1.
"""

import random

import pytest

import barmc.ainfinity as ainfinity_module
from barmc.ainfinity import AInfAlgebra, StructureMaps, _base_words
from barmc.artin import (
    ArtinianDGAlgebra,
    _ideal_powers,
    _is_commutative,
    fiber_product,
    quotient_by_power,
    square_zero,
    truncated_polynomial,
)
from barmc.bar import dual_dg_algebra, is_admissible
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import kpoints, njac, random_instance, xy
from barmc.linalg import GradedSpace, vec_add, vec_clean
import barmc.mc as mc_module
from barmc.mc import (
    DeformationSetup,
    SmallExtension,
    enumerate_mc,
    lift_mc,
    pi0,
)
from barmc.scalars import Field

from oracles import (
    base_product_oracle,
    base_words_oracle,
    enumerate_mc_oracle,
    ideal_powers_oracle,
    is_commutative_oracle,
    kernel_oracle,
    span_coordinates_oracle,
    tower_coordinates_oracle,
)
from test_mc import negative_base
from test_twisting import local_noncommutative

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def poly(field, n):
    return lambda: truncated_polynomial(field, n)


def xyz(field):
    """x, z in degree 1 and y in degree 2 with x x = y = d(z).

    Over k[t]/t^3 the section x t of a point over k[t]/t^2 has residual
    -y t^2 = -d(z t^2), so its lift needs the correction -z t^2: the
    particular solution of a fibre is not zero here.
    """
    space = GradedSpace([("1", 0), ("x", 1), ("z", 1), ("y", 2)])
    ops = StructureMaps()
    one = field.one
    for l in space.labels:
        ops.set(2, ("1", l), {l: one})
        if l != "1":
            ops.set(2, (l, "1"), {l: one})
    ops.set(2, ("x", "x"), {"y": one})
    ops.set(1, ("z",), {"y": one})
    return AInfAlgebra(space, field, ops, arity_bound=2,
                       unit="1")


ORACLE_CASES = {
    "kpoints(F2,3)/t^5": (lambda: kpoints(F2, 3), poly(F2, 5)),
    "kpoints(F2,2)/t^4": (lambda: kpoints(F2, 2), poly(F2, 4)),
    "kpoints(F2,2)/t^5": (lambda: kpoints(F2, 2), poly(F2, 5)),
    "njac(F3,2)/t^3": (lambda: njac(F3, 2), poly(F3, 3)),
    "xy(F2)/t^4": (lambda: xy(F2), poly(F2, 4)),
    "kpoints(F5,2)/t^3": (lambda: kpoints(F5, 2), poly(F5, 3)),
    "xyz(F2)/t^4": (lambda: xyz(F2), poly(F2, 4)),
    "xyz(F3)/t^3": (lambda: xyz(F3), poly(F3, 3)),
    "xy(F2)/negative": (lambda: xy(F2), lambda: negative_base(F2)),
    "njac(F2,1)/noncommutative": (lambda: njac(F2, 1),
                                  lambda: local_noncommutative(F2)),
    "xy(F2)/fiber(t^3,t^3)": (
        lambda: xy(F2),
        lambda: fiber_product(truncated_polynomial(F2, 3),
                              truncated_polynomial(F2, 3))),
    "kpoints(F2,2)/fiber(t^4,t^2)": (
        lambda: kpoints(F2, 2),
        lambda: fiber_product(truncated_polynomial(F2, 4),
                              truncated_polynomial(F2, 2))),
}


COORDINATE_CASES = dict(ORACLE_CASES, **{
    "xy(F2)/square_zero": (
        lambda: xy(F2), lambda: square_zero(F2, [("m1", 0), ("m2", -1)])),
    "njac(F3,1)/square_zero_d": (
        lambda: njac(F3, 1),
        lambda: square_zero(F3, [("u", -1), ("v", 0)], d={"u": {"v": 1}})),
})


@pytest.mark.parametrize("case", sorted(COORDINATE_CASES))
def test_tower_coordinates_match_the_tagged_solver(case):
    """On every level of the tower, coordinates over the kernel rows are
    the tagged solver's, key by key: on random vectors of A x I, on the
    images of m_1 and on the residuals of sections of downstairs MC
    points.  A vector off A x I is refused by both alike."""
    make_a, make_r = COORDINATE_CASES[case]
    rng = random.Random(case)
    for setup in DeformationSetup(make_a(), make_r()).chain():
        ext, field = setup.extension, setup.field
        one = field.one
        vecs = [ext.embed({l: field(rng.randint(0, 4))
                           for l in rng.sample(ext.space.labels,
                                               min(3, ext.space.dim()))})
                for _ in range(8)]
        vecs += [setup.T.eval_m_vectors([ext.embed({l: one})])
                 for l in ext.space.labels]
        points = setup.below.enumerate_mc(1 << 12) if setup.nu > 2 else [{}]
        vecs += [setup.mc_residual(a) for a in points[:12]]
        assert [list(ext.coordinates(v).items()) for v in vecs] == \
            [list(tower_coordinates_oracle(ext, v).items()) for v in vecs]
        kept = [r for r in ext.Rbar.space.labels if r != setup.R.unit]
        a = setup.A.space.labels[-1]
        off = [{(a, setup.R.unit): one}]
        off += [vec_add({(a, kept[0]): one}, vecs[0])] if kept else []
        for v in off:
            for coords in (ext.coordinates,
                           lambda v: tower_coordinates_oracle(ext, v)):
                with pytest.raises(MathCheckFailure,
                                   match="escapes the kernel layer"):
                    coords(v)


def _items(elements):
    return [list(a.items()) for a in elements]


def _assert_matches_oracle(setup, cap):
    got = setup.enumerate_mc(cap)
    want = enumerate_mc_oracle(setup, cap)
    assert _items(got) == _items(want)
    return got


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_tower_enumeration_matches_the_sweep(case):
    make_a, make_r = ORACLE_CASES[case]
    setup = DeformationSetup(make_a(), make_r())
    assert _assert_matches_oracle(setup, 1 << 12)


def test_tower_enumeration_matches_the_sweep_on_random_draws():
    compared = deep = partial = 0
    for field, draws in ((F2, range(24)), (F3, range(12))):
        for i in draws:
            A, R, _ = random_instance(field, i)
            setup = DeformationSetup(A, R)
            try:
                want = enumerate_mc_oracle(setup, cap=4096)
            except HypothesisNotMet:
                with pytest.raises(HypothesisNotMet):
                    setup.enumerate_mc(cap=4096)
                continue
            assert _items(setup.enumerate_mc(cap=4096)) == _items(want)
            compared += 1
            deep += R.nu > 2
            labels = setup.ideal_labels_of_degree(1)
            partial += len(want) < field.p ** len(labels)
    assert compared >= 20 and deep >= 5 and partial >= 5


def test_kpoints_over_t6_has_every_candidate():
    # every degree-1 element of kpoints x m_R squares to zero: 2^(3*5)
    assert len(enumerate_mc(kpoints(F2, 3), truncated_polynomial(F2, 6))) \
        == 32768


def test_refusals_are_unchanged():
    with pytest.raises(HypothesisNotMet):
        enumerate_mc(xy(Field.rationals()),
                     truncated_polynomial(Field.rationals(), 3))
    with pytest.raises(HypothesisNotMet):
        enumerate_mc(kpoints(F2, 2), truncated_polynomial(F2, 3), cap=8)


def test_over_the_ground_field_only_zero():
    assert enumerate_mc(xy(F2), truncated_polynomial(F2, 1)) == [{}]


def test_enumeration_evaluates_few_residuals(monkeypatch):
    calls = []
    original = DeformationSetup.mc_residual

    def counted(self, alpha):
        calls.append(1)
        return original(self, alpha)

    monkeypatch.setattr(DeformationSetup, "mc_residual", counted)
    found = enumerate_mc(kpoints(F2, 3), truncated_polynomial(F2, 5))
    assert len(found) == 4096
    # one per point of each lower level, plus one certificate per top
    # fibre: 1 + 8 + 64 + 2 * 512; the sweep made 4,096
    assert len(calls) <= 1200


@pytest.mark.parametrize("A, R, alpha0, lifted, want", [
    (kpoints(F2, 2), truncated_polynomial(F2, 6), {("e1", "t"): F2.one},
     True, 13),
    (xy(F2), truncated_polynomial(F2, 4), {("x", "t"): F2.one}, False, 3),
], ids=["lifted", "obstructed"])
def test_lift_evaluates_each_residual_once(monkeypatch, A, R, alpha0, lifted,
                                           want):
    """The seed's check, then per level residual(alpha~), the seeded
    second lift and the lifted element's check: 1 + 3 * 4 over t^6.

    Over t^4, xy is obstructed at the first level, before its check.
    """
    calls = []
    original = DeformationSetup.mc_residual

    def counted(self, alpha):
        calls.append(1)
        return original(self, alpha)

    monkeypatch.setattr(DeformationSetup, "mc_residual", counted)
    assert lift_mc(A, R, alpha0).ok == lifted
    assert len(calls) == want


def test_lift_builds_each_quotient_once(monkeypatch):
    """One quotient per level of the chain: R/m^5, .., R/m^2 over t^6.

    lift_mc also built R/m^2 directly, only to compare its labels with
    the chain's bottom; test_the_chain_bottom_is_the_direct_quotient
    makes that comparison instead.
    """
    calls = []
    original = mc_module.quotient_by_power

    def counted(R, n):
        calls.append((R.nu, n))
        return original(R, n)

    monkeypatch.setattr(mc_module, "quotient_by_power", counted)
    assert lift_mc(kpoints(F2, 2), truncated_polynomial(F2, 6),
                   {("e1", "t"): F2.one})
    assert calls == [(6, 5), (5, 4), (4, 3), (3, 2)]


@pytest.mark.parametrize("n", [3, 4])
def test_a_skipped_correction_is_caught(monkeypatch, n):
    """A step that forgets eta0 leaves non-MC points and a certificate fires.

    Over t^3 the top-level residual check catches x t; over t^4 the
    residual of x t at the next level leaves A x I first.
    """
    original = SmallExtension.lift

    def lazy(self, alpha_bar, residual):
        lifted = original(self, alpha_bar, residual)
        return None if lifted is None else vec_clean(dict(alpha_bar))

    setup = DeformationSetup(xyz(F3), truncated_polynomial(F3, n))
    # the honest lifts of x t carry a z t^2 correction
    assert any(a == "z" for alpha in setup.enumerate_mc() for a, _ in alpha)
    monkeypatch.setattr(SmallExtension, "lift", lazy)
    with pytest.raises(MathCheckFailure):
        setup.enumerate_mc()


# ---------------------------------------------------------------------------
# lift_mc runs on the same extensions


def _seeds(A, R):
    return DeformationSetup(A, quotient_by_power(R, 2)[0]).enumerate_mc()


LIFT_CASES = (
    [(xy(F2), truncated_polynomial(F2, n), a)
     for n in (3, 4) for a in ({}, {("x", "t"): F2.one})]
    + [(njac(F2, 1), truncated_polynomial(F2, n), a)
       for n in (3, 4) for a in _seeds(njac(F2, 1), truncated_polynomial(F2, n))]
    + [(kpoints(f, 2), truncated_polynomial(f, 3), a)
       for f in (F2, F3) for a in _seeds(kpoints(f, 2), truncated_polynomial(f, 3))]
    + [(kpoints(F2, 2), truncated_polynomial(F2, 6), {("e1", "t"): F2.one})]
    # nonzero corrections, with signs that matter
    + [(xyz(F3), truncated_polynomial(F3, 4), a)
       for a in _seeds(xyz(F3), truncated_polynomial(F3, 4))]
)


def _lift_by_oracle(A, R, alpha0):
    """lift_mc's level loop with the oracle solve, checking SmallExtension.lift.

    Returns the lifted element, or None at the first empty fibre.
    """
    levels = {n: quotient_by_power(R, n)[0] for n in range(2, R.nu + 1)}
    current = dict(alpha0)
    for n in range(2, R.nu):
        setup = DeformationSetup(A, levels[n + 1])
        ext = setup.extension
        residual = setup.mc_residual(current)
        src = ext.space.labels_of_degree(1)
        sol = span_coordinates_oracle([ext.complex.d.get(l, {}) for l in src],
                                      ext.field, ext.coordinates(residual))
        got = ext.lift(current, residual)
        if sol is None:
            assert got is None
            return None
        lift = dict(current)
        vec_add(lift, ext.embed({src[j]: c for j, c in sol.items()}))
        current = vec_clean(lift)
        assert list(got.items()) == list(current.items())
    return current


@pytest.mark.parametrize("index", range(len(LIFT_CASES)))
def test_step_solution_is_the_solve_solution(index):
    A, R, alpha0 = LIFT_CASES[index]
    want = _lift_by_oracle(A, R, alpha0)
    out = lift_mc(A, R, alpha0)
    assert out.ok == (want is not None)
    if out.ok:
        assert list(out.element.items()) == list(want.items())


def test_step_cocycles_span_z1():
    A, R = kpoints(F3, 2), truncated_polynomial(F3, 3)
    ext = DeformationSetup(A, R).extension
    cx = ext.complex
    z1 = len(kernel_oracle(cx.matrix_of_d(1)[0]))
    assert len(ext.cocycles()) == z1
    assert len(ext.cocycle_span()) == 3 ** z1
    for z in ext.cocycles():
        assert not ext.setup.mc_residual(z)


def test_each_level_is_built_once(monkeypatch):
    """enumerate_mc, _gauge_classes and lift_mc walk one shared chain.

    One DeformationSetup per level R/m^5, .., R/m^2, and at most one
    SmallExtension; before the chain, pi0 built the levels below the
    top twice and lift_mc built 7.  lift_mc needs no extension over
    R/m^2, whose points it is given.
    """
    built, extended = [], []
    original = DeformationSetup.__init__
    original_ext = SmallExtension.__init__

    def counting(self, A, R):
        built.append(R.nu)
        original(self, A, R)

    def counting_ext(self, setup):
        extended.append(setup.nu)
        original_ext(self, setup)

    monkeypatch.setattr(DeformationSetup, "__init__", counting)
    monkeypatch.setattr(SmallExtension, "__init__", counting_ext)
    A, R = kpoints(F2, 2), truncated_polynomial(F2, 5)
    assert pi0(A, R).count == 256
    assert sorted(built) == sorted(extended) == [2, 3, 4, 5]
    built.clear()
    extended.clear()
    assert len(enumerate_mc(A, R)) == 256
    assert sorted(built) == sorted(extended) == [2, 3, 4, 5]
    built.clear()
    extended.clear()
    assert lift_mc(A, R, {("e1", "t"): F2.one})
    assert sorted(built) == [2, 3, 4, 5]
    assert sorted(extended) == [3, 4, 5]


def test_tower_builds_the_ideal_power_once(monkeypatch):
    """The kernel rows are the quotient's, at the top power nu - 1."""
    calls = []
    original = ArtinianDGAlgebra.ideal_power_subspace

    def counting(self, n):
        calls.append(n)
        return original(self, n)

    R = truncated_polynomial(F3, 4)
    monkeypatch.setattr(ArtinianDGAlgebra, "ideal_power_subspace", counting)
    ext = DeformationSetup(xy(F3), R).extension
    assert calls == [3]
    assert ext.kernel_rows == [{"t3": F3.one}]


def _small_extension_bases():
    for field in (Q, F2, F3):
        for n in range(2, 7):
            yield truncated_polynomial(field, n)
    yield negative_base(F2)
    yield fiber_product(truncated_polynomial(F3, 3),
                        truncated_polynomial(F3, 2, var="s"))
    for A in (kpoints(F2, 2), njac(F2, 2)):
        for N in (3, 4):
            yield dual_dg_algebra(A, N).as_artinian()
    for field, seeds in ((F2, 24), (F3, 12)):
        for seed in range(seeds):
            yield random_instance(field, seed)[1]


def _product_bases():
    """The bases of this file: the small-extension ones and the sweep's."""
    yield from _small_extension_bases()
    for _, make_r in ORACLE_CASES.values():
        yield make_r()


def _random_vectors(rng, R, count):
    labels = list(R.space.labels)
    field = R.field
    out = []
    for _ in range(count):
        picked = rng.sample(labels, min(len(labels), rng.randint(1, 4)))
        out.append({l: field(rng.randint(-2, 2)) for l in picked})
    return out


def test_base_products_match_the_pair_loop():
    """multiply and d_of run on eval_m_vectors; same items, same order."""
    rng = random.Random(11)
    for R in _product_bases():
        units = [{l: R.field.one} for l in R.space.labels][:12]
        vecs = units + _random_vectors(rng, R, 12)
        for u in vecs:
            assert list(R.d_of(u).items()) == \
                list(base_product_oracle(R.algebra, u).items())
            for v in vecs:
                assert list(R.multiply(u, v).items()) == \
                    list(base_product_oracle(R.algebra, u, v).items())


def test_ideal_powers_are_the_ones_validation_found():
    for R in _product_bases():
        scan = list(_ideal_powers(R.algebra, R.ideal_labels))
        assert len(scan) == R.nu and scan[-1] == []
        assert R.ideal_power(0) == [{l: R.field.one} for l in R.space.labels]
        for n in range(1, R.nu + 3):
            want = scan[n - 1] if n <= len(scan) else []
            assert [list(v.items()) for v in R.ideal_power(n)] == \
                [list(v.items()) for v in want]


def _dual_algebras():
    """S_N of the golden probes and of the admissible random draws at N = 2."""
    for A, N in ((kpoints(Q, 2), 5), (xy(Q), 4), (kpoints(Q, 3), 3)):
        yield dual_dg_algebra(A, N).algebra
    for field in (F2, F3, Q):
        for seed in range(16):
            A = random_instance(field, seed)[0]
            if is_admissible(A):
                yield dual_dg_algebra(A, 2).algebra


def _listed(layers):
    """Nested lists of items, so that comparisons see the key order."""
    if isinstance(layers, dict):
        return [(k, list(v.items())) for k, v in layers.items()]
    return [[list(v.items()) for v in rows] for rows in layers]


def test_first_slot_products_match_the_pair_loops():
    """_ideal_powers and _base_words read the m_2 entries through a
    first-slot index; the per-pair loops they replaced give the same
    rows and words, with the same items in the same order."""
    algebras = [R.algebra for R in _small_extension_bases()]
    algebras += list(_dual_algebras())
    for C in algebras:
        ideal = C.ideal_labels()
        assert _listed(list(_ideal_powers(C, ideal))) == \
            _listed(list(ideal_powers_oracle(C, ideal)))
        n = 3 if len(C.space.labels) < 150 else 2
        assert [_listed(layer) for layer in _base_words(C, n)] == \
            [_listed(layer) for layer in base_words_oracle(C, n)]


def test_universal_base_reads_each_product_a_bounded_number_of_times(
        monkeypatch):
    """Validating S_5 of kpoints(Q, 2) and tensoring with it make at most
    (N + 1) _expand and StructureMaps.get calls per m_2 entry of S_5;
    the per-pair scans made 595,683 and 132,496 _expand calls."""
    counts = {"_expand": 0, "get": 0}
    real_expand, real_get = ainfinity_module._expand, StructureMaps.get

    def expand(*args):
        counts["_expand"] += 1
        return real_expand(*args)

    def get(self, n, args):
        counts["get"] += 1
        return real_get(self, n, args)

    monkeypatch.setattr(ainfinity_module, "_expand", expand)
    monkeypatch.setattr(StructureMaps, "get", get)
    A, N = kpoints(Q, 2), 5
    R = dual_dg_algebra(A, N).as_artinian()
    bound = (N + 1) * len(R.algebra.m.entries[2])
    assert bound == 6 * 2005
    assert counts["_expand"] <= bound and counts["get"] <= bound
    counts.update(_expand=0, get=0)
    DeformationSetup(A, R)
    assert counts["_expand"] <= bound and counts["get"] <= bound


def _kills_m(R, rows):
    """I m = m I = 0 for the span I of rows."""
    one = R.field.one
    return not any(R.multiply(v, {x: one}) or R.multiply({x: one}, v)
                   for v in rows for x in R.ideal_labels)


def test_tower_kernel_is_the_first_power_that_kills_m():
    """I = m^(nu-1) has I m = m I = 0, and no lower power of m has it.

    SmallExtension checks nothing: both products lie in m^nu = 0.
    """
    count = 0
    for R in _small_extension_bases():
        rows = quotient_by_power(R, R.nu - 1)[2]
        assert rows and _kills_m(R, rows)
        for k in range(1, R.nu - 1):
            assert not _kills_m(R, R.ideal_power(k))
        count += 1
    assert count == 15 + 1 + 1 + 4 + 36


def _tables(R):
    return {n: table for n, table in R.algebra.m.entries.items() if table}


def test_the_chain_bottom_is_the_direct_quotient():
    """R/m^(nu-1)/.../m^2 along the chain equals quotient_by_power(R, 2).

    Same labels in the same order, degrees, unit and tables, on every
    base of this module.  At nu = 2 the chain's bottom is R itself.
    """
    bases = [(make_a(), make_r()) for make_a, make_r in ORACLE_CASES.values()]
    bases += [(kpoints(R.field, 1), R) for R in _small_extension_bases()]
    deep = 0
    for A, R in bases:
        chain = DeformationSetup(A, R).chain()
        bottom, direct = chain[-1].R, quotient_by_power(R, 2)[0]
        assert bottom.space.labels == direct.space.labels
        assert bottom.space.degree == direct.space.degree
        assert bottom.unit == direct.unit and bottom.nu == direct.nu
        assert _tables(bottom) == _tables(direct)
        deep += len(chain) > 2
    assert len(bases) == len(ORACLE_CASES) + 57 and deep >= 10


def test_commutativity_reads_the_m2_entries_like_the_sweep():
    """artin._is_commutative against all |R|^2 label pairs.

    On every base of this module, the algebras of its cases, and seeded
    random draws of both, plus a copy of each with one m_2 entry
    planted so that it no longer commutes.
    """
    algebras = [make_r().algebra for _, make_r in ORACLE_CASES.values()]
    algebras += [make_a() for make_a, _ in ORACLE_CASES.values()]
    algebras += [R.algebra for R in _small_extension_bases()]
    for field in (Q, F2, F3):
        for seed in range(12):
            A, R, _ = random_instance(field, seed)
            algebras += [A, R.algebra]
    rng = random.Random(2)
    verdicts = []
    for A in algebras:
        verdicts.append(_is_commutative(A))
        assert verdicts[-1] == is_commutative_oracle(A)
        ops = A.m.copy()
        x, y, out = (rng.choice(A.space.labels) for _ in range(3))
        if x != y and A.deg(out) == A.deg(x) + A.deg(y):
            ops.add(2, (x, y), {out: A.field.one})
            B = AInfAlgebra(A.space, A.field, ops, arity_bound=A.arity_bound)
            assert _is_commutative(B) == is_commutative_oracle(B)
            verdicts.append(_is_commutative(B))
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 80
