"""pi_0 by fibre keys against the pairwise partition it replaced.

_gauge_classes classifies the projections to R/m^(nu-1) first, keys
every element of one fibre by its difference from the downstairs point
modulo B^1(A x I) plus the stabiliser's image, and runs hom tests only
between keyed classes of different fibres in one downstairs class.
The plain greedy loop lives on as gauge_classes_oracle in
tests/oracles.py; both must give the same classes in the same order
with the same members.
"""

import re
from itertools import product

import pytest

from barmc.artin import truncated_polynomial
from barmc.errors import HypothesisNotMet
from barmc.examples import kpoints, njac, random_instance, xy
from barmc.mc import (
    DeformationSetup,
    HomSet,
    MCGroupoid,
    Pi0Report,
    _gauge_classes,
    _vec_key,
    mc_residual,
    pi0,
)
from barmc.scalars import Field
from barmc.twisting import prorep_compare

from oracles import gauge_classes_oracle
from test_mc import negative_base
from test_twisting import local_noncommutative

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def _keys(report):
    return [[_vec_key(v) for v in cls] for cls in report.classes]


def _count_homset_builds(monkeypatch):
    """The (nu, alpha, beta) of every HomSet built from now on."""
    built = []
    real = HomSet.__init__

    def counted(self, setup, alpha, beta, *args, **kwargs):
        built.append((setup.nu, _vec_key(alpha), _vec_key(beta)))
        real(self, setup, alpha, beta, *args, **kwargs)

    monkeypatch.setattr(HomSet, "__init__", counted)
    return built


def _assert_matches_oracle(setup, elements):
    got = _gauge_classes(elements, MCGroupoid(setup))
    want = gauge_classes_oracle(elements, MCGroupoid(setup))
    assert _keys(got) == _keys(want)
    assert [_vec_key(v) for v in got.representatives] == \
        [_vec_key(v) for v in want.representatives]
    return got


# (algebra, base, stride): the oracle runs on every stride-th element
# of the MC set.  kpoints(F2,2) over t^5 has 256 singleton classes, and
# the full pairwise oracle builds 32,640 hom sets there; its count is
# checked on the whole set in test_pi0_kpoints_over_t5_counts_m_squared.
ORACLE_CASES = {
    "kpoints(F2,2)/t^4": (lambda: kpoints(F2, 2),
                          lambda: truncated_polynomial(F2, 4), 1),
    "kpoints(F2,2)/t^5": (lambda: kpoints(F2, 2),
                          lambda: truncated_polynomial(F2, 5), 4),
    "njac(F3,2)/t^3": (lambda: njac(F3, 2),
                       lambda: truncated_polynomial(F3, 3), 1),
    "njac(F2,2)/t^4": (lambda: njac(F2, 2),
                       lambda: truncated_polynomial(F2, 4), 1),
    "xy(F2)/t^5": (lambda: xy(F2), lambda: truncated_polynomial(F2, 5), 1),
    "xy(F2)/negative": (lambda: xy(F2), lambda: negative_base(F2), 1),
    "njac(F2,1)/noncommutative": (lambda: njac(F2, 1),
                                  lambda: local_noncommutative(F2), 1),
    # at nu = 3 both have downstairs classes of two points, so keyed
    # classes of different fibres are merged by hom tests
    "random_instance(F2,5)": (lambda: random_instance(F2, 5)[0],
                              lambda: random_instance(F2, 5)[1], 1),
    "random_instance(F2,20)": (lambda: random_instance(F2, 20)[0],
                               lambda: random_instance(F2, 20)[1], 1),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_tower_classes_match_the_pairwise_oracle(case):
    make_a, make_r, stride = ORACLE_CASES[case]
    setup = DeformationSetup(make_a(), make_r())
    elements = setup.enumerate_mc()[::stride]
    _assert_matches_oracle(setup, elements)


def test_tower_classes_match_the_oracle_on_random_draws():
    compared = deep = merged = 0
    for field, draws in ((F2, range(24)), (F3, range(9))):
        for i in draws:
            A, R, _ = random_instance(field, i)
            setup = DeformationSetup(A, R)
            try:
                elements = setup.enumerate_mc(cap=32)
            except HypothesisNotMet:
                continue
            got = _assert_matches_oracle(setup, elements)
            compared += 1
            deep += R.nu > 2
            merged += got.count < len(elements)
    assert compared >= 20 and deep >= 5 and merged >= 2


def test_tower_keeps_input_order_of_a_shuffled_list():
    setup = DeformationSetup(njac(F2, 1), local_noncommutative(F2))
    elements = setup.enumerate_mc()
    shuffled = elements[1::2] + elements[::2]
    got = _assert_matches_oracle(setup, shuffled)
    assert got.count < len(shuffled)


def test_tower_classes_match_the_oracle_over_q():
    # every coefficient vector in {-1, 0, 1}^3 of njac(Q,1) over the
    # noncommutative base is MC; the stabiliser images are nonzero
    A, R = njac(Q, 1), local_noncommutative(Q)
    setup = DeformationSetup(A, R)
    labels = setup.ideal_labels_of_degree(1)
    elements = []
    for coeffs in product((-1, 0, 1), repeat=len(labels)):
        alpha = {l: Q(c) for l, c in zip(labels, coeffs) if c}
        if not mc_residual(A, R, alpha):
            elements.append(alpha)
    assert len(elements) == 27
    got = _assert_matches_oracle(setup, elements)
    assert got.count == 11
    assert sum(_column(got, "stabiliser_rank")) > 0


def _column(report, name):
    """One LEVEL_FIELDS column of report.levels, bottom level first."""
    col = Pi0Report.LEVEL_FIELDS.index(name)
    return [row[col] for row in report.levels]


def _assert_only_downstairs_self_homsets(built, top_nu):
    assert all(a == b for _, a, b in built)
    assert all(nu < top_nu for nu, _, _ in built)
    assert len(set(built)) == len(built)


def test_tower_prunes_the_pairwise_hom_tests(monkeypatch):
    setup = DeformationSetup(kpoints(F2, 2), truncated_polynomial(F2, 4))
    groupoid = MCGroupoid(setup)
    elements = setup.enumerate_mc()
    built = _count_homset_builds(monkeypatch)
    rep = _gauge_classes(elements, groupoid)
    assert rep.count == 64
    # 64 * 63 / 2 = 2016 hom sets without the tower
    _assert_only_downstairs_self_homsets(built, setup.nu)
    assert _column(rep, "nu") == [2, 3, 4]
    assert _column(rep, "pairwise_tests") == [0, 0, 0]


def test_prorep_compare_builds_only_downstairs_self_homsets(monkeypatch):
    built = _count_homset_builds(monkeypatch)
    rep = prorep_compare(njac(F3, 2), truncated_polynomial(F3, 3), 3)
    assert rep.ok and rep.lhs == rep.rhs == 81
    _assert_only_downstairs_self_homsets(built, 3)
    assert _column(rep.classes, "pairwise_tests") == [0, 0]


def test_pi0_kpoints_over_t5_counts_m_squared():
    # every MC element is its own class: |m_R|^2 = 16^2
    rep = pi0(kpoints(F2, 2), truncated_polynomial(F2, 5))
    assert rep.count == 256
    assert all(len(cls) == 1 for cls in rep.classes)


def test_pi0_njac_f3_over_t4_counts_free_h0_maps():
    # H^0(S) is free on two generators: |m_R|^2 = 27^2
    rep = pi0(njac(F3, 2), truncated_polynomial(F3, 4))
    assert rep.count == 729


def test_groupoid_certifies_each_object_once(monkeypatch):
    R = truncated_polynomial(F2, 3)
    # enumerated over a setup of their own, so none is certified here yet
    elements = DeformationSetup(xy(F2), R).enumerate_mc()
    setup = DeformationSetup(xy(F2), R)
    groupoid = MCGroupoid(setup)
    calls = []
    real = setup.mc_residual

    def counted(alpha):
        calls.append(_vec_key(alpha))
        return real(alpha)

    monkeypatch.setattr(setup, "mc_residual", counted)
    for a in elements:
        for b in elements:
            groupoid.hom(a, b)
    _gauge_classes(elements, groupoid)
    assert sorted(calls) == sorted(_vec_key(a) for a in elements)


def test_pi0_evaluates_no_residual_past_the_enumeration(monkeypatch):
    """enumerate_mc enters the points it certified at every level into
    is_mc's memory, so _gauge_classes evaluates no residual of its own:
    pi0(kpoints(F2,2), poly 4) made 121 residuals, 84 of them repeats."""
    A, R = kpoints(F2, 2), truncated_polynomial(F2, 4)
    calls = []
    real = DeformationSetup.mc_residual

    def counted(self, alpha):
        calls.append(1)
        return real(self, alpha)

    monkeypatch.setattr(DeformationSetup, "mc_residual", counted)
    assert len(DeformationSetup(A, R).enumerate_mc()) == 64
    enumerated = len(calls)
    calls.clear()
    assert pi0(A, R).count == 64
    assert len(calls) == enumerated == 37


def test_groupoid_refuses_a_non_mc_object_every_time(monkeypatch):
    setup = DeformationSetup(xy(F2), truncated_polynomial(F2, 3))
    groupoid = MCGroupoid(setup)
    mc = setup.enumerate_mc()[0]
    bad = {("x", "t"): F2.one}
    assert setup.mc_residual(bad)
    built = _count_homset_builds(monkeypatch)
    groupoid.hom(mc, mc)
    for pair in ((mc, bad), (bad, mc), (mc, bad)):
        with pytest.raises(HypothesisNotMet):
            groupoid.hom(*pair)
    assert len(built) == 1
    for elements in ([mc, bad], [bad]):
        with pytest.raises(HypothesisNotMet):
            _gauge_classes(elements, MCGroupoid(setup))


def test_class_index_of_agrees_with_a_scan():
    A, R = njac(F2, 1), local_noncommutative(F2)
    rep = pi0(A, R)
    assert rep.count < sum(len(cls) for cls in rep.classes)
    for alpha in DeformationSetup(A, R).enumerate_mc():
        (i,) = [i for i, cls in enumerate(rep.classes)
                if any(_vec_key(v) == _vec_key(alpha) for v in cls)]
        assert rep.class_index_of(alpha) == i
    assert rep.class_index_of({("x1", "a"): F2.one,
                               ("1", "b"): F2.one}) is None
    assert Pi0Report([]).class_index_of({}) is None


def test_lookups_ignore_how_a_zero_is_written(monkeypatch):
    """{} and {x t: 0} are one element to class_index_of, is_mc and
    MCMorphism equality; a zero on a foreign label is still refused."""
    R = truncated_polynomial(F2, 3)
    padded = {("x", "t"): F2.zero}
    rep = pi0(xy(F2), R)
    assert rep.class_index_of({}) == rep.class_index_of(padded) == 0
    groupoid = MCGroupoid(DeformationSetup(xy(F2), R))
    one = groupoid.setup.one_vec
    assert groupoid.hom(padded, {}).classify(one) == \
        groupoid.hom({}, {}).classify(one)
    calls = []
    monkeypatch.setattr(groupoid.setup, "mc_residual",
                        lambda alpha: calls.append(alpha) or {})
    assert groupoid.setup.is_mc(padded)
    assert calls == []
    with pytest.raises(ValueError, match="zz"):
        groupoid.setup.is_mc({("zz", "t"): F2.zero})
    # composable when the shared end is written with an extra zero
    groupoid = MCGroupoid(DeformationSetup(kpoints(F2, 2), R))
    a = {("e1", "t"): F2.one}
    a_padded = {("e1", "t"): F2.one, ("e1", "t2"): F2.zero}
    loop = groupoid.hom(a, a).orbits()[0]
    composed = groupoid.compose(loop, groupoid.hom(a_padded, a).orbits()[0])
    assert composed in groupoid.hom(a, a).orbits()


@pytest.mark.parametrize("bad, name", [
    ([(("x", "t"), F2.one)], "is not a dict"),
    (None, "is not a dict"),
    ({("x", "t"): None}, "('x', 't')"),
    ({("x", "t"): 1}, "('x', 't')"),
], ids=["list", "None", "None-coefficient", "int-coefficient"])
def test_class_index_of_refuses_malformed_input(bad, name):
    rep = pi0(xy(F2), truncated_polynomial(F2, 3))
    with pytest.raises(ValueError, match=re.escape(name)):
        rep.class_index_of(bad)
