"""The MC residual kernel against the insertion-loop oracle.

DeformationSetup.mc_residual is check_mc_input, then the indexed
kernel _residual_raw on raw coordinates, then one Scalar per output
entry; enumerate_mc runs the same kernel on raw coordinate tuples.
Here the kernel must equal mc_residual_oracle (tests/oracles.py), the
n = 0 insertion sum it replaced, entry for entry and in the same key
order: on MC points, on points that are not MC and on points with
zeros written in, over F_2, F_3, F_5 and Q.  The corpus holds
random_instance draws, some with an m_3 or an m_4, reproducer (a) of
ROADMAP item 1 (tests/test_fuzz.py) and cases whose arity bound
reaches nu, where the arity-nu term is evaluated and must vanish.  A
setup whose nu is understated makes that term survive, and kernel and
oracle must both raise.  Over the finite fields the enumeration must
then equal the exhaustive sweep (enumerate_mc_oracle), keys in order.
"""

import random

import pytest

from barmc.artin import truncated_polynomial
from barmc.errors import HypothesisNotMet, MathCheckFailure
from barmc.examples import kpoints, random_instance
from barmc.mc import DeformationSetup
from barmc.scalars import Field, Scalar

from oracles import enumerate_mc_oracle, mc_residual_oracle
from test_fuzz import _reproducer_a

F2, F3, F5, Q = (Field.prime(2), Field.prime(3), Field.prime(5),
                 Field.rationals())
FIELDS = [F2, F3, F5, Q]


def _corpus(field):
    """(tag, A, R): twelve random_instance draws, reproducer (a) over
    t^4, and two cases with arity bound >= nu."""
    out = [(tag, A, R) for A, R, tag in (random_instance(field, seed)
                                          for seed in range(12))]
    poly = lambda n: truncated_polynomial(field, n)  # noqa: E731
    out += [("reproducer_a/t^4", _reproducer_a(field), poly(4)),
            ("reproducer_a/t^3", _reproducer_a(field), poly(3)),
            ("kpoints2/t^2", kpoints(field, 2), poly(2))]
    return out


CASES = [(field, tag, A, R) for field in FIELDS
         for tag, A, R in _corpus(field)]
IDS = ["%r-%s" % (field, tag) for field, tag, _, _ in CASES]


def _draw(rng, field, labels, zeros=()):
    """A point in label order: random values on some of labels, and a
    written zero on each label of zeros that is not drawn."""
    span = field.p or 7
    out = {}
    for l in labels:
        if rng.random() < 0.6:
            out[l] = field(rng.randrange(span) - span // 2)
        elif l in zeros:
            out[l] = field.zero
    return out


def _points(setup, rng):
    """Drawn points, some with written zeros (also on ideal labels of
    other degrees), the zero point, and MC points of the enumeration
    where it is within reach."""
    deg1 = setup.ideal_labels_of_degree(1)
    other = [l for l in setup.ideal if l not in set(deg1)]
    points = [{}] + [_draw(rng, setup.field, deg1) for _ in range(6)]
    for _ in range(4):
        point = _draw(rng, setup.field, deg1, zeros=set(deg1))
        point.update((l, setup.field.zero) for l in rng.sample(
            other, min(2, len(other))))
        points.append(point)
    if setup.field.p:
        try:
            found = setup.enumerate_mc(cap=4096)
        except HypothesisNotMet:
            found = []
        points += rng.sample(found, min(6, len(found)))
    return points


@pytest.mark.parametrize("field, tag, A, R", CASES, ids=IDS)
def test_the_kernel_is_the_insertion_loop(field, tag, A, R):
    """Same entries in the same key order as the oracle for points in
    label order; for the same points in another order the same dict."""
    setup = DeformationSetup(A, R)
    rng = random.Random(tag)
    for alpha in _points(setup, rng):
        got = setup.mc_residual(alpha)
        want = mc_residual_oracle(setup, alpha)
        assert list(got.items()) == list(want.items()), (tag, alpha)
        assert all(type(c) is Scalar and c.field is field
                   for c in got.values())
        items = list(alpha.items())
        rng.shuffle(items)
        shuffled = dict(items)
        assert setup.mc_residual(shuffled) == mc_residual_oracle(
            setup, shuffled) == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_corpus_reaches_what_the_kernel_must_handle(field):
    """Higher arities, MC and non-MC points, written zeros, and an
    evaluated arity-nu term occur over every field."""
    higher = mc = non_mc = zeros = at_nu = 0
    for tag, A, R in _corpus(field):
        setup = DeformationSetup(A, R)
        higher += A.m.max_arity() >= 3
        at_nu += any(n == setup.nu for n, _ in setup._residual_index)
        for alpha in _points(setup, random.Random(tag)):
            zeros += any(not c for c in alpha.values())
            if mc_residual_oracle(setup, alpha):
                non_mc += 1
            else:
                mc += bool(alpha)
    assert higher >= 3 and at_nu >= 2
    assert mc and non_mc and zeros


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_surviving_arity_nu_term_is_refused(field):
    """Understating nu at 3 over t^4 keeps the arity-3 term m_3(a1 t,
    a1 t, a1 t) = -c t^3, which then must vanish and does not."""
    setup = DeformationSetup(_reproducer_a(field), truncated_polynomial(field, 4))
    setup.nu = 3
    alpha = {("a1", "t"): field.one}
    for residual in (setup.mc_residual,
                     lambda a: mc_residual_oracle(setup, a)):
        with pytest.raises(MathCheckFailure,
                           match="nilpotency truncation unsound"):
            residual(alpha)
    # a point without a1 has no arity-3 term and passes both
    beta = {("a2", "t"): field.one}
    assert list(setup.mc_residual(beta).items()) == \
        list(mc_residual_oracle(setup, beta).items())


FINITE_CASES = [case for case in CASES if case[0].p]


@pytest.mark.parametrize("field, tag, A, R", FINITE_CASES,
                         ids=["%r-%s" % (f, t) for f, t, _, _ in FINITE_CASES])
def test_enumeration_is_the_sweep(field, tag, A, R):
    setup = DeformationSetup(A, R)
    try:
        want = enumerate_mc_oracle(setup, cap=4096)
    except HypothesisNotMet:
        with pytest.raises(HypothesisNotMet):
            setup.enumerate_mc(cap=4096)
        return
    got = DeformationSetup(A, R).enumerate_mc(cap=4096)
    assert [list(a.items()) for a in got] == [list(a.items()) for a in want]
