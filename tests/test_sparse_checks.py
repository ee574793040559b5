"""The sparse identity checks against the tuple replay they replaced.

check_ainf_axioms, check_ainf_morphism, TwistedModule's
check_module_axioms and validate_artinian join the structure tables
instead of evaluating the identities on every basis tuple.  The replay
lives on in tests/oracles.py; here both run on valid and on mutated
structures, most of which fail, and must agree on the verdict, the
witness tuple and the repr of the report.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from barmc.ainfinity import (
    AInfAlgebra,
    StructureMaps,
    check_ainf_axioms,
    check_ainf_morphism,
    tensor_with_dg,
)
from barmc.artin import truncated_polynomial, validate_artinian
from barmc.bar import dual_dg_algebra
from barmc.errors import MathCheckFailure
from barmc.examples import golden_dg_pair, kpoints, random_instance, xy
from barmc.linalg import GradedSpace
from barmc.mc import DeformationSetup
from barmc.scalars import Field
from barmc.transfer import minimal_model
from barmc.twisting import TwistedModule

from oracles import (
    check_ainf_axioms_oracle,
    check_ainf_morphism_oracle,
    check_module_axioms_oracle,
)

FIELDS = {2: Field.prime(2), 3: Field.prime(3), 0: Field.rationals()}
fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)


def _mutate(maps, rng):
    """Add one to a random stored coefficient; False if there is none."""
    cells = [(n, args, lbl) for n, table in sorted(maps.entries.items())
             for args, vec in table.items() for lbl in vec]
    if not cells:
        return False
    n, args, lbl = cells[rng.randrange(len(cells))]
    vec = maps.entries[n][args]
    vec[lbl] = vec[lbl] + 1
    if not vec[lbl]:
        del vec[lbl]
    return True


def _same(rep, oracle):
    assert rep.ok == oracle.ok
    assert rep.failure == oracle.failure
    assert rep.checked_to == oracle.checked_to
    assert rep.note == oracle.note
    assert repr(rep) == repr(oracle)


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(0, 10**6))
def test_stasheff_join_matches_the_replay(field, seed):
    A, R, _ = random_instance(field, seed)
    T = tensor_with_dg(A, R.algebra)
    n_max = 4
    while n_max > 2 and T.space.dim() ** n_max > 20000:
        n_max -= 1
    assert _mutate(T.m, random.Random(seed))
    _same(check_ainf_axioms(T, n_max), check_ainf_axioms_oracle(T, n_max))


def _chain_algebra(field, nx, m2, m3):
    """x_i in degree 1, y in 2, w in 3; m_2(x_i, x_j) = c y and m_3 puts y
    in one slot among x's, landing on w.  Not unital, so a twist that is
    not Maurer-Cartan can still square to zero."""
    xs = ["x%d" % i for i in range(1, nx + 1)]
    space = GradedSpace([(x, 1) for x in xs] + [("y", 2), ("w", 3)])
    ops = StructureMaps()
    for (i, j), c in zip([(i, j) for i in xs for j in xs], m2):
        if c:
            ops.set(2, (i, j), {"y": field(c)})
    slots = [("y", a, b) for a in xs for b in xs] + \
        [(a, "y", b) for a in xs for b in xs] + \
        [(a, b, "y") for a in xs for b in xs]
    for args, c in zip(slots, m3):
        if c:
            ops.set(3, args, {"w": field(c)})
    return AInfAlgebra(space, field, ops, arity_bound=3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(fields, st.integers(1, 2), st.lists(st.integers(-1, 1), min_size=16,
                                           max_size=16),
       st.lists(st.integers(-1, 1), min_size=4, max_size=4),
       st.integers(2, 4))
def test_module_join_matches_the_replay(field, nx, coeffs, twist, length):
    A = _chain_algebra(field, nx, coeffs[:nx * nx], coeffs[nx * nx:])
    R = truncated_polynomial(field, length)
    setup = DeformationSetup(A, R)
    labels = setup.ideal_labels_of_degree(1)
    alpha = {l: field(c) for l, c in zip(labels, twist) if c}
    try:
        E = TwistedModule(setup, alpha, check=False)
    except MathCheckFailure:
        assume(False)
    _same(E.check_module_axioms(), check_module_axioms_oracle(E))


def test_module_join_names_the_non_mc_witness():
    """x x = y and m_3(y, x, x) = m_3(x, y, x) = w: an A-infinity algebra.
    A twist by x t is not Maurer-Cartan over k[t]/t^3, squares to zero,
    and fails the arity-2 module identity."""
    for field in FIELDS.values():
        A = _chain_algebra(field, 1, [1], [1, 1, 0])
        assert check_ainf_axioms(A, 5).ok
        setup = DeformationSetup(A, truncated_polynomial(field, 3))
        alpha = {("x1", "t"): field.one}
        assert setup.mc_residual(alpha)
        E = TwistedModule(setup, alpha, check=False)
        rep = E.check_module_axioms()
        assert not rep.ok and rep.failure[:2] == (2, (("x1", "1"), "x1"))
        _same(rep, check_module_axioms_oracle(E))


def _model_inputs():
    out = []
    for field in FIELDS.values():
        for seed in range(12):
            A, _, _ = random_instance(field, seed)
            if 1 in A.m.arities() and A.m.max_arity() <= 2:
                out.append(A)
        out.append(dual_dg_algebra(kpoints(field, 2), 2).algebra)
        out.append(dual_dg_algebra(xy(field), 2).algebra)
        out.append(golden_dg_pair(field)[0])
    return out


MODEL_INPUTS = _model_inputs()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(MODEL_INPUTS) - 1), st.integers(0, 10**6))
def test_morphism_join_matches_the_replay(which, seed):
    _, f = minimal_model(MODEL_INPUTS[which], 4)
    assert _mutate(f.f, random.Random(seed))
    for n_max in (3, 4, 5):
        _same(check_ainf_morphism(f, n_max), check_ainf_morphism_oracle(f, n_max))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(kpoints, 2, 3), (kpoints, 3, 2), (xy, None, 3)]),
       fields, st.integers(0, 10**6))
def test_mutated_dual_fails_where_the_replay_does(case, field, seed):
    make, arg, N = case
    S = dual_dg_algebra(make(field) if arg is None else make(field, arg), N)
    ops = S.algebra.m.copy()
    assert _mutate(ops, random.Random(seed))
    B = AInfAlgebra(S.algebra.space, field, ops, arity_bound=2,
                    unit=S.algebra.unit)
    oracle = check_ainf_axioms_oracle(B, 3)
    _same(check_ainf_axioms(B, 3), oracle)
    problems = validate_artinian(B).problems
    if oracle.ok:
        assert not any(p.startswith("algebra axioms") for p in problems)
    else:
        n, args, res = oracle.failure
        assert problems[0] == (
            "algebra axioms fail at n=%d on %r (residual %r)" % (n, args, res))
