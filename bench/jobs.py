"""The three workloads: their inputs and their jobs.

``build(workload, seed)`` constructs every input a workload needs
(algebras, bases, tensor products) and returns the jobs in their fixed
order.  A job is a name and a thunk; the thunk runs one engine call
and returns its answer as plain JSON data, which the runner compares
with ``expected.json``.
"""

from barmc.ainfinity import check_ainf_axioms, tensor_with_dg
from barmc.artin import truncated_polynomial
from barmc.bar import koszul_probe
from barmc.examples import acyclic_cone, kpoints, njac, random_instance, xy
from barmc.mc import enumerate_mc, lift_mc, pi0
from barmc.scalars import Field
from barmc.transfer import minimal_model
from barmc.twisting import prorep_compare

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)

# certify checks random_instance(F2, i) for these i, whatever the seed:
# a seed-chosen set of 16 draws varies the workload's cost by about a
# quarter between seeds (interquartile range over ten seeds), far past
# any usable regression bound, because the draws differ in dimension,
# arity cut and family.
RANDOM_DRAWS = range(16)
# arity cut of test_tensor_of_random_with_base_passes_axioms
TUPLE_BUDGET = 60000


def _probe(A, N):
    v = koszul_probe(A, N)
    if v.ok:
        return {"ok": True, "h0_weight_dims": list(v.h0_weight_dims)}
    return {"ok": False, "failures": [list(f) for f in v.failures]}


def _lift(A, R, alpha0, seed):
    out = lift_mc(A, R, alpha0, seed=seed)
    if out.ok:
        return {"lifted": True}
    return {"lifted": False, "level": out.level}


def _axioms(T, n):
    return {"ok": check_ainf_axioms(T, n).ok}


def _arity_cut(T):
    n = 5
    while n > 2 and T.space.dim() ** n > TUPLE_BUDGET:
        n -= 1
    return n


def _minimal_model(C, n):
    A, _ = minimal_model(C, n)
    return {"dim": A.space.dim(), "arities": A.m.arities()}


def koszul(seed):
    a = kpoints(Q, 2)
    b = kpoints(F3, 3)
    c = xy(Q)
    return [
        ("koszul_probe(kpoints(Q,2),5)", lambda: _probe(a, 5)),
        ("koszul_probe(kpoints(F3,3),3)", lambda: _probe(b, 3)),
        ("koszul_probe(xy(Q),4)", lambda: _probe(c, 4)),
    ]


def gauge(seed):
    k2, k3, j2 = kpoints(F2, 2), kpoints(F2, 3), njac(F3, 2)
    x = xy(F2)
    p4, p5, p6 = (truncated_polynomial(F2, n) for n in (4, 5, 6))
    p3 = truncated_polynomial(F3, 3)
    return [
        ("pi0(kpoints(F2,2),poly4)", lambda: {"classes": pi0(k2, p4).count}),
        ("enumerate_mc(kpoints(F2,3),poly5)",
         lambda: {"elements": len(enumerate_mc(k3, p5))}),
        ("prorep_compare(njac(F3,2),poly3,3)",
         lambda: _compare(j2, p3, 3)),
        ("lift_mc(kpoints(F2,2),poly6,e1*t)",
         lambda: _lift(k2, p6, {("e1", "t"): F2(1)}, seed)),
        ("lift_mc(xy(F2),poly4,x*t)",
         lambda: _lift(x, p4, {("x", "t"): F2(1)}, seed)),
    ]


def _compare(A, R, N):
    r = prorep_compare(A, R, N)
    return {"ok": r.ok, "lhs": r.lhs, "rhs": r.rhs}


def certify(seed):
    jobs = []
    t = tensor_with_dg(kpoints(F2, 2), truncated_polynomial(F2, 4).algebra)
    jobs.append(("check_ainf_axioms(kpoints(F2,2)*poly4,4)",
                 lambda: _axioms(t, 4)))
    for i in RANDOM_DRAWS:
        A, R, _ = random_instance(F2, i)
        T = tensor_with_dg(A, R.algebra)
        n = _arity_cut(T)
        jobs.append(("check_ainf_axioms(random_instance(F2,%d))" % i,
                     lambda T=T, n=n: _axioms(T, n)))
    c = tensor_with_dg(kpoints(Q, 2), acyclic_cone(Q))
    jobs.append(("minimal_model(kpoints(Q,2)*cone,5)",
                 lambda: _minimal_model(c, 5)))
    return jobs


WORKLOADS = {"koszul": koszul, "gauge": gauge, "certify": certify}


def build(workload, seed):
    return WORKLOADS[workload](seed)
