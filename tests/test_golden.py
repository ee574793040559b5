"""Golden digests of canonical outputs over Q and over F_p.

Pins a SHA-256 of the canonical JSON that probes and one minimal model
produce, so any change to scalar arithmetic or elimination that is
meant to compute the same thing must leave every byte in place.  The
digest was taken before integral rationals were stored as ints; if a
change moves it, the outputs below differ and the change is not a pure
speed-up.

The second digest covers the Maurer-Cartan side over F_2 and F_3: the
enumerated MC set, the pi_0 classes with their tower levels, a full
comparison report and the tables of one tensor product.  Vectors and
tables are written in their dict order, not sorted, so a change that
reorders keys moves it too.  It was taken before multilinear
evaluation ran on raw field values, and re-taken when the comparison
read H^0(S_N) as T_{<=N}(V)/(r_c) off the tables of A: the report's
presentation now gives its generators and relations in place of the
values and relations of monomials in S_N, and every other field kept
its bytes.

The third digest covers the twisted tables: the universal deformation
of kpoints(Q,2) at order 3, and two twisted modules with their
dual-side comodules, one over the noncommutative base
k<a,b>/(a^2, b^2, ba) and one of an algebra with m_4 over k[t]/t^4,
where up to three insertions survive.  Entries and vectors are
sorted, so only the tables count, not the order they were built in.
It was taken before the tables were read off the tensor algebra in
one join.
"""

import hashlib

from barmc.ainfinity import tensor_with_dg
from barmc.artin import truncated_polynomial
from barmc.bar import koszul_probe
from barmc.examples import acyclic_cone, kpoints, njac, random_instance, xy
from barmc.mc import DeformationSetup, enumerate_mc, pi0
from barmc.scalars import Field
from barmc.serialize import (
    algebra_to_json,
    dumps_canonical,
    label_to_json,
    vector_to_json,
)
from barmc.transfer import minimal_model

from oracles import product_table
from test_twisting import local_noncommutative
from barmc.twisting import (
    TwistedComodule,
    TwistedModule,
    UniversalDeformation,
    prorep_compare,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)

GOLDEN_SHA256 = (
    "c39dd7c5ee0db21c57c596f89d1c7b1f59014ff710a10243154dcac7a19c7cf1")
GOLDEN_FP_SHA256 = (
    "90891038d1eeecdfb956ec0c4124f126121087262879b75542594fab2840fa4a")
GOLDEN_TWIST_SHA256 = (
    "5e905015ae9240a9cfe8efb9ad4ceab158d988adb0b3fc07282cd6f7279d057c")


def probe_doc(A, N):
    verdict = koszul_probe(A, N)
    rep = verdict.cohomology
    return {
        "verdict": verdict.verdict,
        "dims": sorted(verdict.dims.items()),
        "filtered_dims": sorted(rep.filtered_dims.items()),
        "weight_reps": [[w, vector_to_json(v)] for w, v in rep.weight_reps],
        "product_table": [
            [i, j, sorted([k, c.as_string()] for k, c in coords.items())]
            for (i, j), coords in sorted(product_table(rep).items())],
    }


def golden_docs():
    docs = [probe_doc(kpoints(Q, 2), 5), probe_doc(xy(Q), 4),
            probe_doc(kpoints(Q, 3), 3)]
    model, _ = minimal_model(tensor_with_dg(kpoints(Q, 2), acyclic_cone(Q)), 5)
    docs.append(algebra_to_json(model))
    return docs


def golden_digest():
    text = "".join(dumps_canonical(doc) for doc in golden_docs())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_canonical_outputs_over_q_are_byte_identical():
    assert golden_digest() == GOLDEN_SHA256


def ordered(vec):
    """A sparse vector as [label, coefficient] pairs in its dict order."""
    return [[label_to_json(l), c.as_string()] for l, c in vec.items()]


def classes_doc(report):
    return {
        "classes": [[ordered(v) for v in cls] for cls in report.classes],
        "levels": report.levels,
    }


def golden_fp_docs():
    k2, k3, j2 = kpoints(F2, 2), kpoints(F2, 3), njac(F3, 2)
    docs = [[ordered(v) for v in enumerate_mc(k3, truncated_polynomial(F2, 5))],
            classes_doc(pi0(k2, truncated_polynomial(F2, 4)))]
    rep = prorep_compare(j2, truncated_polynomial(F3, 3), 3)
    pres = rep.presentation
    docs.append({
        "lhs": rep.lhs, "rhs": rep.rhs, "ok": rep.ok,
        "problems": rep.problems,
        "maps": [[ordered(w) for w in t] for t in rep.maps],
        "classes": classes_doc(rep.classes),
        "matching": sorted(rep.matching.items()),
        "order": rep.order,
        "orbits": rep.orbits,
        "generators": pres.gens,
        "relations": [[c, [[list(w), x.as_string()] for w, x in r.items()]]
                      for c, r in pres.relations.items()],
    })
    T = tensor_with_dg(k2, truncated_polynomial(F2, 4).algebra)
    docs.append([[n, [[label_to_json(args), ordered(vec)]
                      for args, vec in table.items()]]
                 for n, table in T.m.entries.items()])
    return docs


def test_canonical_outputs_over_fp_are_byte_identical():
    text = "".join(dumps_canonical(doc) for doc in golden_fp_docs())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_FP_SHA256


def sorted_tables(ops):
    """Every entry of a StructureMaps, entries and vectors sorted."""
    rows = [[n, label_to_json(args),
             sorted([[label_to_json(l), c.as_string()]
                     for l, c in vec.items()], key=dumps_canonical)]
            for n, table in ops.entries.items()
            for args, vec in table.items()]
    return sorted(rows, key=dumps_canonical)


def golden_twist_docs():
    docs = [sorted_tables(UniversalDeformation(kpoints(Q, 2), 3).ops)]
    A, R, _ = random_instance(F3, 9)
    for setup, alpha in (
            (DeformationSetup(kpoints(F2, 2), local_noncommutative(F2)),
             {(e, r): F2.one for e in ("e1", "e2") for r in ("a", "b", "ab")}),
            (DeformationSetup(A, R),
             {("x1", "t"): F3.one, ("x2", "t"): F3(2), ("x1", "t2"): F3.one})):
        docs += [sorted_tables(TwistedModule(setup, alpha).ops),
                 sorted_tables(TwistedComodule(setup, alpha).ops)]
    return docs


def test_twisted_tables_are_byte_identical():
    text = "".join(dumps_canonical(doc) for doc in golden_twist_docs())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TWIST_SHA256
