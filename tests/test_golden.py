"""Golden digest of canonical outputs over Q.

Pins a SHA-256 of the canonical JSON that probes and one minimal model
produce, so any change to scalar arithmetic or elimination that is
meant to compute the same thing must leave every byte in place.  The
digest was taken before integral rationals were stored as ints; if a
change moves it, the outputs below differ and the change is not a pure
speed-up.
"""

import hashlib

from barmc.ainfinity import tensor_with_dg
from barmc.bar import koszul_probe
from barmc.examples import acyclic_cone, kpoints, xy
from barmc.scalars import Field
from barmc.serialize import algebra_to_json, dumps_canonical, vector_to_json
from barmc.transfer import minimal_model

Q = Field.rationals()

GOLDEN_SHA256 = (
    "c39dd7c5ee0db21c57c596f89d1c7b1f59014ff710a10243154dcac7a19c7cf1")


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
            for (i, j), coords in sorted(rep.product_table().items())],
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
