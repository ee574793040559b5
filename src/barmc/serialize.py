"""Canonical JSON descriptions of algebras, elements, and reports.

One description format serves algebras, deformation elements and
sparse vectors: UTF-8 JSON with every coefficient an exact decimal string
("2", "11/3", "-41/9"), basis entries in the space's own label order,
operations sorted by arity and then by the printed input tuple.
Serializing the same object twice yields the same bytes, so nothing
here may iterate over an unordered container without sorting.
Loading a description validates it as the engine would: malformed or
inconsistent input raises ValueError naming the offending entry.

Labels are strings in user input, but internally produced labels
(tensor factors, named cohomology classes) are nested tuples of
strings and integers.  They serialize as JSON arrays and come back as
tuples, so a round trip is exact on both kinds.
"""

import json

from .ainfinity import AInfAlgebra, StructureMaps
from .errors import _integer
from .linalg import GradedSpace, vec_clean
from .scalars import Field

SCHEMA = 1


def field_to_json(field):
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("field descriptor must be an object with a 'kind'")
    if doc["kind"] == "Q":
        return Field.rationals()
    if doc["kind"] == "Fp":
        return Field.prime(doc.get("p"))  # refuses a non-integer modulus
    raise ValueError("unknown field kind %r" % (doc["kind"],))


def label_to_json(label):
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    return label


def label_from_json(doc):
    if isinstance(doc, list):
        return tuple(label_from_json(part) for part in doc)
    if isinstance(doc, dict):
        raise ValueError("label %r is a JSON object, not a string or list"
                         % (doc,))
    return doc


def scalar_from_str(field, text):
    """The coefficient written as a decimal string, or ValueError naming it."""
    if not isinstance(text, str):
        raise ValueError("coefficient %r is not a string" % (text,))
    try:
        return field(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("coefficient %r is not a number over %r"
                         % (text, field)) from None


def vector_to_json(vec):
    """A sparse vector as a sorted list of [label, coefficient] pairs."""
    return [[label_to_json(l), c.as_string()]
            for l, c in sorted(vec.items(), key=lambda kv: repr(kv[0]))]


def vector_from_json(field, doc):
    out = {}
    for entry in _list(doc, "vector"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError("vector entries are [label, coeff] pairs")
        lbl = label_from_json(entry[0])
        c = scalar_from_str(field, entry[1])
        if lbl in out:
            raise ValueError("duplicate label %r in vector" % (lbl,))
        if c:
            out[lbl] = c
    return out


def element_to_json(alpha):
    """A deformation element: labels are (algebra label, base label)."""
    return vector_to_json(alpha)


def element_from_json(field, doc):
    alpha = vector_from_json(field, doc)
    for lbl in alpha:
        if not isinstance(lbl, tuple) or len(lbl) != 2:
            raise ValueError(
                "element labels are [algebra label, base label] pairs, "
                "got %r" % (lbl,))
    return alpha


def algebra_to_json(A):
    ops = []
    for n in A.m.arities():
        for args in A.m.support(n):
            ops.append({
                "arity": n,
                "in": [label_to_json(a) for a in args],
                "out": [{"label": label_to_json(l), "coeff": c.as_string()}
                        for l, c in sorted(A.m.get(n, args).items(),
                                           key=lambda kv: repr(kv[0]))],
            })
    doc = {
        "field": field_to_json(A.field),
        "basis": [{"label": label_to_json(l), "degree": A.space.degree[l]}
                  for l in A.space.labels],
        "ops": ops,
        "unit": label_to_json(A.unit) if A.unit is not None else None,
        # the augmentation is the unit's dual; kept for the JSON format
        "aug": label_to_json(A.unit) if A.unit is not None else None,
        "arity_bound": A.arity_bound,
    }
    if A.complete_to_arity is not None:
        doc["complete_to_arity"] = A.complete_to_arity
    return doc


def algebra_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("algebra description must be an object")
    for key in ("field", "basis", "ops"):
        if key not in doc:
            raise ValueError("algebra description misses %r" % (key,))
    field = field_from_json(doc["field"])
    basis = []
    for entry in _list(doc["basis"], "basis"):
        label, degree = _fields(entry, ("label", "degree"), "basis entry")
        basis.append((label_from_json(label),
                      _integer(degree, "the degree in %r" % (entry,))))
    space = GradedSpace(basis)
    m = StructureMaps()
    for op in _list(doc["ops"], "ops"):
        n, ins, outs = _fields(op, ("arity", "in", "out"), "op")
        n = _integer(n, "the arity in %r" % (op,))
        args = tuple(_known(space, a, op) for a in _list(ins, "op input"))
        if len(args) != n:
            raise ValueError("op lists %d inputs but declares arity %d"
                             % (len(args), n))
        vec = {}
        for term in _list(outs, "op output"):
            lbl, coeff = _fields(term, ("label", "coeff"), "output term")
            lbl = _known(space, lbl, op)
            c = scalar_from_str(field, coeff)
            if lbl in vec:
                raise ValueError("duplicate output label %r" % (lbl,))
            if c:
                vec[lbl] = c
        if m.get(n, args):
            raise ValueError("duplicate operation entry for m_%d%r" % (n, args))
        m.set(n, args, vec_clean(vec))
    unit = doc.get("unit")
    if doc.get("aug") != unit:
        raise ValueError("the augmentation %r is not the unit %r"
                         % (doc.get("aug"), unit))
    bounds = {key: _integer(doc[key], "the %s" % key)
              for key in ("arity_bound", "complete_to_arity")
              if doc.get(key) is not None}
    A = AInfAlgebra(
        space, field, m,
        unit=label_from_json(unit) if unit is not None else None,
        **bounds,
    )
    A.complex()  # refuses m_1 m_1 != 0, naming the basis element
    return A


def _list(value, what):
    """value when it is a JSON array, else ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError("%s %r is not a list" % (what, value))
    return value


def _fields(entry, keys, what):
    """The values of entry at keys, or ValueError naming the entry."""
    if not isinstance(entry, dict) or not all(k in entry for k in keys):
        raise ValueError("%s %r needs the keys %s" % (what, entry, keys))
    return [entry[k] for k in keys]


def _known(space, label, op):
    label = label_from_json(label)
    if label not in space.index:
        raise ValueError("unknown basis label %r in op %r" % (label, op))
    return label


def dumps_canonical(doc):
    """The one JSON writer: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
