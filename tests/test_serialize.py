"""Canonical JSON descriptions: round trips and refused input."""

import json
import re

import pytest

from barmc.ainfinity import tensor_with_dg
from barmc.examples import (
    acyclic_cone,
    golden_dg_pair,
    kpoints,
    njac,
    xy,
)
from barmc.scalars import Field
from barmc.serialize import (
    algebra_from_json,
    algebra_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    vector_from_json,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


@pytest.mark.parametrize("make", [
    lambda: kpoints(Q, 2),
    lambda: njac(F3, 2),
    lambda: xy(Q),
    lambda: golden_dg_pair(Q)[0],
    lambda: tensor_with_dg(kpoints(F3, 1), acyclic_cone(F3)),
], ids=["kpoints(Q,2)", "njac(F3,2)", "xy(Q)", "golden_dg_pair(Q)[0]",
        "kpoints(F3,1)xcone"])
def test_algebra_round_trips_through_json_text(make):
    A = make()
    text = dumps_canonical(algebra_to_json(A))
    B = algebra_from_json(json.loads(text))
    assert B.field == A.field
    assert B.space.labels == A.space.labels
    assert B.space.degree == A.space.degree
    assert B.m.entries == A.m.entries
    assert (B.unit, B.arity_bound) == (A.unit, A.arity_bound)
    assert dumps_canonical(algebra_to_json(B)) == text


def _doc():
    return {
        "field": {"kind": "Q"},
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 1}],
        "ops": [{"arity": 2, "in": ["x", "1"],
                 "out": [{"label": "x", "coeff": "1"}]}],
    }


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


def _extend(basis, ops):
    def mutate(doc):
        doc["basis"].extend(basis)
        doc["ops"].extend(ops)
    return mutate


def _chain(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _op(arity, ins, out):
    return {"arity": arity, "in": ins, "out": [{"label": out, "coeff": "1"}]}


@pytest.mark.parametrize("mutate", [
    _set(("ops", 0, "in"), ["x", "z"]),
    _set(("ops", 0, "out", 0, "label"), "z"),
    _set(("basis", 1, "degree"), True),
    _set(("basis", 1, "degree"), 1.7),
    # m_1(1) = x is a valid unary op once the arity is the integer 1
    _set(("ops", 0), {"arity": True, "in": ["1"],
                      "out": [{"label": "x", "coeff": "1"}]}),
    _drop(("basis", 1, "label")),
    _drop(("basis", 1, "degree")),
    _drop(("ops", 0, "arity")),
    _drop(("ops", 0, "in")),
    _drop(("ops", 0, "out")),
    _drop(("ops", 0, "out", 0, "coeff")),
    # m_0 = y would have the right degree 2, but arities start at 1
    _extend([{"label": "y", "degree": 2}], [_op(0, [], "y")]),
    # d(1) = x and d(x) = y, so d*d is nonzero on the basis element 1
    _extend([{"label": "y", "degree": 2}],
            [_op(1, ["1"], "x"), _op(1, ["x"], "y")]),
    _set(("ops", 0, "out", 0, "coeff"), "1/0"),
    _set(("ops", 0, "out", 0, "coeff"), "one"),
    _set(("ops", 0, "out", 0, "coeff"), None),
    _set(("ops", 0, "out", 0, "coeff"), ["1"]),
    _set(("ops", 0, "out", 0, "coeff"), 0.5),
    _set(("ops", 0, "out", 0, "coeff"), True),
    _set(("ops", 0, "out", 0, "coeff"), 1),
    # 3 is zero in F_3, so 1/3 names no element
    _chain(_set(("field",), {"kind": "Fp", "p": 3}),
           _set(("ops", 0, "out", 0, "coeff"), "1/3")),
    # the augmentation is the unit's dual; no other label can carry it
    _chain(_set(("unit",), "1"), _set(("aug",), "x")),
    _set(("arity_bound",), 2.5),
    _set(("arity_bound",), "3"),
    _set(("complete_to_arity",), "x"),
    _set(("complete_to_arity",), 1.5),
], ids=["unknown input", "unknown output", "degree true", "degree 1.7",
        "arity true", "no label", "no degree", "no arity", "no in", "no out",
        "no coeff", "arity 0", "d squared nonzero", "coeff 1/0",
        "coeff word", "coeff null", "coeff list", "coeff 0.5", "coeff true",
        "coeff int", "coeff 1/3 over F3", "aug not unit", "arity bound 2.5",
        "arity bound string", "complete to x", "complete to 1.5"])
def test_malformed_algebra_description_is_refused(mutate):
    algebra_from_json(_doc())  # the unmutated description loads
    doc = _doc()
    mutate(doc)
    with pytest.raises(ValueError):
        algebra_from_json(doc)


def test_nonzero_d_squared_names_its_witness():
    doc = _doc()
    _extend([{"label": "y", "degree": 2}],
            [_op(1, ["1"], "x"), _op(1, ["x"], "y")])(doc)
    with pytest.raises(ValueError, match="d\\*d is nonzero on basis element '1'"):
        algebra_from_json(doc)


@pytest.mark.parametrize("coeff", ["1/3", "1/0", None, ["1"], 0.5, True],
                         ids=["1/3", "1/0", "null", "list", "0.5", "true"])
def test_malformed_coefficient_is_named(coeff):
    doc = _doc()
    doc["field"] = {"kind": "Fp", "p": 3}
    doc["ops"][0]["out"][0]["coeff"] = coeff
    with pytest.raises(ValueError, match="coefficient %s" % re.escape(repr(coeff))):
        algebra_from_json(doc)


def test_element_round_trips_with_nested_labels():
    alpha = {(("x", 1), "t"): F3(2), ("y", ("h", 0, 2)): F3(1),
             ("x", "t2"): F3(1)}
    text = dumps_canonical(element_to_json(alpha))
    back = element_from_json(F3, json.loads(text))
    assert back == alpha
    assert dumps_canonical(element_to_json(back)) == text
    # zero coefficients are dropped on the way in
    assert element_from_json(F3, [[["x", "t"], "3"]]) == {}


@pytest.mark.parametrize("doc", [
    [["x", "1"]],
    [[["x", "t", "u"], "1"]],
    [[["x", "t"]]],
    [[["x", "t"], "1"], [["x", "t"], "2"]],
    [[["x", "t"], "1/3"]],
    [[["x", "t"], 1]],
    [[["x", "t"], None]],
    ["x"],
], ids=["bare label", "triple label", "no coeff", "duplicate label",
        "coeff 1/3", "coeff int", "coeff null", "not a pair"])
def test_malformed_element_is_refused(doc):
    with pytest.raises(ValueError):
        element_from_json(F3, doc)


OBJECT = {"x": 1}


@pytest.mark.parametrize("load, named", [
    (lambda: algebra_from_json(dict(_doc(), basis={"label": "1"})),
     "basis {'label': '1'}"),
    (lambda: algebra_from_json(dict(_doc(), ops=5)), "ops 5"),
    (lambda: _loaded(_set(("ops", 0, "in"), "x1")), "op input 'x1'"),
    (lambda: _loaded(_set(("ops", 0, "out"), 7)), "op output 7"),
    (lambda: _loaded(_set(("basis", 1, "label"), OBJECT)), repr(OBJECT)),
    (lambda: _loaded(_set(("ops", 0, "in", 0), OBJECT)), repr(OBJECT)),
    (lambda: _loaded(_set(("ops", 0, "out", 0, "label"), OBJECT)),
     repr(OBJECT)),
    (lambda: _loaded(_set(("unit",), OBJECT)), repr(OBJECT)),
    (lambda: vector_from_json(F3, 5), "vector 5"),
    (lambda: vector_from_json(F3, {"x": "1"}), "vector {'x': '1'}"),
    (lambda: vector_from_json(F3, [[OBJECT, "1"]]), repr(OBJECT)),
    (lambda: element_from_json(F3, "x"), "vector 'x'"),
    (lambda: element_from_json(F3, [[[OBJECT, "t"], "1"]]), repr(OBJECT)),
], ids=["basis object", "ops int", "in string", "out int", "basis label",
        "input label", "output label", "unit label", "vector int",
        "vector object", "vector label", "element string", "element label"])
def test_non_list_documents_and_object_labels_are_named(load, named):
    """Where a list or a label is due, anything else is a ValueError that
    quotes it, not a TypeError from iterating or hashing it."""
    with pytest.raises(ValueError, match=re.escape(named)):
        load()


def _loaded(mutate):
    doc = _doc()
    mutate(doc)
    return algebra_from_json(doc)
