"""Property tests of the file loaders: every dict, valid or not, ends in a
valid object or in SchemaError, never in another exception.

The dicts are drawn near valid files (small Delta-sets with random face
tables, small complexes with boundaries of the right shapes, valid
morphisms written next to their source and target files, cone
certificates of small Delta-sets), and then up to two of their fields are
overwritten with arbitrary JSON values."""

import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import dsx  # noqa: E402
from dsx import io as dio  # noqa: E402

NAMES = st.sampled_from(["a", "b", "e", "t", "*", ""])
DEGREES = st.sampled_from(["-1", "0", "1", "2", "3", " 1", "x", "1.5"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8)


@st.composite
def _corrupted(draw, data, keys):
    """data with up to two of its fields, or of the dicts in it, replaced
    by arbitrary JSON."""
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        if isinstance(data.get(key), dict) and draw(st.booleans()):
            data[key][draw(DEGREES | NAMES)] = draw(
                st.lists(NAMES, max_size=3) | JSON)
        else:
            data[key] = draw(JSON)
    return data


@st.composite
def delta_dicts(draw):
    based = draw(st.booleans())
    names = {d: draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
             for d, pool in enumerate((["a", "b", "c"], ["e", "f", "g"],
                                       ["t", "u"]))}
    if draw(st.integers(0, 7)) == 7:
        names[-1] = ["m"]  # a negative dimension
    faces = {}
    for d in (1, 2):
        below = names[d - 1] + ["*"] * based
        for s in names[d]:
            if below:
                faces[s] = draw(st.lists(st.sampled_from(below),
                                         min_size=d + 1, max_size=d + 1))
    data = {"simplices": {str(d): v for d, v in names.items()},
            "faces": faces, "based": based}
    return draw(_corrupted(data, ["simplices", "faces", "dims", "based"]))


@st.composite
def complex_dicts(draw):
    lo = draw(st.integers(-2, 2))
    hi = lo + draw(st.integers(-1, 2))
    ranks = draw(st.lists(st.integers(0, 3), min_size=hi - lo + 1,
                          max_size=hi - lo + 1))
    boundaries = {}
    for k in range(lo + 1, hi + 1):
        if draw(st.booleans()):
            m, n = ranks[k - 1 - lo], ranks[k - lo]
            row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
            boundaries[str(k)] = draw(st.lists(row, min_size=m, max_size=m))
    data = {"degrees": [lo, hi], "ranks": ranks, "boundaries": boundaries}
    return draw(_corrupted(data, ["degrees", "ranks", "boundaries"]))


@settings(max_examples=300, deadline=None)
@given(delta_dicts())
def test_delta_loader_ends_in_a_valid_set_or_schema_error(data):
    try:
        K = dio.delta_from_dict(data)
    except dio.SchemaError:
        return
    assert all(d >= 0 for d in K.simplices)
    assert dsx.is_valid(K)
    assert dio.delta_from_dict(dio.delta_to_dict(K)) == K


@settings(max_examples=300, deadline=None)
@given(complex_dicts())
def test_complex_loader_ends_in_a_valid_complex_or_schema_error(data):
    try:
        C = dio.complex_from_dict(data)
    except dio.SchemaError:
        return
    assert not C.verify()
    again = dio.complex_from_dict(dio.complex_to_dict(C))
    assert (again.lo, again.hi, again.ranks, again.d) == \
        (C.lo, C.hi, C.ranks, C.d)


def _fold(n, m):
    """The fold C_n -> C_m, k -> k mod m, for m dividing n."""
    return dsx.DeltaMorphism(dsx.cycle_graph(n), dsx.cycle_graph(m),
                             {f"{a}{k}": f"{a}{k % m}"
                              for a in "vw" for k in range(n)})


MORPHISMS = [_fold(4, 2), _fold(3, 1),
             dsx.identity_morphism(dsx.standard("boundary", 2)),
             dsx.psi(1, 3), dsx.nabla(3)]
PATHS = st.sampled_from(["source.json", "target.json", "m.json",
                         "missing.json", "", ".", "m\0.json"])


@st.composite
def morphism_dicts(draw):
    """(morphism, its file dict) with up to two of the fields 'map',
    'source' and 'target', or one image, overwritten: by arbitrary JSON,
    by a path to one of the files, or by a cell name of either end."""
    f = draw(st.sampled_from(MORPHISMS))
    data = dio.morphism_to_dict(f, "source.json", "target.json")
    names = st.sampled_from(sorted(f.source.dim_of) + sorted(f.target.dim_of)
                            + ["*"])
    for key in draw(st.lists(st.sampled_from(["map", "source", "target",
                                              "image"]), max_size=2)):
        if key == "image" and isinstance(data["map"], dict) and data["map"]:
            cell = draw(st.sampled_from(sorted(data["map"])))
            data["map"][cell] = draw(names | JSON)
        elif key in ("source", "target"):
            data[key] = draw(PATHS | JSON)
        elif key == "map":
            data[key] = draw(JSON)
    return f, data


@settings(max_examples=300, deadline=None)
@given(morphism_dicts())
def test_morphism_loader_ends_in_a_valid_morphism_or_schema_error(case):
    f, data = case
    with tempfile.TemporaryDirectory() as tmp:
        dio.write_delta(f.source, os.path.join(tmp, "source.json"))
        dio.write_delta(f.target, os.path.join(tmp, "target.json"))
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        try:
            g = dio.read_morphism(path)
        except dio.SchemaError:
            return
    assert isinstance(g, dsx.DeltaMorphism)
    assert g.validate() == []


CONE_CERTIFICATES = [dsx.cone(K)[2] for K in (
    dsx.standard("simplex", 0), dsx.standard("boundary", 2),
    dsx.cycle_graph(2))]
MOVE_FIELDS = ["direction", "e", "i", "e_faces", "f_faces"]


@st.composite
def certificate_dicts(draw):
    """A cone certificate's dict with up to two of its move fields, a whole
    move, or its move list overwritten by arbitrary JSON."""
    data = dio.certificate_to_dict(draw(st.sampled_from(CONE_CERTIFICATES)))
    for key in draw(st.lists(st.sampled_from(MOVE_FIELDS + ["move", "moves"]),
                             max_size=2)):
        if not isinstance(data["moves"], list) or not data["moves"]:
            break
        if key == "moves":
            data["moves"] = draw(JSON)
            continue
        k = draw(st.integers(0, len(data["moves"]) - 1))
        if key == "move" or not isinstance(data["moves"][k], dict):
            data["moves"][k] = draw(JSON)
        else:
            data["moves"][k][key] = draw(JSON)
    return data


@settings(max_examples=300, deadline=None)
@given(certificate_dicts())
def test_certificate_loader_ends_in_a_certificate_or_schema_error(data):
    try:
        cert = dio.certificate_from_dict(data)
    except dio.SchemaError:
        return
    assert isinstance(cert, dsx.ExpansionCertificate)
    again = dio.certificate_from_dict(dio.certificate_to_dict(cert))
    assert dio.certificate_to_dict(again) == dio.certificate_to_dict(cert)


@pytest.mark.parametrize("key, value", [
    ("i", 1.7), ("i", True), ("direction", "sideways")])
def test_certificate_loader_refuses_malformed_moves(key, value):
    data = dio.certificate_to_dict(CONE_CERTIFICATES[0])
    data["moves"][0][key] = value
    with pytest.raises(dio.SchemaError):
        dio.certificate_from_dict(data)
