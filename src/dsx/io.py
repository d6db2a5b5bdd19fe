"""JSON interchange formats.

Delta-set file:
    { "dims": N, "simplices": { "0": [names...], ... },
      "faces": { name: [face_0, ..., face_n] } }
A based Delta-set (DeltaSet.based) adds "based": true, and its face entry
"*" is the basepoint, a None face in memory.  Morphism file:
    { "source": path, "target": path, "map": { name: name-or-"*" } }
where source and target are both based or both unbased, every key is a
source simplex, and "*" (the basepoint, None) is allowed only in a based
target.
Chain-complex file:
    { "degrees": [lo, hi], "ranks": [rank_lo, ..., rank_hi],
      "boundaries": { "k": row-major matrix of d_k : C_k -> C_{k-1} } }
with integer entries, one rank per degree and lo <= k <= hi.
Certificate file: "base", "result" and a list "moves" of moves
    { "direction": "expand" | "collapse", "e": name, "i": integer,
      "e_faces": [names...], "f_faces": [names...] }

Loaders validate and refuse invalid files (SchemaError): a Delta-set file
needs its "simplices" object, whose keys are dimensions d >= 0 written as
str(d) ("1", never "01", "+1" or " 1"); besides the semisimplicial identity,
it may give faces only for declared simplices, and its optional "dims" must
be the top dimension with simplices (-1 when there are none); a morphism
must be a valid DeltaMorphism; a boundary matrix must have the shape its
ranks give and d o d = 0.

A loaded Delta-set holds one string object per cell name: each face entry
is the name object declared in its "simplices", not the JSON parser's copy
of it.
"""

from __future__ import annotations

import json
import os

from .delta import DeltaSet, DeltaMorphism, validate
from .homology import complex_from_matrices
from .moves import Move, ExpansionCertificate

BASEPOINT = "*"


class SchemaError(ValueError):
    """Malformed interchange file."""


def _read_json(path, what):
    """The JSON object in `path`; SchemaError if it cannot be read, is not
    JSON, or is not an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not JSON: {path}: {exc}") from None
    except (OSError, ValueError) as exc:  # or a NUL in the path, or not UTF-8
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"not a {what} file: {path}")
    return data


def _write_json(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def delta_to_dict(K):
    faces = {}
    for d, s in K.all_cells():
        if d == 0:
            continue
        faces[s] = [BASEPOINT if f is None else f for f in K.faces[s]]
    out = {
        "dims": K.top_dim,
        "simplices": {str(d): list(K.simplices[d]) for d in sorted(K.simplices)},
        "faces": faces,
    }
    if K.based:
        out["based"] = True
    return out


def _dimension(key):
    """The dimension d >= 0 whose str(d) is the 'simplices' key `key`."""
    try:
        d = int(key)
    except (TypeError, ValueError):  # or more digits than int() takes
        d = -1
    if d < 0 or str(d) != key:
        raise SchemaError(f"'simplices' key {key!r} is not a dimension "
                          f"d >= 0 written as str(d)")
    return d


def delta_from_dict(data):
    simplices = data.get("simplices") if isinstance(data, dict) else None
    if not isinstance(simplices, dict):
        raise SchemaError("not a Delta-set file: 'simplices' is not an object")
    based = data.get("based", False)
    raw_faces = data.get("faces", {})
    if type(based) is not bool:
        raise SchemaError(f"'based' is {based!r}, not true or false")
    if not isinstance(raw_faces, dict):
        raise SchemaError("malformed Delta-set file: 'faces' is not an object")
    simplices = {_dimension(key): names for key, names in simplices.items()}
    for d, names in simplices.items():
        if not isinstance(names, list):
            raise SchemaError(f"simplices of dimension {d} are not a list")
        for s in names:
            if not isinstance(s, str) or s == BASEPOINT:
                raise SchemaError(f"bad simplex name {s!r}")
    # Each face entry becomes the declared name object, so the parser's
    # copies die with `data`; an undeclared name passes through for
    # DeltaSet to refuse.
    names = {s: s for ns in simplices.values() for s in ns}
    if based:
        names[BASEPOINT] = None
    faces = {}
    for s, fs in raw_faces.items():
        if not isinstance(fs, list) or not all(isinstance(f, str) for f in fs):
            raise SchemaError(f"faces of {s!r} are not a list of names")
        if not based and BASEPOINT in fs:
            raise SchemaError("'*' face entry in an unbased file")
        faces[s] = tuple(map(names.get, fs, fs))
    undeclared = [s for s in faces if names.get(s) is None]  # "*" too
    if undeclared:
        raise SchemaError(f"faces given for undeclared simplices "
                          f"{undeclared[:3]}")
    try:
        K = DeltaSet(simplices, faces, based=based)
        report = validate(K)
    except ValueError as exc:
        raise SchemaError(f"invalid Delta-set: {exc}") from None
    dims = data.get("dims", K.top_dim)
    if type(dims) is not int or dims != K.top_dim:
        raise SchemaError(f"'dims' is {dims!r} but the top dimension with "
                          f"simplices is {K.top_dim}")
    if report:
        raise SchemaError(f"semisimplicial identity fails: {report[:3]}")
    return K


def write_delta(K, path):
    _write_json(delta_to_dict(K), path)


def read_delta(path):
    return delta_from_dict(_read_json(path, "Delta-set"))


def morphism_to_dict(f, source_path, target_path):
    mapping = {s: (BASEPOINT if t is None else t)
               for s, t in f.mapping.items()}
    return {"source": source_path, "target": target_path, "map": mapping}


def read_morphism(path):
    data = _read_json(path, "morphism")
    raw_map = data.get("map")
    if not isinstance(raw_map, dict):
        raise SchemaError(f"not a morphism file: {path}: 'map' is not an "
                          f"object")
    if not all(isinstance(t, str) for t in raw_map.values()):
        raise SchemaError(f"morphism file {path}: images are not names")
    for end in ("source", "target"):
        if not isinstance(data.get(end), str):
            raise SchemaError(f"morphism file {path}: '{end}' is not a path")
    base = os.path.dirname(os.path.abspath(path))
    src = read_delta(os.path.join(base, data["source"]))
    tgt = read_delta(os.path.join(base, data["target"]))
    if src.based != tgt.based:
        raise SchemaError("morphism mixes based and unbased Delta-sets")
    strays = [s for s in raw_map if s not in src.faces]
    if strays:
        raise SchemaError(f"morphism file {path}: {strays[:3]} are not "
                          f"simplices of the source")
    mapping = {s: (None if t == BASEPOINT else t) for s, t in raw_map.items()}
    try:
        return DeltaMorphism(src, tgt, mapping)
    except ValueError as exc:  # "invalid morphism: [problems]"
        raise SchemaError(str(exc)) from None


def complex_to_dict(C):
    ranks = [C.rank(k) for k in range(C.lo, C.hi + 1)]
    boundaries = {}
    for k in range(C.lo, C.hi + 1):
        if C.rank(k) and C.rank(k - 1):
            boundaries[str(k)] = C.boundary_dense(k)
    return {"degrees": [C.lo, C.hi], "ranks": ranks, "boundaries": boundaries}


def _is_int(v):
    return type(v) is int


def complex_from_dict(data):
    degrees = data.get("degrees")
    if not (isinstance(degrees, list) and len(degrees) == 2
            and all(map(_is_int, degrees))):
        raise SchemaError(f"'degrees' is {degrees!r}, not [lo, hi]")
    lo, hi = degrees
    ranks = data.get("ranks")
    if not (isinstance(ranks, list) and len(ranks) == hi - lo + 1
            and all(_is_int(r) and r >= 0 for r in ranks)):
        raise SchemaError(f"'ranks' is {ranks!r}, not one non-negative "
                          f"integer for each degree {lo}..{hi}")
    ranks = dict(zip(range(lo, hi + 1), ranks))
    boundaries = data.get("boundaries", {})
    if not isinstance(boundaries, dict):
        raise SchemaError("'boundaries' is not an object")
    degree_of = {str(k): k for k in ranks}
    mats = {}
    for key, rows in boundaries.items():
        k = degree_of.get(key)
        if k is None:
            raise SchemaError(f"boundary {key!r} is not in degrees {lo}..{hi}")
        m, n = ranks.get(k - 1, 0), ranks[k]
        if not (isinstance(rows, list) and len(rows) == m and all(
                isinstance(row, list) and len(row) == n
                and all(map(_is_int, row)) for row in rows)):
            raise SchemaError(f"boundary {k} is not a {m} x {n} integer "
                              f"matrix")
        mats[k] = rows
    try:
        return complex_from_matrices(lo, hi, ranks, mats)
    except ValueError as exc:
        raise SchemaError(f"invalid complex: {exc}") from None


def read_complex(path):
    return complex_from_dict(_read_json(path, "complex"))


def write_complex(C, path):
    _write_json(complex_to_dict(C), path)


def certificate_to_dict(cert):
    return {
        "moves": [
            {"direction": m.direction, "e": m.e, "i": m.i,
             "e_faces": list(m.e_faces), "f_faces": list(m.f_faces)}
            for m in cert.moves],
        "base": delta_to_dict(cert.base),
        "result": delta_to_dict(cert.result),
    }


def _is_move(m):
    def names(v):
        return isinstance(v, list) and all(isinstance(f, str) for f in v)
    return (isinstance(m, dict)
            and m.get("direction") in ("expand", "collapse")
            and isinstance(m.get("e"), str) and _is_int(m.get("i"))
            and names(m.get("e_faces")) and names(m.get("f_faces")))


def certificate_from_dict(data):
    try:
        base = delta_from_dict(data["base"])
        result = delta_from_dict(data["result"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed certificate: {exc}") from None
    moves = data.get("moves")
    if not isinstance(moves, list):
        raise SchemaError("malformed certificate: 'moves' is not a list")
    for m in moves:
        if not _is_move(m):
            raise SchemaError(f"malformed move {m!r}")
    return ExpansionCertificate(base, [
        Move(m["direction"], m["e"], m["i"], tuple(m["e_faces"]),
             tuple(m["f_faces"])) for m in moves], result)


def write_certificate(cert, path):
    _write_json(certificate_to_dict(cert), path)


def read_certificate(path):
    return certificate_from_dict(_read_json(path, "certificate"))
