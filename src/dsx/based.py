"""Essentially finite based Delta-sets.

A based Delta-set carries a basepoint in every dimension, preserved by all
face maps.  We store only the non-basepoint simplices; a face entry of None
denotes the basepoint (written "*" in the interchange format).  The
semisimplicial identity is read with the convention face(*, i) = *.

`finite_model` produces the honest finite (unbased) Delta-set obtained by
materializing one basepoint cell per dimension up to a chosen level; this is
the skeleton finite presentation used to bridge into the unbased machinery
(expansion certificates, geometric products of presentations).
"""

from __future__ import annotations

from itertools import combinations

from .delta import DeltaSet, DeltaMorphism, sorted_cells


class BasedDeltaSet:
    """Based Delta-set stored by its non-basepoint simplices.

    faces[name] is a tuple whose entries are simplex names or None (the
    basepoint).  Finitely many non-basepoint simplices are required.
    """

    __slots__ = ("simplices", "faces", "dim_of", "top_dim", "_sort_keys")

    def __init__(self, simplices, faces, sort_keys=None):
        keyed = dict(sort_keys) if sort_keys else {}
        self._sort_keys = keyed
        self.simplices = {}
        self.dim_of = {}
        for d in sorted(simplices):
            names = sorted_cells(simplices[d], keyed)
            if not names:
                continue
            self.simplices[d] = tuple(names)
            for s in names:
                if s in self.dim_of:
                    raise ValueError(f"duplicate simplex identifier {s!r}")
                self.dim_of[s] = d
        self.top_dim = max(self.simplices) if self.simplices else -1
        self.faces = {}
        for s, d in self.dim_of.items():
            fs = tuple(faces.get(s, ()))
            if d > 0 and len(fs) != d + 1:
                raise ValueError(f"simplex {s!r} of dim {d} has {len(fs)} faces")
            for f in fs:
                if f is not None and self.dim_of.get(f) != d - 1:
                    raise ValueError(
                        f"face {f!r} of {s!r} is not a simplex of dim {d - 1}")
            self.faces[s] = fs if d > 0 else ()

    def cells(self, d):
        return self.simplices.get(d, ())

    def all_cells(self):
        for d in sorted(self.simplices):
            for s in self.simplices[d]:
                yield d, s

    def n_cells(self, d=None):
        if d is not None:
            return len(self.simplices.get(d, ()))
        return sum(len(v) for v in self.simplices.values())

    def counts(self):
        return tuple(len(self.simplices.get(d, ()))
                     for d in range(self.top_dim + 1))

    def face(self, s, i):
        if s is None:
            return None
        return self.faces[s][i]

    def iterated_face(self, s, missing):
        for i in sorted(missing, reverse=True):
            if s is None:
                return None
            s = self.faces[s][i]
        return s

    def sort_key(self, s):
        return self._sort_keys.get(s, (s,))

    def reduced_euler_characteristic(self):
        return sum((-1) ** d * len(v) for d, v in self.simplices.items())

    def __eq__(self, other):
        if not isinstance(other, BasedDeltaSet):
            return NotImplemented
        return self.simplices == other.simplices and self.faces == other.faces

    def __hash__(self):
        return hash((tuple(sorted(self.simplices.items())),))

    def __repr__(self):
        return f"BasedDeltaSet(counts={self.counts()})"


BASED_POINT = BasedDeltaSet({}, {})


def validate_based(K):
    """Semisimplicial-identity diagnostics with face(*, i) = *."""
    report = []
    for d, x in K.all_cells():
        if d < 2:
            continue
        fx = K.faces[x]
        for i, j in combinations(range(d + 1), 2):
            left = K.face(fx[j], i)
            right = K.face(fx[i], j - 1)
            if left != right:
                report.append({
                    "simplex": x, "i": i, "j": j,
                    "face_ji": left, "face_ij1": right,
                })
    return report


def is_valid_based(K):
    return not validate_based(K)


class BasedMorphism:
    """Based morphism: simplex -> simplex-or-basepoint, commuting with faces."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        if check:
            problems = self.validate()
            if problems:
                raise ValueError(f"invalid based morphism: {problems[:3]}")

    def validate(self):
        problems = []
        for d, s in self.source.all_cells():
            if s not in self.mapping:
                problems.append(f"no image for {s!r}")
                continue
            t = self.mapping[s]
            if t is not None and self.target.dim_of.get(t) != d:
                problems.append(f"image of {s!r} has wrong dimension")
                continue
            for i in range(d + 1) if d else ():
                src_face = self.source.faces[s][i]
                lhs = None if src_face is None else self.mapping[src_face]
                rhs = self.target.face(t, i)
                if lhs != rhs:
                    problems.append(f"face {i} of {s!r} does not commute")
        return problems

    def __call__(self, s):
        if s is None:
            return None
        return self.mapping[s]

    def compose(self, other):
        mapping = {}
        for s, t in other.mapping.items():
            mapping[s] = None if t is None else self.mapping[t]
        return BasedMorphism(other.source, self.target, mapping, check=False)

    def is_injective_nonbase(self):
        """Injective on non-basepoint simplices and basepoint-free images."""
        for d in self.source.simplices:
            imgs = [self.mapping[s] for s in self.source.simplices[d]]
            if None in imgs or len(set(imgs)) != len(imgs):
                return False
        return True

    def is_isomorphism(self):
        if not self.is_injective_nonbase():
            return False
        for d in set(self.source.simplices) | set(self.target.simplices):
            if len(self.source.cells(d)) != len(self.target.cells(d)):
                return False
        return not self.validate()


def based_identity(K):
    return BasedMorphism(K, K, {s: s for s in K.dim_of}, check=False)


def based_skeleton(K, m):
    """The m-skeleton as a based Delta-set (non-basepoint cells of dim <= m)."""
    simplices = {d: list(v) for d, v in K.simplices.items() if d <= m}
    faces = {s: K.faces[s] for d, v in simplices.items() for s in v}
    keys = {s: K.sort_key(s) for d, v in simplices.items() for s in v}
    return BasedDeltaSet(simplices, faces, sort_keys=keys)


def based_quotient(K, collapse):
    """Collapse a face-closed set of non-basepoint simplices to the basepoint."""
    collapse = frozenset(collapse)
    for s in collapse:
        for f in K.faces[s]:
            if f is not None and f not in collapse:
                raise ValueError("collapsed set must be face-closed")
    simplices = {}
    faces = {}
    keys = {}
    for d, s in K.all_cells():
        if s in collapse:
            continue
        simplices.setdefault(d, []).append(s)
        faces[s] = tuple(None if (f is None or f in collapse) else f
                         for f in K.faces[s])
        keys[s] = K.sort_key(s)
    return BasedDeltaSet(simplices, faces, sort_keys=keys)


class BasedPushoutResult:
    __slots__ = ("delta", "leg_b", "leg_c")

    def __init__(self, delta, leg_b, leg_c):
        self.delta = delta
        self.leg_b = leg_b
        self.leg_c = leg_c


def based_pushout(j, f):
    """Pushout of based Delta-sets along a monomorphism j.

    j : A -> B injective on non-basepoint simplices, f : A -> C arbitrary
    based.  Identifications that reach the basepoint collapse the whole
    class to the basepoint.  The C-side leg is injective.
    """
    if j.source is not f.source and j.source != f.source:
        raise ValueError("pushout legs must share their source")
    if not j.is_injective_nonbase():
        raise ValueError("based pushout requires an injective first leg")
    B, C = j.target, f.target
    j_image = {}  # name in B -> name-or-None in C
    for a in j.source.dim_of:
        j_image[j.mapping[a]] = f.mapping[a]

    def rep_b(s):
        if s in j_image:
            t = j_image[s]
            return None if t is None else ("C", t)
        return ("B", s)

    simplices = {}
    faces = {}
    keys = {}
    name_of = {}
    for d, s in C.all_cells():
        name_of[("C", s)] = s
        simplices.setdefault(d, []).append(s)
        keys[s] = (0, C.sort_key(s))
    for d, s in B.all_cells():
        if s in j_image:
            continue
        name = s
        while name in C.dim_of:
            name = "B:" + name
        name_of[("B", s)] = name
        simplices.setdefault(d, []).append(name)
        keys[name] = (1, B.sort_key(s))
    for d, s in C.all_cells():
        faces[s] = tuple(None if fc is None else name_of[("C", fc)]
                         for fc in C.faces[s])
    for d, s in B.all_cells():
        if s in j_image:
            continue
        fcs = []
        for fc in B.faces[s]:
            r = None if fc is None else rep_b(fc)
            fcs.append(None if r is None else name_of[r])
        faces[name_of[("B", s)]] = tuple(fcs)
    P = BasedDeltaSet(simplices, faces, sort_keys=keys)
    leg_b = BasedMorphism(
        B, P,
        {s: (None if rep_b(s) is None else name_of[rep_b(s)])
         for s in B.dim_of},
        check=False)
    leg_c = BasedMorphism(C, P, {s: s for s in C.dim_of}, check=False)
    return BasedPushoutResult(P, leg_b, leg_c)


# ---------------------------------------------------------------------------
# bridges to the unbased world
# ---------------------------------------------------------------------------

BASEPOINT_PREFIX = "*"


def basepoint_name(d):
    return f"{BASEPOINT_PREFIX}{d}"


def finite_model(K, up_to=None):
    """Finite unbased model: the non-basepoint cells of dimension <= up_to
    plus one explicit basepoint cell per dimension.

    This is the skeleton finite presentation r : R -> K; the preimage of the
    basepoints is the sub-Delta-set of the `*d` cells.  Defaults to the top
    non-basepoint dimension.
    """
    m = K.top_dim if up_to is None else up_to
    m = max(m, 0)
    simplices = {d: [basepoint_name(d)] for d in range(m + 1)}
    faces = {basepoint_name(d): tuple(basepoint_name(d - 1) for _ in range(d + 1))
             for d in range(1, m + 1)}
    keys = {basepoint_name(d): (0,) for d in range(m + 1)}
    for d, s in K.all_cells():
        if d > m:
            continue
        simplices[d].append(s)
        faces[s] = tuple(basepoint_name(d - 1) if f is None else f
                         for f in K.faces[s])
        keys[s] = (1, K.sort_key(s))
    return DeltaSet(simplices, faces, sort_keys=keys)


def forget_basepoint(K):
    """The non-basepoint cells as an honest Delta-set, when no face hits
    the basepoint (raises otherwise)."""
    faces = {}
    for d, s in K.all_cells():
        if any(f is None for f in K.faces[s]):
            raise ValueError(f"face of {s!r} hits the basepoint")
        faces[s] = K.faces[s]
    return DeltaSet({d: list(v) for d, v in K.simplices.items()}, faces,
                    sort_keys=dict(K._sort_keys))


def lift_to_model(f, source_model, target_model):
    """Lift a based morphism to the finite models (basepoints to basepoints)."""
    mapping = {}
    for d, s in source_model.all_cells():
        if s.startswith(BASEPOINT_PREFIX):
            mapping[s] = s if s in target_model.dim_of else basepoint_name(d)
        else:
            t = f.mapping[s]
            mapping[s] = basepoint_name(d) if t is None else t
    return DeltaMorphism(source_model, target_model, mapping)
