"""Finite semisimplicial sets (Delta-sets), based or not: representation,
validation, morphisms and pushouts.

A Delta-set is stored by its simplex identifiers per dimension together with
a face table.  Face maps must satisfy the semisimplicial identity

    face(face(x, j), i) == face(face(x, i), j - 1)   for i < j.

A based Delta-set (based=True) carries a basepoint in every dimension,
preserved by all face maps.  Only its non-basepoint simplices are stored; a
face entry of None denotes the basepoint, and the identity is read with
face(*, i) = *.  An unbased set has no None faces, and a morphism may send a
simplex to the basepoint (None) only when its target is based.

Objects are immutable after construction; every operation returns new
values.  Constructors check referential integrity (faces exist and have the
right dimension, identifiers are unique, only simplices have face entries)
and raise ValueError on garbage;
`validate` reports semisimplicial-identity violations as diagnostics without
raising, so deliberately broken face tables can be built and inspected.
"""

from __future__ import annotations

from itertools import combinations


def safe_key(k):
    """Total order on nested number/str/tuple sort keys across mixed shapes.

    Numbers (int, bool, float) come first, ordered by value, then strings
    (and any other leaf, by its str()), then tuples, each tuple by its
    entries' safe keys in turn.
    """
    if isinstance(k, tuple):
        return (2, tuple(safe_key(x) for x in k))
    if isinstance(k, (int, float)):
        return (0, (k,))
    return (1, (str(k),))


def sorted_cells(names, sort_keys):
    """`names` in the order of safe_key(sort_keys.get(s, (s,))).

    This is the one place that decides cell order.  On keys built from
    numbers, strings and tuples, plain comparison agrees with safe_key
    wherever it does not raise, and it raises TypeError when two compared
    entries are of different kinds (number, string, tuple); so the keys
    are sorted plainly, and by safe_key only after a TypeError.
    """
    names = list(names)
    keys = [sort_keys.get(s, (s,)) for s in names]
    try:
        order = sorted(range(len(keys)), key=keys.__getitem__)
    except TypeError:
        return sorted(names, key=lambda s: safe_key(sort_keys.get(s, (s,))))
    return [names[k] for k in order]


class DeltaSet:
    """Finite Delta-set: per-dimension simplex lists plus a face table.

    faces[name] is the tuple (x d_0, ..., x d_n) for an n-simplex x; the
    face entries of vertices are empty tuples.  In a based set a face entry
    may be None, the basepoint, which is not listed among the simplices.

    The set adopts the `faces` and `sort_keys` dicts it is given without
    copying them, so they must not be changed afterwards.

    `_chains` caches the Morse reductions of the cellular chain complex
    that `homology.reduction_of` makes, one `homology.Reduction` per value
    of `reduced`; the complex itself is consumed by its reduction and not
    kept.  They are shared by every caller and must not be mutated.
    """

    __slots__ = ("simplices", "faces", "dim_of", "top_dim", "based",
                 "_sort_keys", "_chains", "__weakref__")

    def __init__(self, simplices, faces, sort_keys=None, based=False):
        """simplices: dict dim -> iterable of names; faces: name -> tuple.

        sort_keys optionally maps names to keys built from numbers,
        strings and tuples that encode the canonical construction data;
        each dimension's simplices are listed by `sorted_cells` in the
        safe_key order of these keys (of (name,) for an unkeyed name), so
        that repeated runs are bit-identical.  Code that needs cell order
        reads it from these lists.  `faces` is completed in place: a
        vertex's entry becomes (), a list of faces a tuple.
        """
        keyed = {} if sort_keys is None else sort_keys
        self._sort_keys = keyed
        self._chains = {}
        self.based = based
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
        for s, d in self.dim_of.items():
            fs = faces.get(s, ())
            if d > 0 and len(fs) != d + 1:
                raise ValueError(f"simplex {s!r} of dim {d} has {len(fs)} faces")
            for f in fs:
                if self.dim_of.get(f) != d - 1 and (f is not None or
                                                    not based):
                    raise ValueError(
                        f"face {f!r} of {s!r} is not a simplex of dim {d - 1}")
            if not d:
                faces[s] = ()
            elif type(fs) is not tuple:
                faces[s] = tuple(fs)
        if len(faces) != len(self.dim_of):
            stray = [s for s in faces if s not in self.dim_of]
            raise ValueError(f"face entries for undeclared simplices "
                             f"{stray[:3]}")
        self.faces = faces

    # -- basic queries ----------------------------------------------------

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
        """Simplex counts per dimension 0..top_dim."""
        return tuple(len(self.simplices.get(d, ()))
                     for d in range(self.top_dim + 1))

    def iterated_face(self, s, missing):
        """Apply the injective monotone map skipping `missing` (a set of
        indices): faces are taken in decreasing index order."""
        for i in sorted(missing, reverse=True):
            if s is None:
                break
            s = self.faces[s][i]
        return s

    def sort_key(self, s):
        return self._sort_keys.get(s, (s,))

    def euler_characteristic(self):
        """The Euler characteristic; of a based set, the reduced one (the
        basepoint is not counted)."""
        return sum((-1) ** d * len(v) for d, v in self.simplices.items())

    def __eq__(self, other):
        if not isinstance(other, DeltaSet):
            return NotImplemented
        return (self.based == other.based and self.simplices == other.simplices
                and self.faces == other.faces)

    def __hash__(self):
        return hash((tuple(sorted(self.simplices.items())),))

    def __repr__(self):
        based = ", based=True" if self.based else ""
        return f"DeltaSet(counts={self.counts()}{based})"


EMPTY = DeltaSet({}, {})


def validate(K):
    """Diagnostic report for the semisimplicial identity, read with
    face(*, i) = * in a based set.

    Returns a list of violation records; empty iff K is a valid Delta-set.
    Referential integrity is already enforced by the constructor.
    """
    report = []
    faces = K.faces
    for d, x in K.all_cells():
        if d < 2:
            continue
        fx = faces[x]
        for i, j in combinations(range(d + 1), 2):
            a, b = fx[j], fx[i]
            left = None if a is None else faces[a][i]
            right = None if b is None else faces[b][j - 1]
            if left != right:
                report.append({
                    "simplex": x, "i": i, "j": j,
                    "face_ji": left, "face_ij1": right,
                })
    return report


def is_valid(K):
    return not validate(K)


# ---------------------------------------------------------------------------
# standard complexes
# ---------------------------------------------------------------------------

def _tuple_name(t):
    return ",".join(str(v) for v in t)


def standard(kind, n, i=None):
    """Delta[n], its boundary, or the horn missing face i.

    Simplices of Delta[n] are the injective monotone maps [k] -> [n],
    identified with their image tuples; there are C(n+1, k+1) of them in
    dimension k.  The boundary omits the identity; the horn additionally
    omits d_i (the codimension-1 face skipping vertex i).  Each is built by
    `from_simplicial_complex` from its maximal simplices: [n] itself, every
    codimension-1 face, or the codimension-1 faces that contain vertex i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind not in ("simplex", "boundary", "horn"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "horn":
        if i is None or not 0 <= i <= n:
            raise ValueError(f"horn index {i!r} out of range for n={n}")
    verts = range(n + 1)
    if kind == "simplex":
        return from_simplicial_complex([verts])
    return from_simplicial_complex(
        s for s in combinations(verts, n) if kind == "boundary" or i in s)


def cycle_graph(n):
    """The n-gon: n vertices v0..v_{n-1}, n edges with boundary
    (v_{k+1}, v_k), indices mod n.  Realizes to a circle for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    simplices = {0: [f"v{k}" for k in range(n)],
                 1: [f"w{k}" for k in range(n)]}
    faces = {f"w{k}": (f"v{(k + 1) % n}", f"v{k}") for k in range(n)}
    keys = {f"v{k}": (0, k) for k in range(n)}
    keys.update({f"w{k}": (1, k) for k in range(n)})
    return DeltaSet(simplices, faces, sort_keys=keys)


def from_simplicial_complex(maximal):
    """Delta-set of an abstract simplicial complex given by its simplices
    (iterables of comparable vertices); all subsets are filled in.  Face
    order follows sorted vertices, so the identity holds automatically."""
    closure = set()
    for s in maximal:
        s = tuple(sorted(set(s)))
        for k in range(1, len(s) + 1):
            closure.update(combinations(s, k))
    simplices = {}
    faces = {}
    keys = {}
    for s in closure:
        name = _tuple_name(s)
        simplices.setdefault(len(s) - 1, []).append(name)
        keys[name] = s
        if len(s) > 1:
            faces[name] = tuple(
                _tuple_name(s[:j] + s[j + 1:]) for j in range(len(s)))
    return DeltaSet(simplices, faces, sort_keys=keys)


# ---------------------------------------------------------------------------
# sub-Delta-sets and skeleta
# ---------------------------------------------------------------------------

class SubDeltaSet:
    """A face-closed subset of a parent Delta-set's simplices (the
    basepoint of a based parent always belongs to it)."""

    __slots__ = ("parent", "members")

    def __init__(self, parent, members):
        members = frozenset(members)
        for s in members:
            if s not in parent.dim_of:
                raise ValueError(f"{s!r} is not a simplex of the parent")
            for f in parent.faces[s]:
                if f is not None and f not in members:
                    raise ValueError(
                        f"members not face-closed: {s!r} has face {f!r} outside")
        self.parent = parent
        self.members = members

    def as_delta_set(self):
        simplices = {}
        faces = {}
        keys = {}
        for s in self.members:
            d = self.parent.dim_of[s]
            simplices.setdefault(d, []).append(s)
            faces[s] = self.parent.faces[s]
            keys[s] = self.parent.sort_key(s)
        return DeltaSet(simplices, faces, sort_keys=keys,
                        based=self.parent.based)

    def __contains__(self, s):
        return s in self.members

    def __len__(self):
        return len(self.members)


def skeleton(K, m):
    """The m-skeleton as a SubDeltaSet (empty for m < 0)."""
    members = [s for s, d in K.dim_of.items() if d <= m]
    return SubDeltaSet(K, members)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class DeltaMorphism:
    """Dimension-preserving simplex map commuting with all faces; into a
    based target a simplex may go to the basepoint (None).

    The morphism adopts the `mapping` dict it is given without copying it,
    so it must not be changed afterwards."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = mapping
        if check:
            problems = self.validate()
            if problems:
                raise ValueError(f"invalid morphism: {problems[:3]}")

    def validate(self):
        problems = []
        m = self.mapping
        tgt = self.target
        for d, s in self.source.all_cells():
            if s not in m:
                problems.append(f"no image for {s!r}")
                continue
            t = m[s]
            if t is None:
                if not tgt.based:
                    problems.append(f"image of {s!r} is the basepoint of an "
                                    f"unbased target")
                    continue
                want = (None,) * (d + 1) if d else ()
            elif tgt.dim_of.get(t) != d:
                problems.append(f"image of {s!r} has wrong dimension")
                continue
            else:
                want = tgt.faces[t]
            got = tuple(map(m.get, self.source.faces[s]))
            if got != want:
                problems.extend(f"face {i} of {s!r} does not commute"
                                for i, (g, w) in enumerate(zip(got, want))
                                if g != w)
        return problems

    def compose(self, other):
        """self o other (other applied first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        m = self.mapping
        return DeltaMorphism(
            other.source, self.target,
            {s: None if t is None else m[t] for s, t in other.mapping.items()},
            check=False)

    def is_injective(self):
        """Injective on simplices, with no simplex sent to the basepoint."""
        for d in self.source.simplices:
            imgs = [self.mapping[s] for s in self.source.simplices[d]]
            if None in imgs or len(set(imgs)) != len(imgs):
                return False
        return True

    def is_isomorphism(self):
        if not self.is_injective():
            return False
        for d in set(self.source.simplices) | set(self.target.simplices):
            if len(self.source.cells(d)) != len(self.target.cells(d)):
                return False
        return not self.validate()


def identity_morphism(K):
    return DeltaMorphism(K, K, {s: s for s in K.dim_of}, check=False)


def inclusion_morphism(sub, ambient=None):
    """Inclusion of a SubDeltaSet (as a standalone Delta-set) into its
    parent, or of one Delta-set into a larger one containing its names."""
    if isinstance(sub, SubDeltaSet):
        K = sub.as_delta_set()
        return DeltaMorphism(K, sub.parent, {s: s for s in K.dim_of},
                             check=False)
    return DeltaMorphism(sub, ambient, {s: s for s in sub.dim_of})


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------

class PushoutResult:
    """Pushout of B <-j- A -f-> C along a monomorphism j.

    Attributes: delta (the pushout Delta-set), leg_b : B -> P,
    leg_c : C -> P (always injective).  `induced(u, v)` produces the unique
    morphism P -> T given a test cocone u : B -> T, v : C -> T.
    """

    __slots__ = ("delta", "leg_b", "leg_c")

    def __init__(self, delta, leg_b, leg_c):
        self.delta = delta
        self.leg_b = leg_b
        self.leg_c = leg_c

    def induced(self, u, v):
        mapping = {}
        for leg, w in ((self.leg_b, u), (self.leg_c, v)):
            for x, px in leg.mapping.items():
                t = w.mapping[x]
                if px is None:  # the basepoint of P goes to the basepoint
                    if t is not None:
                        raise ValueError(f"cocone not based at {x!r}")
                elif mapping.setdefault(px, t) != t:
                    raise ValueError(f"cocone not compatible at {px!r}")
        return DeltaMorphism(self.delta, u.target, mapping)


def pushout(j, f):
    """Set-level pushout in each dimension with induced faces.

    j must be injective; j and f share their source.  Because j is
    injective, each cell of P is one cell of C = f.target together with
    the cells j(a) for the a that f sends to it, or a cell of B = j.target
    outside the image of j (prefixed by "B:" until its name is new if it
    clashes with a C name).  A
    cell j(a) with f(a) the basepoint goes to the basepoint.  C's names are
    kept, so the leg opposite j is injective.
    """
    if j.source is not f.source and j.source != f.source:
        raise ValueError("pushout legs must share their source")
    if not j.is_injective():
        raise ValueError("pushout requires the first leg to be injective")
    B, C = j.target, f.target
    image = {j.mapping[a]: f.mapping[a] for a in j.source.dim_of}
    simplices = {}
    faces = {}
    keys = {}
    for d, s in C.all_cells():
        simplices.setdefault(d, []).append(s)
        faces[s] = C.faces[s]
        keys[s] = (0, C.sort_key(s))
    outside = [(d, s) for d, s in B.all_cells() if s not in image]
    taken = set(C.dim_of).union(s for _, s in outside)
    for d, s in outside:
        name = s
        if s in C.dim_of:
            while name in taken:
                name = "B:" + name
            taken.add(name)
        image[s] = name
        simplices.setdefault(d, []).append(name)
        keys[name] = (1, B.sort_key(s))
    for d, s in outside:
        faces[image[s]] = tuple(None if fc is None else image[fc]
                                for fc in B.faces[s])
    P = DeltaSet(simplices, faces, sort_keys=keys, based=B.based or C.based)
    leg_b = DeltaMorphism(B, P, {s: image[s] for s in B.dim_of}, check=False)
    leg_c = DeltaMorphism(C, P, {s: s for s in C.dim_of}, check=False)
    return PushoutResult(P, leg_b, leg_c)


def disjoint_union(K, L, tags=("L:", "R:")):
    """Coproduct with tagged names (tags avoid identifier clashes)."""
    simplices = {}
    faces = {}
    keys = {}
    for tag, X, side in ((tags[0], K, 0), (tags[1], L, 1)):
        for d, s in X.all_cells():
            name = tag + s
            simplices.setdefault(d, []).append(name)
            faces[name] = tuple(tag + f for f in X.faces[s])
            keys[name] = (side, X.sort_key(s))
    return DeltaSet(simplices, faces, sort_keys=keys)
