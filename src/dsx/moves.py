"""Elementary expansions and collapses, cones, mapping cylinders, horn
filling, and replayable weak-equivalence certificates.

An elementary expansion of dimension n adjoins a free pair {e, e d_i}: the
larger set is the disjoint union of the smaller with these two simplices,
and every other face e d_j already lies in the smaller set.  Equivalently,
the inclusion is a pushout of the horn inclusion Lambda^i[n] -> Delta[n].
Expansions realize to homotopy equivalences, so integral homology is
invariant under certificate replay (a tested property, not an assumption).
"""

from __future__ import annotations

from dataclasses import dataclass

from .delta import DeltaSet, DeltaMorphism, SubDeltaSet, standard, pushout
from .products import n_ary_product, cell_name


class BudgetExhausted(Exception):
    """Raised when a collapse search runs out of its node budget; this is
    distinct from a completed search that found nothing."""


@dataclass(frozen=True)
class Move:
    """One expansion/collapse: the free simplex e, its face index i, and
    the face tuples of e and of f = e d_i (enough to replay the move)."""
    direction: str          # "expand" | "collapse"
    e: str
    i: int
    e_faces: tuple
    f_faces: tuple

    def inverse(self):
        return Move("collapse" if self.direction == "expand" else "expand",
                    self.e, self.i, self.e_faces, self.f_faces)


class ExpansionCertificate:
    """Ordered moves turning `base` into `result`; replay verifies each
    move and must reproduce `result` bit-identically."""

    def __init__(self, base, moves, result):
        self.base = base
        self.moves = tuple(moves)
        self.result = result

    def __len__(self):
        return len(self.moves)

    def replay(self):
        """Re-apply the moves from base, checking freeness at each step."""
        simplices = {d: list(v) for d, v in self.base.simplices.items()}
        faces = dict(self.base.faces)
        dim_of = dict(self.base.dim_of)
        keys = dict(self.base._sort_keys)
        key_src = self.result if self.result is not None else self.base

        def current():
            return DeltaSet({d: list(v) for d, v in simplices.items()},
                            faces, sort_keys=keys)

        for mv in self.moves:
            n = len(mv.e_faces) - 1
            f = mv.e_faces[mv.i]
            if mv.direction == "expand":
                if mv.e in dim_of or f in dim_of:
                    raise ValueError(f"move re-adds existing simplex {mv.e!r}")
                for j, fc in enumerate(mv.e_faces):
                    if j != mv.i and fc not in dim_of:
                        raise ValueError(
                            f"face {fc!r} of {mv.e!r} missing before expansion")
                for fc in mv.f_faces:
                    if fc not in dim_of:
                        raise ValueError(
                            f"face {fc!r} of {f!r} missing before expansion")
                simplices.setdefault(n - 1, []).append(f)
                dim_of[f] = n - 1
                faces[f] = mv.f_faces
                simplices.setdefault(n, []).append(mv.e)
                dim_of[mv.e] = n
                faces[mv.e] = mv.e_faces
                for s in (mv.e, f):
                    if s in key_src._sort_keys:
                        keys[s] = key_src._sort_keys[s]
            else:
                _check_free_pair(dim_of, faces, mv.e, mv.i)
                simplices[n].remove(mv.e)
                simplices[n - 1].remove(f)
                for s in (mv.e, f):
                    del dim_of[s]
                    del faces[s]
                    keys.pop(s, None)
                simplices = {d: v for d, v in simplices.items() if v}
        return current()

    def verify(self):
        return self.replay() == self.result

    def reversed(self):
        return ExpansionCertificate(
            self.result, [m.inverse() for m in reversed(self.moves)],
            self.base)


def _check_free_pair(dim_of, faces, e, i):
    f = faces[e][i]
    n = dim_of[e]
    if dim_of.get(f) != n - 1:
        raise ValueError("face index does not name a codimension-1 face")
    if faces[e].count(f) != 1:
        raise ValueError(f"{f!r} occurs more than once among faces of {e!r}")
    for s, fs in faces.items():
        if s == e:
            continue
        if f in fs:
            raise ValueError(f"{f!r} is also a face of {s!r}")
        if e in fs:
            raise ValueError(f"{e!r} is a face of {s!r}")


# ---------------------------------------------------------------------------
# recognizing and finding expansions
# ---------------------------------------------------------------------------

def is_elementary_expansion(sub):
    """Witness (e, i) if the inclusion sub -> parent is a single elementary
    expansion, else None."""
    L = sub.parent
    complement = [s for s in L.dim_of if s not in sub.members]
    if len(complement) != 2:
        return None
    complement.sort(key=lambda s: L.dim_of[s])
    f, e = complement
    n = L.dim_of[e]
    if L.dim_of[f] != n - 1 or n < 1:
        return None
    witness = None
    for i, fc in enumerate(L.faces[e]):
        if fc == f:
            if witness is None:
                witness = i
        elif fc not in sub.members:
            return None
    if witness is None:
        return None
    if L.faces[e].count(f) != 1:
        return None
    # f must not be a face of anything else, e of nothing at all
    for s in L.dim_of:
        if s == e:
            continue
        fs = L.faces[s]
        if f in fs or e in fs:
            return None
    return (e, witness)


def expansion_via_horn_pushout(sub):
    """Independent cross-check: sub -> parent is an elementary expansion iff
    the parent is the pushout of a horn inclusion over sub.  Returns the
    witnessing (e, i) or None."""
    L = sub.parent
    complement = [s for s in L.dim_of if s not in sub.members]
    if len(complement) != 2:
        return None
    complement.sort(key=lambda s: L.dim_of[s])
    f, e = complement
    n = L.dim_of[e]
    if n < 1 or L.dim_of[f] != n - 1:
        return None
    K = sub.as_delta_set()
    for i in range(n + 1):
        if L.faces[e][i] != f:
            continue
        horn = standard("horn", n, i)
        simplex = standard("simplex", n)
        # horn map sends the face d_j (j != i) to e d_j
        mapping = {}
        ok = True
        for d, s in horn.all_cells():
            verts = tuple(int(v) for v in s.split(","))
            missing = [v for v in range(n + 1) if v not in verts]
            img = L.iterated_face(e, missing)
            if img not in sub.members:
                ok = False
                break
            mapping[s] = img
        if not ok:
            continue
        try:
            h = DeltaMorphism(horn, K, mapping)
        except ValueError:
            continue
        incl = DeltaMorphism(horn, simplex,
                             {s: s for s in horn.dim_of}, check=False)
        po = pushout(incl, h)
        # compare the pushout against L via the canonical cocone
        cocone_b = {}
        for d, s in simplex.all_cells():
            verts = tuple(int(v) for v in s.split(","))
            missing = [v for v in range(n + 1) if v not in verts]
            cocone_b[s] = L.iterated_face(e, missing)
        u = DeltaMorphism(simplex, L, cocone_b)
        v = DeltaMorphism(K, L, {s: s for s in K.dim_of}, check=False)
        cmp_map = po.induced(u, v)
        if cmp_map.is_isomorphism():
            return (e, i)
    return None


def find_collapse_sequence(L, K, budget=100000):
    """Search for a certificate that K -> L is a composite of elementary
    expansions, by greedily collapsing L down to K with backtracking.

    Returns an ExpansionCertificate (base K, result L) or None when the
    bounded search space is exhausted; raises BudgetExhausted when the
    node budget runs out first.  Absence of a certificate proves nothing.
    The depth-first search keeps its path on an explicit stack, so a
    certificate may need any number of moves.
    """
    if isinstance(K, SubDeltaSet):
        target = K.members
        base = K.as_delta_set()
    else:
        target = set(K.dim_of)
        base = K
    for s in target:
        if s not in L.dim_of:
            raise ValueError(f"{s!r} is not a simplex of L")
    # a search node is L minus the collapsed cells; moves never touch the
    # target, so the search succeeds once only the target is left
    removed = set()
    goal = len(L.dim_of) - len(target)

    def collapse_moves():
        faces = {s: fs for s, fs in L.faces.items() if s not in removed}
        face_parents = {}
        for s, fs in faces.items():
            for fc in fs:
                face_parents.setdefault(fc, []).append(s)
        cands = []
        for e, fs in faces.items():
            if e in target or e in face_parents:
                continue
            d = L.dim_of[e]
            if d == 0:
                continue
            for i, f in enumerate(fs):
                if f in target or fs.count(f) != 1:
                    continue
                parents = face_parents.get(f, ())
                if len(parents) == 1 and parents[0] == e:
                    cands.append((d, e, i))
        cands.sort(key=lambda t: (-t[0], L.sort_key(t[1]), t[2]))
        return iter(cands)

    collapse_seq = []       # the moves into each node on the stack
    stack = []              # per node, the iterator of its untried moves
    nodes = 0
    while len(removed) != goal:
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"collapse search exceeded {budget} nodes")
        stack.append(collapse_moves())
        step = next(stack[-1], None)
        while step is None:
            stack.pop()
            if not stack:
                return None
            mv = collapse_seq.pop()
            removed.difference_update((mv.e, mv.e_faces[mv.i]))
            step = next(stack[-1], None)
        d, e, i = step
        f = L.faces[e][i]
        collapse_seq.append(Move("collapse", e, i, L.faces[e],
                                 L.faces[f] if L.dim_of[f] > 0 else ()))
        removed.update((e, f))
    expands = [m.inverse() for m in reversed(collapse_seq)]
    cert = ExpansionCertificate(base, expands, L)
    if not cert.verify():
        raise AssertionError("collapse search produced an invalid certificate")
    return cert


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

CONE_POINT = "apex"


def cone_name(x):
    return f"c[{x}]"


def cone(K):
    """The cone CK, the inclusion K -> CK, and the expansion certificate
    for {cone point} -> CK (one expansion per simplex of K).

    Faces: (sigma x) d_i = sigma(x d_i) for i < n, (sigma x) d_n = x, and
    sigma of the empty simplex is the cone point, i.e. (sigma v) d_0 = *
    for vertices v.
    """
    if CONE_POINT in K.dim_of:
        raise ValueError("cone point name collides with a simplex of K")
    simplices = {0: [CONE_POINT]}
    faces = {}
    keys = {CONE_POINT: (0,)}
    for d, s in K.all_cells():
        if cone_name(s) in K.dim_of:
            raise ValueError("cone naming collides with simplices of K")
        simplices.setdefault(d, []).append(s)
        faces[s] = K.faces[s]
        keys[s] = (1, K.sort_key(s))
        simplices.setdefault(d + 1, []).append(cone_name(s))
        if d == 0:
            cf = (CONE_POINT, s)
        else:
            cf = tuple(cone_name(f) for f in K.faces[s]) + (s,)
        faces[cone_name(s)] = cf
        keys[cone_name(s)] = (2, K.sort_key(s))
    CK = DeltaSet(simplices, faces, sort_keys=keys)
    incl = DeltaMorphism(K, CK, {s: s for s in K.dim_of})
    point = DeltaSet({0: [CONE_POINT]}, {}, sort_keys={CONE_POINT: (0,)})
    moves = []
    for d in sorted(K.simplices):
        for s in K.simplices[d]:
            moves.append(Move("expand", cone_name(s), d + 1,
                              faces[cone_name(s)],
                              K.faces[s] if d > 0 else ()))
    cert = ExpansionCertificate(point, moves, CK)
    return CK, incl, cert


# ---------------------------------------------------------------------------
# mapping cylinders
# ---------------------------------------------------------------------------

def _vertex_chart(d):
    # chart of (x, vertex): the vertex component is constant 0
    return tuple((k, 0) for k in range(d + 1))


def cylinder_inclusions(K, interval):
    """Front and back inclusions i0, i1 : K -> K (x) Delta[1].

    i0 lands on the vertex "0" (the face d_1 of Delta[1]), i1 on "1"."""
    P = n_ary_product([K, interval])
    v0, v1 = interval.cells(0)
    maps = []
    for v in (v0, v1):
        mapping = {}
        for d, x in K.all_cells():
            mapping[x] = cell_name((x, v), _vertex_chart(d))
        maps.append(DeltaMorphism(K, P, mapping))
    return P, maps[0], maps[1]


def prism_expansion_moves(K, P, interval):
    """Expansion order for K x {1} -> K (x) Delta[1].

    Over each m-simplex x of K (processed by increasing dimension) the
    prism cells are charts (S0, S1) with S0 u S1 = [m]; the pair
    (P_t, Q_t) with P_t = ([0..t], [t..m]) and Q_t = P_t minus (t, 1) is
    added for t = 0..m, each an expansion with free index t + 1.
    """
    v0, v1 = interval.cells(0)
    edge = interval.cells(1)[0]
    moves = []
    for d in sorted(K.simplices):
        for x in K.simplices[d]:
            for t in range(d + 1):
                pts = tuple((k, 0) for k in range(t + 1)) + \
                    tuple((k, 1) for k in range(t, d + 1))
                e = cell_name((x, edge), pts)
                e_faces = P.faces[e]
                f = e_faces[t + 1]
                f_faces = P.faces[f] if P.dim_of[f] > 0 else ()
                moves.append(Move("expand", e, t + 1, e_faces, f_faces))
    return moves


def mapping_cylinder(f):
    """Mapping cylinder Mf = K (x) Delta[1]  u_f  L for f : K -> L.

    Returns (Mf, g : K (x) Delta[1] -> Mf, j : L -> Mf, i0, i1, certificate)
    where the certificate witnesses j as a composite of elementary
    expansions (the pushforward of the prism expansions of the back
    inclusion i1).
    """
    K, L = f.source, f.target
    interval = standard("simplex", 1)
    P, i0, i1 = cylinder_inclusions(K, interval)
    po = pushout(i1, f)
    Mf, g, j = po.delta, po.leg_b, po.leg_c
    moves = []
    for mv in prism_expansion_moves(K, P, interval):
        e_img = g.mapping[mv.e]
        e_faces = tuple(g.mapping[fc] for fc in mv.e_faces)
        f_img = e_faces[mv.i]
        f_faces = tuple(g.mapping[fc] for fc in mv.f_faces)
        moves.append(Move("expand", e_img, mv.i, e_faces, f_faces))
    base = SubDeltaSet(Mf, [j.mapping[s] for s in L.dim_of]).as_delta_set()
    cert = ExpansionCertificate(base, moves, Mf)
    return Mf, g, j, i0, i1, cert


# ---------------------------------------------------------------------------
# horn filling
# ---------------------------------------------------------------------------

def _horn_maps(K, n, i):
    """All morphisms Lambda^i[n] -> K, as tuples (y_j for j != i)."""
    out = []
    slots = [j for j in range(n + 1) if j != i]

    def backtrack(pos, chosen):
        if pos == len(slots):
            out.append(tuple(zip(slots, chosen)))
            return
        j = slots[pos]
        for y in K.cells(n - 1):
            ok = True
            for (k_idx, yk) in zip(slots[:pos], chosen):
                # compatibility: y_j d_k = y_k d_{j-1} for k < j
                if k_idx < j:
                    if K.faces[y][k_idx] != K.faces[yk][j - 1]:
                        ok = False
                        break
                else:
                    if K.faces[yk][j] != K.faces[y][k_idx - 1]:
                        ok = False
                        break
            if ok:
                backtrack(pos + 1, chosen + [y])

    backtrack(0, [])
    return out


def _has_filler(K, i, assignment):
    for z in K.cells(len(assignment)):
        if all(K.faces[z][j] == y for j, y in assignment):
            return z
    return None


def fill_horns(K, max_dim, rounds):
    """Bounded horn filling: each round attaches one simplex per unfilled
    horn map Lambda^i[n] -> K with 1 <= n <= max_dim, as elementary
    expansions.  Horn maps are enumerated in canonical order and checked
    against the current complex, so horns filled earlier in the same round
    are skipped.  Returns (new complex, certificate)."""
    simplices = {d: list(v) for d, v in K.simplices.items()}
    faces = dict(K.faces)
    keys = dict(K._sort_keys)
    moves = []
    fresh = 0

    def current():
        return DeltaSet({d: list(v) for d, v in simplices.items()}, faces,
                        sort_keys=keys)

    cur = K
    for _ in range(rounds):
        for n in range(1, max_dim + 1):
            for i in range(n + 1):
                for assignment in _horn_maps(cur, n, i):
                    if _has_filler(cur, i, assignment) is not None:
                        continue
                    e = f"fill{fresh}"
                    fnew = f"fill{fresh}:d{i}"
                    fresh += 1
                    e_faces = [None] * (n + 1)
                    for j, y in assignment:
                        e_faces[j] = y
                    e_faces[i] = fnew
                    got = dict(assignment)
                    if n == 1:
                        f_faces = ()
                    else:
                        f_faces = []
                        for k in range(n):
                            # e d_i d_k via the semisimplicial identity
                            if k < i:
                                f_faces.append(cur.faces[got[k]][i - 1])
                            else:
                                f_faces.append(cur.faces[got[k + 1]][i])
                        f_faces = tuple(f_faces)
                    simplices.setdefault(n - 1, []).append(fnew)
                    faces[fnew] = f_faces
                    keys[fnew] = (9, fresh, 0)
                    simplices.setdefault(n, []).append(e)
                    faces[e] = tuple(e_faces)
                    keys[e] = (9, fresh, 1)
                    moves.append(Move("expand", e, i, tuple(e_faces), f_faces))
                    cur = current()
    cert = ExpansionCertificate(K, moves, cur)
    return cur, cert
