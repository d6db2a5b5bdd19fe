"""Elementary expansions and collapses, cones, mapping cylinders, and
replayable weak-equivalence certificates.

An elementary expansion of dimension n adjoins a free pair {e, e d_i}: the
larger set is the disjoint union of the smaller with these two simplices,
and every other face e d_j already lies in the smaller set.  Equivalently,
the inclusion is a pushout of the horn inclusion Lambda^i[n] -> Delta[n].
Expansions realize to homotopy equivalences, so integral homology is
invariant under certificate replay (a tested property, not an assumption).

Moves act on one cell table, `_Cells`: each cell's dimension and faces,
and its coface count, the number of face entries that name it.
The counts change with each expansion and collapse, so the free-pair test
reads them in place of scanning the cells: {e, e d_i} is free when e has
coface count 0 and e d_i has count 1.  Certificate replay, the collapse
search (whose node is the table) and expansion recognition all apply
their moves to this table.  The table keeps no cell order: a replayed
set is ordered by the sort keys of the certificate's result, and the
collapse search reads the order of the set it collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop

from .delta import DeltaSet, DeltaMorphism, SubDeltaSet, standard, pushout
from .products import n_ary_product, cell_name, slice_inclusion, \
    smash_counts


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


class _Cells:
    """A Delta-set's cells while moves are applied to it: dimensions, faces,
    the coface count of each cell (how many face entries name it) and the
    set `tops` of cells with count 0."""

    def __init__(self, K):
        if K.based:
            raise ValueError("moves apply to unbased Delta-sets")
        self.dim_of = {s: d for d, s in K.all_cells()}
        self.faces = dict(K.faces)
        self.cofaces = dict.fromkeys(self.dim_of, 0)
        for fs in self.faces.values():
            for f in fs:
                self.cofaces[f] += 1
        self.tops = {s for s, c in self.cofaces.items() if not c}

    def expand(self, mv):
        """Adjoin e and f = e d_i, both new; every other face of e, and
        every face of f, must already be present in its dimension."""
        n = len(mv.e_faces) - 1
        if n < 1 or not 0 <= mv.i <= n:
            raise ValueError(f"{mv.e!r} has no face {mv.i} to expand along")
        f = mv.e_faces[mv.i]
        if mv.e in self.dim_of or f in self.dim_of or mv.e == f:
            raise ValueError(f"move re-adds existing simplex {mv.e!r}")
        if len(mv.f_faces) != (n if n > 1 else 0):
            raise ValueError(f"{f!r} has {len(mv.f_faces)} faces")
        for j, fc in enumerate(mv.e_faces):
            if j != mv.i and self.dim_of.get(fc) != n - 1:
                raise ValueError(
                    f"face {fc!r} of {mv.e!r} missing before expansion")
        for fc in mv.f_faces:
            if self.dim_of.get(fc) != n - 2:
                raise ValueError(
                    f"face {fc!r} of {f!r} missing before expansion")
        for s, fs, d in ((f, mv.f_faces, n - 1), (mv.e, mv.e_faces, n)):
            self.dim_of[s] = d
            self.faces[s] = tuple(fs)
            self.cofaces[s] = 0
            self.tops.add(s)
            for fc in fs:
                self.cofaces[fc] += 1
                self.tops.discard(fc)

    def free_pairs(self, among):
        """The free pairs (e, i) with e in `among`: e is a face of nothing,
        and f = e d_i has coface count 1, so it occurs once among e's faces
        and is a face of nothing else."""
        cofaces = self.cofaces
        return [(e, i) for e in among if not cofaces[e]
                for i, f in enumerate(self.faces[e]) if cofaces[f] == 1]

    def collapse(self, e, i):
        """Remove the free pair {e, e d_i}."""
        if e not in self.faces or (e, i) not in self.free_pairs([e]):
            raise ValueError(f"({e!r}, {i!r}) is not a free pair")
        for s in (e, self.faces[e][i]):
            for fc in self.faces.pop(s):
                self.cofaces[fc] -= 1
                if not self.cofaces[fc]:
                    self.tops.add(fc)
            del self.dim_of[s], self.cofaces[s]
            self.tops.discard(s)


class ExpansionCertificate:
    """Ordered moves turning `base` into `result`; replay verifies each
    move and must reproduce `result` bit-identically: the same cells, faces
    and basedness, ordered by the sort keys of `result`."""

    def __init__(self, base, moves, result):
        self.base = base
        self.moves = tuple(moves)
        self.result = result

    def __len__(self):
        return len(self.moves)

    def replay(self):
        """Re-apply the moves from base, checking freeness at each step;
        the cells are ordered by the sort keys of `result` (of `base` when
        there is no result)."""
        cells = _Cells(self.base)
        for mv in self.moves:
            if mv.direction == "expand":
                cells.expand(mv)
            else:
                cells.collapse(mv.e, mv.i)
        simplices = {}
        for s, d in cells.dim_of.items():
            simplices.setdefault(d, []).append(s)
        order = self.base if self.result is None else self.result
        return DeltaSet(simplices, cells.faces, sort_keys=order._sort_keys)

    def verify(self):
        return self.replay() == self.result

    def reversed(self):
        return ExpansionCertificate(
            self.result, [m.inverse() for m in reversed(self.moves)],
            self.base)


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
    if f not in L.faces[e]:
        return None
    # every other face of e lies in sub, being neither e nor f
    i = L.faces[e].index(f)
    return (e, i) if (e, i) in _Cells(L).free_pairs([e]) else None


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
            verts = horn.sort_key(s)  # standard() keys cells by vertex tuple
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
            verts = simplex.sort_key(s)
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
        if s not in L.faces:
            raise ValueError(f"{s!r} is not a simplex of L")
    # a search node is the table of L minus the collapsed cells; moves
    # never touch the target, so the search succeeds once only it is left.
    # Moves are tried by dimension, highest first, then in L's cell order.
    cells = _Cells(L)
    order = [s for d in sorted(L.simplices, reverse=True)
             for s in L.simplices[d]]
    rank = {s: k for k, s in enumerate(order)}

    def collapse_moves():
        cands = [(rank[e], i) for e, i in cells.free_pairs(cells.tops)
                 if e not in target and L.faces[e][i] not in target]
        heapify(cands)  # a heap, as most nodes try only their first move
        while cands:
            r, i = heappop(cands)
            yield order[r], i

    collapse_seq = []       # the moves into each node on the stack
    stack = []              # per node, the iterator of its untried moves
    nodes = 0
    while len(cells.dim_of) != len(target):
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"collapse search exceeded {budget} nodes")
        stack.append(collapse_moves())
        step = next(stack[-1], None)
        while step is None:
            stack.pop()
            if not stack:
                return None
            cells.expand(collapse_seq.pop().inverse())
            step = next(stack[-1], None)
        e, i = step
        f = L.faces[e][i]
        collapse_seq.append(Move("collapse", e, i, L.faces[e], L.faces[f]))
        cells.collapse(e, i)
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
        if cone_name(s) in K.faces:
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


def cone_counts(counts):
    """Cells per dimension of cone(K) from those of K, without building
    it: the cone point, K, and one cone on each cell of K."""
    out = [1] + [0] * len(counts)
    for d, c in enumerate(counts):
        out[d] += c
        out[d + 1] += c
    return tuple(out)


# ---------------------------------------------------------------------------
# mapping cylinders
# ---------------------------------------------------------------------------

def cylinder_inclusions(K, interval):
    """Front and back inclusions i0, i1 : K -> K (x) Delta[1].

    i0 lands on the vertex "0" (the face d_1 of Delta[1]), i1 on "1"."""
    P = n_ary_product([K, interval])
    v0, v1 = interval.cells(0)
    return P, slice_inclusion(K, P, v0), slice_inclusion(K, P, v1)


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
                moves.append(Move("expand", e, t + 1, e_faces, P.faces[f]))
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


def cylinder_counts(k, l):
    """Cells per dimension of the mapping cylinder of f : K -> L from those
    of K and L, without building it: K (x) Delta[1], less the back copy of
    K that the pushout glues onto L, plus L."""
    out = list(smash_counts(k, (2, 1)))
    out += [0] * (len(l) - len(out))
    for d, c in enumerate(k):
        out[d] -= c
    for d, c in enumerate(l):
        out[d] += c
    return tuple(out)
