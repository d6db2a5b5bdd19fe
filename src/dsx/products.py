"""Geometric products of Delta-sets and smash products of based Delta-sets.

An n-simplex of a product K1 (x) ... (x) Kr is an equivalence class of
tuples (x1, ..., xr; phi) with xt a simplex of Kt and phi an injective
monotone chart [n] -> [i1] x ... x [ir].  Every class has a unique
representative in which each component of the chart is surjective; we store
only these canonical representatives.  A chart with surjective components is
exactly a lattice path from the origin to (i1, ..., ir) whose steps lie in
{0,1}^r minus 0: a component jumping by 2 would skip a value forever.

Faces drop a chart point and renormalize: each chart component is factored
as (injective) o (surjective), the injective part is applied to the factor
as an iterated face, and the surjective parts form the new chart.  Because
chart steps lie in {0,1}^r, dropping a point makes each factor lose at most
one vertex, and which vertex (and the new chart) depends only on the chart
shape.  `_face_table(dims)` therefore does this normalization once per
chart and face index; assembling a face is then one table row, at most r
single faces of factors and one name lookup.  For smash products a factor
that normalizes to the basepoint kills the simplex.

Product cells record (factor names, chart points) as their sort key, so
structural maps never need to parse cell names.  `product_morphism` maps
products and smashes alike: a cell keeps its chart and takes the factors'
images, or goes to the basepoint when one of them does.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product as iproduct
from math import factorial
from operator import sub

from .delta import DeltaSet, DeltaMorphism, identity_morphism, pushout


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def charts(dims):
    """All canonical charts into prod([d] for d in dims), as point tuples."""
    r = len(dims)
    steps = [s for s in iproduct((0, 1), repeat=r) if any(s)]
    goal = tuple(dims)
    out = []

    def extend(point, path):
        if point == goal:
            out.append(tuple(path))
            return
        for s in steps:
            nxt = tuple(p + q for p, q in zip(point, s))
            if all(a <= b for a, b in zip(nxt, goal)):
                path.append(nxt)
                extend(nxt, path)
                path.pop()

    start = (0,) * r
    extend(start, [start])
    return tuple(out)


def smash_counts(a, b):
    """Cells per dimension of K (x) L from those of K and L, or of K /\\ L
    from the non-basepoint cells of based K and L; nothing is built.

    An i-cell and a j-cell span one d-cell for each canonical chart into
    [i] x [j] with d + 1 points: a lattice path of d steps, i + j - d of
    them diagonal, so there are d! / ((i + j - d)! (d - i)! (d - j)!).
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for d in range(max(i, j), i + j + 1):
                out[d] += x * y * factorial(d) // (
                    factorial(i + j - d) * factorial(d - i) * factorial(d - j))
    return tuple(out)


@lru_cache(maxsize=None)
def chart_name(pts):
    return "-".join(".".join(str(c) for c in p) for p in pts)


def cell_name(factors, pts):
    return f"[{'|'.join(factors)};{chart_name(pts)}]"


def cell_data(P, s):
    """(factor names, chart points) of a product/smash cell."""
    return P.sort_key(s)


@lru_cache(maxsize=None)
def _face_table(dims):
    """Face normalization of every chart into prod([d] for d in dims).

    Entry [c][i] describes face i of the chart charts(dims)[c] as
    (lost, j): lost[t] is the vertex factor t loses when point i is
    dropped (None if its component stays onto), and j indexes the
    normalized face chart in charts(face dims), where the face dims lower
    dims[t] by one for each losing factor.  Vertex charts have no entries.
    """
    index = {}
    table = []
    for pts in charts(dims):
        # a component loses value v when the dropped point is its only one
        once = [{v for v, k in Counter(comp).items() if k == 1}
                for comp in zip(*pts)]
        row = []
        for i in range(len(pts) if len(pts) > 1 else 0):
            lost = tuple(v if v in once[t] else None
                         for t, v in enumerate(pts[i]))
            shift = tuple(m is not None for m in lost)
            face_dims = tuple(map(sub, dims, shift))
            # components are monotone, so only the points after i lie
            # above a lost vertex and move down by one
            face_pts = pts[:i] + tuple(tuple(map(sub, q, shift))
                                       for q in pts[i + 1:])
            if face_dims not in index:
                index[face_dims] = {c: k for k, c in
                                    enumerate(charts(face_dims))}
            row.append((lost, index[face_dims][face_pts]))
        table.append(tuple(row))
    return tuple(table)


def _assemble(factors, based):
    simplices = {}
    faces = {}
    keys = {}
    names = {}  # factor tuple -> cell names in chart order
    for combo in iproduct(*[list(K.all_cells()) for K in factors]):
        dims = tuple(d for d, _ in combo)
        xs = tuple(s for _, s in combo)
        row = names[xs] = []
        for pts in charts(dims):
            name = cell_name(xs, pts)
            row.append(name)
            simplices.setdefault(len(pts) - 1, []).append(name)
            keys[name] = (xs, pts)
    for xs, row in names.items():
        x_faces = [K.faces[x] for K, x in zip(factors, xs)]
        dims = tuple(K.dim_of[x] for K, x in zip(factors, xs))
        face_rows = {}  # lost -> names row of the face's factors, or None
        for name, entries in zip(row, _face_table(dims)):
            if not entries:
                continue
            fcs = []
            for lost, j in entries:
                if lost in face_rows:
                    face_row = face_rows[lost]
                else:
                    ys = tuple(x if m is None else fx[m]
                               for x, m, fx in zip(xs, lost, x_faces))
                    if None in ys:
                        if not based:
                            raise AssertionError(
                                "basepoint face in unbased product")
                        face_row = None
                    else:
                        face_row = names[ys]
                    face_rows[lost] = face_row
                fcs.append(None if face_row is None else face_row[j])
            faces[name] = tuple(fcs)
    return DeltaSet(simplices, faces, sort_keys=keys, based=based)


# ---------------------------------------------------------------------------
# unbased geometric product
# ---------------------------------------------------------------------------

def n_ary_product(factors):
    """Geometric product of Delta-sets via canonical multi-shuffles.

    A single factor is returned unchanged.  Simplices are listed in
    lexicographic order of their construction data (factor names, chart).
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    return _assemble(list(factors), based=False)


def geometric_product(K, L):
    return n_ary_product([K, L])


def product_morphism(fs):
    """Product of morphisms K1 (x) ... (x) Kr -> L1 (x) ... (x) Lr, or their
    smash when the factors are based; a cell goes to the basepoint when any
    factor's image is the basepoint.

    The maps are dimension-preserving, so images keep their charts and
    canonical representatives stay canonical.
    """
    if len(fs) == 1:
        return fs[0]
    build = n_ary_smash if any(f.source.based for f in fs) else n_ary_product
    source = build([f.source for f in fs])
    target = build([f.target for f in fs])
    maps = [f.mapping for f in fs]
    mapping = {}
    for d, s in source.all_cells():
        xs, pts = cell_data(source, s)
        ys = tuple(m[x] for m, x in zip(maps, xs))
        mapping[s] = None if None in ys else cell_name(ys, pts)
    return DeltaMorphism(source, target, mapping)


# -- structural isomorphisms ------------------------------------------------

def unit_iso(K, point):
    """K (x) Delta[0] -> K: the chart's first component is forced to be the
    identity, so the map forgets the point factor."""
    P = n_ary_product([K, point])
    mapping = {s: cell_data(P, s)[0][0] for d, s in P.all_cells()}
    return DeltaMorphism(P, K, mapping)


def unit_iso_inverse(K, point):
    P = n_ary_product([K, point])
    v = point.cells(0)[0]
    mapping = {}
    for d, x in K.all_cells():
        pts = tuple((k, 0) for k in range(d + 1))
        mapping[x] = cell_name((x, v), pts)
    return DeltaMorphism(K, P, mapping)


def symmetry_iso(K, L):
    """The factor interchange K (x) L -> L (x) K."""
    src = n_ary_product([K, L])
    dst = n_ary_product([L, K])
    mapping = {}
    for d, s in src.all_cells():
        xs, pts = cell_data(src, s)
        swapped = tuple((b, a) for a, b in pts)
        mapping[s] = cell_name((xs[1], xs[0]), swapped)
    return DeltaMorphism(src, dst, mapping)


def assoc_iso_nary(K, L, M):
    """(K (x) L) (x) M -> the 3-ary product, composing the charts."""
    KL = n_ary_product([K, L])
    src = n_ary_product([KL, M])
    dst = n_ary_product([K, L, M])
    mapping = {}
    for d, s in src.all_cells():
        (xy, z), psi = cell_data(src, s)
        (x, y), phi = cell_data(KL, xy)
        pts = tuple((phi[u][0], phi[u][1], v) for (u, v) in psi)
        mapping[s] = cell_name((x, y, z), pts)
    return DeltaMorphism(src, dst, mapping)


def assoc_iso_nary_right(K, L, M):
    """K (x) (L (x) M) -> the 3-ary product."""
    LM = n_ary_product([L, M])
    src = n_ary_product([K, LM])
    dst = n_ary_product([K, L, M])
    mapping = {}
    for d, s in src.all_cells():
        (x, yz), psi = cell_data(src, s)
        (y, z), phi = cell_data(LM, yz)
        pts = tuple((u, phi[v][0], phi[v][1]) for (u, v) in psi)
        mapping[s] = cell_name((x, y, z), pts)
    return DeltaMorphism(src, dst, mapping)


# ---------------------------------------------------------------------------
# pushout-product
# ---------------------------------------------------------------------------

def pushout_product_mono_check(i, j):
    """The corner map (K (x) B  glued over K (x) A  with L (x) A) -> L (x) B
    for monos i : K -> L and j : A -> B; asserts it is a monomorphism.

    Returns (corner_map, pushout_result).
    """
    if not i.is_injective() or not j.is_injective():
        raise ValueError("pushout product requires monomorphisms")
    K, L, A, B = i.source, i.target, j.source, j.target
    Kj = product_morphism([identity_morphism(K), j])   # K x A -> K x B (mono)
    iA = product_morphism([i, identity_morphism(A)])   # K x A -> L x A
    po = pushout(Kj, iA)
    iB = product_morphism([i, identity_morphism(B)])   # K x B -> L x B
    Lj = product_morphism([identity_morphism(L), j])   # L x A -> L x B
    corner = po.induced(iB, Lj)
    if not corner.is_injective():
        raise AssertionError("pushout-product corner map is not mono")
    return corner, po


# ---------------------------------------------------------------------------
# smash products of based Delta-sets
# ---------------------------------------------------------------------------

def n_ary_smash(factors):
    """Smash product of based Delta-sets via canonical multi-shuffles.

    Non-basepoint simplices are the canonical charts on tuples of
    non-basepoint factors; a face whose normalization touches a basepoint
    factor is the basepoint.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    return _assemble(list(factors), based=True)


def smash(K, L):
    return n_ary_smash([K, L])


def smash_morphism(f, X):
    """f /\\ X : K /\\ X -> L /\\ X for a based morphism f : K -> L."""
    return product_morphism([f, identity_morphism(X)])


def smash_morphism_left(X, f):
    """X /\\ f : X /\\ K -> X /\\ L."""
    return product_morphism([identity_morphism(X), f])


def smash_unit_iso(szero, K):
    """S0 /\\ K -> K for S0 with a single non-basepoint vertex."""
    P = smash(szero, K)
    mapping = {s: cell_data(P, s)[0][1] for d, s in P.all_cells()}
    return DeltaMorphism(P, K, mapping)
