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
as an iterated face, and the surjective parts form the new chart.  For
smash products a factor that normalizes to the basepoint kills the simplex.

Product cells record (factor names, chart points) as their sort key, so
structural maps never need to parse cell names.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from .delta import DeltaSet, DeltaMorphism, pushout
from .based import BasedDeltaSet, BasedMorphism


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


def chart_name(pts):
    return "-".join(".".join(str(c) for c in p) for p in pts)


def cell_name(factors, pts):
    return f"[{'|'.join(factors)};{chart_name(pts)}]"


def cell_data(P, s):
    """(factor names, chart points) of a product/smash cell."""
    return P.sort_key(s)


def _face_key(deltas, xs, pts, i):
    """Canonical (factors, points) of the i-th face of (xs; pts).

    Returns None when a factor normalizes to the basepoint (based case).
    """
    dropped = pts[:i] + pts[i + 1:]
    r = len(xs)
    new_factors = []
    comps = []
    for t in range(r):
        comp = [p[t] for p in dropped]
        dim = deltas[t].dim_of[xs[t]]
        used = sorted(set(comp))
        missing = [v for v in range(dim + 1) if v not in set(used)]
        x = deltas[t].iterated_face(xs[t], missing)
        if x is None:
            return None
        new_factors.append(x)
        reindex = {v: k for k, v in enumerate(used)}
        comps.append([reindex[v] for v in comp])
    new_pts = tuple(tuple(comps[t][k] for t in range(r))
                    for k in range(len(dropped)))
    return tuple(new_factors), new_pts


def _assemble(factors, based):
    simplices = {}
    faces = {}
    keys = {}
    names = {}
    cell_list = []
    for combo in iproduct(*[list(K.all_cells()) for K in factors]):
        dims = tuple(d for d, _ in combo)
        xs = tuple(s for _, s in combo)
        for pts in charts(dims):
            name = cell_name(xs, pts)
            names[(xs, pts)] = name
            dim = len(pts) - 1
            simplices.setdefault(dim, []).append(name)
            keys[name] = (xs, pts)
            if dim > 0:
                cell_list.append((dim, xs, pts, name))
    for dim, xs, pts, name in cell_list:
        fcs = []
        for i in range(dim + 1):
            fk = _face_key(factors, xs, pts, i)
            if fk is None:
                if not based:
                    raise AssertionError("basepoint face in unbased product")
                fcs.append(None)
            else:
                fcs.append(names[fk])
        faces[name] = tuple(fcs)
    cls = BasedDeltaSet if based else DeltaSet
    return cls(simplices, faces, sort_keys=keys)


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
    """Product of morphisms K1 x ... x Kr -> L1 x ... x Lr.

    The maps are dimension-preserving, so images keep their charts and
    canonical representatives stay canonical.
    """
    if len(fs) == 1:
        return fs[0]
    source = n_ary_product([f.source for f in fs])
    target = n_ary_product([f.target for f in fs])
    mapping = {}
    for d, s in source.all_cells():
        xs, pts = cell_data(source, s)
        ys = tuple(fs[t].mapping[x] for t, x in enumerate(xs))
        mapping[s] = cell_name(ys, pts)
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
    from .delta import identity_morphism
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
    src = smash(f.source, X)
    dst = smash(f.target, X)
    mapping = {}
    for d, s in src.all_cells():
        (x, y), pts = cell_data(src, s)
        fx = f.mapping[x]
        mapping[s] = None if fx is None else cell_name((fx, y), pts)
    return BasedMorphism(src, dst, mapping)


def smash_morphism_left(X, f):
    """X /\\ f : X /\\ K -> X /\\ L."""
    src = smash(X, f.source)
    dst = smash(X, f.target)
    mapping = {}
    for d, s in src.all_cells():
        (x, y), pts = cell_data(src, s)
        fy = f.mapping[y]
        mapping[s] = None if fy is None else cell_name((x, fy), pts)
    return BasedMorphism(src, dst, mapping)


def smash_unit_iso(szero, K):
    """S0 /\\ K -> K for S0 with a single non-basepoint vertex."""
    P = smash(szero, K)
    mapping = {s: cell_data(P, s)[0][1] for d, s in P.all_cells()}
    return BasedMorphism(P, K, mapping)
