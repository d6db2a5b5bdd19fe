from itertools import combinations, product as iproduct

import pytest

import dsx
from dsx.products import _face_table, cell_data, cell_name, charts

from conftest import random_two_dim_delta


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def injective_monotone_chains(dims, surjective=True):
    """Brute-force: all injective monotone maps [n] -> prod [d], enumerated
    as point subsets of the full grid (independent of the lattice-path
    construction in dsx.products).  With surjective=True only the canonical
    charts (all component projections onto) are kept; without it, the
    result enumerates the simplices of the product of standard simplices."""
    grid = list(iproduct(*[range(d + 1) for d in dims]))
    chains = []
    for size in range(1, len(grid) + 1):
        for subset in combinations(grid, size):
            pts = sorted(subset)
            ok = True
            for a, b in zip(pts, pts[1:]):
                if not all(x <= y for x, y in zip(a, b)):
                    ok = False
                    break
            if ok and surjective:
                for t, d in enumerate(dims):
                    if {p[t] for p in pts} != set(range(d + 1)):
                        ok = False
                        break
            if ok:
                chains.append(tuple(pts))
    return chains


def normalize_triple(factors, xs, pts):
    """Test-local normalization of a raw triple: factor each chart
    component through its image and push the injective part into the
    factor as iterated faces (largest index first).  None when a factor
    reaches the basepoint (based factors).  Applied to a chart with one
    point dropped, this is the brute-force reference for product faces."""
    r = len(xs)
    new_xs = []
    comps = []
    for t in range(r):
        vals = [p[t] for p in pts]
        used = sorted(set(vals))
        dim = factors[t].dim_of[xs[t]]
        x = xs[t]
        for miss in sorted((v for v in range(dim + 1) if v not in used),
                           reverse=True):
            x = factors[t].faces[x][miss]
            if x is None:
                return None
        new_xs.append(x)
        lookup = {v: k for k, v in enumerate(used)}
        comps.append([lookup[v] for v in vals])
    new_pts = tuple(tuple(comps[t][k] for t in range(r))
                    for k in range(len(pts)))
    return tuple(new_xs), new_pts


def field_dims(K, coeff, p=None, reduced=None):
    groups = dsx.homology_of(K, coeff=coeff, p=p, reduced=reduced)
    return {k: g.free_rank for k, g in groups.items() if g.free_rank}


def tensor_complex(C, D):
    """Tensor product of chain complexes with d(a (x) b) =
    da (x) b + (-1)^|a| a (x) db -- the Kunneth-side oracle."""
    lo, hi = C.lo + D.lo, C.hi + D.hi
    ranks = {}
    offsets = {}
    for n in range(lo, hi + 1):
        off = {}
        total = 0
        for i in range(C.lo, C.hi + 1):
            j = n - i
            if C.rank(i) and D.rank(j):
                off[i] = total
                total += C.rank(i) * D.rank(j)
        ranks[n] = total
        offsets[n] = off
    d = {}
    for n in range(lo, hi + 1):
        coo = {}
        for i, off in offsets[n].items():
            j = n - i
            nc, nd = C.rank(i), D.rank(j)

            def idx(nn, ii, a, b):
                return offsets[nn][ii] + a * D.rank(nn - ii) + b

            for a in range(nc):
                for b in range(nd):
                    col = idx(n, i, a, b)
                    for (r2, c2), v in C.d.get(i, {}).items():
                        if c2 == a and (i - 1) in offsets.get(n - 1, {}):
                            coo[(idx(n - 1, i - 1, r2, b), col)] = \
                                coo.get((idx(n - 1, i - 1, r2, b), col), 0) + v
                    sign = -1 if i % 2 else 1
                    for (r2, c2), v in D.d.get(j, {}).items():
                        if c2 == b and i in offsets.get(n - 1, {}):
                            coo[(idx(n - 1, i, a, r2), col)] = \
                                coo.get((idx(n - 1, i, a, r2), col), 0) + sign * v
        d[n] = coo
    return dsx.ChainComplex(lo, hi, ranks, d)


# ---------------------------------------------------------------------------
# geometric product
# ---------------------------------------------------------------------------

def test_square_counts_against_enumeration():
    # Delta[i] (x) Delta[j] is the Delta-set of ALL injective monotone maps
    # into [i] x [j]; counts per dimension come from that enumeration
    D1 = dsx.standard("simplex", 1)
    P = dsx.geometric_product(D1, D1)
    by_dim = {}
    for chain in injective_monotone_chains((1, 1), surjective=False):
        by_dim[len(chain) - 1] = by_dim.get(len(chain) - 1, 0) + 1
    assert P.counts() == tuple(by_dim.get(k, 0) for k in range(max(by_dim) + 1))
    assert P.counts() == (4, 5, 2)
    assert P.euler_characteristic() == 1
    assert dsx.is_valid(P)


def test_charts_match_enumeration_small():
    for dims in ((1, 1), (2, 1), (2, 2), (1, 1, 1)):
        assert sorted(dsx.charts(dims)) == sorted(injective_monotone_chains(dims))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_face_table_matches_reference(r):
    # each factor is the standard simplex of its dim, so the reference's
    # iterated faces name the vertices lost, and a factor losing two
    # vertices would show as a face of the wrong dimension
    simplices = [dsx.standard("simplex", d) for d in range(4)]
    memo = {}  # dims -> charts(dims), enumerated once in this test

    def charts_of(dims):
        if dims not in memo:
            memo[dims] = charts(dims)
        return memo[dims]

    for dims in iproduct(range(4), repeat=r):
        deltas = [simplices[d] for d in dims]
        xs = tuple(K.cells(K.top_dim)[0] for K in deltas)
        table = _face_table(dims, charts_of(dims))
        assert len(table) == len(charts_of(dims))
        for pts, entries in zip(charts_of(dims), table):
            assert len(entries) == (len(pts) if len(pts) > 1 else 0)
            for i, (lost, j) in enumerate(entries):
                want_xs, want_pts = normalize_triple(
                    deltas, xs, pts[:i] + pts[i + 1:])
                face_dims = tuple(d - (m is not None)
                                  for d, m in zip(dims, lost))
                assert charts_of(face_dims)[j] == want_pts
                assert tuple(x if m is None else K.faces[x][m]
                             for K, x, m in zip(deltas, xs, lost)) == want_xs


def test_assembled_faces_match_reference(moore3):
    M = moore3.M
    MM = dsx.smash(M, M)
    basepoint_faces = 0
    for d, s in MM.all_cells():
        xs, pts = cell_data(MM, s)
        for i in range(d + 1 if d else 0):
            key = normalize_triple([M, M], xs, pts[:i] + pts[i + 1:])
            want = None if key is None else cell_name(*key)
            assert MM.faces[s][i] == want
            basepoint_faces += want is None
    assert basepoint_faces > 0


def test_unit_isomorphism():
    for K in (dsx.standard("simplex", 2), dsx.cycle_graph(4)):
        pt = dsx.standard("simplex", 0)
        fwd = dsx.unit_iso(K, pt)
        back = dsx.unit_iso_inverse(K, pt)
        assert fwd.is_isomorphism()
        assert back.is_isomorphism()
        assert all(fwd.mapping[back.mapping[s]] == s for s in K.dim_of)
        assert all(back.mapping[fwd.mapping[s]] == s
                   for s in fwd.source.dim_of)


def test_torus_betti_against_tensor_complex():
    C3 = dsx.cycle_graph(3)
    T = dsx.geometric_product(C3, C3)
    got = field_dims(T, "Q")
    CC = dsx.chain_complex(C3)
    tensor = tensor_complex(CC, CC)
    want = {k: g.free_rank
            for k, g in dsx.homology(tensor, coeff="Q").items()
            if g.free_rank}
    assert got == want == {0: 1, 1: 2, 2: 1}
    assert dsx.homology_table(dsx.homology_of(T)) == \
        {0: "Z", 1: "Z^2", 2: "Z"}


def test_euler_multiplicativity(corpus):
    names = ["point", "interval", "D2", "bdD2", "C3", "C4", "RP2",
             "horn21", "wedgeish", "bdD3"]
    for a in names:
        for b in ("point", "interval", "bdD2", "C3"):
            K, L = corpus[a], corpus[b]
            P = dsx.geometric_product(K, L)
            assert P.euler_characteristic() == \
                K.euler_characteristic() * L.euler_characteristic(), (a, b)


@pytest.mark.parametrize("coeff,p", [("Q", None), ("F", 2), ("F", 3)])
def test_kunneth_over_fields(corpus, coeff, p):
    pairs = [("bdD2", "bdD2"), ("C3", "C4"), ("RP2", "C3"), ("RP2", "RP2"),
             ("interval", "bdD3"), ("wedgeish", "C3"), ("D2", "RP2")]
    for a, b in pairs:
        K, L = corpus[a], corpus[b]
        P = dsx.geometric_product(K, L)
        dk = field_dims(K, coeff, p)
        dl = field_dims(L, coeff, p)
        want = {}
        for i, x in dk.items():
            for j, y in dl.items():
                want[i + j] = want.get(i + j, 0) + x * y
        assert field_dims(P, coeff, p) == want, (a, b, coeff, p)


def test_nary_top_count_and_unit():
    D1 = dsx.standard("simplex", 1)
    cube = dsx.n_ary_product([D1, D1, D1])
    chains = injective_monotone_chains((1, 1, 1))
    maximal = [c for c in chains if len(c) == 4]
    assert len(maximal) == 6
    assert cube.n_cells(3) == 6
    assert cube.euler_characteristic() == 1
    K = dsx.cycle_graph(3)
    assert dsx.n_ary_product([K]) is K


def test_smash_counts_predict_built_counts(corpus, moore3_p2):
    from dsx.moore import moore_counts
    from dsx.products import smash_counts
    for a, b in (("torus", "RP2"), ("bdD3", "horn21"), ("square", "C4")):
        K, L = corpus[a], corpus[b]
        assert smash_counts(K.counts(), L.counts()) == \
            dsx.geometric_product(K, L).counts(), (a, b)
    for p in (2, 3, 5, 7):
        assert moore_counts(p) == dsx.moore_space(p)[0].counts(), p
    M5 = dsx.moore_space(5)[0]
    for M, W, cells in ((moore3_p2.M, moore3_p2.projection(1, 1).source,
                         52_560),
                        (M5, dsx.smash(M5, M5), 146_000)):
        assert smash_counts(M.counts(), M.counts()) == W.counts()
        assert sum(W.counts()) == cells
    # the cubes are predicted, never built
    for p, cells in ((3, 239_525_856), (5, 1_108_916_000)):
        m = moore_counts(p)
        assert sum(smash_counts(smash_counts(m, m), m)) == cells


def test_bracketing_isomorphisms():
    C2a = dsx.cycle_graph(3)
    C2b = dsx.cycle_graph(4)
    C2c = dsx.standard("boundary", 2)
    left = dsx.assoc_iso_nary(C2a, C2b, C2c)
    right = dsx.assoc_iso_nary_right(C2a, C2b, C2c)
    assert left.is_isomorphism()
    assert right.is_isomorphism()
    # composite (K(x)L)(x)M -> K(x)(L(x)M) via the 3-ary product is a
    # simplexwise match of canonical forms
    inv = {v: k for k, v in right.mapping.items()}
    comp = {s: inv[left.mapping[s]] for s in left.source.dim_of}
    m = dsx.DeltaMorphism(left.source, right.source, comp)
    assert m.is_isomorphism()


def test_symmetry_involution_on_square():
    D1 = dsx.standard("simplex", 1)
    sym = dsx.symmetry_iso(D1, D1)
    assert sym.is_isomorphism()
    two_cells = sym.source.cells(2)
    assert len(two_cells) == 2
    a, b = two_cells
    assert sym.mapping[a] != a and sym.mapping[b] != b  # swapped


def test_symmetry_involution_random(rng):
    for _ in range(5):
        K = random_two_dim_delta(rng)
        L = random_two_dim_delta(rng, n_vertices=4)
        s1 = dsx.symmetry_iso(K, L)
        s2 = dsx.symmetry_iso(L, K)
        assert all(s2.mapping[s1.mapping[s]] == s for s in s1.source.dim_of)


def test_symmetry_compatible_with_unit():
    K = dsx.cycle_graph(3)
    pt = dsx.standard("simplex", 0)
    sym = dsx.symmetry_iso(K, pt)
    # unit(K (x) pt) == unit(pt (x) K) o symmetry
    u1 = dsx.unit_iso(K, pt)
    for s in sym.source.dim_of:
        (x, v), pts = cell_data(sym.source, s)
        assert u1.mapping[s] == x
        (v2, x2), _ = cell_data(sym.target, sym.mapping[s])
        assert x2 == x


def test_normalization_idempotent_and_face_compatible():
    K = dsx.standard("simplex", 2)
    L = dsx.standard("simplex", 2)
    P = dsx.geometric_product(K, L)
    for d, s in P.all_cells():
        xs, pts = cell_data(P, s)
        # canonicity: strictly increasing, surjective components
        for a, b in zip(pts, pts[1:]):
            assert a != b and all(x <= y for x, y in zip(a, b))
        for t, x in enumerate(xs):
            dim = [K, L][t].dim_of[x]
            assert {p[t] for p in pts} == set(range(dim + 1))
        # normalization is idempotent on canonical data
        assert normalize_triple([K, L], xs, pts) == (tuple(xs), pts)
        if d == 0:
            continue
        for i in range(d + 1):
            dropped = pts[:i] + pts[i + 1:]
            nxs, npts = normalize_triple([K, L], xs, dropped)
            assert P.faces[s][i] == cell_name(nxs, npts)


def test_face_normalization_representative_independent():
    # the raw triple (x', y; pts) with x' restricting to x represents the
    # same class; dropping a point and normalizing must agree with the
    # canonical face
    K = dsx.standard("simplex", 2)
    L = dsx.standard("simplex", 1)
    P = dsx.geometric_product(K, L)
    top = "0,1,2"
    # raw: x' = top simplex restricted along alpha missing vertex 1
    raw_pts = ((0, 0), (2, 0), (2, 1))  # first components in image {0, 2}
    nxs, npts = normalize_triple([K, L], (top, "0,1"), raw_pts)
    canonical = cell_name(nxs, npts)
    assert canonical in P.dim_of
    for i in range(3):
        dropped = raw_pts[:i] + raw_pts[i + 1:]
        via_raw = cell_name(*normalize_triple([K, L], (top, "0,1"), dropped))
        assert via_raw == P.faces[canonical][i]


# ---------------------------------------------------------------------------
# pushout products
# ---------------------------------------------------------------------------

def _boundary_inclusion(n):
    B = dsx.standard("boundary", n)
    D = dsx.standard("simplex", n)
    return dsx.DeltaMorphism(B, D, {s: s for s in B.dim_of})


def test_pushout_product_empty_source_degenerates():
    i = _boundary_inclusion(1)
    empty = dsx.EMPTY
    pt = dsx.standard("simplex", 0)
    j = dsx.DeltaMorphism(empty, pt, {})
    corner, po = dsx.pushout_product_mono_check(i, j)
    # source is (bdD1 x pt) glued over nothing: a copy of bdD1
    assert po.delta.counts() == (2,)
    assert corner.is_injective()
    assert corner.target.counts() == (2, 1)


def test_pushout_product_boundary_square():
    i = _boundary_inclusion(1)
    corner, po = dsx.pushout_product_mono_check(i, i)
    assert po.delta.counts() == (4, 4)
    assert corner.target.counts() == (4, 5, 2)
    assert corner.is_injective()


def test_pushout_product_identity_is_iso():
    K = dsx.cycle_graph(3)
    ident = dsx.identity_morphism(K)
    j = _boundary_inclusion(1)
    corner, _ = dsx.pushout_product_mono_check(ident, j)
    assert corner.is_isomorphism()


def test_pushout_product_rejects_non_mono():
    fold = dsx.DeltaMorphism(dsx.standard("boundary", 1),
                             dsx.standard("simplex", 0),
                             {"0": "0", "1": "0"})
    with pytest.raises(ValueError):
        dsx.pushout_product_mono_check(fold, fold)


# ---------------------------------------------------------------------------
# smash products
# ---------------------------------------------------------------------------

def test_smash_unit_s0():
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    for K in (dsx.circle(), dsx.s_bracket(3), dsx.sphere2()):
        u = dsx.smash_unit_iso(s0, K)
        assert u.is_isomorphism()


def test_smash_of_spheres():
    S2 = dsx.sphere2()
    assert dsx.homology_table(dsx.homology_of(S2)) == \
        {0: "0", 1: "0", 2: "Z"}
    assert S2.euler_characteristic() == 1
    S3 = dsx.smash(dsx.circle(), S2)
    assert dsx.homology_table(dsx.homology_of(S3)) == \
        {0: "0", 1: "0", 2: "0", 3: "Z"}


def test_smash_circle_with_bracket():
    # suspension-like shift: H~ of S<3> is Z in degree 1, so the smash has
    # H~_2 = Z and nothing else (cross-check against the suspension of
    # H~_0 = 0, H~_1 = Z)
    X = dsx.smash(dsx.circle(), dsx.s_bracket(3))
    assert dsx.homology_table(dsx.homology_of(X)) == \
        {0: "0", 1: "0", 2: "Z"}


def test_reduced_kunneth_for_smash():
    objs = {
        "S1": dsx.circle(),
        "S3b": dsx.s_bracket(3),
        "S4b": dsx.s_bracket(4),
        "I": dsx.interval(),
        "S2": dsx.sphere2(),
    }
    for coeff, p in (("Q", None), ("F", 2), ("F", 3)):
        for a in objs:
            for b in ("S1", "S3b", "I"):
                K, L = objs[a], objs[b]
                P = dsx.smash(K, L)
                dk = field_dims(K, coeff, p)
                dl = field_dims(L, coeff, p)
                want = {}
                for i, x in dk.items():
                    for j, y in dl.items():
                        want[i + j] = want.get(i + j, 0) + x * y
                assert field_dims(P, coeff, p) == want, (a, b, coeff)


def test_smash_agrees_with_pushout_presentation():
    """The finite-presentation route: R (x) S with the basepoint locus
    collapsed must reproduce the smash cell-for-cell (faces included)."""
    for K, L in ((dsx.circle(), dsx.s_bracket(3)),
                 (dsx.interval(), dsx.circle()),
                 (dsx.s_bracket(2), dsx.s_bracket(3))):
        W = dsx.smash(K, L)
        R = dsx.finite_model(K)
        S = dsx.finite_model(L)
        P = dsx.geometric_product(R, S)
        star = "*"
        kept = {}
        for d, s in P.all_cells():
            (x, y), pts = cell_data(P, s)
            if x.startswith(star) or y.startswith(star):
                continue
            kept[s] = (d, (x, y), pts)
        assert sorted(kept) == sorted(W.dim_of)
        for s, (d, xs, pts) in kept.items():
            if d == 0:
                continue
            for i, f in enumerate(P.faces[s]):
                (fx, fy), _ = cell_data(P, f)
                collapsed = fx.startswith(star) or fy.startswith(star)
                wf = W.faces[s][i]
                assert (wf is None) == collapsed
                if not collapsed:
                    assert wf == f


def test_smash_morphism_identity_and_functoriality():
    X = dsx.circle()
    S3b = dsx.s_bracket(3)
    ident = dsx.identity_morphism(S3b)
    idX = dsx.smash_morphism(ident, X)
    assert all(idX.mapping[s] == s for s in idX.source.dim_of)
    f = dsx.psi(1, 3)
    g = dsx.nabla(3)  # not composable with psi; use two composable maps:
    # S<3> --psi_1--> S1 --id--> S1
    fX = dsx.smash_morphism(f, X)
    idS1 = dsx.identity_morphism(dsx.circle())
    gX = dsx.smash_morphism(idS1, X)
    comp = dsx.smash_morphism(idS1.compose(f), X)
    assert comp.mapping == gX.compose(fX).mapping


def test_skeleton_inclusion_smashed_is_homology_iso():
    # with m even and at least the top non-basepoint dimension the skeleton
    # is the whole thing, so the smashed inclusion is an iso on homology
    K = dsx.s_bracket(3)
    m = 2  # even, >= top dim 1
    sk = dsx.skeleton(K, m).as_delta_set()
    incl = dsx.DeltaMorphism(sk, K, {s: s for s in sk.dim_of})
    f = dsx.smash_morphism(incl, dsx.circle())
    assert dsx.is_homology_iso(f)


def test_psi_smashed_with_circle_is_homology_iso():
    f = dsx.smash_morphism(dsx.psi(1, 3), dsx.circle())
    assert dsx.is_homology_iso(f)
    g = dsx.smash_morphism(dsx.nabla(3), dsx.circle())
    assert not dsx.is_homology_iso(g)  # degree 3 on the top class


# ---------------------------------------------------------------------------
# every structural map is one cellwise rule: the exact mappings, pinned
# against the loops each map was once written out as
# ---------------------------------------------------------------------------

def _loop(source, rule):
    mapping = {}
    for d, s in source.all_cells():
        xs, pts = cell_data(source, s)
        mapping[s] = rule(xs, pts)
    return mapping


def _constant_chart(d):
    return tuple((k, 0) for k in range(d + 1))


def _pairs(corpus):
    names = ("point", "D2", "bdD2", "horn21", "C3", "square", "two_points")
    return [(corpus[a], corpus[b]) for a in names for b in names[:5]]


def test_chart_morphism_and_slice_inclusion():
    from dsx.products import chart_morphism, slice_inclusion
    K, L = dsx.cycle_graph(3), dsx.standard("simplex", 1)
    P = dsx.geometric_product(K, L)
    ident = chart_morphism(P, P, cell_name)
    assert ident.mapping == {s: s for s in P.dim_of}
    assert list(ident.mapping) == [s for _, s in P.all_cells()]
    for v in L.cells(0):
        f = slice_inclusion(K, P, v)
        assert f.mapping == {x: cell_name((x, v), _constant_chart(d))
                             for d, x in K.all_cells()}
        g = slice_inclusion(K, dsx.geometric_product(L, K), v,
                            vertex_first=True)
        assert g.mapping == {
            x: cell_name((v, x), tuple((0, k) for k in range(d + 1)))
            for d, x in K.all_cells()}
    with pytest.raises(ValueError, match="invalid morphism"):
        chart_morphism(P, P, lambda xs, pts: cell_name(xs, pts[::-1]))


def test_unit_and_symmetry_mappings_are_pinned(corpus):
    pt = corpus["point"]
    for K, L in _pairs(corpus):
        assert dsx.unit_iso(K, pt).mapping == \
            _loop(dsx.n_ary_product([K, pt]), lambda xs, pts: xs[0])
        assert dsx.unit_iso_inverse(K, pt).mapping == {
            x: cell_name((x, pt.cells(0)[0]), _constant_chart(d))
            for d, x in K.all_cells()}
        assert dsx.symmetry_iso(K, L).mapping == _loop(
            dsx.n_ary_product([K, L]), lambda xs, pts: cell_name(
                (xs[1], xs[0]), tuple((b, a) for a, b in pts)))


def test_associativity_mappings_are_pinned(corpus):
    M = corpus["interval"]
    for K, L in _pairs(corpus):
        KL, LM = dsx.n_ary_product([K, L]), dsx.n_ary_product([L, M])

        def left(xs, psi):
            (x, y), phi = cell_data(KL, xs[0])
            return cell_name((x, y, xs[1]),
                             tuple((phi[u][0], phi[u][1], v) for u, v in psi))

        def right(xs, psi):
            (y, z), phi = cell_data(LM, xs[1])
            return cell_name((xs[0], y, z),
                             tuple((u, phi[v][0], phi[v][1]) for u, v in psi))

        assert dsx.assoc_iso_nary(K, L, M).mapping == \
            _loop(dsx.n_ary_product([KL, M]), left)
        assert dsx.assoc_iso_nary_right(K, L, M).mapping == \
            _loop(dsx.n_ary_product([K, LM]), right)


def test_product_and_smash_unit_mappings_are_pinned(corpus):
    def loop(fs, build):
        maps = [f.mapping for f in fs]

        def rule(xs, pts):
            ys = tuple(m[x] for m, x in zip(maps, xs))
            return None if None in ys else cell_name(ys, pts)
        return _loop(build([f.source for f in fs]), rule)

    pt = corpus["point"]
    for K, L in _pairs(corpus):
        fs = [dsx.unit_iso(K, pt), dsx.symmetry_iso(L, pt)]
        assert dsx.product_morphism(fs).mapping == \
            loop(fs, dsx.n_ary_product)
    S = dsx.s_bracket(3)
    for fs in ([dsx.nabla(3), dsx.identity_morphism(dsx.circle())],
               [dsx.psi(1, 3), dsx.nabla(3), dsx.identity_morphism(S)]):
        assert dsx.product_morphism(fs).mapping == loop(fs, dsx.n_ary_smash)
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    for K in (dsx.circle(), S, dsx.sphere2()):
        assert dsx.smash_unit_iso(s0, K).mapping == \
            _loop(dsx.smash(s0, K), lambda xs, pts: xs[1])
