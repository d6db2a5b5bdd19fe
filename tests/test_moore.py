from itertools import permutations
from math import prod

import pytest

import dsx
from dsx import exact
from dsx.based import basepoint_name
from dsx.homology import homology_of, homology_table
from dsx.moore import PowerSystem


def nontrivial(K, **kw):
    return {k: str(g) for k, g in homology_of(K, **kw).items()
            if not g.is_trivial()}


def sphere(n):
    """The one-cell based S^n: an n-cell with every face at the basepoint."""
    return dsx.DeltaSet({n: ["z"]}, {"z": (None,) * (n + 1)},
                        sort_keys={"z": (0,)}, based=True)


def least_by_trying_every_sigma(xs, pts):
    """The least (factors, chart) in the Sigma_r-orbit of (xs, pts)."""
    return min((tuple(xs[t] for t in sigma),
                tuple(tuple(p[t] for t in sigma) for p in pts))
               for sigma in permutations(range(len(xs))))


# ---------------------------------------------------------------------------
# the basic objects
# ---------------------------------------------------------------------------

def test_interval_is_contractible():
    I = dsx.interval()
    assert I.counts() == (1, 1)
    assert nontrivial(I) == {}
    assert dsx.is_valid(I)


def test_circle():
    S1 = dsx.circle()
    assert S1.counts() == (0, 1)
    assert nontrivial(S1) == {1: "Z"}


def test_composing_mismatched_based_morphisms_raises():
    f = dsx.psi(1, 3)  # S<3> -> S1
    with pytest.raises(ValueError):
        f.compose(f)   # would need S1 == S<3>
    assert dsx.identity_morphism(dsx.circle()).compose(f).mapping == \
        f.mapping


def test_sphere2():
    S2 = dsx.sphere2()
    assert nontrivial(S2) == {2: "Z"}
    assert S2.euler_characteristic() == 1


def test_s_bracket_counts_and_homology():
    S3 = dsx.s_bracket(3)
    assert S3.counts() == (2, 3)
    assert nontrivial(S3) == {1: "Z"}
    with pytest.raises(ValueError):
        dsx.s_bracket(1)


def test_psi_and_nabla_validate():
    for n in (2, 3, 5):
        for i in range(n):
            assert not dsx.psi(i, n).validate()
        assert not dsx.nabla(n).validate()


def test_psi_quotient_square_simplexwise():
    for n in (2, 3, 4):
        for i in range(n):
            Q, comparison = dsx.psi_quotient_square(i, n)
            assert comparison.is_isomorphism()
            # the quotient square is a pushout: collapsing the complement
            # of f_i leaves exactly the circle
            assert Q.counts() == (0, 1)


def test_based_cone_contractible():
    for X in (dsx.circle(), dsx.s_bracket(3)):
        IX, iX = dsx.based_cone(X)
        assert nontrivial(IX) == {}
        assert iX.is_injective()


def test_based_cone_inclusion_is_pinned():
    # x goes to (v, x) over the chart constant at I's vertex v
    from dsx.products import cell_name
    for X in (dsx.circle(), dsx.s_bracket(3), dsx.sphere2(),
              dsx.smash(dsx.circle(), dsx.s_bracket(3))):
        IX, iX = dsx.based_cone(X)
        assert IX == dsx.smash(dsx.interval(), X)
        assert iX.mapping == {
            x: cell_name(("v", x), tuple((0, k) for k in range(d + 1)))
            for d, x in X.all_cells()}


# ---------------------------------------------------------------------------
# the combinatorial homotopy (acceptance criterion 5 at module level)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hat_circle_homotopy_all_indices(n):
    for i in range(n):
        hat, H, rec = dsx.hat_circle_homotopy(i, n)
        assert rec["pass"], rec
        assert rec["boundary_c"] == (basepoint_name(1), "g", "z")
        assert rec["boundary_c_prime"] == ("z", "g'", basepoint_name(1))
        assert rec["circle_inclusion_expansions"] == 2


def test_hat_circle_homotopy_image_pattern():
    # for (i, n) = (1, 3) the front inclusion composed with H hits the
    # lift of j psi_1: only f_1 lands on z
    hat, H, rec = dsx.hat_circle_homotopy(1, 3)
    S = dsx.circle_segments(3)
    delta1 = dsx.standard("simplex", 1)
    from dsx.products import cell_name
    front = {x: cell_name((x, "0"), tuple((k, 0) for k in range(d + 1)))
             for d, x in S.all_cells()}
    images = {x: H.mapping[front[x]] for x in S.dim_of}
    assert images["f1"] == "z"
    assert images["f0"] == images["f2"] == basepoint_name(1)


def test_hat_circle_expansion_certificate():
    cert = dsx.hat_circle_expansion_certificate()
    assert len(cert) == 2
    assert cert.verify()


# ---------------------------------------------------------------------------
# Moore sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_moore_space_homology(p):
    M, iota, table = dsx.moore_space(p)
    ok, tbl = dsx.certify_moore(M, p, 2)
    assert ok
    assert tbl[2] == f"Z/{p}"
    assert M.euler_characteristic() == 0


def test_moore_rejects_small_modulus():
    with pytest.raises(ValueError):
        dsx.moore_space(1)


def test_iota_epi_on_h2(moore3):
    entry = dsx.induced_map(moore3.iota)[2]
    assert entry["source_orders"] == [0]
    assert entry["target_orders"] == [3]
    # the triangle H2(S2) --3--> H2(S2) -> H2(M) -> 0 is exact: the
    # generator maps to a unit mod 3 (surjectivity) and 3 times it to zero
    u = entry["matrix"][0][0]
    assert u % 3 != 0
    assert (3 * u) % 3 == 0
    # the matrices in the generators that dense Smith picks, pinned
    for n, want in ((2, [[1]]), (3, [[2]]), (4, [[1]]), (6, [[1]])):
        _, iota, _ = dsx.moore_space(n)
        entry = dsx.induced_map(iota)[2]
        assert entry["target_orders"] == [n]
        assert entry["matrix"] == want, n


def test_psi_maps_agree_on_smash_homology():
    # homotopic maps induce equal maps on homology: psi_i /\ X and
    # psi_{i+1} /\ X agree for corpus X
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    for X in (s0, dsx.circle(), dsx.s_bracket(3)):
        mats = []
        for i in range(3):
            f = dsx.smash_morphism(dsx.psi(i, 3), X)
            m = dsx.induced_map(f)
            mats.append({k: e["matrix"] for k, e in m.items()})
        assert mats[0] == mats[1] == mats[2]


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------

def test_power_one_is_the_object(moore3):
    assert moore3.power(1) is moore3.M


def test_symmetric_square_of_circle():
    # S1 ^ S1 / swap: the orbit set of the 2-sphere model
    P, om, W = dsx.symmetric_power_of(dsx.circle(), 2)
    assert dsx.is_valid(P)
    # the diagonal 1-cell is fixed; the two 2-cells fall into one orbit
    assert P.counts() == (0, 1, 1)


def test_sigma_action_commutes_with_faces_exhaustively(moore3_p2):
    # re-run the representative-independence check by hand on P^2
    from dsx.moore import _orbit_rep, orbit_cell_name
    from dsx.products import cell_data
    mu = moore3_p2.projection(1, 1)
    W, P2, om = mu.source, mu.target, mu.mapping
    for d, s in W.all_cells():
        if d == 0:
            continue
        projected = tuple(None if f is None else om[f] for f in W.faces[s])
        assert projected == P2.faces[om[s]]
        # basepoint fixed, action commutes with faces cell-by-cell
        xs, pts = cell_data(W, s)
        swapped_xs = (xs[1], xs[0])
        swapped_pts = tuple((b, a) for a, b in pts)
        rep = _orbit_rep((swapped_xs, swapped_pts))
        assert orbit_cell_name(rep) == om[s]


def test_orbit_map_names_each_cell_by_its_least_member(moore3_p2):
    # the orbit of a W cell is named "O" + the name of the least member
    # of its orbit, found here by trying every sigma
    from dsx.moore import _orbit_rep, orbit_cell_name
    from dsx.products import cell_data
    mu = moore3_p2.projection(1, 1)
    P3, om3, W3 = dsx.symmetric_power_of(dsx.s_bracket(3), 3)
    assert dsx.is_valid(P3)
    for W, mapping in ((mu.source, mu.mapping), (W3, om3.mapping)):
        assert set(mapping) == set(W.dim_of)
        for d, s in W.all_cells():
            xs, pts = cell_data(W, s)
            least = least_by_trying_every_sigma(xs, pts)
            assert _orbit_rep((xs, pts)) == least, s
            assert mapping[s] == orbit_cell_name(least), s


def _orbits_through_an_index(W):
    """P and the orbit map of W's orbit set, named through an explicit
    representative -> name dict, in any order within a dimension."""
    from dsx.io import delta_to_dict
    from dsx.moore import _orbit_rep, orbit_cell_name
    from dsx.products import cell_data
    names, orbit_map, simplices, faces, keys = {}, {}, {}, {}, {}
    for d, s in W.all_cells():
        key = cell_data(W, s)
        rep = _orbit_rep(key)
        name = names.setdefault(rep, orbit_cell_name(rep))
        orbit_map[s] = name
        if rep == key:
            simplices.setdefault(d, []).append(name)
            keys[name] = rep
            faces[name] = tuple(map(orbit_map.get, W.faces[s]))
    P = dsx.DeltaSet(simplices, faces, sort_keys=keys, based=True)
    return delta_to_dict(P), {s: P.sort_key(s) for s in P.dim_of}, orbit_map


def test_orbit_rep_is_the_least_member_of_every_orbit():
    # the slot sort against every sigma, on factor tuples with repeats in
    # any pattern, e.g. (a, b, a) and (a, a, b, b), which no power of a
    # corpus set reaches
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, strategies as st
    from dsx.moore import _orbit_rep
    from dsx.products import charts

    @st.composite
    def keys(draw):
        r = draw(st.integers(1, 4))
        xs = tuple(draw(st.lists(st.sampled_from("abc"), min_size=r,
                                 max_size=r)))
        dims = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)
                    .filter(lambda ds: sum(ds) <= 6))
        return xs, draw(st.sampled_from(charts(tuple(dims))))

    @given(keys())
    @example((("a", "b", "a"),
              ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1))))
    @example((("a", "a", "b", "b"),
              ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1))))
    def check(key):
        rep = _orbit_rep(key)
        assert rep == least_by_trying_every_sigma(*key)
        assert (rep is key) == (rep == key)

    check()


# (X, i) for the orbit-pass tests; the paper's M at n = 2, 3, 5 and i = 2,
# and the one-cell S^3 at i = 3; the one-cell S^2 at i = 4 is the module
# fixture below
ORBIT_CASES = {"M2": lambda: (dsx.moore_space(2)[0], 2),
               "M3": lambda: (dsx.moore_space(3)[0], 2),
               "M5": lambda: (dsx.moore_space(5)[0], 2),
               "S2": lambda: (dsx.sphere2(), 2),
               "S2^3": lambda: (dsx.sphere2(), 3),
               "S<3>^3": lambda: (dsx.s_bracket(3), 3),
               "S3cell^3": lambda: (sphere(3), 3)}


@pytest.fixture(scope="module")
def s2cell_power4():
    """symmetric_power_of(one-cell S^2, 4), built once: P^4 (1,105 cells),
    the orbit map and W (23,917 cells)."""
    return dsx.symmetric_power_of(sphere(2), 4)


@pytest.fixture
def orbit_power(request):
    """symmetric_power_of of the ORBIT_CASES entry named by the parameter,
    or "S2cell^4" from its module fixture."""
    if request.param == "S2cell^4":
        return request.getfixturevalue("s2cell_power4")
    X, i = ORBIT_CASES[request.param]()
    return dsx.symmetric_power_of(X, i)


@pytest.mark.parametrize("orbit_power", sorted(ORBIT_CASES) + ["S2cell^4"],
                         indirect=True)
def test_orbits_named_without_an_index_match_the_indexed_pass(orbit_power):
    # the one pass over W names each orbit at its first member and every
    # later member from the orbit map; a reference pass that keeps a
    # representative -> name dict gives the same P, sort keys and map
    from dsx.io import delta_to_dict
    P, om, W = orbit_power
    want_p, want_keys, want_map = _orbits_through_an_index(W)
    assert delta_to_dict(P) == want_p
    assert {s: P.sort_key(s) for s in P.dim_of} == want_keys
    assert om.mapping == want_map


@pytest.mark.parametrize("orbit_power", ["M2", "M3", "S2", "S2^3", "S<3>^3",
                                         "S3cell^3", "S2cell^4"],
                         indirect=True)
def test_an_orbits_first_member_in_w_is_its_least(orbit_power):
    # what the orbit pass rests on: W lists each dimension in sort-key
    # order, so the least member of an orbit (found here by trying every
    # sigma) comes first
    from dsx.products import cell_data
    W = orbit_power[2]
    first = {}
    for d, s in W.all_cells():
        xs, pts = cell_data(W, s)
        least = least_by_trying_every_sigma(xs, pts)
        assert first.setdefault(least, (xs, pts)) == least, s


# Reduced integral homology of P^i(S^n) for the one-cell S^n.  For a based
# CW complex X, X^(/\ i) / Sigma_i is SP^i(X) / SP^(i-1)(X).  SP^i(S^1) is
# S^1 up to homotopy, with SP^(i-1)(S^1) -> SP^i(S^1) an equivalence, so
# P^i(S^1) is acyclic; SP^i(S^2) = CP^i (Hatcher, Algebraic Topology,
# section 4.K), so P^i(S^2) = CP^i / CP^(i-1) = S^(2i); and
# SP^2(S^n) / S^n = Sigma^(n+1) RP^(n-1) (James, Thomas, Toda and
# Whitehead, "On the symmetric square of a sphere", J. Math. Mech. 12,
# 1963).  P^3(S^3) is pinned as computed, with no closed form cited.
SPHERE_POWER_HOMOLOGY = {
    (1, 2): {}, (1, 3): {},
    (2, 2): {4: "Z"}, (2, 3): {6: "Z"}, (2, 4): {8: "Z"},
    (3, 2): {5: "Z/2"},
    (4, 2): {6: "Z/2", 8: "Z"},
    (5, 2): {7: "Z/2", 9: "Z/2"},
    (6, 2): {8: "Z/2", 10: "Z/2", 12: "Z"},
    (3, 3): {7: "Z/3", 8: "Z/2"},
}


@pytest.mark.parametrize("n, i", [pytest.param(n, i, id=f"S{n}cell^{i}")
                                  for n, i in sorted(SPHERE_POWER_HOMOLOGY)])
def test_sphere_power_homology_matches_its_closed_form(n, i, request):
    if (n, i) == (2, 4):  # the first level-4 symmetric power checked
        P = request.getfixturevalue("s2cell_power4")[0]
    else:
        P = dsx.symmetric_power_of(sphere(n), i)[0]
    assert dsx.is_valid(P)
    assert nontrivial(P) == SPHERE_POWER_HOMOLOGY[n, i]


def test_the_orbit_pass_refuses_a_representative_it_has_not_met(
        monkeypatch):
    # a representative that W does not list before its orbit-mates is a
    # ValueError, never a misnamed cell
    from importlib import import_module
    moore = import_module("dsx.moore")

    def greatest_member(key):  # of a swap orbit
        xs, pts = key
        return max(key, ((xs[1], xs[0]), tuple((b, a) for a, b in pts)))

    monkeypatch.setattr(moore, "_orbit_rep", greatest_member)
    with pytest.raises(ValueError, match="does not come before it"):
        moore.symmetric_power_of(dsx.sphere2(), 2)


def test_the_orbit_pass_names_each_pattern_and_chart_once(monkeypatch):
    # _orbit_rep reads only how the factors compare, so the pass asks it
    # once per (factor pattern, chart) among W's sort keys, not per W cell
    from importlib import import_module
    moore = import_module("dsx.moore")
    calls = []

    def counted(key):
        calls.append(key)
        return orbit_rep(key)

    orbit_rep = moore._orbit_rep
    monkeypatch.setattr(moore, "_orbit_rep", counted)
    W = moore.symmetric_power_of(dsx.moore_space(3)[0], 2)[2]
    pairs = set()
    for d, s in W.all_cells():
        xs, pts = W.sort_key(s)
        pairs.add((tuple(sorted(set(xs)).index(x) for x in xs), pts))
    assert W.n_cells() == 52560 and len(pairs) < 400
    assert len(calls) == len(set(calls)) <= len(pairs)


def test_the_orbit_pass_refuses_an_action_not_commuting_with_faces(
        monkeypatch):
    # send each non-least member whose shape has a second chart of its
    # dimension to the orbit of that other chart, an earlier orbit over
    # the same factors with other faces: refused, never a misnamed cell
    from importlib import import_module
    from dsx.products import charts
    moore = import_module("dsx.moore")
    orbit_rep = moore._orbit_rep

    def other_chart(key):
        xs, pts = rep = orbit_rep(key)
        others = [c for c in charts(pts[-1])
                  if len(c) == len(pts) and c != pts]
        return rep if rep == key or not others else (xs, others[0])

    monkeypatch.setattr(moore, "_orbit_rep", other_chart)
    with pytest.raises(ValueError, match="face"):
        moore.symmetric_power_of(dsx.sphere2(), 2)


def test_power_projection_associativity_generic():
    # the mandated cache bound p - 1 = 2 at p = 3 leaves no room for a
    # triple, so the associativity square is exercised generically on the
    # symmetric powers of the circle (the construction is uniform)
    ps = PowerSystem(dsx.circle())
    assert ps.assoc_square_commutes(1, 1, 1)


def test_projection_is_valid_morphism(moore3_p2):
    mu = moore3_p2.projection(1, 1)
    assert mu.validate() == []


def test_projection_one_one_is_the_orbit_map(moore3_p2):
    from dsx.moore import orbit_cell_name
    from dsx.products import cell_data
    ps = moore3_p2.powers
    mu = moore3_p2.projection(1, 1)
    assert mu.target is ps.power(2)
    assert set(mu.mapping) == set(mu.source.dim_of)
    for d, s in mu.source.all_cells():
        xs, pts = cell_data(mu.source, s)
        assert mu.mapping[s] == ps.orbit_name(2, xs, pts)
        swapped = ((xs[1], xs[0]), tuple((b, a) for a, b in pts))
        assert mu.mapping[s] == orbit_cell_name(min((xs, pts), swapped))


def test_p2_certification(moore3_p2):
    P2 = moore3_p2.power(2)
    ok, table = dsx.certify_moore(P2, 3, 4)
    assert ok, table
    assert P2.euler_characteristic() == 0


def test_p2_bockstein(moore3_p2):
    b = dsx.bockstein(moore3_p2.power(2), 3, 5)
    assert b["source_dim"] == b["target_dim"] == 1
    assert dsx.fp_matrix_is_iso(b)


def test_coherence_composite_p3(moore3_p2):
    f, verdict = moore3_p2.coherence_composite(2)
    assert verdict
    groups = homology_of(f.source)
    assert {k: str(g) for k, g in groups.items() if not g.is_trivial()} \
        == {4: "Z/3"}


def test_projection_and_coherence_mappings_are_pinned(moore3_p2):
    from dsx.products import cell_data

    def loop(source, rule):
        mapping = {}
        for d, s in source.all_cells():
            (a, b), pts = cell_data(source, s)
            mapping[s] = rule(a, b, pts)
        return mapping

    for X in (dsx.s_bracket(3), dsx.sphere2()):
        ps = PowerSystem(X)
        for i, j in ((1, 1), (1, 2), (2, 1)):
            mu = ps.projection(i, j)
            assert mu.target is ps.power(i + j)
            assert mu.mapping == loop(
                dsx.smash(ps.power(i), ps.power(j)),
                lambda a, b, pts: ps.flat_orbit_name(((i, a), (j, b)), pts))
    ms = moore3_p2
    f = ms.coherence_map(2)
    assert f.target is ms.power(2)

    def coherence(x, y, pts):
        mx = ms.iota.mapping[x]
        return None if mx is None else ms.powers.flat_orbit_name(
            ((1, mx), (1, y)), pts)

    assert f.mapping == loop(dsx.smash(ms.S2, ms.M), coherence)


def _through_projection(f, iota, mu):
    """Whether f sends each S2 /\\ P^1 cell ((x, y); pts) where the old
    route did: to mu_{1,1}(iota(x) /\\ y), or to * when iota(x) = *."""
    from dsx.products import cell_data, cell_name
    for d, s in f.source.all_cells():
        (x, y), pts = cell_data(f.source, s)
        mx = iota.mapping[x]
        want = None if mx is None else mu.mapping[cell_name((mx, y), pts)]
        if f.mapping[s] != want:
            return False
    return True


def test_coherence_map_is_the_composite_through_the_projection(moore3_p2):
    f = moore3_p2.coherence_map(2)
    assert _through_projection(f, moore3_p2.iota, moore3_p2.projection(1, 1))
    assert None not in f.mapping.values()


def test_coherence_map_sends_cells_over_the_basepoint_to_it():
    # iota' : S2 -> Y, Y the 2-sphere with one 2-cell a, sends one of S2's
    # two triangles to a and every other cell to *, as the small Moore
    # model's iota' does
    from types import SimpleNamespace
    from dsx.moore import MooreSystem
    Y = dsx.DeltaSet({2: ["a"]}, {"a": (None, None, None)}, based=True)
    S2 = dsx.sphere2()
    first = S2.cells(2)[0]
    iota = dsx.DeltaMorphism(S2, Y, {s: "a" if s == first else None
                                     for s in S2.dim_of})
    system = SimpleNamespace(S2=S2, iota=iota, powers=PowerSystem(Y))
    f = MooreSystem.coherence_map(system, 2)
    assert f.validate() == []
    assert _through_projection(f, iota, system.powers.projection(1, 1))
    images = set(f.mapping.values())
    assert None in images and len(images) > 1


def test_coherence_composite_p2_report_only():
    # i = 2 is outside 2 <= i <= p - 1 for p = 2: the verdict is reported,
    # not required (the symmetric square of a mod-2 Moore set is not a
    # mod-2 Moore set)
    sys2 = dsx.MooreSystem(2)
    f, verdict = sys2.coherence_composite(2)
    assert isinstance(verdict, bool)
    assert not verdict
    # the residue cone that the verdict reduces, and how it fails: by the
    # long exact sequence, with H~_5 and H~_3 of the source zero,
    # 0 -> H_5(P^2) -> H_5(cone) -> H_4(S2 /\ M) -> H_4(P^2) -> H_4(cone)
    # -> 0 is exact, so equal orders in degree 5 and a product in degree 4
    # make H~_4(S2 /\ M) -> H~_4(P^2) injective with cokernel Z/2
    CS, CT, mats = dsx.chain_map_matrices(f)
    R = CT.reduction()
    cone = dsx.mapping_cone_complex(CS, R.residue, R.carry(mats))
    groups = [dsx.homology(C) for C in (CS, CT, cone)]
    assert [{k: str(g) for k, g in gs.items() if not g.is_trivial()}
            for gs in groups] == [{4: "Z/2"}, {4: "Z/4", 5: "Z/2"},
                                  {4: "Z/2", 5: "Z/2"}]
    source, square, of_cone = [
        {k: prod(g.torsion) for k, g in gs.items()} for gs in groups]
    assert source.get(3, 1) == source.get(5, 1) == 1
    assert square[5] == of_cone[5]
    assert square[4] == source[4] * of_cone[4]


def test_free_module_report_unit_case(moore3_p2):
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    rep = moore3_p2.free_module_report(s0, 2)
    assert rep.all_pass()
    assert rep.levels[2]["method"] == "integral-cone"
    d = rep.as_dict()
    assert d["p"] == 3 and d["k"] == 2


def test_free_module_report_is_integral_at_every_level(moore3_p2):
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    for k in (1, 2):
        rep = moore3_p2.free_module_report(s0, k)
        assert sorted(rep.levels) == list(range(2, k + 1))
        for entry in rep.levels.values():
            assert entry["method"] == "integral-cone"
            assert "field_verdicts" not in entry
        assert rep.all_pass()


def test_free_module_report_circle(moore3_p2):
    # smashing the coherence composite with S1 stays a homology iso
    rep = moore3_p2.free_module_report(dsx.circle(), 2)
    assert rep.all_pass()
    assert rep.levels[2]["method"] == "integral-cone"


def test_moore_cli_builds_the_square_complex_once(monkeypatch):
    # P^2's complex is built once, and its Morse reduction serves both its
    # certification and the coherence cone.  The reduction consumes the
    # complex: its boundary mapping is empty once the reduction exists,
    # P^2 caches Reductions only, and the coherence verdict builds no
    # complex of its target
    import io as _io
    from importlib import import_module
    from dsx.cli import run
    hom, moore = import_module("dsx.homology"), import_module("dsx.moore")
    built = []
    build = hom._build_chain_complex

    def recording_build(K, reduced):
        C = build(K, reduced)
        built.append((K, reduced, C))
        return C

    reduced_ranks = []
    morse_reduce = exact.morse_reduce

    def recording_reduce(ranks, boundaries, q=None):
        reduced_ranks.append(ranks)
        return morse_reduce(ranks, boundaries, q)

    verdicts = []
    iso = moore.is_homology_iso

    def recording_iso(f, *args, **kw):
        start = len(built)
        out = iso(f, *args, **kw)
        verdicts.append((f.target, [K for K, _, _ in built[start:]]))
        return out

    powers = []
    power = moore.symmetric_power_of

    def recording_power(X, i):
        out = power(X, i)
        powers.append(out[0])
        return out

    monkeypatch.setattr(hom, "_build_chain_complex", recording_build)
    monkeypatch.setattr(moore, "symmetric_power_of", recording_power)
    monkeypatch.setattr(moore, "is_homology_iso", recording_iso)
    monkeypatch.setattr(exact, "morse_reduce", recording_reduce)
    status, _ = run(["moore", "--p", "3", "--power", "2",
                     "--coherence", "2"], stream=_io.StringIO())
    assert status == 0
    [P2] = powers
    assert [r for K, r, _ in built if K is P2] == [True]
    assert len({(id(K), r) for K, r, _ in built}) == len(built)
    [C] = [C for K, _, C in built if K is P2]
    assert C.d == {}
    assert P2._chains
    assert all(isinstance(R, hom.Reduction) for R in P2._chains.values())
    [(target, complexes)] = verdicts
    assert target is P2
    assert not any(K is target for K in complexes)
    # one reduction of P^2's complex, and none of a larger one
    R = hom.reduction_of(P2, reduced=True)
    assert [ranks for ranks in reduced_ranks if ranks is R.ranks] == \
        [R.ranks]
    assert max(map(sum, map(dict.values, reduced_ranks))) == \
        sum(R.ranks.values())


def test_moore_cli_frees_the_smash_square(monkeypatch):
    # once P^2 is built, the smash square W and its orbit map are garbage
    # while the system lives on, and the coherence composite smashes
    # S2 /\ P^{i-1} only, never M /\ anything
    import gc
    import io as _io
    import weakref
    from importlib import import_module
    from dsx.cli import run
    moore = import_module("dsx.moore")
    squares = []
    power = moore.symmetric_power_of

    def recording_power(X, i):
        out = power(X, i)
        squares.append(weakref.ref(out[2]))
        return out

    smashed = []
    smash = moore.smash

    def recording_smash(A, B):
        smashed.append((A, B))
        return smash(A, B)

    systems = []
    composite = moore.MooreSystem.coherence_composite

    def recording_composite(self, i):
        systems.append(self)
        start = len(smashed)
        out = composite(self, i)
        [(A, B)] = smashed[start:]
        assert A is self.S2 and B is self.power(i - 1)
        return out

    monkeypatch.setattr(moore, "symmetric_power_of", recording_power)
    monkeypatch.setattr(moore, "smash", recording_smash)
    monkeypatch.setattr(moore.MooreSystem, "coherence_composite",
                        recording_composite)
    status, _ = run(["moore", "--p", "3", "--power", "2",
                     "--coherence", "2"], stream=_io.StringIO())
    assert status == 0
    [system] = systems
    assert not any(A is system.M for A, B in smashed)
    gc.collect()
    [square] = squares
    assert square() is None


def test_free_module_report_rejects_bad_level(moore3):
    s0 = dsx.DeltaSet({0: ["w"]}, {}, based=True)
    with pytest.raises(ValueError):
        moore3.free_module_report(s0, 5)


# ---------------------------------------------------------------------------
# the homology triangle of the defining pushout
# ---------------------------------------------------------------------------

def test_smash_triangle_exactness(moore3):
    # H2(S2) --3--> H2(S2) --iota--> H2(M) -> 0: multiplication by 3
    # followed by iota vanishes and iota is onto
    entry = dsx.induced_map(moore3.iota)[2]
    u = entry["matrix"][0][0] % 3
    assert u != 0  # onto Z/3
    assert (3 * entry["matrix"][0][0]) % 3 == 0  # composite is zero
