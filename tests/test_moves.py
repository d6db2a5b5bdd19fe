import pytest

import dsx
from dsx.moves import Move


def homology_tables_equal(K, L):
    gk = {k: str(g) for k, g in dsx.homology_of(K).items()
          if not g.is_trivial()}
    gl = {k: str(g) for k, g in dsx.homology_of(L).items()
          if not g.is_trivial()}
    return gk == gl


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cone_of_simplex_is_next_simplex(n):
    K = dsx.standard("simplex", n)
    CK, incl, cert = dsx.cone(K)
    D = dsx.standard("simplex", n + 1)
    assert CK.counts() == D.counts()
    assert dsx.is_valid(CK)
    # explicit isomorphism: vertex tuples map to themselves, the cone point
    # to the new last vertex, and c[x] to x + {n+1}
    mapping = {"apex": str(n + 1)}
    for d, s in K.all_cells():
        mapping[s] = s
        mapping[f"c[{s}]"] = s + f",{n + 1}"
    iso = dsx.DeltaMorphism(CK, D, mapping)
    assert iso.is_isomorphism()


def test_cone_of_empty_is_point():
    CK, incl, cert = dsx.cone(dsx.EMPTY)
    assert CK.counts() == (1,)
    assert len(cert) == 0 and cert.verify()


def test_cone_of_boundary_counts_and_homology():
    CK, incl, cert = dsx.cone(dsx.standard("boundary", 2))
    assert CK.counts() == (4, 6, 3)
    assert dsx.homology_table(dsx.homology_of(CK)) == \
        {0: "Z", 1: "0", 2: "0"}


def test_cone_certificate_one_move_per_simplex(corpus):
    for name in ("point", "interval", "D2", "bdD2", "C3", "horn21", "RP2"):
        K = corpus[name]
        CK, incl, cert = dsx.cone(K)
        assert len(cert) == K.n_cells()
        assert cert.verify()
        assert not incl.validate()


# ---------------------------------------------------------------------------
# recognizing expansions
# ---------------------------------------------------------------------------

def test_horn_in_simplex_is_expansion():
    D2 = dsx.standard("simplex", 2)
    sub = dsx.SubDeltaSet(D2, list(dsx.standard("horn", 2, 1).dim_of))
    assert dsx.is_elementary_expansion(sub) == ("0,1,2", 1)


def test_boundary_in_simplex_is_not_expansion():
    D2 = dsx.standard("simplex", 2)
    sub = dsx.SubDeltaSet(D2, list(dsx.standard("boundary", 2).dim_of))
    assert dsx.is_elementary_expansion(sub) is None
    assert dsx.expansion_via_horn_pushout(sub) is None


def test_point_in_cone_of_point_is_expansion():
    pt = dsx.standard("simplex", 0)
    CK, incl, cert = dsx.cone(pt)
    sub = dsx.SubDeltaSet(CK, ["apex"])
    witness = dsx.is_elementary_expansion(sub)
    assert witness is not None
    e, i = witness
    assert CK.dim_of[e] == 1


def test_expansion_agrees_with_horn_pushout_crosscheck(corpus):
    # every expansion pair produced by cones, plus some non-expansions
    cases = []
    for name in ("interval", "bdD2", "C3"):
        K = corpus[name]
        CK, incl, cert = dsx.cone(K)
        cells = set(CK.dim_of)
        # walk the certificate backwards, peeling one pair at a time
        for mv in reversed(cert.moves):
            f = mv.e_faces[mv.i]
            sub_cells = cells - {mv.e, f}
            cases.append((CK, sub_cells))
            cells = sub_cells
    D2 = dsx.standard("simplex", 2)
    cases.append((D2, set(dsx.standard("boundary", 2).dim_of)))
    cases.append((D2, set(dsx.standard("horn", 2, 0).dim_of)))
    for L, members in cases:
        # restrict to face-closed subsets (peeled sets always are)
        try:
            sub = dsx.SubDeltaSet(L, members)
        except ValueError:
            continue
        direct = dsx.is_elementary_expansion(sub)
        via_pushout = dsx.expansion_via_horn_pushout(sub)
        assert (direct is None) == (via_pushout is None)
        if direct is not None:
            assert direct == via_pushout


# ---------------------------------------------------------------------------
# collapse search and certificates
# ---------------------------------------------------------------------------

def test_collapse_horn_single_move():
    for n, i in ((1, 0), (2, 1), (3, 2)):
        D = dsx.standard("simplex", n)
        sub = dsx.SubDeltaSet(D, list(dsx.standard("horn", n, i).dim_of))
        cert = dsx.find_collapse_sequence(D, sub)
        assert cert is not None and len(cert) == 1
        assert cert.verify()


def test_collapse_cone_to_point(corpus):
    K = corpus["bdD2"]
    CK, incl, cert = dsx.cone(K)
    found = dsx.find_collapse_sequence(CK, dsx.SubDeltaSet(CK, ["apex"]))
    assert found is not None
    assert len(found) == 6
    assert found.verify()


def test_collapse_search_mixes_keyed_and_unkeyed_cells():
    # e1's sort key (1,) and e2's default key ("e2",) do not compare; the
    # search orders its moves by L's cell order, never by the keys
    L = dsx.DeltaSet({0: ["a", "b", "c", "d"], 1: ["e1", "e2"]},
                     {"e1": ("b", "a"), "e2": ("d", "c")},
                     sort_keys={"e1": (1,)})
    cert = dsx.find_collapse_sequence(L, dsx.SubDeltaSet(L, ["a", "c"]))
    assert cert is not None and len(cert) == 2
    assert cert.verify()


def test_replay_orders_cells_by_the_result():
    # the base keys its apex (5,), the cone (0,): the replayed cells take
    # the cone's order, so the apex comes first as in CK
    CK, incl, cert = dsx.cone(dsx.standard("boundary", 2))
    point = dsx.DeltaSet({0: ["apex"]}, {}, sort_keys={"apex": (5,)})
    assert dsx.ExpansionCertificate(point, cert.moves, CK).verify()


def test_collapse_boundary_in_simplex_none():
    D2 = dsx.standard("simplex", 2)
    sub = dsx.SubDeltaSet(D2, list(dsx.standard("boundary", 2).dim_of))
    assert dsx.find_collapse_sequence(D2, sub) is None


def test_collapse_target_outside_l_raises():
    D2, D3 = dsx.standard("simplex", 2), dsx.standard("simplex", 3)
    with pytest.raises(ValueError):
        dsx.find_collapse_sequence(D2, dsx.SubDeltaSet(D3, ["0", "3"]))
    with pytest.raises(ValueError):
        dsx.find_collapse_sequence(D2, D3)


def test_budget_exhaustion_is_distinct():
    K = dsx.standard("boundary", 3)
    CK, incl, cert = dsx.cone(K)
    with pytest.raises(dsx.BudgetExhausted):
        dsx.find_collapse_sequence(CK, dsx.SubDeltaSet(CK, ["apex"]), budget=2)


def test_certificate_replay_preserves_homology(corpus):
    for name in ("bdD2", "C3", "interval"):
        K = corpus[name]
        CK, incl, cert = dsx.cone(K)
        replayed = cert.replay()
        assert replayed == cert.result
        assert homology_tables_equal(cert.base, cert.result)


def test_certificate_reversal():
    CK, incl, cert = dsx.cone(dsx.cycle_graph(3))
    rev = cert.reversed()
    assert rev.replay() == rev.result
    assert rev.result == cert.base


def test_replay_rejects_broken_moves():
    CK, incl, cert = dsx.cone(dsx.standard("simplex", 0))
    bad = dsx.ExpansionCertificate(
        cert.base,
        [Move("expand", "c[0]", 0, ("missing", "0"), ())],
        cert.result)
    with pytest.raises(ValueError):
        bad.replay()
    # a missing cell and out-of-range face indices are refused as such,
    # not as a KeyError or IndexError
    CK, incl, cert = dsx.cone(dsx.standard("simplex", 1))
    for mv in (Move("collapse", "nosuch", 0, ("a", "b"), ()),
               Move("collapse", "c[0,1]", 7, ("a",), ()),
               Move("expand", "x", 5, ("0",), ())):
        bad = dsx.ExpansionCertificate(CK, [mv], CK)
        with pytest.raises(ValueError):
            bad.replay()


# ---------------------------------------------------------------------------
# mapping cylinders
# ---------------------------------------------------------------------------

def test_cylinder_of_identity_on_point():
    pt = dsx.standard("simplex", 0)
    Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(dsx.identity_morphism(pt))
    assert dsx.is_valid(Mf)
    assert cert.verify()
    # collapses to the point
    target = dsx.SubDeltaSet(Mf, [j.mapping["0"]])
    assert dsx.find_collapse_sequence(Mf, target) is not None
    assert dsx.homology_table(dsx.homology_of(Mf)) == {0: "Z", 1: "0"}


def test_cylinder_of_fold():
    fold = dsx.DeltaMorphism(dsx.standard("boundary", 1),
                             dsx.standard("simplex", 0),
                             {"0": "0", "1": "0"})
    Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(fold)
    assert dsx.is_valid(Mf)
    assert cert.verify()
    assert dsx.homology_table(dsx.homology_of(Mf)) == {0: "Z", 1: "0"}
    # front inclusion composed with g is injective
    gi0 = g.compose(i0)
    assert gi0.is_injective()


def test_cylinder_of_nabla_lift():
    # the unbased lift of nabla: the segment model of S<3> folds onto a
    # 1-gon circle model; the cylinder retains circle homology
    S = dsx.circle_segments(3)
    circle1 = dsx.cycle_graph(1)
    f = dsx.DeltaMorphism(
        S, circle1,
        {**{f"e{k}": "v0" for k in range(3)},
         **{f"f{k}": "w0" for k in range(3)}})
    Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(f)
    assert cert.verify()
    assert homology_tables_equal(Mf, circle1)


def test_cylinder_certificates_on_corpus(corpus):
    # back inclusion certified as a composite of elementary expansions
    for name in ("point", "interval", "bdD2", "C3", "D2"):
        K = corpus[name]
        Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(
            dsx.identity_morphism(K))
        assert cert.verify()
        assert len(cert) == sum((d + 1) * len(K.cells(d))
                                for d in range(K.top_dim + 1))
        assert homology_tables_equal(cert.base, Mf)


def test_cylinder_pushout_agrees_with_delta_core():
    # the mapping-cylinder pushout reproduced bitwise via delta.pushout
    L = dsx.standard("simplex", 0)
    fold = dsx.DeltaMorphism(dsx.standard("boundary", 1), L,
                             {"0": "0", "1": "0"})
    Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(fold)
    P, front, back = dsx.cylinder_inclusions(fold.source,
                                             dsx.standard("simplex", 1))
    po = dsx.pushout(back, fold)
    assert po.delta == Mf


def test_cone_and_cylinder_counts_predict_built_counts(corpus):
    from dsx.moves import cone_counts, cylinder_counts
    C4 = dsx.cycle_graph(4)
    fold = dsx.DeltaMorphism(C4, dsx.cycle_graph(2),
                             {f"{a}{k}": f"{a}{k % 2}"
                              for a in "vw" for k in range(4)})
    maps = [fold]
    for name, K in corpus.items():
        if name == "cone_bdD2":  # it holds the cone point's name already
            continue
        CK, incl, _ = dsx.cone(K)
        assert cone_counts(K.counts()) == CK.counts(), name
        maps += [dsx.identity_morphism(K), incl]
    for f in maps:
        Mf = dsx.mapping_cylinder(f)[0]
        assert cylinder_counts(f.source.counts(), f.target.counts()) == \
            Mf.counts()
    assert cylinder_counts(C4.counts(), (2, 2)) == (6, 14, 8)
    assert cone_counts(dsx.geometric_product(C4, C4).counts()) == \
        (17, 64, 80, 32)

