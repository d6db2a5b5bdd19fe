from itertools import combinations
from math import comb

import pytest

import dsx
from dsx.delta import DeltaSet, DeltaMorphism

from conftest import random_two_dim_delta


def test_standard_simplex_counts():
    for n in range(0, 9):
        K = dsx.standard("simplex", n)
        assert K.counts() == tuple(comb(n + 1, k + 1) for k in range(n + 1))
        assert dsx.is_valid(K)


def test_standard_boundary_and_horn_counts():
    assert dsx.standard("boundary", 2).counts() == (3, 3)
    assert dsx.standard("horn", 2, 1).counts() == (3, 2)
    for n in range(1, 9):
        B = dsx.standard("boundary", n)
        assert dsx.is_valid(B)
        for i in range(n + 1):
            H = dsx.standard("horn", n, i)
            assert dsx.is_valid(H)
            assert H.n_cells() == B.n_cells() - 1


def test_horn_index_out_of_range():
    with pytest.raises(ValueError):
        dsx.standard("horn", 2, 3)
    with pytest.raises(ValueError):
        dsx.standard("horn", 2, None)


def _standard_by_definition(kind, n, i):
    """Per dimension, the (key, name, faces) of each cell of
    standard(kind, n, i) in order: image tuples in the order of
    itertools.combinations, named by their vertices, with face j deleting
    the j-th vertex; the boundary drops [n], the horn also d_i."""
    def name(t):
        return ",".join(map(str, t))

    out = {}
    for k in range(n + 1):
        cells = [
            (t, name(t), tuple(name(t[:j] + t[j + 1:]) for j in range(k + 1))
             if k else ())
            for t in combinations(range(n + 1), k + 1)
            if kind == "simplex" or k < n - 1
            or (k == n - 1 and (kind == "boundary" or i in t))]
        if cells:
            out[k] = cells
    return out


@pytest.mark.parametrize("n", range(6))
def test_standard_matches_its_definition(n):
    for kind, idx in (("simplex", [None]), ("boundary", [None]),
                      ("horn", range(n + 1))):
        for i in idx:
            K = dsx.standard(kind, n, i)
            got = {d: [(K.sort_key(s), s, K.faces[s]) for s in K.cells(d)]
                   for d in K.simplices}
            assert got == _standard_by_definition(kind, n, i), (kind, i)


def test_validate_accepts_delta2_and_empty():
    assert dsx.validate(dsx.standard("simplex", 2)) == []
    assert dsx.validate(dsx.EMPTY) == []


def test_validate_reports_swapped_faces():
    # swap face(2-simplex, 0) and face(2-simplex, 1).  By hand on the three
    # vertices: with faces (02, 12, 01) the pair (0,1) still agrees
    # ((12)d0 = 2 = (02)d0) but (0,2) compares (01)d0 = 1 with (02)d1 = 0
    # and (1,2) compares (01)d1 = 0 with (12)d1 = 1, so exactly the pairs
    # (0,2) and (1,2) are violated.
    D2 = dsx.standard("simplex", 2)
    faces = dict(D2.faces)
    top = "0,1,2"
    f = list(faces[top])
    f[0], f[1] = f[1], f[0]
    faces[top] = tuple(f)
    broken = DeltaSet({d: list(v) for d, v in D2.simplices.items()}, faces)
    report = dsx.validate(broken)
    assert report, "swapped faces must be detected"
    assert {(r["i"], r["j"]) for r in report} == {(0, 2), (1, 2)}
    assert all(r["simplex"] == top for r in report)


def test_based_flag_is_part_of_the_set():
    # the same cells, based or not, are different Delta-sets
    unbased = DeltaSet({0: ["v"], 1: ["z"]}, {"z": ("v", "v")})
    based = DeltaSet({0: ["v"], 1: ["z"]}, {"z": ("v", "v")}, based=True)
    assert unbased != based
    assert based == DeltaSet({0: ["v"], 1: ["z"]}, {"z": ("v", "v")},
                             based=True)
    # only a based set may have a face at the basepoint (None)
    with pytest.raises(ValueError):
        DeltaSet({0: ["v"], 1: ["z"]}, {"z": (None, "v")})


def test_boundary_two_is_a_circle():
    groups = dsx.homology_of(dsx.standard("boundary", 2))
    assert str(groups[0]) == "Z" and str(groups[1]) == "Z"


def test_horn_collapses_to_a_point():
    H = dsx.standard("horn", 2, 1)
    pt = dsx.SubDeltaSet(H, ["2"])
    cert = dsx.find_collapse_sequence(H, pt)
    assert cert is not None and len(cert) == 2
    assert cert.verify()


def test_skeleton():
    D2 = dsx.standard("simplex", 2)
    sk1 = dsx.skeleton(D2, 1).as_delta_set()
    assert sk1 == dsx.standard("boundary", 2)
    assert dsx.skeleton(D2, 2).as_delta_set() == D2
    assert len(dsx.skeleton(D2, -1)) == 0


def test_skeleton_must_be_face_closed():
    D2 = dsx.standard("simplex", 2)
    with pytest.raises(ValueError):
        dsx.SubDeltaSet(D2, ["0,1,2"])


def test_pushout_outer_horn_fold():
    # glue Delta[2] along the outer horn missing d_0 (its edges 01 and 02
    # share vertex 0) folded onto one edge: vertices {0} and {1 ~ 2},
    # edges {01 ~ 02, 12}, one triangle -- counts (2, 2, 1).
    D2 = dsx.standard("simplex", 2)
    horn = dsx.standard("horn", 2, 0)
    D1 = dsx.standard("simplex", 1)
    incl = dsx.DeltaMorphism(horn, D2, {s: s for s in horn.dim_of})
    fold = dsx.DeltaMorphism(
        horn, D1, {"0": "0", "1": "1", "2": "1", "0,1": "0,1", "0,2": "0,1"})
    po = dsx.pushout(incl, fold)
    assert po.delta.counts() == (2, 2, 1)
    assert dsx.is_valid(po.delta)
    assert po.leg_c.is_injective()


def test_inner_horn_admits_no_fold_onto_interval():
    horn = dsx.standard("horn", 2, 1)  # edges 0,1 and 1,2
    D1 = dsx.standard("simplex", 1)
    # both edges must map to the unique edge of Delta[1], forcing vertex 1
    # to go to both endpoints; no assignment is a morphism
    for v1 in ("0", "1"):
        with pytest.raises(ValueError):
            DeltaMorphism(horn, D1, {
                "0": "1" if v1 == "0" else "0", "1": v1,
                "2": "1" if v1 == "0" else "0",
                "0,1": "0,1", "1,2": "0,1"})


def test_pushout_along_identity_is_isomorphic_copy():
    K = dsx.cycle_graph(3)
    ident = dsx.identity_morphism(K)
    po = dsx.pushout(ident, ident)
    assert po.delta == K


def test_pushout_requires_mono_and_shared_source():
    D1 = dsx.standard("simplex", 1)
    pt = dsx.standard("simplex", 0)
    fold = dsx.DeltaMorphism(dsx.standard("boundary", 1), pt,
                             {"0": "0", "1": "0"})
    with pytest.raises(ValueError):
        dsx.pushout(fold, fold)  # fold is not injective
    other = dsx.identity_morphism(D1)
    with pytest.raises(ValueError):
        dsx.pushout(other, fold)  # different sources


def test_pushout_renames_clashing_cells_apart():
    # B's x clashes with C's x, and its first new name B:x is another cell
    # of B: all three vertices must survive under distinct names
    B = DeltaSet({0: ["x", "B:x"]}, {})
    C = DeltaSet({0: ["x"]}, {})
    po = dsx.pushout(DeltaMorphism(dsx.EMPTY, B, {}),
                     DeltaMorphism(dsx.EMPTY, C, {}))
    assert po.delta.n_cells() == 3
    assert po.leg_b.is_injective() and po.leg_c.is_injective()
    assert po.leg_b.mapping["B:x"] == "B:x"


def test_pushout_mono_leg_and_validity(rng):
    # cobase change of a mono is mono; pushouts of valid inputs are valid
    for _ in range(10):
        K = random_two_dim_delta(rng)
        sk = dsx.skeleton(K, 1)
        j = dsx.inclusion_morphism(sk)
        # map the skeleton into a disjoint ambient copy (a non-identity leg)
        L = random_two_dim_delta(rng, n_vertices=4)
        amb = dsx.disjoint_union(j.source, L)
        f = dsx.DeltaMorphism(j.source, amb,
                              {s: "L:" + s for s in j.source.dim_of})
        po = dsx.pushout(j, f)
        assert dsx.validate(po.delta) == []
        assert po.leg_c.is_injective()


def test_pushout_universal_property():
    K = dsx.standard("boundary", 2)
    D2 = dsx.standard("simplex", 2)
    j = dsx.DeltaMorphism(K, D2, {s: s for s in K.dim_of})
    amb = dsx.disjoint_union(K, K, tags=("A:", "B:"))
    f = dsx.DeltaMorphism(K, amb, {s: "A:" + s for s in K.dim_of})
    po = dsx.pushout(j, f)
    # the pushout's own legs form a cocone; the induced map must be the
    # identity on the pushout (uniqueness of the universal map)
    w = po.induced(po.leg_b, po.leg_c)
    assert not w.validate()
    assert all(w.mapping[s] == s for s in po.delta.dim_of)


def test_disjoint_union_counts():
    A = dsx.standard("simplex", 1)
    B = dsx.cycle_graph(3)
    U = dsx.disjoint_union(A, B)
    assert U.counts() == (5, 4)
    assert dsx.is_valid(U)


def test_iterated_face_matches_composition():
    D3 = dsx.standard("simplex", 3)
    top = "0,1,2,3"
    # missing {1, 3}: apply d_3 then d_1
    assert D3.iterated_face(top, [1, 3]) == \
        D3.faces[D3.faces[top][3]][1]
    assert D3.iterated_face(top, [1, 3]) == "0,2"


def test_from_simplicial_complex_rp2(corpus):
    groups = dsx.homology_of(corpus["RP2"])
    assert str(groups[0]) == "Z"
    assert str(groups[1]) == "Z/2"
    assert str(groups[2]) == "0"


def test_immutability_of_listed_cells():
    K = dsx.standard("simplex", 2)
    cells = K.cells(1)
    assert isinstance(cells, tuple)
    with pytest.raises(TypeError):
        cells[0] = "x"
