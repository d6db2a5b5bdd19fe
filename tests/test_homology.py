import random

import pytest

import dsx
from dsx import exact
from dsx.homology import HomologyGroup, is_prime


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

def test_chain_complex_boundary_squares_to_zero(corpus):
    for K in corpus.values():
        C = dsx.chain_complex(K)
        assert C.verify() == []


def test_chain_complex_of_boundary_two():
    C = dsx.chain_complex(dsx.standard("boundary", 2))
    assert [C.rank(k) for k in (0, 1)] == [3, 3]
    groups = dsx.homology(C)
    assert str(groups[0]) == "Z" and str(groups[1]) == "Z"


def test_a_loop_stores_no_zero_boundary_entry():
    # an edge with faces (v, v) has boundary v - v = 0: the entry its two
    # faces add up to is dropped, not stored as a zero
    K = dsx.DeltaSet({0: ["v"], 1: ["e"]}, {"e": ("v", "v")})
    C = dsx.chain_complex(K)
    assert C.d[1] == {}
    assert str(dsx.homology(C)[1]) == "Z"


def test_reduced_complex_of_circle():
    C = dsx.chain_complex(dsx.circle(), reduced=True)
    assert C.rank(1) == 1 and C.rank(0) == 0
    assert str(dsx.homology(C)[1]) == "Z"


def test_based_unreduced_adds_base_component():
    C = dsx.chain_complex(dsx.circle(), reduced=False)
    groups = dsx.homology(C)
    assert str(groups[0]) == "Z" and str(groups[1]) == "Z"


def test_augmented_complex_of_point():
    C = dsx.chain_complex(dsx.standard("simplex", 0), reduced=True)
    groups = dsx.homology(C)
    assert all(g.is_trivial() for g in groups.values())


def test_moore_reduced_homology(moore3):
    groups = dsx.homology_of(moore3.M, reduced=True)
    assert str(groups[2]) == "Z/3"
    assert all(g.is_trivial() for k, g in groups.items() if k != 2)
    C = dsx.chain_complex(moore3.M, reduced=True)
    assert C.euler_characteristic() == 0


def test_reduction_is_built_once_per_delta_set(corpus, monkeypatch):
    # a Delta-set caches the reduction of its complex, one per value of
    # `reduced`, and builds no complex for it again; chain_complex itself
    # builds a fresh complex on every call
    from importlib import import_module
    hom = import_module("dsx.homology")
    built = []
    build = hom._build_chain_complex

    def counting_build(K, reduced):
        built.append((K, reduced))
        return build(K, reduced)

    monkeypatch.setattr(hom, "_build_chain_complex", counting_build)
    for K in (corpus["RP2"], dsx.circle(), dsx.EMPTY):
        for reduced in (False, True):
            R = dsx.reduction_of(K, reduced)
            built.clear()
            assert dsx.reduction_of(K, reduced=reduced) is R
            assert dsx.homology_of(K, reduced=reduced)
            assert built == []
        assert dsx.reduction_of(K) is not dsx.reduction_of(K, reduced=True)
        assert dsx.chain_complex(K) is not dsx.chain_complex(K)


def _broken_triangle():
    # the 2-simplex with faces d_0 and d_1 swapped, built directly so that
    # nothing validates it: d o d of the top cell is 2(1) - 2(0)
    faces = dict(dsx.standard("simplex", 2).faces)
    a, b, c = faces["0,1,2"]
    faces["0,1,2"] = (b, a, c)
    return dsx.DeltaSet({0: ["0", "1", "2"], 1: ["0,1", "0,2", "1,2"],
                         2: ["0,1,2"]}, faces)


def test_a_set_whose_boundary_does_not_square_to_zero_is_refused():
    for reduced in (False, True):
        with pytest.raises(ValueError, match="d o d"):
            dsx.reduction_of(_broken_triangle(), reduced)
        with pytest.raises(ValueError, match="d o d"):
            dsx.homology_of(_broken_triangle(), reduced=reduced)
        with pytest.raises(ValueError, match="d o d"):
            dsx.chain_complex(_broken_triangle(), reduced)
    with pytest.raises(ValueError, match="d o d"):
        dsx.bockstein(_broken_triangle(), 3, 1)


def test_reduction_of_verifies_the_residue_only(monkeypatch):
    # the full complex is built only to be reduced, so the elimination
    # checks its d o d on its own columns; ChainComplex.verify runs once,
    # on the residue
    verified = []
    verify = dsx.ChainComplex.verify

    def recording_verify(C):
        verified.append(C)
        return verify(C)

    monkeypatch.setattr(dsx.ChainComplex, "verify", recording_verify)
    K = dsx.geometric_product(dsx.cycle_graph(3), dsx.cycle_graph(4))
    R = dsx.reduction_of(K)
    assert verified == [R.residue]


def test_a_coherence_verdict_verifies_residues_only(monkeypatch):
    # the source's complex and the cone are built unchecked: the cone's
    # reduction checks both, and the target's reduction checks its
    # complex, so ChainComplex.verify runs only on residues
    from importlib import import_module
    hom = import_module("dsx.homology")
    f = dsx.MooreSystem(3).coherence_map(2)
    verified, residues = [], []
    verify, init = hom.ChainComplex.verify, hom.Reduction.__init__

    def recording_verify(C):
        verified.append(C)
        return verify(C)

    def recording_init(R, C, boundaries):
        init(R, C, boundaries)
        residues.append(R.residue)

    monkeypatch.setattr(hom.ChainComplex, "verify", recording_verify)
    monkeypatch.setattr(hom.Reduction, "__init__", recording_init)
    assert dsx.is_homology_iso(f)
    assert verified
    assert all(any(C is W for W in residues) for C in verified)


def test_is_quasi_iso_refuses_a_map_that_is_not_a_chain_map():
    # Z --2--> Z in degrees 1, 0 on both sides, with F_1 = 1 and F_0 = 0:
    # d F_1 = 2 != 0 = F_0 d.  CT's one entry is no unit, so pi is the
    # identity, and the check on the cone's columns in morse_reduce is
    # what refuses it
    C = dsx.complex_from_matrices(0, 1, {0: 1, 1: 1}, {1: [[2]]})
    with pytest.raises(ValueError, match="d o d"):
        dsx.is_quasi_iso(C, C, {1: {(0, 0): 1}})


def test_morse_reduce_checks_d_squared_before_reducing():
    # d_1 d_2 = 2 != 0; over Z/2 that product would vanish, so the check
    # runs on the integral entries, before they are reduced mod q
    bnd = {1: {(0, 0): 1}, 2: {(0, 0): 2}}
    for q in (None, 2, 4):
        with pytest.raises(ValueError, match=r"d o d != 0 in degrees \[2\]"):
            exact.morse_reduce({0: 1, 1: 1, 2: 1}, dict(bnd), q=q)


def test_morse_reduced_leaves_the_complex_intact(corpus):
    C = dsx.chain_complex(corpus["RP2"])
    before = {k: dict(coo) for k, coo in C.d.items()}
    C.morse_reduced()
    assert C.d == before


def test_morse_reduce_consumes_the_mapping_it_is_handed(corpus):
    # the outer mapping is emptied; the COO dicts popped from it are not
    # changed
    C = dsx.chain_complex(corpus["torus"])
    popped = dict(C.d)
    before = {k: dict(coo) for k, coo in C.d.items()}
    exact.morse_reduce(C.ranks, C.d)
    assert C.d == {}
    assert popped == before


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_smith_hand_examples():
    S = dsx.smith([[2, 0], [0, 3]])
    assert S.diagonal() == [1, 6]
    assert S.verify([[2, 0], [0, 3]])
    Z = dsx.smith([[0, 0], [0, 0]])
    assert Z.diagonal() == [0, 0]
    assert Z.verify([[0, 0], [0, 0]])
    P = dsx.smith([[7]])
    assert P.diagonal() == [7]
    assert P.verify([[7]])


def test_smith_rectangular_and_empty():
    A = [[1, 2, 3], [4, 5, 6]]
    S = dsx.smith(A)
    assert S.verify(A)
    assert S.diagonal() == [1, 3]
    E = dsx.smith([])
    assert E.verify([])


def test_smith_random_with_inverse_witnesses():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0
              for _ in range(n)] for _ in range(m)]
        S = exact.smith(A)
        assert S.verify(A)


def test_sparse_factors_agree_with_dense():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        A = [[rng.randint(-6, 6) if rng.random() < 0.4 else 0
              for _ in range(n)] for _ in range(m)]
        coo = {(i, j): A[i][j] for i in range(m) for j in range(n)
               if A[i][j]}
        sp = exact.SparseMat.from_entries(m, n, coo)
        rank, factors = exact.sparse_rank_and_factors(sp)
        S = exact.smith(A, with_transforms=False)
        assert rank == S.rank()
        assert sorted(factors) == sorted(S.invariant_factors())


def dense_homology(C, coeff="Z", p=None):
    """{k: (free rank, torsion)} from the dense boundaries of C with no
    reduction: Smith forms over Z and Q, sympy's rank over GF(p)."""
    rank, factors = {}, {}
    for k in range(C.lo, C.hi + 2):
        rank[k], factors[k] = 0, []
        if not (C.rank(k) and C.rank(k - 1)):
            continue
        A = C.boundary_dense(k)
        if coeff == "F":
            pytest.importorskip("sympy")
            from sympy.polys.domains import GF
            from sympy.polys.matrices import DomainMatrix
            rank[k] = DomainMatrix.from_list(A, GF(p)).rank()
        else:
            S = exact.smith(A, with_transforms=False)
            rank[k], factors[k] = S.rank(), S.invariant_factors()
    return {k: (C.rank(k) - rank[k] - rank[k + 1],
                tuple(d for d in factors[k + 1] if d > 1)
                if coeff == "Z" else ())
            for k in range(C.lo, C.hi + 1)}


def test_morse_reduction_preserves_homology(corpus):
    for name in ("RP2", "torus", "bdD3", "cone_bdD2"):
        C = dsx.chain_complex(corpus[name])
        W = C.morse_reduced()
        assert W.total_rank() <= C.total_rank()
        assert W.euler_characteristic() == C.euler_characteristic()
        assert W.verify() == []
        for coeff, p in (("Z", None), ("F", 2), ("F", 3), ("Q", None)):
            want = dense_homology(C, coeff, p)
            assert dense_homology(W, coeff, p) == want, (name, coeff, p)
            got = {k: (g.free_rank, g.torsion) for k, g in
                   dsx.homology(C, coeff=coeff, p=p).items()}
            assert got == want, (name, coeff, p)


def test_morse_reduce_never_pivots_on_a_non_unit():
    # a lone 2 is a free face and a coreduction at once; it is a unit only
    # over Z/9
    for q in (None, 4):
        ranks, bnd, _ = exact.morse_reduce({0: 1, 1: 1}, {1: {(0, 0): 2}},
                                           q=q)
        assert (ranks, bnd) == ({0: 1, 1: 1}, {1: {(0, 0): 2}}), q
    assert exact.morse_reduce({0: 1, 1: 1}, {1: {(0, 0): 2}}, q=9)[:2] == \
        ({0: 0, 1: 0}, {1: {}})
    # inside a longer complex: the edge e0 = v1 - v0 cancels against a free
    # face, and the two 2-cells are lone columns with entry 2 on the loop
    # e1, whose row holds two entries
    ranks = {0: 2, 1: 2, 2: 2}
    bnd = {1: {(0, 0): -1, (1, 0): 1}, 2: {(1, 0): 2, (1, 1): 2}}
    for q in (None, 4):
        got_ranks, got, _ = exact.morse_reduce(ranks, dict(bnd), q=q)
        assert got_ranks == {0: 1, 1: 1, 2: 2}, q
        assert sorted(got[2].values()) == [2, 2] and got[1] == {}, q
    got_ranks, got, _ = exact.morse_reduce(ranks, dict(bnd), q=9)
    assert got_ranks == {0: 1, 1: 0, 2: 1}
    assert got == {1: {}, 2: {}}


def test_morse_residue_checks_itself(corpus, monkeypatch):
    # a fresh complex: the residue of the shared one may already be cached
    shared = dsx.chain_complex(corpus["RP2"])
    C = dsx.ChainComplex(shared.lo, shared.hi, shared.ranks, shared.d)
    real = exact.morse_reduce

    def drop_a_cell(ranks, boundaries, q=None):
        ranks, bnd, pivots = real(ranks, boundaries, q)
        top = max(k for k, n in ranks.items() if n)
        ranks[top] -= 1
        bnd[top] = {(r, c): v for (r, c), v in bnd.get(top, {}).items()
                    if c < ranks[top]}
        bnd.pop(top + 1, None)
        return ranks, bnd, pivots

    monkeypatch.setattr(exact, "morse_reduce", drop_a_cell)
    with pytest.raises(ValueError, match="Euler"):
        C.morse_reduced()

    def break_d_squared(ranks, boundaries, q=None):
        return {0: 1, 1: 1, 2: 1}, {1: {(0, 0): 1}, 2: {(0, 0): 1}}, []

    monkeypatch.setattr(exact, "morse_reduce", break_d_squared)
    with pytest.raises(ValueError, match="d o d"):
        C.morse_reduced()


def test_bockstein_refuses_a_residue_entry_not_divisible_by_p(monkeypatch):
    # only the reduction over Z/p^2 is faked; the integral one it starts
    # from is the real one
    reduce = exact.morse_reduce

    def fake_mod_q(ranks, boundaries, q=None):
        if q is None:
            return reduce(ranks, boundaries)
        return {0: 1, 1: 1}, {1: {(0, 0): 4}}, []

    monkeypatch.setattr(exact, "morse_reduce", fake_mod_q)
    with pytest.raises(ValueError, match="not divisible by 3"):
        dsx.bockstein(dsx.circle(), 3, 1)


def test_sparse_rank_mod_p_gives_betti_numbers(corpus, moore3):
    # the Morse residues carry the non-unit entries (2 on RP2, 3 on M)
    for K in (corpus["RP2"], corpus["torus"], corpus["wedgeish"], moore3.M):
        C = dsx.chain_complex(K)
        for X in (C, C.morse_reduced()):
            for p in (2, 3, 5):
                rank = {k: exact.sparse_rank_mod_p(
                            exact.SparseMat.from_entries(
                                X.rank(k - 1), X.rank(k), X.d.get(k, {})), p)
                        for k in range(X.lo, X.hi + 2)}
                betti = {k: X.rank(k) - rank[k] - rank[k + 1]
                         for k in range(X.lo, X.hi + 1)}
                want = {k: free for k, (free, _) in
                        dense_homology(C, "F", p).items()}
                assert betti == want, (K, p)


# ---------------------------------------------------------------------------
# homology over fields and universal coefficients
# ---------------------------------------------------------------------------

def test_field_homology_of_moore(moore3):
    f3 = dsx.homology_of(moore3.M, coeff="F", p=3, reduced=True)
    dims = {k: g.free_rank for k, g in f3.items()}
    assert dims == {0: 0, 1: 0, 2: 1, 3: 1}
    for coeff, p in (("F", 2), ("Q", None)):
        groups = dsx.homology_of(moore3.M, coeff=coeff, p=p, reduced=True)
        assert all(g.is_trivial() for g in groups.values())


def test_field_homology_labels(corpus):
    groups = dsx.homology_of(corpus["RP2"], coeff="F", p=2)
    assert dsx.homology_table(groups) == {0: "F_2", 1: "F_2", 2: "F_2"}
    groups = dsx.homology_of(corpus["torus"], coeff="F", p=3)
    assert dsx.homology_table(groups) == {0: "F_3", 1: "F_3^2", 2: "F_3"}
    groups = dsx.homology_of(corpus["RP2"], coeff="Q")
    assert dsx.homology_table(groups) == {0: "Q", 1: "0", 2: "0"}
    assert str(dsx.homology_of(corpus["RP2"])[1]) == "Z/2"


def test_point_homology():
    groups = dsx.homology_of(dsx.standard("simplex", 0))
    assert str(groups[0]) == "Z"


def test_homology_rejects_nonprime():
    with pytest.raises(ValueError):
        dsx.homology_of(dsx.circle(), coeff="F", p=6)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    # 561 is a Carmichael number; 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    for p in [*range(10_001), 10**18 + 3, 2**61 - 1, 561, 3215031751]:
        assert is_prime(p) == sympy.isprime(p), p


def test_primes_past_2_to_64_are_refused():
    p = 2**64 + 13  # a prime
    with pytest.raises(ValueError):
        is_prime(p)
    with pytest.raises(ValueError):
        dsx.homology_of(dsx.circle(), coeff="F", p=p)
    with pytest.raises(ValueError):
        dsx.bockstein(dsx.circle(), p, 1)


def test_universal_coefficients(corpus):
    for name, K in corpus.items():
        hz = dsx.homology_of(K)
        for p in (2, 3, 5):
            hp = dsx.homology_of(K, coeff="F", p=p)
            for k, g in hp.items():
                zk = hz.get(k, HomologyGroup(k, 0))
                zk1 = hz.get(k - 1, HomologyGroup(k - 1, 0))
                want = zk.free_rank \
                    + sum(1 for t in zk.torsion if t % p == 0) \
                    + sum(1 for t in zk1.torsion if t % p == 0)
                assert g.free_rank == want, (name, p, k)


def test_homology_invariant_under_certificate_replay(corpus):
    K = corpus["bdD2"]
    CK, incl, cert = dsx.cone(K)
    stages = [cert.base]
    partial = []
    for mv in cert.moves:
        partial.append(mv)
        stages.append(dsx.ExpansionCertificate(cert.base, partial,
                                               None).replay())
    for X in stages:
        groups = dsx.homology_of(X)
        nontrivial = {k: str(g) for k, g in groups.items()
                      if not g.is_trivial()}
        assert nontrivial == {0: "Z"}


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def test_homology_iso_is_decided_over_z():
    # nabla(7) is multiplication by 7 on H1: invertible over F2, F3, F5
    # and Q, so only the integral verdict sees the 7-torsion of its cone
    f = dsx.nabla(7)
    assert not dsx.is_homology_iso(f)
    for coeff, p in (("F", 2), ("F", 3), ("F", 5), ("Q", None)):
        assert dsx.is_homology_iso(f, coeff=coeff, p=p), (coeff, p)
    assert not dsx.is_homology_iso(f, coeff="F", p=7)


def test_induced_identity(moore3):
    m = dsx.induced_map(dsx.identity_morphism(moore3.M))
    for k, entry in m.items():
        n = len(entry["source_orders"])
        assert entry["source_orders"] == entry["target_orders"]
        assert entry["matrix"] == [[1 if i == j else 0 for j in range(n)]
                                   for i in range(n)]
        assert dsx.integral_map_is_iso(entry)


@pytest.mark.parametrize("make", [
    dsx.circle, dsx.sphere2, lambda: dsx.moore_space(3)[0]],
    ids=["circle", "sphere2", "moore3"])
def test_unreduced_identity_of_a_based_set_is_an_iso(make):
    # the unreduced complex of a based set has a basepoint generator in
    # degree 0, which the identity sends to itself
    f = dsx.identity_morphism(make())
    assert dsx.is_homology_iso(f, reduced=False)
    assert dsx.induced_map(f, reduced=False)[0]["matrix"] == [[1]]


def test_unreduced_nabla_is_not_an_iso():
    assert not dsx.is_homology_iso(dsx.nabla(3), reduced=False)


def test_unreduced_map_into_an_unbased_set_drops_the_basepoint():
    # a based source with no basepoint faces may map into an unbased set,
    # which has no basepoint generator to send its own to
    K = dsx.DeltaSet({0: ["v"]}, {}, based=True)
    L = dsx.DeltaSet({0: ["a", "b"]}, {})
    f = dsx.DeltaMorphism(K, L, {"v": "a"})
    assert dsx.chain_map_matrices(f, reduced=False)[2] == {0: {(0, 0): 1}}


def test_map_matrices_fit_the_complexes(corpus, moore3):
    # the chain map's matrices are sized from the morphism alone; they fit
    # the complexes of its ends, and its cone squares to zero, so it is a
    # chain map
    from dsx.homology import _map_matrices
    pt = corpus["point"]
    v = dsx.DeltaSet({0: ["v"]}, {}, based=True)
    maps = [dsx.nabla(3), dsx.psi(1, 4), moore3.iota,
            dsx.identity_morphism(dsx.circle()),
            dsx.based_cone(dsx.s_bracket(3))[1],
            dsx.DeltaMorphism(v, dsx.standard("boundary", 1), {"v": "0"}),
            dsx.DeltaMorphism(dsx.EMPTY, corpus["C3"], {})]
    for name, K in corpus.items():
        maps += [dsx.identity_morphism(K), dsx.unit_iso(K, pt)]
        if name != "cone_bdD2":  # it holds the cone point's name already
            maps.append(dsx.cone(K)[1])
    for f in maps:
        for reduced in (False, True):
            CS = dsx.chain_complex(f.source, reduced)
            CT = dsx.chain_complex(f.target, reduced)
            mats = _map_matrices(f, reduced)
            assert set(mats) == set(range(max(CS.lo, CT.lo),
                                          min(CS.hi, CT.hi) + 1))
            for k, coo in mats.items():
                assert all(0 <= r < CT.rank(k) and 0 <= c < CS.rank(k)
                           for r, c in coo), (f.source, reduced, k)
            if f.source.based and f.target.based and not reduced:
                assert mats[0][(CT.rank(0) - 1, CS.rank(0) - 1)] == 1
            if f.source.based == f.target.based or not reduced:
                # (a based set's reduced chains have no augmentation to
                # commute with that of an unbased target)
                assert dsx.mapping_cone_complex(CS, CT, mats).verify() == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nabla_and_psi_induced_maps(p):
    nabla_h1 = dsx.induced_map(dsx.nabla(p))[1]
    assert nabla_h1["matrix"] == [[p]]
    assert nabla_h1["source_orders"] == [0]
    assert nabla_h1["target_orders"] == [0]
    for i in range(p):
        psi_h1 = dsx.induced_map(dsx.psi(i, p))[1]
        assert psi_h1["matrix"] == [[1]]


def test_induced_maps_respect_composition():
    # psi_1 followed by the identity; and nabla through a quotient square
    f = dsx.psi(1, 3)
    idc = dsx.identity_morphism(dsx.circle())
    comp = dsx.induced_map(idc.compose(f))
    direct = dsx.induced_map(f)
    for k in comp:
        assert comp[k]["matrix"] == direct[k]["matrix"]


def test_integral_iso_detection():
    ok = {"matrix": [[1]], "source_orders": [3], "target_orders": [3]}
    assert dsx.integral_map_is_iso(ok)
    two_mod_three = {"matrix": [[2]], "source_orders": [3],
                     "target_orders": [3]}
    assert dsx.integral_map_is_iso(two_mod_three)
    zero = {"matrix": [[0]], "source_orders": [3], "target_orders": [3]}
    assert not dsx.integral_map_is_iso(zero)
    wrong_groups = {"matrix": [[1]], "source_orders": [0],
                    "target_orders": [3]}
    assert not dsx.integral_map_is_iso(wrong_groups)
    by_three = {"matrix": [[3]], "source_orders": [0], "target_orders": [0]}
    assert not dsx.integral_map_is_iso(by_three)


# ---------------------------------------------------------------------------
# Bockstein
# ---------------------------------------------------------------------------

def test_bockstein_vanishes_on_torsion_free():
    b = dsx.bockstein(dsx.circle(), 3, 1)
    assert b["source_dim"] == 1 and b["target_dim"] == 0
    assert all(not any(row) for row in b["matrix"])


def test_bockstein_of_moore_is_iso(moore3):
    b = dsx.bockstein(moore3.M, 3, 3)
    assert b["source_dim"] == b["target_dim"] == 1
    assert dsx.fp_matrix_is_iso(b)


def test_bockstein_reads_the_cached_reduction(monkeypatch):
    # once homology_of has reduced K's complex, no Bockstein builds it
    # again; from a fresh K, every Bockstein together builds it once (the
    # Moore set is never fresh: building it certifies its homology)
    from importlib import import_module
    from conftest import RP2_TRIANGLES
    hom = import_module("dsx.homology")
    built = []
    build = hom._build_chain_complex

    def counting_build(K, reduced):
        built.append((K, reduced))
        return build(K, reduced)

    monkeypatch.setattr(hom, "_build_chain_complex", counting_build)
    def every_bockstein(K):
        built.clear()
        for p in (2, 3):
            for k in range(K.top_dim + 2):
                dsx.bockstein(K, p, k)
        return built

    for make in (dsx.sphere2, lambda: dsx.s_bracket(4),
                 lambda: dsx.from_simplicial_complex(RP2_TRIANGLES)):
        K = make()
        assert every_bockstein(K) == [(K, True)]
        K = make()
        dsx.homology_of(K, reduced=True)
        assert every_bockstein(K) == []
    assert every_bockstein(dsx.moore_space(3)[0]) == []


def test_bockstein_rank_and_dimensions_match_homology(corpus):
    # beta_k has one unit of rank for each Z/d summand of H~_{k-1}(Z) with
    # d of p-adic valuation exactly 1; Z/p^2 and beyond contribute none
    objs = dict(corpus, S2=dsx.sphere2(), S4=dsx.s_bracket(4),
                **{f"M{n}": dsx.moore_space(n)[0] for n in (2, 3, 4, 6, 9)})
    for name, K in objs.items():
        C = dsx.chain_complex(K, reduced=True)
        integral = dsx.homology(C)
        for p in (2, 3, 5):
            field = dsx.homology(C, coeff="F", p=p)
            dims = {k: g.free_rank for k, g in field.items()}
            for k in range(0, K.top_dim + 2):
                tors = integral[k - 1].torsion if k - 1 in integral else ()
                rank = sum(1 for d in tors if d % p == 0 and d % (p * p))
                b = dsx.bockstein(K, p, k)
                assert (b["rank"], b["source_dim"], b["target_dim"]) == \
                    (rank, dims.get(k, 0), dims.get(k - 1, 0)), (name, p, k)
    # p divides the torsion, yet the Bockstein vanishes
    for name, p in (("M4", 2), ("M9", 3)):
        b = dsx.bockstein(objs[name], p, 3)
        assert (b["rank"], b["source_dim"], b["target_dim"]) == (0, 1, 1)
        assert not dsx.fp_matrix_is_iso(b)


def test_bockstein_squares_to_zero(moore3):
    objs = [moore3.M, dsx.sphere2(), dsx.s_bracket(4)]
    for K in objs:
        for p in (2, 3):
            top = K.top_dim
            for k in range(1, top + 1):
                b1 = dsx.bockstein(K, p, k)
                b2 = dsx.bockstein(K, p, k - 1)
                if not b1["matrix"] or not b2["matrix"]:
                    continue
                prod = exact.mat_mul(b2["matrix"], b1["matrix"])
                assert all(v % p == 0 for row in prod for v in row), (p, k)


# ---------------------------------------------------------------------------
# Moore certification
# ---------------------------------------------------------------------------

def test_certify_moore_accepts_moore(moore3):
    ok, table = dsx.certify_moore(moore3.M, 3, 2)
    assert ok
    assert table[2] == "Z/3"


def test_certify_moore_rejects_circle():
    ok, table = dsx.certify_moore(dsx.circle(), 3, 2)
    assert not ok
    assert table[1] == "Z"


def test_certify_moore_with_wrong_modulus(moore3):
    ok, _ = dsx.certify_moore(moore3.M, 2, 2)
    assert not ok
    ok, _ = dsx.certify_moore(moore3.M, 3, 3)
    assert not ok
