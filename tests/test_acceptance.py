"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line.  Everything is exact; the only tolerances are the
wall-clock bounds, which are asserted."""

import io as _io
import random
import time
from contextlib import contextmanager

import dsx
from dsx import exact
from dsx.cli import run
from dsx.dgred import u_of, v_of

from test_dg import check_uv_identities, random_three_term


@contextmanager
def criterion(number, description, bound_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] PASS  {description} "
          f"({elapsed:.2f}s < {bound_s}s)")
    assert elapsed < bound_s, f"criterion {number} exceeded {bound_s}s"


_SYS3 = {}


def _sys3_with_power2():
    if "sys" not in _SYS3:
        sys3 = dsx.MooreSystem(3)
        sys3.power(2)
        _SYS3["sys"] = sys3
    return _SYS3["sys"]


def test_criterion_1_moore_construction():
    with criterion(1, "Moore sets via `dsx moore --p P` for P in {2,3,5}: "
                      "reduced homology Z/P in degree 2 only", 15):
        for p in (2, 3, 5):
            t0 = time.perf_counter()
            out = _io.StringIO()
            status, report = run(["moore", "--p", str(p)], stream=out)
            assert status == 0
            table = report["tables"]["moore"]
            assert table["2"] == f"Z/{p}"
            assert all(v == "0" for k, v in table.items() if k != "2")
            assert time.perf_counter() - t0 < 5


def test_criterion_2_symmetric_power_moore():
    with criterion(2, "P^2 at p=3: reduced integral homology Z/3 in "
                      "degree 4; Bockstein H~5 -> H~4 over F3 is iso", 60):
        sys3 = _sys3_with_power2()
        P2 = sys3.power(2)
        ok, table = dsx.certify_moore(P2, 3, 4)
        assert ok, table
        b = dsx.bockstein(P2, 3, 5)
        assert b["source_dim"] == b["target_dim"] == 1
        assert dsx.fp_matrix_is_iso(b)


def test_criterion_3_coherence_composite():
    with criterion(3, "S2 /\\ P1 -> P2 at p=3 is an integral homology "
                      "isomorphism in every degree", 60):
        sys3 = _sys3_with_power2()
        f, verdict = sys3.coherence_composite(2)
        assert verdict


def test_criterion_3_stretch_p5():
    with criterion(3, "p=5: S2 /\\ P1 -> P2 is an integral homology "
                      "isomorphism in every degree", 900):
        sys5 = dsx.MooreSystem(5)
        f, verdict = sys5.coherence_composite(2)
        assert verdict


def test_criterion_3_coherence_p7():
    # a verdict read off a few small fields (F_2, F_3, F_5) would not see
    # 7-torsion; this one is computed over Z
    with criterion(3, "p=7: S2 /\\ P1 -> P2 is an integral homology "
                      "isomorphism in every degree", 900):
        sys7 = dsx.MooreSystem(7)
        f, verdict = sys7.coherence_composite(2)
        assert verdict


def test_criterion_4_nabla_vs_psi():
    with criterion(4, "induced maps on H~1(S<p>): x p for nabla, x 1 for "
                      "every psi_i, p in {2,3,5}", 1):
        for p in (2, 3, 5):
            entry = dsx.induced_map(dsx.nabla(p))[1]
            assert entry["matrix"] == [[p]]
            for i in range(p):
                entry = dsx.induced_map(dsx.psi(i, p))[1]
                assert entry["matrix"] == [[1]]


def test_criterion_5_combinatorial_homotopy():
    with criterion(5, "hat-circle homotopy verifies for all i, n <= 5 "
                      "with the stated boundary data", 1):
        for n in range(2, 6):
            for i in range(n):
                hat, H, rec = dsx.hat_circle_homotopy(i, n)
                assert rec["valid_morphism"]
                assert rec["boundary_c"] == ("*1", "g", "z")
                assert rec["generator_relations"]
                assert rec["front_matches_psi_i"]
                assert rec["back_matches_psi_i_plus_1"]
                assert rec["pass"]


def _expansion_corpus():
    objs = []
    for n in range(0, 5):
        objs.append(dsx.standard("simplex", n))
        if n >= 1:
            objs.append(dsx.standard("boundary", n))
            for i in range(n + 1):
                objs.append(dsx.standard("horn", n, i))
    for n in range(2, 6):
        objs.append(dsx.circle_segments(n))
    return objs


def test_criterion_6_expansion_suite():
    with criterion(6, "cone collapse certificates (length = base size), "
                      "homology-preserving replays, certified cylinder "
                      "back inclusions", 10):
        for K in _expansion_corpus():
            CK, incl, cert = dsx.cone(K)
            assert len(cert) == K.n_cells()
            assert cert.verify()
            base_h = {k: str(g)
                      for k, g in dsx.homology_of(cert.base).items()
                      if not g.is_trivial()}
            result_h = {k: str(g)
                        for k, g in dsx.homology_of(cert.replay()).items()
                        if not g.is_trivial()}
            assert base_h == result_h == {0: "Z"}
        # mapping cylinders: identity on a sample, the interval fold, and
        # the unbased nabla lift
        cyl_cases = [dsx.identity_morphism(dsx.standard("boundary", 2)),
                     dsx.identity_morphism(dsx.circle_segments(4)),
                     dsx.DeltaMorphism(dsx.standard("boundary", 1),
                                       dsx.standard("simplex", 0),
                                       {"0": "0", "1": "0"})]
        S = dsx.circle_segments(3)
        circle1 = dsx.cycle_graph(1)
        cyl_cases.append(dsx.DeltaMorphism(
            S, circle1,
            {**{f"e{k}": "v0" for k in range(3)},
             **{f"f{k}": "w0" for k in range(3)}}))
        for f in cyl_cases:
            Mf, g, j, i0, i1, cert = dsx.mapping_cylinder(f)
            assert cert.verify()
            lh = {k: str(gg) for k, gg in dsx.homology_of(cert.base).items()
                  if not gg.is_trivial()}
            rh = {k: str(gg) for k, gg in dsx.homology_of(Mf).items()
                  if not gg.is_trivial()}
            assert lh == rh


def _product_corpus():
    c = {}
    c["D0"] = dsx.standard("simplex", 0)
    c["D1"] = dsx.standard("simplex", 1)
    c["D2"] = dsx.standard("simplex", 2)
    c["D3"] = dsx.standard("simplex", 3)
    c["bdD2"] = dsx.standard("boundary", 2)
    c["bdD3"] = dsx.standard("boundary", 3)
    c["bdD4"] = dsx.standard("boundary", 4)
    c["horn21"] = dsx.standard("horn", 2, 1)
    c["horn30"] = dsx.standard("horn", 3, 0)
    c["horn42"] = dsx.standard("horn", 4, 2)
    c["C3"] = dsx.cycle_graph(3)
    c["C4"] = dsx.cycle_graph(4)
    c["C5"] = dsx.cycle_graph(5)
    c["RP2"] = dsx.from_simplicial_complex(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [2, 4, 5], [1, 3, 4], [3, 4, 5]])
    c["wedge"] = dsx.from_simplicial_complex([[0, 1, 2], [2, 3], [3, 0]])
    c["tree"] = dsx.from_simplicial_complex([[0, 1], [1, 2], [1, 3]])
    c["segments3"] = dsx.circle_segments(3)
    c["cone_bd"] = dsx.cone(dsx.standard("boundary", 2))[0]
    c["square"] = dsx.geometric_product(c["D1"], c["D1"])
    c["empty"] = dsx.EMPTY
    return c


def _field_dims(K, coeff, p):
    return {k: g.free_rank
            for k, g in dsx.homology_of(K, coeff=coeff, p=p).items()
            if g.free_rank}


def test_criterion_7_product_laws():
    with criterion(7, "Euler multiplicativity and field Kunneth on a "
                      "20-object corpus (square counts (4,5,2), torus "
                      "Betti (1,2,1))", 30):
        corpus = _product_corpus()
        assert len(corpus) == 20
        square = dsx.geometric_product(corpus["D1"], corpus["D1"])
        assert square.counts() == (4, 5, 2)
        torus = dsx.geometric_product(corpus["C3"], corpus["C3"])
        assert _field_dims(torus, "Q", None) == {0: 1, 1: 2, 2: 1}
        partners = ("D0", "D1", "bdD2", "C3")
        for name, K in corpus.items():
            for pname in partners:
                P = dsx.geometric_product(K, corpus[pname])
                assert P.euler_characteristic() == \
                    K.euler_characteristic() * \
                    corpus[pname].euler_characteristic(), (name, pname)
        kunneth_pairs = [
            ("bdD2", "bdD2"), ("bdD2", "C4"), ("C3", "C3"), ("RP2", "C3"),
            ("RP2", "bdD2"), ("RP2", "RP2"), ("wedge", "C4"),
            ("tree", "bdD3"), ("horn21", "C5"), ("D2", "RP2"),
            ("cone_bd", "C3"), ("segments3", "bdD2"),
        ]
        for a, b in kunneth_pairs:
            K, L = corpus[a], corpus[b]
            P = dsx.geometric_product(K, L)
            for coeff, p in (("Q", None), ("F", 2), ("F", 3)):
                dk = _field_dims(K, coeff, p)
                dl = _field_dims(L, coeff, p)
                want = {}
                for i, x in dk.items():
                    for j, y in dl.items():
                        want[i + j] = want.get(i + j, 0) + x * y
                assert _field_dims(P, coeff, p) == want, (a, b, coeff, p)


def _torsion_multiset(groups, n):
    out = []
    for k, g in groups.items():
        for _ in range(g.free_rank):
            out.append((k, n))
        for d in g.torsion:
            from math import gcd
            if gcd(d, n) > 1:
                out.append((k, gcd(d, n)))
    return sorted(out)


def test_criterion_8_dg_identities():
    with criterion(8, "dg universal-cycle relations exact; uv identities "
                      "over 100 random trials for n in {2,3,4}; reduction "
                      "sequence has connecting map n*id on homology", 10):
        rng = random.Random(8)
        # constructors assert their defining relations at build time; spot
        # re-check them on random three-term complexes
        for _ in range(5):
            X = random_three_term(rng)
            n = rng.choice((2, 3, 4))
            red = dsx.reduce_mod_n(X, n)
            assert dsx.hom_differential(red.eta).is_zero()
            assert dsx.hom_differential(red.g) == red.eta.scale(n)
            cone = dsx.cone_dg(dsx.scalar_map(X, n))
            assert dsx.hom_differential(cone.u) == \
                cone.i.compose(dsx.scalar_map(X, n))
            cyl = dsx.cylinder_dg(dsx.identity_map(X))
            assert dsx.hom_differential(cyl.s) == \
                dsx.identity_map(cyl.cyl) - cyl.j.compose(cyl.q)
            double = dsx.shift(dsx.shift(X, 1), 1)
            assert double.d == dsx.shift(X, 2).d
        # uv identities: 100 randomized trials per modulus
        for n in (2, 3, 4):
            X = random_three_term(rng)
            Y = random_three_term(rng)
            check_uv_identities(dsx.reduce_mod_n(X, n), Y, trials=100,
                                seed=n)
        # connecting map of 0 -> X -> t(X) -> X[1] -> 0 is n*id: chainwise
        # d(g) = n * eta (checked above); at homology level H(t(X)) matches
        # coker(n) (+) ker(n) of H(X)
        for n in (2, 3):
            for _ in range(3):
                X = random_three_term(rng)
                red = dsx.reduce_mod_n(X, n)
                hx = dsx.homology(X)
                want = []
                from math import gcd
                for k, g in hx.items():
                    for _ in range(g.free_rank):
                        want.append((k, n))       # coker of n on Z
                    for d in g.torsion:
                        if gcd(d, n) > 1:
                            want.append((k, gcd(d, n)))      # coker on Z/d
                        if gcd(d, n) > 1:
                            want.append((k + 1, gcd(d, n)))  # ker on Z/d
                got = []
                for k, g in dsx.homology(red.complex).items():
                    assert g.free_rank == 0
                    for d in g.torsion:
                        got.append((k, d))
                assert _prime_power_split(got) == _prime_power_split(want)


def _prime_power_split(pairs):
    out = []
    for k, d in pairs:
        dd = d
        f = 2
        while f * f <= dd:
            while dd % f == 0:
                q = f
                while dd % (q * f) == 0:
                    q *= f
                out.append((k, q))
                dd //= q
            f += 1
        if dd > 1:
            out.append((k, dd))
    return sorted(out)


def test_criterion_9_order_towers():
    with criterion(9, "order towers for n in {2,3}, k <= 5: every level "
                      "satisfies e*e = 0 and d e + e d = n exactly", 5):
        X = dsx.point_complex(0, 1)
        for n in (2, 3):
            for k in (1, 3, 5):
                tower = dsx.order_tower(X, n, k)
                assert len(tower.levels) == k
                for lvl in tower.levels:
                    assert lvl.e.compose(lvl.e).is_zero()
                    assert dsx.hom_differential(lvl.e) == \
                        dsx.scalar_map(lvl.complex, n)


def test_criterion_10_smith_self_verification():
    with criterion(10, "500 random sparse integer matrices up to 60x60: "
                       "U*D*V = input and the divisibility chain hold "
                       "exactly", 30):
        rng = random.Random(20240809)
        for trial in range(500):
            m = rng.randint(1, 60)
            n = rng.randint(1, 60)
            density = rng.choice((0.04, 0.08, 0.12))
            A = [[rng.randint(-9, 9) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(m)]
            S = exact.smith(A)
            assert S.verify_product(A), (m, n, trial)
        # spot-check the recorded unimodularity witnesses as well
        for trial in range(25):
            m = rng.randint(1, 25)
            n = rng.randint(1, 25)
            A = [[rng.randint(-9, 9) if rng.random() < 0.2 else 0
                  for _ in range(n)] for _ in range(m)]
            assert exact.smith(A).verify(A)
