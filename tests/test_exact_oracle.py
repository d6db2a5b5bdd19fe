"""The elimination kernel against independent oracles.

Small integer matrices mix +-1 entries (which the kernel cancels), zeros
and non-units (which reach dense Smith over Z); their invariant factors and
mod-p ranks must agree with sympy's.  After elimination over Z and over
F_p, on sparse matrices with a long hub row, the row index must still be
exactly the transpose of the columns.
Reduced over Z/p^2, a matrix leaves a residue p*B with B's mod-p rank the
number of invariant factors of p-adic valuation one.  Whole complexes of
random 2-dimensional Delta-sets and their cones, where the free-face and
coreduction queue cancels across degrees, must have the homology that
dense reduction gives with no Morse step at all; reducing them while
consuming their boundaries must give the residue and pivot record that
reducing a copy gives.  The d o d check of a chain complex, run on Delta-set
complexes with entries planted in two degrees, must report exactly the
degrees where the dense product d_{k-1} d_k is nonzero.  A chain map's
verdict, decided on its target's Morse residue with the map carried
through the pivot record, must be the one dense homology of the literal
cone gives.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.domains import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import dsx  # noqa: E402
from dsx import exact  # noqa: E402
from dsx.homology import ChainComplex  # noqa: E402
from conftest import random_two_dim_delta  # noqa: E402
from test_homology import dense_homology  # noqa: E402

ENTRIES = st.one_of(st.sampled_from([-1, 0, 0, 1]), st.integers(-9, 9))


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    return [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]


def coo_of(A):
    return {(i, j): v for i, row in enumerate(A) for j, v in enumerate(row)
            if v}


def sparse_of(A):
    return exact.SparseMat.from_entries(len(A), len(A[0]), coo_of(A))


def sympy_factors(A):
    return [abs(int(d)) for d in invariant_factors(Matrix(A)) if d != 0]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_smith_and_sparse_factors_match_sympy(A):
    want = sympy_factors(A)
    S = exact.smith(A)
    assert S.verify(A)
    assert S.invariant_factors() == want
    assert exact.smith(A, with_transforms=False).invariant_factors() == want
    rank, factors = exact.sparse_rank_and_factors(sparse_of(A))
    assert (rank, factors) == (len(want), want)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_sparse_rank_mod_p_matches_sympy(A):
    for p in (2, 3, 5, 7):
        want = DomainMatrix.from_list(A, GF(p)).rank()
        assert exact.sparse_rank_mod_p(sparse_of(A), p) == want, p


@st.composite
def sparse_matrices(draw):
    """Sparse integer matrices of up to 8 x 22 entries, some with a hub
    row that most columns meet, so that elimination removes many ids from
    one row and fill-in adds others to it."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 22))
    A = [[draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3))) for _ in range(n)]
         for _ in range(m)]
    if draw(st.booleans()):
        # a hub row, with gaps for fill-in
        A[draw(st.integers(0, m - 1))] = [
            draw(st.sampled_from((0, 1, -1, 1, 2))) for _ in range(n)]
    return A


def assert_index_is_the_transpose(M):
    """rows[r] holds each column with an entry in row r, and nothing
    else: no stale id, no empty row, no zero entry."""
    assert all(M.rows.values())
    assert all(v for col in M.cols.values() for v in col.values())
    assert sorted((r, c) for r, row in M.rows.items() for c in row) == \
        sorted((r, c) for c, col in M.cols.items() for r in col)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_row_index_stays_the_transpose_of_the_columns(A):
    want = sympy_factors(A)
    M = sparse_of(A)
    assert_index_is_the_transpose(M)
    rank = len(exact._cancel_units({1: M}))
    assert_index_is_the_transpose(M)
    rest = exact.smith(exact._dense_from_sparse(M), with_transforms=False) \
        .invariant_factors() if M.cols else []
    assert (rank + len(rest), [1] * rank + rest) == (len(want), want)
    for p in (2, 3, 5):
        M = sparse_of(A)
        M.reduce_mod(p)
        assert_index_is_the_transpose(M)
        rank = len(exact._cancel_units({1: M}, p))
        assert_index_is_the_transpose(M)
        assert rank == DomainMatrix.from_list(A, GF(p)).rank(), p


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_morse_reduce_mod_p_squared_matches_sympy(A):
    # A as the one boundary of a two-term complex, reduced over Z/p^2
    m, n = len(A), len(A[0])
    for p in (2, 3, 5):
        ranks, bnd, _ = exact.morse_reduce({0: m, 1: n}, {1: coo_of(A)},
                                           q=p * p)
        assert all(v % p == 0 for v in bnd[1].values()), p
        assert m - ranks[0] == n - ranks[1] == \
            DomainMatrix.from_list(A, GF(p)).rank(), p
        B = exact.zeros(ranks[0], ranks[1])
        for (r, c), v in bnd[1].items():
            B[r][c] = v // p
        want = sum(1 for d in sympy_factors(A) if d % p == 0 and d % (p * p))
        assert DomainMatrix.from_list(B, GF(p)).rank() == want, p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 7), st.integers(0, 8),
       st.integers(0, 5))
def test_homology_of_random_complexes_and_cones_matches_dense(
        seed, n_vertices, n_edges, n_triangles):
    K = random_two_dim_delta(random.Random(seed), n_vertices, n_edges,
                             n_triangles)
    CK, _, _ = dsx.cone(K)
    for X in (K, CK):
        C = dsx.chain_complex(X)
        for coeff, p in (("Z", None), ("F", 2), ("F", 3)):
            got = {k: (g.free_rank, g.torsion)
                   for k, g in dsx.homology(C, coeff=coeff, p=p).items()}
            assert got == dense_homology(C, coeff, p), (X, coeff, p)
    C = dsx.chain_complex(CK, reduced=True)
    ranks, _, _ = exact.morse_reduce(C.ranks, C.d)
    assert sum(ranks.values()) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 7), st.integers(0, 8),
       st.integers(0, 5), st.booleans())
def test_consuming_the_complex_keeps_the_pivot_order(
        seed, n_vertices, n_edges, n_triangles, reduced):
    # reduction_of consumes the complex it builds; chain_complex(X)'s
    # reduction works on a copy of its boundary mapping and keeps it
    K = random_two_dim_delta(random.Random(seed), n_vertices, n_edges,
                             n_triangles)
    CK, _, _ = dsx.cone(K)
    for X in (K, CK):
        kept = dsx.chain_complex(X, reduced).reduction()
        consumed = dsx.reduction_of(X, reduced)
        assert consumed.residue.ranks == kept.residue.ranks
        assert consumed.residue.d == kept.residue.d
        assert consumed.pivots == kept.pivots


@st.composite
def three_dim_sets(draw):
    n = draw(st.integers(4, 6))
    maximal = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=4, unique=True), max_size=6))
    # in every degree of the augmented complex of a tetrahedron, each
    # column of d_{k-1} d_k is a sum of nonzero paths that cancel
    maximal.append([0, 1, 2, 3])
    return dsx.from_simplicial_complex(maximal)


@settings(max_examples=60, deadline=None)
@given(three_dim_sets(), st.data())
def test_d_squared_check_matches_dense_products(K, data):
    C = dsx.chain_complex(K, reduced=True)
    assert C.verify() == []
    d = {k: dict(coo) for k, coo in C.d.items()}  # C itself is kept
    # adding v at (r, c) of d_k, where column r of d_{k-1} is nonzero,
    # makes column c of d_{k-1} d_k nonzero
    planted = data.draw(st.lists(st.sampled_from((1, 2, 3)), min_size=2,
                                 max_size=2, unique=True))
    for k in planted:
        r = data.draw(st.sampled_from(sorted({c for _, c in C.d[k - 1]})))
        c = data.draw(st.integers(0, C.rank(k) - 1))
        d[k][(r, c)] = d[k].get((r, c), 0) + \
            data.draw(st.sampled_from((-2, -1, 1, 2)))
    X = ChainComplex(C.lo, C.hi, C.ranks, d, check=False)
    want = [k for k in range(X.lo + 1, X.hi + 1)
            if any(map(any, exact.mat_mul(X.boundary_dense(k - 1),
                                          X.boundary_dense(k))))]
    assert set(planted) <= set(want)
    assert X.verify() == want


def mul(A, B, m, n):
    """The m x n product of dense A and B, either of which may be empty."""
    inner = len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(n)]
            for i in range(m)]


def add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


@st.composite
def chain_maps(draw, top=3):
    """(CS, CT, F): CT is an elementary complex S with its bases changed by
    random unimodular U_k, CS = S (+) E for another elementary complex E,
    and F = (U, 0) + dH + Hd for a random H : CS_k -> CT_{k+1}.  F is a
    chain map, and a homology iso over a ring exactly when E is acyclic
    over it."""
    def elementary():
        # (k, n): a free Z in degree k if n == 0 or k == 0, else a pair of
        # cells with d = n from degree k to k - 1
        pieces = draw(st.lists(st.tuples(
            st.integers(0, top), st.sampled_from((0, 1, -1, 1, -1, 2, 3, 6))),
            min_size=1, max_size=5))
        ranks = dict.fromkeys(range(top + 1), 0)
        entries = []
        for k, n in pieces:
            ranks[k] += 1
            if n and k:
                ranks[k - 1] += 1
                entries.append((k, ranks[k - 1] - 1, ranks[k] - 1, n))
        d = {k: exact.zeros(ranks[k - 1], ranks[k])
             for k in range(1, top + 1)}
        for k, r, c, n in entries:
            d[k][r][c] = n
        return ranks, d

    def unimodular(n):
        U, Uinv = exact.eye(n), exact.eye(n)
        if n > 1:
            for _ in range(draw(st.integers(0, 6))):
                i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                     max_size=2, unique=True))
                c = draw(st.sampled_from((-2, -1, 1, 2)))
                U[i] = [a + c * b for a, b in zip(U[i], U[j])]
                for row in Uinv:
                    row[j] -= c * row[i]
        return U, Uinv

    ranks, dS = elementary()
    eranks, dE = elementary()
    U = {k: unimodular(ranks[k]) for k in range(top + 1)}
    dT = {k: mul(mul(U[k - 1][0], dS[k], ranks[k - 1], ranks[k]),
                 U[k][1], ranks[k - 1], ranks[k])
          for k in range(1, top + 1)}
    sranks = {k: ranks[k] + eranks[k] for k in range(top + 1)}
    dCS = {k: [row + [0] * eranks[k] for row in dS[k]]
           + [[0] * ranks[k] + row for row in dE[k]]
           for k in range(1, top + 1)}
    H = {k: [[draw(st.sampled_from((0, 0, 1, -1, 2)))
              for _ in range(sranks[k])] for _ in range(ranks[k + 1])]
         for k in range(top)}
    F = {}
    for k in range(top + 1):
        m, n = ranks[k], sranks[k]
        Fk = [row + [0] * eranks[k] for row in U[k][0]]
        if k < top:
            Fk = add(Fk, mul(dT[k + 1], H[k], m, n))
        if k > 0:
            Fk = add(Fk, mul(H[k - 1], dCS[k], m, n))
        F[k] = Fk
    CT = dsx.complex_from_matrices(0, top, ranks, dT)
    CS = dsx.complex_from_matrices(0, top, sranks, dCS)
    return CS, CT, F


@settings(max_examples=80, deadline=None)
@given(chain_maps(), st.sampled_from((-1, 2, 3, 6)))
def test_verdict_through_the_residue_matches_the_literal_cone(maps, n):
    # the cone on CT's Morse residue, with F carried through CT's pivot
    # record, against dense homology of the literal cone over Z, F2, F3
    CS, CT, F = maps
    for mats in (F, {k: [[n * x for x in row] for row in A]
                      for k, A in F.items()}):
        coo = {k: coo_of(A) for k, A in mats.items()}
        literal = dsx.mapping_cone_complex(CS, CT, coo)
        for coeff, p in (("Z", None), ("F", 2), ("F", 3)):
            want = all(free == 0 and not tors for free, tors in
                       dense_homology(literal, coeff, p).values())
            assert dsx.is_quasi_iso(CS, CT, coo, coeff, p) == want, \
                (n, coeff, p)
