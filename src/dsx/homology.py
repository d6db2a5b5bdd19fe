"""Exact chain complexes and homology of (based) Delta-sets.

Boundary matrices are stored sparsely (COO dicts) with arbitrary-precision
integer entries; there is no fixed-width arithmetic anywhere on the exact
path, so entry blow-up during Smith reduction is impossible by construction.

Homology takes one route for every coefficient ring: the complex is
Morse-reduced once over Z (exact.morse_reduce, a chain homotopy
equivalence, so homology with every coefficient ring is unchanged), and
each residue boundary then goes to exact.sparse_rank_and_factors (Z, Q) or
exact.sparse_rank_mod_p (F_p).  A reduction is one `Reduction` record: the
full complex's degree range and ranks, the checked residue, the pivot
record, and `carry`, which gives pi o F for a chain map F into the complex.

Who owns the boundary data: exact.morse_reduce consumes the boundary
mapping it is handed, popping each degree as it is read.  A ChainComplex
that keeps its boundaries hands it a copy of the outer mapping, and
caches its Reduction (`ChainComplex.reduction`); its `d` stays intact.  A
Delta-set caches its Reduction, not its complex (`reduction_of`): the
complex is built and checked, then consumed by its reduction, so its
boundary entries are never alive twice.  `chain_complex` builds a fresh
complex on every call.  A mapping cone built only to be reduced is
consumed the same way.

Isomorphism verdicts for chain maps go through acyclicity of the mapping
cone, which needs ranks and invariant factors only.  The cone of
F : CS -> CT is built on CT's residue R, not on CT: exact.morse_carry
replays CT's pivot record on F's columns and gives G = pi o F : CS -> R,
pi being the reduction's chain projection.  The verdict is the one the
literal cone gives.  CT is a subcomplex of cone(F), and CT's columns only
ever receive multiples of CT columns, so CT's pivots, in their recorded
order, are valid unit pivots of cone(F); once they are done, the cone is
literally cone(CS, R, G).  Equivalently, pi is a chain homotopy
equivalence over Z, so cone(G) is chain homotopy equivalent to cone(F)
(Harker-Mischaikow-Mrozek-Nanda, FoCM 14, 2014).  The small cone is built
with its d o d = 0 check, which also checks that G is a chain map.

The mod-p Bockstein is the connecting map of 0 -> Z/p -> Z/p^2 -> Z/p -> 0,
so it depends only on the chains over Z/p^2.  The same kernel Morse-reduces
them over Z/p^2, cancelling every entry prime to p (a chain homotopy
equivalence over Z/p^2); the residue's differential is p*B, so its cells
are a basis of mod-p homology and the Bockstein is B mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact
from .delta import DeltaSet


PRIME_LIMIT = 2 ** 64
# Miller-Rabin on these bases is exact below PRIME_LIMIT (Sorenson and
# Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Whether p is prime, for p < 2**64; ValueError from 2**64 on."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is not below 2**64, where is_prime is exact")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Finitely supported complex of free Z-modules with sparse boundaries.

    ranks[k] is the rank in degree k; d[k] is a COO dict {(row, col): v}
    for the boundary C_k -> C_{k-1}.  The complex adopts the dicts of `d`
    without copying them, so they must not be changed afterwards.
    """

    __slots__ = ("lo", "hi", "ranks", "d", "_reduction")

    def __init__(self, lo, hi, ranks, d, check=True):
        self.lo = lo
        self.hi = hi
        self.ranks = {k: int(ranks.get(k, 0)) for k in range(lo, hi + 1)}
        self.d = {}
        for k in range(lo, hi + 1):
            coo = d.get(k, {})
            if not (self.ranks.get(k, 0) and self.ranks.get(k - 1, 0)):
                if any(coo.values()):
                    raise ValueError(f"boundary in degree {k} has no room")
                coo = {}
            self.d[k] = coo
        self._reduction = None  # the Reduction, once computed
        if check:
            bad = self.verify()
            if bad:
                raise ValueError(f"d o d != 0 in degrees {bad}")

    def rank(self, k):
        return self.ranks.get(k, 0)

    def verify(self):
        """Degrees k where d_{k-1} o d_k != 0 (empty for a valid complex).

        Each d_k is grouped by column once; column c of d_{k-1} o d_k is
        summed in a small accumulator of its own, and a degree stops at its
        first nonzero column."""
        bad = []
        below = {}  # d_{k-1} by column: c -> [(row, value)]
        for k in range(self.lo, self.hi + 1):
            cols = {}
            for (r, c), v in self.d.get(k, {}).items():
                cols.setdefault(c, []).append((r, v))
            for entries in cols.values():
                acc = {}
                for r, v in entries:
                    for r2, v2 in below.get(r, ()):
                        acc[r2] = acc.get(r2, 0) + v * v2
                if any(acc.values()):
                    bad.append(k)
                    break
            below = cols
        return bad

    def boundary_dense(self, k):
        m, n = self.rank(k - 1), self.rank(k)
        A = exact.zeros(m, n)
        for (r, c), v in self.d.get(k, {}).items():
            A[r][c] = v
        return A

    def euler_characteristic(self):
        return sum((-1) ** k * r for k, r in self.ranks.items())

    def total_rank(self):
        return sum(self.ranks.values())

    def reduction(self):
        """The Reduction of this complex, computed once and cached.  The
        elimination gets a copy of the outer mapping d, so d is intact."""
        if self._reduction is None:
            self._reduction = Reduction(self, dict(self.d))
        return self._reduction

    def morse_reduced(self):
        """A homotopy-equivalent complex with unit boundary entries
        cancelled (same homology for every coefficient ring): the residue
        of `reduction()`, which checks itself."""
        return self.reduction().residue

    def __repr__(self):
        rk = [self.ranks.get(k, 0) for k in range(self.lo, self.hi + 1)]
        return f"ChainComplex({self.lo}..{self.hi}, ranks={rk})"


class Reduction:
    """The Morse reduction of a chain complex C (exact.morse_reduce).

    lo, hi and ranks are C's; `residue` is the homotopy-equivalent complex
    left once the unit entries are cancelled, checked on construction (d o
    d = 0, and C's Euler characteristic is kept); `pivots` is the record
    (k, row, col, column) of the cancellations, which `carry` replays.
    """

    __slots__ = ("lo", "hi", "ranks", "residue", "pivots")

    def __init__(self, C, boundaries):
        """Reduce C, whose boundary mapping `boundaries` the elimination
        consumes: C.d itself when C is no longer needed, else a copy."""
        ranks, bnd, pivots = exact.morse_reduce(C.ranks, boundaries)
        residue = ChainComplex(C.lo, C.hi, ranks, bnd)
        if residue.euler_characteristic() != C.euler_characteristic():
            raise ValueError("Morse reduction changed the Euler "
                             "characteristic")
        self.lo, self.hi, self.ranks = C.lo, C.hi, C.ranks
        self.residue = residue
        self.pivots = pivots

    def carry(self, maps):
        """pi o F for a chain map F into the reduced complex, given by
        per-degree COO dicts maps[m] : X_m -> C_m: a chain map into the
        residue, pi being the reduction's chain projection
        (exact.morse_carry)."""
        return exact.morse_carry(self.ranks, self.pivots, maps)


def complex_from_matrices(lo, hi, ranks, mats, check=True):
    """Build a ChainComplex from dense boundary matrices d[k] : C_k -> C_{k-1}."""
    d = {k: {(r, c): v for r, row in enumerate(A) for c, v in enumerate(row)
             if v} for k, A in mats.items()}
    return ChainComplex(lo, hi, ranks, d, check=check)


def chain_complex(K, reduced=False):
    """Cellular chain complex of a Delta-set, or the reduced complex of a
    based Delta-set (one generator per non-basepoint simplex, basepoint
    faces contributing zero).

    For an unbased Delta-set, reduced=True augments the complex by Z in
    degree -1; for a based Delta-set, reduced=False adds a basepoint
    generator in degree 0 (the unreduced homology of the reduced
    realization).

    The complex is built and checked (d o d = 0) afresh on every call;
    what a Delta-set caches is its Reduction (`reduction_of`).
    """
    if not isinstance(K, DeltaSet):
        raise TypeError("expected a DeltaSet")
    return _build_chain_complex(K, bool(reduced))


def reduction_of(K, reduced=False):
    """The Reduction of K's chain complex (`reduced` as for
    chain_complex), built once per Delta-set and value of `reduced` and
    cached on K.  The complex is built through chain_complex, so it is
    checked, and the reduction consumes it: only the Reduction is kept."""
    reduced = bool(reduced)
    # chain_complex refuses what is not a DeltaSet
    cached = K._chains.get(reduced) if isinstance(K, DeltaSet) else None
    if cached is None:
        C = chain_complex(K, reduced)
        cached = K._chains[reduced] = Reduction(C, C.d)
    return cached


def _build_chain_complex(K, reduced):
    based = K.based
    top = K.top_dim
    index = {}
    for k in range(0, top + 1):
        for i, s in enumerate(K.cells(k)):
            index[s] = i
    ranks = {k: len(K.cells(k)) for k in range(0, top + 1)}
    d = {}
    for k in range(1, top + 1):
        coo = {}
        for c, s in enumerate(K.cells(k)):
            for i, f in enumerate(K.faces[s]):
                if f is None:
                    continue
                key = (index[f], c)
                coo[key] = coo.get(key, 0) + (-1) ** i
        # faces that cancel (two equal faces of opposite sign) leave zeros,
        # dropped in place so that no filtered copy of coo is ever alive
        for key in [key for key, v in coo.items() if not v]:
            del coo[key]
        d[k] = coo
    lo = 0
    if not based and reduced:
        lo = -1
        ranks[-1] = 1
        d[0] = {(0, c): 1 for c in range(ranks.get(0, 0))}
    if based and not reduced:
        ranks[0] = ranks.get(0, 0) + 1  # disjoint basepoint component
    hi = max(top, 0)
    return ChainComplex(lo, hi, ranks, d)


# ---------------------------------------------------------------------------
# homology groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyGroup:
    """A homology group: free rank and torsion over Z, or the dimension
    (as free_rank) over a field, whose name `ring` ("Q", "F_2", ...) labels
    the printed group."""
    degree: int
    free_rank: int
    torsion: tuple = ()
    ring: str = "Z"

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append(self.ring)
        elif self.free_rank > 1:
            parts.append(f"{self.ring}^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology(C, coeff="Z", p=None):
    """Per-degree homology of a ChainComplex, or of the complex that a
    Reduction was made from.

    coeff is "Z", "Q" or "F" (with p prime).  Integral homology reports
    free rank and the divisibility-ordered torsion coefficients; field
    homology reports dimensions.  The complex is Morse-reduced over Z
    first, whatever the coefficients.
    """
    if coeff == "F":
        if p is None or not is_prime(p):
            raise ValueError(f"field coefficient needs a prime, got {p!r}")
    elif coeff not in ("Z", "Q"):
        raise ValueError(f"unknown coefficients {coeff!r}")
    W = C.residue if isinstance(C, Reduction) else C.morse_reduced()
    ranks = {}
    factors = {}
    for k in range(W.lo, W.hi + 2):
        m, n = W.rank(k - 1), W.rank(k)
        coo = W.d.get(k, {})
        if m == 0 or n == 0 or not coo:
            ranks[k] = 0
            factors[k] = []
            continue
        sp = exact.SparseMat.from_entries(m, n, coo)
        if coeff == "F":
            ranks[k] = exact.sparse_rank_mod_p(sp, p)
            factors[k] = []
        else:
            r, fs = exact.sparse_rank_and_factors(sp)
            ranks[k] = r
            factors[k] = fs
    ring = f"F_{p}" if coeff == "F" else coeff
    out = {}
    for k in range(W.lo, W.hi + 1):
        n = W.rank(k)
        # over F_p the torsion is already folded into the mod-p ranks
        free = n - ranks.get(k, 0) - ranks.get(k + 1, 0)
        tors = ()
        if coeff == "Z":
            tors = tuple(d for d in factors.get(k + 1, []) if d > 1)
        out[k] = HomologyGroup(k, free, tors, ring)
    return out


def homology_of(K, coeff="Z", p=None, reduced=None):
    """Homology directly from a (based) Delta-set; reduced defaults to True
    for based inputs and False otherwise."""
    if reduced is None:
        reduced = K.based
    return homology(reduction_of(K, reduced), coeff=coeff, p=p)


def homology_table(groups, lo=None, hi=None):
    ks = sorted(groups)
    lo = ks[0] if lo is None else lo
    hi = ks[-1] if hi is None else hi
    return {k: str(groups.get(k, HomologyGroup(k, 0))) for k in range(lo, hi + 1)}


def is_acyclic(C, coeff="Z", p=None):
    groups = homology(C, coeff=coeff, p=p)
    return all(g.is_trivial() for g in groups.values())


# ---------------------------------------------------------------------------
# chain maps, cones, homology isomorphism verdicts
# ---------------------------------------------------------------------------

def chain_map_matrices(f, reduced=None):
    """(CS, CT, mats): the chain complexes of f's source and target and the
    per-degree COO matrices (target x source) of the chain map induced by
    the (based) Delta-morphism f; basepoint images contribute zero."""
    if reduced is None:
        reduced = f.source.based
    CS = chain_complex(f.source, reduced=reduced)
    CT = chain_complex(f.target, reduced=reduced)
    return CS, CT, _map_matrices(f, reduced, CS, CT)


def _map_matrices(f, reduced, CS, CT):
    """The COO matrices of f's chain map, sized from the degree ranges
    and ranks of CS and CT, complexes or Reductions."""
    mats = {}
    for k in range(max(CS.lo, CT.lo), min(CS.hi, CT.hi) + 1):
        if k == -1:  # augmentation degree: identity
            mats[-1] = {(0, 0): 1}
            continue
        coo = {}
        tindex = {s: i for i, s in enumerate(f.target.cells(k))}
        for c, s in enumerate(f.source.cells(k)):
            t = f.mapping.get(s)
            if t is None:
                continue
            coo[(tindex[t], c)] = 1
        if k == 0 and f.source.based and f.target.based and not reduced:
            coo[(CT.ranks[0] - 1, CS.ranks[0] - 1)] = 1  # basepoint generators
        mats[k] = coo
    return mats


def mapping_cone_complex(CS, CT, mats):
    """Cone of a chain map F : CS -> CT, given by its per-degree COO
    matrices mats[k] : CS_k -> CT_k; acyclic iff F is a homology iso.

    Degree k is CT_k (+) CS_{k-1} with d(y, x) = (dy + Fx, -dx), for k from
    min(CT.lo, CS.lo + 1) to max(CT.hi, CS.hi + 1).  Its d o d = 0 check
    also checks that F is a chain map (a ValueError otherwise).
    """
    lo = min(CT.lo, CS.lo + 1)
    hi = max(CT.hi, CS.hi + 1)
    ranks = {k: CT.rank(k) + CS.rank(k - 1) for k in range(lo, hi + 1)}
    d = {}
    for k in range(lo, hi + 1):
        coo = dict(CT.d.get(k, {}))
        off_row, off_col = CT.rank(k - 1), CT.rank(k)
        for (r, c), v in mats.get(k - 1, {}).items():
            coo[(r, off_col + c)] = v
        for (r, c), v in CS.d.get(k - 1, {}).items():
            coo[(off_row + r, off_col + c)] = -v
        d[k] = coo
    return ChainComplex(lo, hi, ranks, d)


def is_quasi_iso(CS, CT, mats, coeff="Z", p=None):
    """Whether a chain map F : CS -> CT, given by per-degree COO matrices
    mats[k] : CS_k -> CT_k, induces an isomorphism on homology in every
    degree: whether cone(CS, R, pi o F) is acyclic, R being CT's Morse
    residue and pi its chain projection (see the module docstring)."""
    return _cone_is_acyclic(CS, CT.reduction(), mats, coeff, p)


def _cone_is_acyclic(CS, R, mats, coeff, p):
    """Whether cone(CS, R.residue, R.carry(mats)) is acyclic; the cone is
    built only to be reduced, so its reduction consumes it."""
    cone = mapping_cone_complex(CS, R.residue, R.carry(mats))
    return is_acyclic(Reduction(cone, cone.d), coeff=coeff, p=p)


def is_homology_iso(f, coeff="Z", p=None, reduced=None):
    """Whether a (based) Delta-morphism induces an isomorphism on homology
    in every degree, decided by acyclicity of its mapping cone.  The
    target enters through its cached Reduction (`reduction_of`), so its
    full complex is built at most once, and only to be reduced."""
    if reduced is None:
        reduced = f.source.based
    R = reduction_of(f.target, reduced)
    CS = chain_complex(f.source, reduced)
    return _cone_is_acyclic(CS, R, _map_matrices(f, reduced, CS, R),
                            coeff, p)


# ---------------------------------------------------------------------------
# homology with generators (dense; for induced-map matrices)
# ---------------------------------------------------------------------------

class HomologyBasis:
    """Generators of H_k with their orders plus a coordinate function.

    orders[i] is 0 for a free generator and d > 1 for a Z/d generator;
    gens[i] is an integer cycle vector.  coords(w) expresses a cycle in
    these generators (reduced modulo the orders).
    """

    def __init__(self, degree, orders, gens, coord_fn):
        self.degree = degree
        self.orders = orders
        self.gens = gens
        self._coord_fn = coord_fn

    def coords(self, w):
        return self._coord_fn(w)


def _mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def homology_with_generators(C, k):
    """HomologyBasis in degree k via dense Smith forms with transforms."""
    n = C.rank(k)
    m = C.rank(k - 1)
    if n == 0:
        return HomologyBasis(k, [], [], lambda w: [])
    A = C.boundary_dense(k)
    if m == 0:
        kernel = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rankA = 0
        VA = exact.eye(n)
    else:
        SA = exact.smith(A)
        rankA = SA.rank()
        VA = SA.V
        kernel = [[SA.V_inv[i][j] for j in range(rankA, n)] for i in range(n)]
    z = n - rankA

    def kernel_coords(w):
        y = _mat_vec(VA, w)
        if any(y[i] for i in range(rankA)):
            raise ValueError("vector is not a cycle")
        return y[rankA:]

    nup = C.rank(k + 1)
    img_gens = []
    if nup and C.d.get(k + 1):
        B = C.boundary_dense(k + 1)
        SB = exact.smith(B)
        diag = SB.diagonal()
        for i in range(SB.rank()):
            img_gens.append([diag[i] * SB.U[r][i] for r in range(n)])
    Q = [[0] * len(img_gens) for _ in range(z)]
    for j, g in enumerate(img_gens):
        cc = kernel_coords(g)
        for i in range(z):
            Q[i][j] = cc[i]
    if z == 0:
        return HomologyBasis(k, [], [], lambda w: [])
    if img_gens:
        SQ = exact.smith(Q)
        rQ = SQ.rank()
        dq = SQ.diagonal()
        UQ, UQinv = SQ.U, SQ.U_inv
    else:
        rQ = 0
        dq = []
        UQ = exact.eye(z)
        UQinv = exact.eye(z)
    orders = []
    gens = []
    kept = []
    for idx in range(z):
        order = dq[idx] if idx < rQ else 0
        if order == 1:
            continue
        kept.append(idx)
        orders.append(order)
        gens.append([sum(kernel[r][t] * UQ[t][idx] for t in range(z))
                     for r in range(n)])

    def coords(w):
        y = kernel_coords(w)
        full = _mat_vec(UQinv, y)
        out = []
        for pos, idx in enumerate(kept):
            val = full[idx]
            if orders[pos] > 1:
                val %= orders[pos]
            out.append(val)
        return out

    return HomologyBasis(k, orders, gens, coords)


def induced_map(f, reduced=None):
    """Per-degree matrices of the induced map on integral homology: images
    of source generators in target generators, entries reduced modulo the
    target orders.  Intended for small complexes: dense Smith transforms
    are computed per degree.
    """
    CS, CT, mats = chain_map_matrices(f, reduced=reduced)
    out = {}
    degrees = sorted(set(range(CS.lo, CS.hi + 1)) | set(range(CT.lo, CT.hi + 1)))
    for k in degrees:
        hs = homology_with_generators(CS, k)
        ht = homology_with_generators(CT, k)
        F = mats.get(k, {})
        matrix = []
        for j, g in enumerate(hs.gens):
            w = [0] * CT.rank(k)
            for (r, c), v in F.items():
                if g[c]:
                    w[r] += v * g[c]
            col = ht.coords(w)
            matrix.append(col)
        matrix = [list(row) for row in zip(*matrix)] if matrix else \
            [[] for _ in ht.orders]
        out[k] = {
            "matrix": matrix,
            "source_orders": list(hs.orders),
            "target_orders": list(ht.orders),
        }
    return out


def integral_map_is_iso(entry):
    """Decide whether an induced-map entry (from induced_map)
    is an isomorphism of finitely generated abelian groups.

    Isomorphy holds iff the groups have equal invariant chains and the map
    is surjective (finitely generated abelian groups are Hopfian).
    """
    src = sorted(entry["source_orders"])
    tgt = sorted(entry["target_orders"])
    if src != tgt:
        return False
    t = len(entry["target_orders"])
    if t == 0:
        return True
    cols = []
    M = entry["matrix"]
    for j in range(len(entry["source_orders"])):
        cols.append([M[i][j] for i in range(t)])
    for i, o in enumerate(entry["target_orders"]):
        if o > 1:
            rel = [0] * t
            rel[i] = o
            cols.append(rel)
    A = [[cols[j][i] for j in range(len(cols))] for i in range(t)]
    S = exact.smith(A, with_transforms=False)
    diag = S.invariant_factors()
    return len(diag) == t and all(d == 1 for d in diag)


# ---------------------------------------------------------------------------
# the Bockstein
# ---------------------------------------------------------------------------

def bockstein(K, p, k):
    """The Bockstein H~_k(-; F_p) -> H~_{k-1}(-; F_p) of a Delta-set.

    Connecting map of 0 -> Z/p -> Z/p^2 -> Z/p -> 0: lift a mod-p cycle to
    a chain over Z/p^2, take the boundary, divide by p, reduce mod p.  The
    reduced chains are Morse-reduced over Z/p^2, cancelling every entry
    prime to p; this is a chain homotopy equivalence over Z/p^2, so the
    Bockstein is unchanged.  Every residue entry is divisible by p (checked;
    a ValueError otherwise): the residue cells form a basis of mod-p
    homology, every cell is a mod-p cycle that lifts to itself, and the
    matrix is (residue d_k) / p mod p, and its rank over F_p is taken by
    `exact.sparse_rank_mod_p` from the COO dict of (residue d_k) / p.
    Only `rank` and the dimensions are independent of that basis.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    C = chain_complex(K, reduced=True)  # a fresh complex: consumed here
    ranks, bnd, _ = exact.morse_reduce(C.ranks, C.d, q=p * p)
    if any(v % p for coo in bnd.values() for v in coo.values()):
        raise ValueError(f"a residue entry over Z/{p * p} is not divisible "
                         f"by {p}")
    source_dim, target_dim = ranks.get(k, 0), ranks.get(k - 1, 0)
    coo = {rc: v // p for rc, v in bnd.get(k, {}).items()}
    matrix = exact.zeros(target_dim, source_dim)
    for (r, c), v in coo.items():
        matrix[r][c] = v
    rank = exact.sparse_rank_mod_p(
        exact.SparseMat.from_entries(target_dim, source_dim, coo), p)
    return {"matrix": matrix, "source_dim": source_dim,
            "target_dim": target_dim, "rank": rank, "p": p, "degree": k}


def fp_matrix_is_iso(entry):
    return entry["rank"] == entry["source_dim"] == entry["target_dim"]


# ---------------------------------------------------------------------------
# Moore certification
# ---------------------------------------------------------------------------

def certify_moore(K, n, d):
    """PASS iff reduced integral homology is Z/n in degree d, 0 elsewhere.

    Returns (passed, table).  Simple connectivity is not checked; the
    verdict is a homology-level certificate only.
    """
    groups = homology_of(K, coeff="Z", reduced=True)
    want = HomologyGroup(d, 0, (n,))
    ok = True
    for k, g in groups.items():
        if k == d:
            if (g.free_rank, g.torsion) != (want.free_rank, want.torsion):
                ok = False
        elif not g.is_trivial():
            ok = False
    if d not in groups:
        ok = False
    return ok, homology_table(groups)
