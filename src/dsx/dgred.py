"""Chain-level dg constructions: shifts, cones, cylinders, the exterior
mod-n reduction t(X), the u/v adjunction maps, and n-order witness towers.

Every cone differential is built by homology.mapping_cone_complex, the
same code that decides the coherence verdicts; the cylinder of f : X -> Y
is the cone of (1, -f) : X -> X (+) Y, and t(X) and each tower level are
cones too.  Graded maps hold sparse COO dicts, the format of
ChainComplex.d, and every structure map is placed block by block by
block_map.

Sign conventions are pinned by the universal-cycle relations rather than by
any textbook choice, and every constructor asserts its defining relation at
build time (one that follows from relations asserted on its inputs is
proved instead):

    hom differential   D(f) = d_Y o f - (-1)^{|f|} f o d_X
    cone               D(u) = i o f,  p o (i, u) = (0, 1_X)
    cylinder           D(s) = 1 - j o q
    reduction          D(eta) = 0,  D(g) = n * eta,  p o eta = 0,
                       p o g = 1,  r o eta = 1,  eta o r + g o p = 1

t(X) is the cone of f = n * 1_X with eta = i and g = u, so cone_dg asserts
the first four reduction relations and reduce_mod_n the last two.  The
exterior operator of t(X) is e = g o r; it satisfies e o e = 0 and
d o e + e o d = n (that is, D(e) = n in the hom complex), which is exactly
the Z[e]-module structure the order towers need.

The adjunction Hom(Y, t(X)) = (Z[e] (x) Hom)(Y, X) is proved from these
relations, for every Y, using only the Leibniz rule
D(f o h) = D(f) o h + (-1)^{|f|} f o D(h).  Here u(phi, psi) =
eta o phi + g o psi and v(a) = (r o a, p o a), and the differential of
(Z[e] (x) Hom)(Y, X) is (phi, psi) -> (D phi + n psi, -D psi):

    r o g = 0      r = r o (eta o r + g o p) = r + (r o g) o p, so
                   (r o g) o p = 0 and r o g = (r o g) o (p o g) = 0
    v o u = 1      v(u(phi, psi)) = (r eta phi + r g psi,
                                     p eta phi + p g psi) = (phi, psi),
                   by r eta = 1, r g = 0, p eta = 0 and p g = 1
    u o v = 1      u(v(a)) = (eta o r + g o p) o a = a
    u chain map    D(u(phi, psi)) = eta D phi + n eta psi - g D psi
                   = u(D phi + n psi, -D psi), by D(eta) = 0, D(g) = n eta
                   and |g| = 1
"""

from __future__ import annotations

from . import exact
from .homology import ChainComplex, mapping_cone_complex


def point_complex(degree=0, rank=1):
    return ChainComplex(degree, degree, {degree: rank}, {})


def _eye(n):
    return {(i, i): 1 for i in range(n)}


def _product(A, B):
    """The COO dict of the matrix product A B of two COO dicts."""
    rows = {}  # B by row: r -> [(col, value)]
    for (r, c), v in B.items():
        rows.setdefault(r, []).append((c, v))
    out = {}
    for (i, r), a in A.items():
        for c, b in rows.get(r, ()):
            out[i, c] = out.get((i, c), 0) + a * b
    return out


class GradedMap:
    """Graded map of homogeneous degree r between complexes.

    mats[k] is the COO dict {(row, col): v} of X_k -> Y_{k+r}, as in
    ChainComplex.d; zero entries are dropped and degrees without entries
    omitted, so the zero map has no mats.  mat(k) is a dense view.
    """

    __slots__ = ("source", "target", "degree", "mats")

    def __init__(self, source, target, degree, mats):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.mats = {}
        for k, A in mats.items():
            m, n = target.rank(k + self.degree), source.rank(k)
            if not all(0 <= r < m and 0 <= c < n for r, c in A):
                raise ValueError(f"entry outside the {m} x {n} matrix of "
                                 f"degree {k}")
            coo = {key: v for key, v in A.items() if v}
            if coo:
                self.mats[k] = coo

    def mat(self, k):
        A = exact.zeros(self.target.rank(k + self.degree),
                        self.source.rank(k))
        for (r, c), v in self.mats.get(k, {}).items():
            A[r][c] = v
        return A

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self.degree == other.degree and self.mats == other.mats

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        mats = {k: dict(A) for k, A in self.mats.items()}
        for k, B in other.mats.items():
            A = mats.setdefault(k, {})
            for key, v in B.items():
                A[key] = A.get(key, 0) + v
        return GradedMap(self.source, self.target, self.degree, mats)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return GradedMap(self.source, self.target, self.degree,
                         {k: {key: c * v for key, v in A.items()}
                          for k, A in self.mats.items()})

    def compose(self, other):
        """self o other (other applied first)."""
        mats = {}
        for k, B in other.mats.items():
            j = k + other.degree
            if self.source.rank(j) != other.target.rank(j):
                raise ValueError(f"compose: middle ranks differ in degree {j}")
            if j in self.mats:
                mats[k] = _product(self.mats[j], B)
        return GradedMap(other.source, self.target,
                         self.degree + other.degree, mats)

    def is_zero(self):
        return not self.mats

    def apply(self, k, vec):
        return [sum(a * b for a, b in zip(row, vec)) for row in self.mat(k)]


def zero_map(source, target, degree=0):
    return GradedMap(source, target, degree, {})


def identity_map(X):
    return GradedMap(X, X, 0, {k: _eye(X.rank(k))
                               for k in range(X.lo, X.hi + 1)})


def scalar_map(X, c):
    return identity_map(X).scale(c)


def differential_map(X):
    return GradedMap(X, X, -1, X.d)


def _place(blocks):
    """The COO dict holding each COO block B of `blocks`, a list of
    (row, col, B), with its top left corner at (row, col)."""
    return {(r0 + r, c0 + c): v for r0, c0, B in blocks
            for (r, c), v in B.items()}


def block_map(source, target, degree, blocks):
    """The graded map whose degree-k matrix is _place(blocks(k))."""
    return GradedMap(source, target, degree, {
        k: _place(blocks(k)) for k in range(source.lo, source.hi + 1)})


def hom_differential(f):
    """d(f) = d_Y o f - (-1)^{|f|} f o d_X in the hom complex."""
    dY = differential_map(f.target)
    dX = differential_map(f.source)
    sign = -1 if f.degree % 2 else 1
    return dY.compose(f) - f.compose(dX).scale(sign)


def is_chain_map(f):
    return f.degree == 0 and hom_differential(f).is_zero()


# ---------------------------------------------------------------------------
# shift, cone, cylinder
# ---------------------------------------------------------------------------

def shift(X, r):
    """(X[r])_k = X_{k-r} with differential (-1)^r d; shifts compose
    additively, including the signs."""
    sign = -1 if r % 2 else 1
    ranks = {k + r: X.rank(k) for k in range(X.lo, X.hi + 1)}
    d = {k + r: {key: sign * v for key, v in A.items()}
         for k, A in X.d.items()}
    return ChainComplex(X.lo + r, X.hi + r, ranks, d, check=False)


class ConeResult:
    """Mapping cone of a chain map f : X -> Y.

    Cf_k = Y_k (+) X_{k-1}; i : Y -> Cf and the degree +1 map u : X -> Cf
    are the universal cycle, and p : Cf -> X (degree -1) projects onto the
    shifted part.  pbar is p viewed as a chain map Cf -> X[1].
    """

    __slots__ = ("cone", "i", "u", "p", "pbar")

    def __init__(self, cone, i, u, p, pbar):
        self.cone = cone
        self.i = i
        self.u = u
        self.p = p
        self.pbar = pbar


def cone_dg(f):
    """Cone of a chain map, with its universal-cycle relations asserted:
    d(i) = 0, d(u) = i o f, p o i = 0, p o u = 1, and pbar a chain map."""
    if not is_chain_map(f):
        raise ValueError("cone_dg needs a chain map (degree 0, d(f) = 0)")
    X, Y = f.source, f.target
    C = mapping_cone_complex(X, Y, f.mats)
    i = block_map(Y, C, 0, lambda k: [(0, 0, _eye(Y.rank(k)))])
    u = block_map(X, C, 1, lambda k: [(Y.rank(k + 1), 0, _eye(X.rank(k)))])
    p = block_map(C, X, -1,
                  lambda k: [(0, Y.rank(k), _eye(X.rank(k - 1)))])
    pbar = GradedMap(C, shift(X, 1), 0, p.mats)
    if not hom_differential(i).is_zero():
        raise AssertionError("cone: d(i) != 0")
    if hom_differential(u) != i.compose(f):
        raise AssertionError("cone: d(u) != i o f")
    if not p.compose(i).is_zero():
        raise AssertionError("cone: p o i != 0")
    if p.compose(u) != identity_map(X):
        raise AssertionError("cone: p o u != 1")
    if not is_chain_map(pbar):
        raise AssertionError("cone: pbar is not a chain map")
    return ConeResult(C, i, u, p, pbar)


class CylinderResult:
    __slots__ = ("cyl", "i", "j", "q", "s")

    def __init__(self, cyl, i, j, q, s):
        self.cyl = cyl
        self.i = i
        self.j = j
        self.q = q
        self.s = s


def direct_sum(X, Y):
    """X (+) Y, with X's generators first in every degree."""
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    ranks = {k: X.rank(k) + Y.rank(k) for k in range(lo, hi + 1)}
    d = {k: _place([(0, 0, X.d.get(k, {})),
                    (X.rank(k - 1), X.rank(k), Y.d.get(k, {}))])
         for k in range(lo, hi + 1)}
    return ChainComplex(lo, hi, ranks, d, check=False)


def cylinder_dg(f):
    """Mapping cylinder Zf = cone((1, -f) : X -> X (+) Y), so that
    Zf_k = X_k (+) Y_k (+) X_{k-1} and d(a, b, c) = (da + c, db - fc, -dc);
    asserts q o i = f, q o j = 1 and d(s) = 1 - j o q (so j and q are
    inverse homotopy equivalences)."""
    if not is_chain_map(f):
        raise ValueError("cylinder_dg needs a chain map")
    X, Y = f.source, f.target
    minus_f = (-f).mats
    one_minus_f = block_map(X, direct_sum(X, Y), 0, lambda k: [
        (0, 0, _eye(X.rank(k))), (X.rank(k), 0, minus_f.get(k, {}))])
    Z = cone_dg(one_minus_f).cone
    i = block_map(X, Z, 0, lambda k: [(0, 0, _eye(X.rank(k)))])
    j = block_map(Y, Z, 0, lambda k: [(X.rank(k), 0, _eye(Y.rank(k)))])
    # q(a, b, c) = f a + b
    q = block_map(Z, Y, 0, lambda k: [(0, 0, f.mats.get(k, {})),
                                      (0, X.rank(k), _eye(Y.rank(k)))])
    # s(a, b, c) = (0, 0, a), degree +1
    s = block_map(Z, Z, 1, lambda k: [
        (X.rank(k + 1) + Y.rank(k + 1), 0, _eye(X.rank(k)))])
    if not (is_chain_map(i) and is_chain_map(j) and is_chain_map(q)):
        raise AssertionError("cylinder: structure maps are not chain maps")
    if q.compose(i) != f:
        raise AssertionError("cylinder: q o i != f")
    if q.compose(j) != identity_map(Y):
        raise AssertionError("cylinder: q o j != 1")
    if hom_differential(s) != identity_map(Z) - j.compose(q):
        raise AssertionError("cylinder: d(s) != 1 - j o q")
    return CylinderResult(Z, i, j, q, s)


# ---------------------------------------------------------------------------
# exterior modules and the mod-n reduction
# ---------------------------------------------------------------------------

class ExteriorModule:
    """A complex with a degree +1 operator e, checked on construction to
    satisfy e o e = 0 and d o e + e o d = n (a chain-level Z[e]-module)."""

    __slots__ = ("complex", "e", "n")

    def __init__(self, complex_, e, n):
        self.complex = complex_
        self.e = e
        self.n = int(n)
        problems = self.check()
        if problems:
            raise AssertionError(f"exterior module invariants fail: {problems}")

    def check(self):
        problems = []
        if self.e.degree != 1:
            problems.append("e must have degree +1")
            return problems
        if not self.e.compose(self.e).is_zero():
            problems.append("e o e != 0")
        de = hom_differential(self.e)
        if de != scalar_map(self.complex, self.n):
            problems.append("d o e + e o d != n")
        return problems


class ModnReduction:
    """t(X) = cone(n * 1_X) with its retraction data and e-operator.

    Fields: ext (the ExteriorModule), eta : X -> t(X) (chain map),
    g : X -> t(X) degree +1, r, p : t(X) -> X graded retractions, and
    pi : t(X) -> X[1], the projection of the split sequence
    0 -> X -> t(X) -> X[1] -> 0.
    """

    __slots__ = ("ext", "eta", "g", "r", "p", "pi", "n")

    def __init__(self, ext, eta, g, r, p, pi, n):
        self.ext = ext
        self.eta = eta
        self.g = g
        self.r = r
        self.p = p
        self.pi = pi
        self.n = n

    @property
    def complex(self):
        return self.ext.complex


def reduce_mod_n(X, n):
    """The mod-n reduction t(X) = cone(n * 1_X), with eta = i and g = u.

    cone_dg asserts D(eta) = 0, D(g) = n * eta, p o eta = 0 and p o g = 1;
    this asserts r o eta = 1 and eta o r + g o p = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    res = cone_dg(scalar_map(X, n))
    t = res.cone
    eta, g, p = res.i, res.u, res.p
    # r projects onto the unshifted block
    r = block_map(t, X, 0, lambda k: [(0, 0, _eye(X.rank(k)))])
    if r.compose(eta) != identity_map(X):
        raise AssertionError("reduction: r o eta != 1")
    if eta.compose(r) + g.compose(p) != identity_map(t):
        raise AssertionError("reduction: eta o r + g o p != 1")
    e = g.compose(r)
    ext = ExteriorModule(t, e, n)
    return ModnReduction(ext, eta, g, r, p, res.pbar, n)


# ---------------------------------------------------------------------------
# the u/v adjunction maps
# ---------------------------------------------------------------------------

def u_of(red, phi, psi):
    """u(1 (x) phi + e (x) psi) = eta o phi + g o psi.

    phi : Y -> X of degree k and psi of degree k - 1 encode an element of
    (Z[e] (x) Hom)(Y, X); the value is a graded map Y -> t(X) of degree k.
    """
    return red.eta.compose(phi) + red.g.compose(psi)


def v_of(red, a):
    """v(a) = (r o a, p o a): the inverse of u.

    With the sign-free retractions (p o g = +1) fixed by reduce_mod_n, the
    e-component of the inverse is +p o a; the module docstring proves that
    u and v are mutually inverse chain isomorphisms.
    """
    return red.r.compose(a), red.p.compose(a)


def pair_differential(red, phi, psi):
    """Differential of 1 (x) phi + e (x) psi in Z[e] (x) Hom(Y, X):
    (D phi + n psi, -D psi)."""
    return (hom_differential(phi) + psi.scale(red.n),
            hom_differential(psi).scale(-1))


# ---------------------------------------------------------------------------
# extensions over t and order towers
# ---------------------------------------------------------------------------

def extend_over_mod_n(f, target_ext):
    """Extend a chain map f : K -> E over eta : K -> t(K).

    E must carry an exterior operator (d e + e d = n, n = target_ext.n),
    and K is reduced mod that n; the extension is
    fbar = f o r + e o f o p; fbar o eta = f is asserted.  By r eta = 1,
    p eta = 0, r g = 0 and p g = 1, D(eta r + g p) = D(1) = 0 gives
    D(r) = -n p and D(p) = 0, so D(f r) = -n f p = -D(e f p): fbar is a
    chain map.  fbar g r = e f r = e fbar, as e e = 0: it is e-equivariant
    (cone_exterior and cone_dg check both).  Returns (fbar, reduction of K).
    """
    if f.target is not target_ext.complex and f.target != target_ext.complex:
        raise ValueError("f must land in the exterior module's complex")
    if not is_chain_map(f):
        raise ValueError("extend_over_mod_n needs a chain map")
    redK = reduce_mod_n(f.source, target_ext.n)
    fbar = f.compose(redK.r) + target_ext.e.compose(f).compose(redK.p)
    if fbar.compose(redK.eta) != f:
        raise AssertionError("extension: fbar o eta != f")
    return fbar, redK


def cone_exterior(h, ext_source, ext_target):
    """Cone of an e-equivariant chain map between exterior modules,
    with the inherited operator e(b, a) = (e_B b, -e_A a)."""
    if ext_source.n != ext_target.n:
        raise ValueError("modulus mismatch")
    if h.compose(ext_source.e) != ext_target.e.compose(h):
        raise ValueError("cone_exterior needs an e-equivariant map")
    res = cone_dg(h)
    C = res.cone
    B = h.target
    minus_eA = (-ext_source.e).mats
    e = block_map(C, C, 1, lambda k: [
        (0, 0, ext_target.e.mats.get(k, {})),
        (B.rank(k + 1), B.rank(k), minus_eA.get(k - 1, {}))])
    return ExteriorModule(C, e, ext_target.n), res


class OrderTower:
    """Chain-level witness ladder for n-order >= k.

    levels[m] is an ExteriorModule; its operator e is the recorded
    homotopy h with d h + h d = n, witnessing n * 1 ~ 0 at every level.
    connecting[m] is the cone inclusion of level m into level m + 1.
    """

    __slots__ = ("n", "levels", "connecting")

    def __init__(self, n, levels, connecting):
        self.n = n
        self.levels = levels
        self.connecting = connecting

    def homotopies(self):
        return [lvl.e for lvl in self.levels]


def order_tower(X, n, k):
    """Build k levels: level 1 is t(X); level m + 1 is the cone of the
    extension over t of the identity of level m, with the inherited
    e-operator.

    Each level's e e = 0 and d e + e d = n are asserted once, when built;
    this is the chain-level inductive step of the n-order definition.
    """
    if k < 1:
        raise ValueError("tower needs k >= 1 levels")
    red = reduce_mod_n(X, n)
    levels = [red.ext]
    connecting = []
    for _ in range(k - 1):
        ext = levels[-1]
        fbar, redK = extend_over_mod_n(identity_map(ext.complex), ext)
        new_ext, res = cone_exterior(fbar, redK.ext, ext)
        levels.append(new_ext)
        connecting.append(res.i)
    return OrderTower(n, levels, connecting)
