"""The named based Delta-sets (I, S1, S<n>, the extended circle, the mod-n
Moore set M, S2), their comparison morphisms and combinatorial homotopy,
symmetric powers with canonical projections, and coherence verification.

The Moore set is the pushout of the cone inclusion of S1 /\\ S<n> against
S1 /\\ nabla into S2 = S1 /\\ S1; its reduced integral homology is Z/n
concentrated in degree 2, which is certified on construction.  Symmetric
powers are orbit Delta-sets of n-ary smash powers: the symmetric group
permutes factor slots and chart coordinates simultaneously, which preserves
canonical representatives, so orbits are named by their lexicographically
least member and faces are representative-independent (checked cell by
cell, not assumed).  The least member is one sort of the factor slots by
(factor, chart column).
"""

from __future__ import annotations

from operator import lt

from .delta import DeltaSet, DeltaMorphism, identity_morphism, pushout, \
    standard
from .based import based_quotient, finite_model, basepoint_name
from .products import (smash, n_ary_smash, cell_name, cell_data,
                       chart_morphism, slice_inclusion, smash_morphism,
                       smash_morphism_left)
from .moves import ExpansionCertificate, Move, cylinder_inclusions
from .homology import certify_moore, is_homology_iso


# ---------------------------------------------------------------------------
# basic based Delta-sets
# ---------------------------------------------------------------------------

def interval():
    """I: one non-basepoint edge z with z d_0 = *, z d_1 = v."""
    return DeltaSet({0: ["v"], 1: ["z"]}, {"z": (None, "v")},
                    sort_keys={"v": (0,), "z": (0,)}, based=True)


def circle():
    """S1: a single non-basepoint 1-simplex with both faces at the basepoint."""
    return DeltaSet({1: ["z"]}, {"z": (None, None)}, sort_keys={"z": (0,)},
                    based=True)


def sphere2():
    """S2 = S1 /\\ S1."""
    return smash(circle(), circle())


def s_bracket(n):
    """S<n>: vertices e_1..e_{n-1} (e_0 is the basepoint) and edges
    f_0..f_{n-1} with boundary (e_i, e_{i+1}) read modulo n."""
    if n < 2:
        raise ValueError("s_bracket needs n >= 2")
    simplices = {0: [f"e{k}" for k in range(1, n)],
                 1: [f"f{k}" for k in range(n)]}
    faces = {}
    for k in range(n):
        lo = f"e{k}" if k != 0 else None
        hi = f"e{(k + 1) % n}" if (k + 1) % n != 0 else None
        faces[f"f{k}"] = (lo, hi)
    keys = {f"e{k}": (0, k) for k in range(1, n)}
    keys.update({f"f{k}": (1, k) for k in range(n)})
    return DeltaSet(simplices, faces, sort_keys=keys, based=True)


def psi(i, n):
    """psi_i : S<n> -> S1, sending f_i to z and every other cell to *."""
    S, C = s_bracket(n), circle()
    i %= n
    mapping = {f"f{k}": ("z" if k == i else None) for k in range(n)}
    mapping.update({f"e{k}": None for k in range(1, n)})
    return DeltaMorphism(S, C, mapping)


def nabla(n):
    """nabla : S<n> -> S1, sending every f_k to z."""
    S, C = s_bracket(n), circle()
    mapping = {f"f{k}": "z" for k in range(n)}
    mapping.update({f"e{k}": None for k in range(1, n)})
    return DeltaMorphism(S, C, mapping)


def psi_quotient_square(i, n):
    """The pushout square of psi_i: collapsing S<n> - {f_i} yields S1,
    simplexwise.  Returns (quotient, comparison iso onto circle())."""
    S = s_bracket(n)
    i %= n
    collapse = [s for s in S.dim_of if s != f"f{i}"]
    Q = based_quotient(S, collapse)
    comparison = DeltaMorphism(Q, circle(), {f"f{i}": "z"})
    return Q, comparison


# ---------------------------------------------------------------------------
# cone inclusion in the based world
# ---------------------------------------------------------------------------

def based_cone(X):
    """(I /\\ X, the monomorphism i_X : X -> I /\\ X).

    i_X sends x to [v, x; chart] over the non-basepoint end of I; the
    smash I /\\ X is weakly contractible (its reduced homology vanishes)."""
    IX = smash(interval(), X)
    return IX, slice_inclusion(X, IX, "v", vertex_first=True)


# ---------------------------------------------------------------------------
# the extended circle and the combinatorial homotopy
# ---------------------------------------------------------------------------

def hat_circle():
    """S1 extended by g, g', c, c' with dc = (*, g, z), dc' = (z, g', *)."""
    simplices = {1: ["z", "g", "g'"], 2: ["c", "c'"]}
    faces = {"z": (None, None), "g": (None, None), "g'": (None, None),
             "c": (None, "g", "z"), "c'": ("z", "g'", None)}
    keys = {"z": (0,), "g": (1,), "g'": (2,), "c": (0,), "c'": (1,)}
    return DeltaSet(simplices, faces, sort_keys=keys, based=True)


def hat_circle_expansion_certificate():
    """The inclusion S1 -> S1^ as two elementary expansions, on the finite
    models (explicit basepoint cells up to dimension 2)."""
    hat = finite_model(hat_circle(), up_to=2)
    base = finite_model(circle(), up_to=2)
    moves = [
        Move("expand", "c", 1, hat.faces["c"], hat.faces["g"]),
        Move("expand", "c'", 1, hat.faces["c'"], hat.faces["g'"]),
    ]
    return ExpansionCertificate(base, moves, hat)


def circle_segments(n):
    """The unbased 1-dimensional sub-Delta-set S of S<n>: all vertices
    e_0..e_{n-1} (including e_0) and all edges f_0..f_{n-1}."""
    simplices = {0: [f"e{k}" for k in range(n)],
                 1: [f"f{k}" for k in range(n)]}
    faces = {f"f{k}": (f"e{k}", f"e{(k + 1) % n}") for k in range(n)}
    keys = {f"e{k}": (0, k) for k in range(n)}
    keys.update({f"f{k}": (1, k) for k in range(n)})
    return DeltaSet(simplices, faces, sort_keys=keys)


def hat_circle_homotopy(i, n):
    """The combinatorial homotopy H : S (x) Delta[1] -> S1^ between the
    unbased lifts of j psi_i and j psi_{i+1}.

    The generating 2-simplices are A_k = [f_k, Id; phi] and
    B_k = [f_k, Id; phi'], subject to A_k d_1 = B_k d_1 and
    A_k d_2 = B_{k+1} d_0; H sends both A_k and B_k to c for k = i, to c'
    for k = i + 1, and to the basepoint otherwise.  Returns (S1^ based,
    H as a Delta-morphism into the 2-skeleton model, verification record).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    i %= n
    hat = hat_circle()
    hat_skel = finite_model(hat, up_to=2)
    S = circle_segments(n)
    delta1 = standard("simplex", 1)
    SI, i0, i1 = cylinder_inclusions(S, delta1)

    phi = ((0, 0), (0, 1), (1, 1))
    phi_prime = ((0, 0), (1, 0), (1, 1))
    edge = delta1.cells(1)[0]

    def a_cell(k):
        return cell_name((f"f{k % n}", edge), phi)

    def b_cell(k):
        return cell_name((f"f{k % n}", edge), phi_prime)

    mapping = {}
    for k in range(n):
        if k == i:
            img = "c"
        elif k == (i + 1) % n:
            img = "c'"
        else:
            img = basepoint_name(2)
        mapping[a_cell(k)] = img
        mapping[b_cell(k)] = img
    # a lower cell takes its image from the first mapped cell (and face
    # index) it is a face of, in one pass over the faces of dimensions 2, 1
    for d in (2, 1):
        for s in SI.cells(d):
            for fc, img in zip(SI.faces[s], hat_skel.faces[mapping[s]]):
                mapping.setdefault(fc, img)
    H = DeltaMorphism(SI, hat_skel, mapping)

    record = {"i": i, "n": n, "valid_morphism": not H.validate()}
    record["boundary_c"] = hat_skel.faces["c"]
    record["boundary_c_prime"] = hat_skel.faces["c'"]
    record["generator_relations"] = all(
        SI.faces[a_cell(k)][1] == SI.faces[b_cell(k)][1]
        and SI.faces[a_cell(k)][2] == SI.faces[b_cell((k + 1) % n)][0]
        for k in range(n))

    # the lifted psi maps, read through the front and back inclusions
    def lift_of_psi(idx):
        m = {f"e{k}": basepoint_name(0) for k in range(n)}
        for k in range(n):
            m[f"f{k}"] = "z" if k == idx else basepoint_name(1)
        return m

    record["front_matches_psi_i"] = all(
        mapping[i0.mapping[s]] == lift_of_psi(i)[s] for s in S.dim_of)
    record["back_matches_psi_i_plus_1"] = all(
        mapping[i1.mapping[s]] == lift_of_psi((i + 1) % n)[s]
        for s in S.dim_of)
    cert = hat_circle_expansion_certificate()
    record["circle_inclusion_expansions"] = len(cert)
    record["circle_inclusion_certified"] = cert.verify()
    record["pass"] = all(
        record[k] for k in ("valid_morphism", "generator_relations",
                            "front_matches_psi_i",
                            "back_matches_psi_i_plus_1",
                            "circle_inclusion_certified"))
    return hat, H, record


# ---------------------------------------------------------------------------
# the Moore Delta-set
# ---------------------------------------------------------------------------

def moore_space(n):
    """The mod-n Moore based Delta-set M and its structure maps.

    M is the pushout of the cone inclusion of S1 /\\ S<n> against
    S1 /\\ nabla into S2; reduced integral homology is certified to be Z/n
    in degree 2 and zero elsewhere.  Returns (M, iota : S2 -> M, table).
    """
    if n < 2:
        raise ValueError("moore_space needs n >= 2")
    S1 = circle()
    X = smash(S1, s_bracket(n))
    CX, iX = based_cone(X)
    f = smash_morphism_left(S1, nabla(n))  # S1 /\ S<n> -> S2
    po = pushout(iX, f)
    M, iota = po.delta, po.leg_c
    ok, table = certify_moore(M, n, 2)
    if not ok:
        raise AssertionError(f"Moore certification failed: {table}")
    return M, iota, table


def moore_counts(n):
    """Non-basepoint cells per dimension of moore_space(n), without
    building it.  S2 has (0, 1, 2) cells; the cone I /\\ X on
    X = S1 /\\ S<n>, whose cells are (0, 2n - 1, 2n), adds
    (0, 2n - 1, 8n - 2, 6n) cells outside X (products.smash_counts)."""
    return (0, 2 * n, 8 * n, 6 * n)


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------

def _orbit_rep(key):
    """The least (factors, chart) in the Sigma_r-orbit of key = (xs, pts).

    A sigma moves slot t, the factor xs[t] together with chart column t, so
    a member of the orbit is an order of the slots.  Sorting the slots by
    (factor, column) gives the least one: its factors ascend, which makes
    them the least factor tuple, and the sigmas that give those factors
    differ only in the order of slots with equal factors.  Among those, a
    chart compares row by row, so the least one orders the columns of equal
    factors by their first entry, ties by their second, and so on, which is
    sorting them lexicographically.  Strictly ascending factors leave the
    identity alone, and the key itself is returned whenever it is the
    least member."""
    xs, pts = key
    if all(map(lt, xs, xs[1:])):
        return key
    factors, *rows = zip(*sorted(zip(xs, *pts)))
    rep = factors, tuple(rows)
    return key if rep == key else rep


def orbit_cell_name(rep):
    return "O" + cell_name(*rep)


def symmetric_power_of(X, i):
    """The orbit Delta-set X^(/\\ i) / Sigma_i.

    Returns (P, orbit_map, W) where W is the smash power and orbit_map is
    the morphism W -> P sending each cell to its orbit.  Building it checks,
    cell by cell, that the projected faces of every member of an orbit are
    the faces of the orbit: a mismatch would mean the action fails to
    commute with faces and raises ValueError.  W and orbit_map are returned
    for inspection only; PowerSystem keeps P alone, so that W, the largest
    object on the way, is freed once P is built.

    An orbit is named "O" + the name of its least member, which
    _orbit_rep finds by sorting the member's slots by (factor, chart
    column).  W lists each dimension in the order of its sort keys
    (factors, chart), the order that sort minimises in, so the least member
    of an orbit is its first member in one pass over W: that member names
    the orbit, and every later member takes the name the orbit map already
    gives its representative.  If the representative was not met first,
    the pass raises ValueError rather than misname a cell.
    """
    if i < 1:
        raise ValueError("power index must be >= 1")
    if i == 1:
        return X, identity_morphism(X), X
    W = n_ary_smash([X] * i)
    # One pass over W in its order, dimension ascending, so a cell's faces
    # have their orbits named before the cell; an orbit's least member
    # also gives it its dimension, sort key and projected faces.
    orbit_map = {}
    simplices = {}
    faces = {}
    keys = {}
    for d, s in W.all_cells():
        key = cell_data(W, s)
        rep = _orbit_rep(key)
        if rep == key:
            name = orbit_map[s] = "O" + s
            simplices.setdefault(d, []).append(name)
            keys[name] = rep
            if d > 0:
                faces[name] = tuple(map(orbit_map.get, W.faces[s]))
            continue
        name = orbit_map.get(cell_name(*rep))
        if name is None:
            raise ValueError(f"the least member {rep!r} of the orbit of "
                             f"{s!r} does not come before it in W")
        orbit_map[s] = name
    P = DeltaSet(simplices, faces, sort_keys=keys, based=True)
    del simplices  # P lists its cells in tuples of its own
    return P, DeltaMorphism(W, P, orbit_map), W


class PowerSystem:
    """Symmetric powers P^i of a based Delta-set with cached canonical
    projections mu_{i,j} : P^i /\\ P^j -> P^{i+j}.

    Only P^i is kept from building a power.  Every mu_{i,j}, mu_{1,1}
    included, is built on demand from its smash source and cached."""

    def __init__(self, X):
        self.X = X
        self._powers = {1: X}
        self._projections = {}

    def power(self, i):
        if i not in self._powers:
            self._powers[i] = symmetric_power_of(self.X, i)[0]
        return self._powers[i]

    def power_rep(self, i, cell):
        """(factor tuple, chart) of the orbit representative of a P^i cell."""
        P = self.power(i)
        if i == 1:
            d = P.dim_of[cell]
            return (cell,), tuple((k,) for k in range(d + 1))
        return P.sort_key(cell)

    def orbit_name(self, i, xs, pts):
        if i == 1:
            return xs[0]
        return orbit_cell_name(_orbit_rep((xs, pts)))

    def flat_orbit_name(self, parts, chart):
        """The orbit in P^(i_1 + ... + i_r) of a cell whose factors are
        the P^(i_t) cells of parts = ((i_1, a_1), ..., (i_r, a_r)) over
        `chart`, whose point u sits at point u[t] of a_t: the factor tuples
        of the a_t's representatives are joined, and so are, point by
        point, their chart points."""
        reps = [self.power_rep(i, a) for i, a in parts]
        xs = tuple(x for rep_xs, _ in reps for x in rep_xs)
        pts = tuple(tuple(c for (_, rep_pts), v in zip(reps, u)
                          for c in rep_pts[v])
                    for u in chart)
        return self.orbit_name(sum(i for i, _ in parts), xs, pts)

    def projection(self, i, j):
        """mu_{i,j}, the canonical projection P^i /\\ P^j -> P^{i+j}."""
        key = (i, j)
        Pi, Pj = self.power(i), self.power(j)
        target = self.power(i + j)
        if key in self._projections:
            return self._projections[key]
        mu = chart_morphism(
            smash(Pi, Pj), target,
            lambda ab, psi: self.flat_orbit_name(((i, ab[0]), (j, ab[1])),
                                                 psi))
        self._projections[key] = mu
        return mu

    def assoc_square_commutes(self, i, j, k):
        """mu_{i+j,k} o (mu_{i,j} /\\ P^k) == mu_{i,j+k} o (P^i /\\ mu_{j,k}),
        compared cellwise on (P^i /\\ P^j) /\\ P^k.

        The left route runs through the actual morphisms; the right route
        regroups to the flattened (i+j+k)-ary data and projects (orbits of
        the nested projection agree with the flat orbit because
        Sigma_{j+k} embeds in Sigma_{i+j+k})."""
        mu_ij = self.projection(i, j)
        mu_ij_k = self.projection(i + j, k)
        Pk = self.power(k)
        left1 = smash_morphism(mu_ij, Pk)       # (Pi^Pj)^Pk -> P{i+j}^Pk
        src = left1.source
        for d, s in src.all_cells():
            (ab, c), psi = cell_data(src, s)
            t1 = left1.mapping[s]
            v1 = None if t1 is None else mu_ij_k.mapping[t1]
            (a, b), phi = cell_data(mu_ij.source, ab)
            v2 = self.flat_orbit_name(((i, a), (j, b), (k, c)),
                                      [phi[u] + (v,) for u, v in psi])
            if v1 != v2:
                return False
        return True


# ---------------------------------------------------------------------------
# Moore systems
# ---------------------------------------------------------------------------

class MooreSystem:
    """The Moore Delta-set M at modulus p with its symmetric powers,
    canonical projections, and coherence verdicts."""

    def __init__(self, p):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        self.p = p
        self.M, self.iota, self.table = moore_space(p)
        self.S2 = self.iota.source
        self.powers = PowerSystem(self.M)

    def power(self, i):
        return self.powers.power(i)

    def projection(self, i, j):
        return self.powers.projection(i, j)

    def coherence_map(self, i):
        """The composite S2 /\\ P^{i-1} -> M /\\ P^{i-1} -> P^i.

        The cell ((x, y); pts) goes to the flat orbit of the P^1 cell
        iota(x) and the P^(i-1) cell y over pts, which is mu_{1,i-1} of
        (iota /\\ 1)((x, y); pts) = ((iota(x), y); pts), as in
        `projection`.  Naming each cell directly builds neither mu_{1,i-1}
        nor M /\\ P^{i-1}, which has about i times the cells of P^i.  A
        cell with iota(x) = * goes to the basepoint, as in
        `smash_morphism`."""
        if i < 2:
            raise ValueError("coherence needs i >= 2")
        ps = self.powers
        target = ps.power(i)  # built, and its W freed, before the source
        iota = self.iota.mapping

        def image(xy, pts):
            mx = iota[xy[0]]
            return None if mx is None else ps.flat_orbit_name(
                ((1, mx), (i - 1, xy[1])), pts)

        return chart_morphism(smash(self.S2, ps.power(i - 1)), target, image)

    def coherence_composite(self, i):
        """(map, verdict): whether the coherence composite induces an
        isomorphism on reduced integral homology in every degree."""
        f = self.coherence_map(i)
        return f, is_homology_iso(f)

    def free_module_report(self, K, k):
        """Coherence of the free module on K: for 2 <= j <= k, check that
        S2 /\\ P^{j-1} /\\ K -> P^j /\\ K is a homology isomorphism.

        Every level is decided over Z by acyclicity of the mapping cone
        (method "integral-cone", built on the target's Morse residue by
        is_homology_iso), so torsion at every prime is seen.  Returns a
        CoherenceReport.
        """
        if not 1 <= k <= self.p - 1:
            raise ValueError("coherence level out of range")
        levels = {}
        for j in range(2, k + 1):
            g = self.coherence_map(j)
            gK = smash_morphism(g, K)
            levels[j] = {"j": j, "source_cells": gK.source.n_cells(),
                         "target_cells": gK.target.n_cells(),
                         "method": "integral-cone",
                         "iso": is_homology_iso(gK)}
        return CoherenceReport(self.p, k, levels)


class CoherenceReport:
    """Per-level verdicts for the coherence composites of a free module."""

    def __init__(self, p, k, levels):
        self.p = p
        self.k = k
        self.levels = levels

    def all_pass(self):
        return all(entry["iso"] for entry in self.levels.values())

    def as_dict(self):
        return {"p": self.p, "k": self.k,
                "levels": {str(j): e for j, e in self.levels.items()}}
