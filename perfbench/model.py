"""Predictions and checkers made apart from dsx.

Nothing here imports dsx: every expected value is derived from the
workload's parameters (p, the generated complexes) by an independent
route, so a check never compares the program against a stored copy of its
own earlier output.
"""

from __future__ import annotations

import math
import re

import numpy as np


# ---------------------------------------------------------------------------
# chart counts of smash products and symmetric squares
# ---------------------------------------------------------------------------

def smash_counts(a_counts, b_counts):
    """Cells per dimension of A /\\ B from the non-basepoint counts of A, B.

    An n-cell is a pair (x, y) of dimensions (a, b) with a lattice path of
    n steps from (0, 0) to (a, b) whose steps are (1,0), (0,1) or (1,1);
    with k diagonal steps n = a + b - k and there are
    n! / ((a-k)! (b-k)! k!) such paths.
    """
    out = {}
    for a, ma in a_counts.items():
        for b, mb in b_counts.items():
            for k in range(min(a, b) + 1):
                d = a + b - k
                paths = math.factorial(d) // (
                    math.factorial(a - k) * math.factorial(b - k)
                    * math.factorial(k))
                out[d] = out.get(d, 0) + ma * mb * paths
    return {d: n for d, n in sorted(out.items()) if n}


def symmetric_square_counts(m_counts):
    """Orbits of the swap on M /\\ M per dimension.

    The swap fixes exactly the cells (x, x; diagonal chart), one per cell
    of M, and pairs up all the others, so P2_d = (W_d + M_d) / 2.
    """
    w = smash_counts(m_counts, m_counts)
    out = {}
    for d, n in w.items():
        total = n + m_counts.get(d, 0)
        if total % 2:
            raise ValueError(f"odd orbit count in dimension {d}")
        out[d] = total // 2
    return out


def counts_of_file(data):
    """Non-basepoint cells per dimension of a parsed Delta-set file."""
    return {int(d): len(names) for d, names in data["simplices"].items()
            if names}


# ---------------------------------------------------------------------------
# homology of M(Z/p, 2) /\ M(Z/p, 2) by Kunneth and universal coefficients
# ---------------------------------------------------------------------------
# A group is a sorted tuple of cyclic orders, 0 standing for Z.

def _tensor(a, b):
    if a == 0:
        return b
    if b == 0:
        return a
    return math.gcd(a, b)


def _tor(a, b):
    if a == 0 or b == 0:
        return None
    return math.gcd(a, b)


def kunneth_smash(hx, hy):
    """Reduced integral homology of X /\\ Y from that of X and Y."""
    out = {}
    for i, gx in hx.items():
        for j, gy in hy.items():
            for a in gx:
                for b in gy:
                    t = _tensor(a, b)
                    if t != 1:
                        out.setdefault(i + j, []).append(t)
                    t = _tor(a, b)
                    if t is not None and t != 1:
                        out.setdefault(i + j + 1, []).append(t)
    return {k: tuple(sorted(v)) for k, v in out.items()}


def field_dims(h, q, degrees):
    """dim H_k(-; F_q) by universal coefficients, for q prime."""
    out = {}
    for k in degrees:
        tensor = sum(1 for t in h.get(k, ()) if t == 0 or t % q == 0)
        tor = sum(1 for t in h.get(k - 1, ()) if t != 0 and t % q == 0)
        out[k] = tensor + tor
    return out


def moore_homology(p, degree=2):
    return {degree: (p,)}


# ---------------------------------------------------------------------------
# reading the program's homology tables
# ---------------------------------------------------------------------------

_SUMMAND = re.compile(r"^([A-Za-z][A-Za-z0-9_]*?)(?:\^(\d+)|/(\d+))?$")


def parse_group(text):
    """(free rank, torsion orders) of a printed group such as 'Z^2 + Z/3'.

    The ring label is ignored, so field dimensions read the same whether
    the table prints 'Z^2', 'F_3^2' or 'Q^2'.
    """
    text = text.strip()
    if text == "0":
        return 0, ()
    free = 0
    torsion = []
    for part in text.split("+"):
        m = _SUMMAND.match(part.strip())
        if not m:
            raise ValueError(f"unreadable group {text!r}")
        if m.group(3):
            torsion.append(int(m.group(3)))
        else:
            free += int(m.group(2) or 1)
    return free, tuple(sorted(torsion))


def table_problems(table, expected, what):
    """Compare a printed table {"k": group} with {k: (free, torsion)}.

    Degrees absent from `expected` must be trivial; every expected degree
    must be present.
    """
    problems = []
    seen = set()
    for key, text in table.items():
        k = int(key)
        seen.add(k)
        try:
            got = parse_group(text)
        except ValueError as exc:
            problems.append(f"{what}: {exc}")
            continue
        want = expected.get(k, (0, ()))
        if got != want:
            problems.append(f"{what}: degree {k} is {text!r}, want {want}")
    for k in expected:
        if k not in seen:
            problems.append(f"{what}: degree {k} missing")
    return problems


def integral_expectation(h):
    return {k: (sum(1 for t in g if t == 0),
                tuple(sorted(t for t in g if t)))
            for k, g in h.items() if g}


def field_expectation(dims):
    return {k: (n, ()) for k, n in dims.items() if n}


# ---------------------------------------------------------------------------
# order towers
# ---------------------------------------------------------------------------

def tower_ranks(x_ranks, levels):
    """Per-degree ranks of each tower level, listed from the lowest degree.

    Level 1 is t(X) with L1[k] = X[k] + X[k-1]; level m+1 is the cone of
    t(L_m) -> L_m, so L_{m+1}[k] = L_m[k] + L_m[k-1] + L_m[k-2].
    """
    cur = [r for r in x_ranks] + [0]
    cur = [cur[k] + (cur[k - 1] if k else 0) for k in range(len(cur))]
    out = [cur]
    for _ in range(levels - 1):
        ext = cur + [0, 0]
        cur = [ext[k] + (ext[k - 1] if k >= 1 else 0)
               + (ext[k - 2] if k >= 2 else 0) for k in range(len(ext))]
        out.append(cur)
    return out


def _int_matrix(rows, m, n):
    A = np.zeros((m, n), dtype=object)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            A[r, c] = int(v)
    return A


def _product(A, B):
    """Exact integer product; int64 when no entry can overflow."""
    if A.size == 0 or B.size == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=object)
    bound = (max(abs(int(x)) for x in A.flat) * max(abs(int(x)) for x in B.flat)
             * A.shape[1])
    if bound < 2 ** 62:
        return (A.astype(np.int64) @ B.astype(np.int64)).astype(object)
    return A.dot(B)


def exterior_problems(lo, hi, ranks, d, e, n):
    """Check d o d = 0, e o e = 0 and d o e + e o d = n * 1.

    ranks maps degree -> rank; d[k] is the dense matrix C_k -> C_{k-1}
    and e[k] the dense matrix C_k -> C_{k+1} (missing means zero).
    """
    def rank(k):
        return ranks.get(k, 0)

    def D(k):
        return _int_matrix(d.get(k, []), rank(k - 1), rank(k))

    def E(k):
        return _int_matrix(e.get(k, []), rank(k + 1), rank(k))

    problems = []
    for k in range(lo, hi + 1):
        if rank(k) == 0:
            continue
        if np.any(_product(D(k - 1), D(k)) != 0):
            problems.append(f"d o d != 0 at degree {k}")
        if np.any(_product(E(k + 1), E(k)) != 0):
            problems.append(f"e o e != 0 at degree {k}")
        h = _product(D(k + 1), E(k)) + _product(E(k - 1), D(k))
        if np.any(h != n * np.eye(rank(k), dtype=np.int64).astype(object)):
            problems.append(f"d o e + e o d != {n} at degree {k}")
    return problems


# ---------------------------------------------------------------------------
# collapse certificates
# ---------------------------------------------------------------------------

def replay_collapses(cert):
    """Undo an expansion certificate by free-face collapses.

    cert is a parsed certificate file: expansion moves from "base" to
    "result".  Starting from the result, each move is undone in reverse
    order as the collapse of the free pair (e, f = e_faces[i]); f must be
    a face of e alone, once, and e a face of nothing.  Returns
    (number of collapses, remaining cell names); raises ValueError on the
    first move that is not a free collapse.
    """
    faces = {s: tuple(fs) for s, fs in cert["result"]["faces"].items()}
    dim = {}
    for dd, names in cert["result"]["simplices"].items():
        for s in names:
            dim[s] = int(dd)
            faces.setdefault(s, ())
    cofaces = dict.fromkeys(dim, 0)
    for fs in faces.values():
        for f in fs:
            cofaces[f] += 1
    count = 0
    for mv in reversed(cert["moves"]):
        if mv["direction"] != "expand":
            raise ValueError(f"move {count}: not an expansion")
        e, i = mv["e"], int(mv["i"])
        if e not in dim:
            raise ValueError(f"move {count}: {e!r} is not present")
        if faces[e] != tuple(mv["e_faces"]) or not 0 <= i < len(faces[e]):
            raise ValueError(f"move {count}: faces of {e!r} differ")
        f = faces[e][i]
        if dim.get(f) != dim[e] - 1:
            raise ValueError(f"move {count}: {f!r} is not a facet of {e!r}")
        if cofaces[e] != 0:
            raise ValueError(f"move {count}: {e!r} is a face of another cell")
        if faces[e].count(f) != 1 or cofaces[f] != 1:
            raise ValueError(f"move {count}: {f!r} is not a free face")
        if faces[f] != tuple(mv["f_faces"]):
            raise ValueError(f"move {count}: faces of {f!r} differ")
        for s in (e, f):
            for g in faces[s]:
                cofaces[g] -= 1
            del faces[s], dim[s], cofaces[s]
        count += 1
    return count, set(dim)
