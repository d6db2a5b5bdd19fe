"""Seeded input generators: the program only ever sees the files they write.

Each generator is a pure function of its Random, so the same seed gives
byte-identical files.
"""

from __future__ import annotations

import json
from itertools import combinations


def write_json(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def delta_dict(simplices, faces):
    """A Delta-set file: simplices per dimension and face tuples."""
    return {"dims": max(simplices),
            "simplices": {str(d): sorted(v) for d, v in simplices.items()},
            "faces": {s: list(fs) for s, fs in faces.items()}}


def point_file():
    return delta_dict({0: ["apex"]}, {})


def torus(a, b, twist=0):
    """An a-by-b grid of squares, each cut along its diagonal, with the
    sides glued into a torus; the top row is glued to the bottom shifted
    by `twist` columns, which changes the complex but not its counts.

    Vertex (i, j) is v{i}_{j}; h, u and g edges run from it to (i+1, j),
    (i, j+1) and (i+1, j+1); triangles s and t are the two halves of a
    square.  There are 6ab cells.
    """
    def at(i, j):
        if j >= b:
            i, j = i + twist, j - b
        return f"{i % a}_{j}"

    simplices = {0: [], 1: [], 2: []}
    faces = {}
    for i in range(a):
        for j in range(b):
            simplices[0].append(f"v{at(i, j)}")
            for kind, end in (("h", (i + 1, j)), ("u", (i, j + 1)),
                              ("g", (i + 1, j + 1))):
                simplices[1].append(f"{kind}{at(i, j)}")
                faces[f"{kind}{at(i, j)}"] = (f"v{at(*end)}", f"v{at(i, j)}")
            s, t = f"s{at(i, j)}", f"t{at(i, j)}"
            simplices[2] += [s, t]
            faces[s] = (f"u{at(i + 1, j)}", f"g{at(i, j)}", f"h{at(i, j)}")
            faces[t] = (f"h{at(i, j + 1)}", f"g{at(i, j)}", f"u{at(i, j)}")
    return delta_dict(simplices, faces)


def random_surface_patch(rng, n_vertices, target_cells):
    """A random 2-dimensional simplicial complex on n_vertices vertices:
    distinct random triangles, closed under faces, are added until the
    complex has at least target_cells cells."""
    cells = set()
    while len(cells) < target_cells:
        t = tuple(sorted(rng.sample(range(n_vertices), 3)))
        for k in (1, 2, 3):
            cells.update(combinations(t, k))
    name = lambda c: "x" + "_".join(map(str, c))
    simplices = {}
    faces = {}
    for c in cells:
        simplices.setdefault(len(c) - 1, []).append(name(c))
        if len(c) > 1:
            faces[name(c)] = tuple(name(c[:j] + c[j + 1:])
                                   for j in range(len(c)))
    return delta_dict(simplices, faces)


# ---------------------------------------------------------------------------
# three-term chain complexes
# ---------------------------------------------------------------------------

def _unimodular(rng, n, steps):
    """(U, U^-1): a product of `steps` random elementary integer matrices."""
    U = [[int(r == c) for c in range(n)] for r in range(n)]
    V = [row[:] for row in U]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in U:                # U <- U (1 + c E_ij): col j += c col i
            row[j] += c * row[i]
        V[i] = [x - c * y for x, y in zip(V[i], V[j])]  # V <- (1 - c E_ij) V
    return U, V


def _mul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def random_three_term(rng, ranks):
    """A complex Z^r2 -> Z^r1 -> Z^r0 in degrees 0..2 with d o d = 0.

    It starts from a split complex (d2 hits the first a basis vectors of
    C1 with random coefficients, d1 sends the next b to multiples of the
    first b of C0) and conjugates each degree by a random unimodular
    matrix, so the matrices are dense but the composite stays zero.
    """
    r0, r1, r2 = ranks
    a = rng.randint(1, min(r1, r2))
    b = rng.randint(1, min(r0, r1 - a)) if r1 > a else 0
    d2 = [[0] * r2 for _ in range(r1)]
    for t in range(a):
        d2[t][t] = rng.choice((1, 2, 3))
    d1 = [[0] * r1 for _ in range(r0)]
    for t in range(b):
        d1[t][a + t] = rng.choice((1, 2, 3))
    U0, _ = _unimodular(rng, r0, r0)
    U1, V1 = _unimodular(rng, r1, r1)
    U2, V2 = _unimodular(rng, r2, r2)
    D2 = _mul(_mul(U1, d2), V2)
    D1 = _mul(_mul(U0, d1), V1)
    return {"degrees": [0, 2], "ranks": [r0, r1, r2],
            "boundaries": {"1": D1, "2": D2}}
