"""Exact integer and mod-p linear algebra.

All integer arithmetic uses Python's arbitrary-precision ints; entry blow-up
during Smith reduction is therefore harmless.  The routines here are the
computational backbone for every homology verdict in the package:

* dense Smith normal form (`smith`) with recorded unimodular transforms
  and their inverses (self-verifying); its one pivot loop also enforces
  the divisibility chain d1 | d2 | ..., with no pass after it,
* one sparse unit-elimination loop (`_cancel_units`) over Z, F_p or Z/p^2.
  Over Z it cancels +-1 entries; over Z/q it cancels every entry prime to
  q, which over F_p is every nonzero entry.  Its pivots come first from a
  queue of free faces and coreductions (units alone in their row or
  column, whose cancellation adds no entries; Mrozek-Batko, DCG 41, 2009),
  and only then from a heap ordered by the Markowitz fill-in estimate.
  Every pivot goes through one step, `_cancel_pair`, a chain homotopy
  equivalence, so the pivot order can change the residue but no homology
  and no verdict.  Three entry points go through it: `morse_reduce`
  shrinks a whole chain complex to a homotopy-equivalent one (over Z, or
  over Z/p^2 for the Bockstein), consuming the boundary mapping it is
  handed, and returns its pivot record, which
  `morse_carry` replays to carry a chain map into the residue,
  `sparse_rank_and_factors` hands the unit-free residue of one matrix to
  dense Smith for its invariant factors, and `sparse_rank_mod_p` gives
  the rank over F_p, the only mod-p rank in the package.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import gcd


# ---------------------------------------------------------------------------
# dense helpers (lists of lists of python ints)
# ---------------------------------------------------------------------------

def zeros(m, n):
    return [[0] * n for _ in range(m)]


def eye(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_mul(A, B):
    if not A:
        return []
    n_inner = len(B)
    if A and len(A[0]) != n_inner:
        raise ValueError("shape mismatch in mat_mul")
    if not B:
        return [[] for _ in A]
    Bt = list(zip(*B))
    out = []
    for row in A:
        out.append([sum(x * y for x, y in zip(row, col)) for col in Bt])
    return out


# ---------------------------------------------------------------------------
# Smith normal form with transforms
# ---------------------------------------------------------------------------

class SmithDecomposition:
    """U * D * V == A with U, V unimodular and D = diag(d1 | d2 | ...).

    The inverses of U and V are recorded at construction time; unimodularity
    is thereby witnessed without any determinant computation.
    """

    __slots__ = ("U", "D", "V", "U_inv", "V_inv", "shape")

    def __init__(self, U, D, V, U_inv, V_inv, shape):
        self.U = U
        self.D = D
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.shape = shape

    def diagonal(self):
        m, n = self.shape
        return [self.D[i][i] for i in range(min(m, n))]

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)

    def invariant_factors(self):
        return [d for d in self.diagonal() if d != 0]

    def verify_product(self, A):
        """Check U*D*V == A, D diagonal, and the divisibility chain."""
        m, n = self.shape
        if len(A) != m or (m and len(A[0]) != n):
            return False
        # U*D is a column scaling, so only one full matrix product is needed
        r = min(m, n)
        UD = [[row[j] * self.D[j][j] if j < r else 0 for j in range(n)]
              for row in self.U]
        if mat_mul(UD, self.V) != A:
            return False
        diag = self.diagonal()
        for i, d in enumerate(diag):
            if d < 0:
                return False
            if i + 1 < len(diag) and diag[i + 1] != 0 and d != 0 \
                    and diag[i + 1] % d != 0:
                return False
            if d == 0 and i + 1 < len(diag) and diag[i + 1] != 0:
                return False
        for i in range(m):
            for j in range(n):
                if i != j and self.D[i][j] != 0:
                    return False
        return True

    def verify_inverses(self):
        """Check the recorded unimodularity witnesses U^-1 and V^-1."""
        m, n = self.shape
        return mat_mul(self.U, self.U_inv) == eye(m) and \
            mat_mul(self.V, self.V_inv) == eye(n)

    def verify(self, A):
        """Full check: product, chain, shape, and recorded inverses."""
        return self.verify_product(A) and self.verify_inverses()


def _pivot_search(D, t, m, n):
    """Smallest-magnitude pivot (entry growth control), Markowitz fill-in
    estimate as tie-break, then position, over the trailing submatrix."""
    row_nnz = [0] * m
    col_nnz = [0] * n
    for i in range(t, m):
        Di = D[i]
        for j in range(t, n):
            if Di[j]:
                row_nnz[i] += 1
                col_nnz[j] += 1
    best = None
    best_key = None
    for i in range(t, m):
        Di = D[i]
        for j in range(t, n):
            v = Di[j]
            if v:
                key = (abs(v), (row_nnz[i] - 1) * (col_nnz[j] - 1), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
                    if key[0] == 1 and key[1] == 0:
                        return best
    return best


def smith(A, with_transforms=True):
    """Smith normal form of an integer matrix (list of rows).

    Returns a SmithDecomposition; `verify` against the input will pass.
    Each pivot is the least-magnitude entry of the trailing block, divided
    into its row and column until both are clear and it divides the whole
    trailing block; so the diagonal comes out as the chain d1 | d2 | ....
    There is no repair pass after the loop.
    With `with_transforms=False` the U/V matrices are skipped (cheaper);
    the diagonal is still the true invariant-factor chain.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    for row in D:
        if len(row) != n:
            raise ValueError("ragged matrix")
    wt = with_transforms
    U = eye(m) if wt else None
    Ui = eye(m) if wt else None
    V = eye(n) if wt else None
    Vi = eye(n) if wt else None

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        if wt:
            for r in U:
                r[i], r[k] = r[k], r[i]
            Ui[i], Ui[k] = Ui[k], Ui[i]

    def col_swap(j, k):
        for r in D:
            r[j], r[k] = r[k], r[j]
        if wt:
            V[j], V[k] = V[k], V[j]
            for r in Vi:
                r[j], r[k] = r[k], r[j]

    def row_axpy(k, i, q):
        # row_k += q * row_i
        Dk, Di = D[k], D[i]
        for j in range(n):
            if Di[j]:
                Dk[j] += q * Di[j]
        if wt:
            for r in U:
                r[i] -= q * r[k]
            Uik, Uii = Ui[k], Ui[i]
            for j in range(m):
                if Uii[j]:
                    Uik[j] += q * Uii[j]

    def col_axpy(k, i, q):
        # col_k += q * col_i
        for r in D:
            if r[i]:
                r[k] += q * r[i]
        if wt:
            Vi_, Vk_ = V[i], V[k]
            for j in range(n):
                if Vk_[j]:
                    Vi_[j] -= q * Vk_[j]
            for r in Vi:
                if r[i]:
                    r[k] += q * r[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        if wt:
            for r in U:
                r[i] = -r[i]
            Ui[i] = [-x for x in Ui[i]]

    for t in range(min(m, n)):
        piv = _pivot_search(D, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # Euclidean descent: divide with remainder against the pivot; any
        # leftover remainder is strictly smaller, so re-pivoting terminates.
        # A clean descent must also leave D[t][t] dividing the trailing
        # block, which gives the chain d1 | d2 | ... (Cohen, Alg. 2.4.14):
        # else the row of an entry it does not divide is added to row t,
        # and the next descent leaves a smaller remainder there.  A unit
        # divides every entry, so most pivots skip that scan.
        while True:
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                a = D[i][t]
                if a:
                    q = a // p
                    if q:
                        row_axpy(i, t, -q)
                    if D[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                b = D[t][j]
                if b:
                    q = b // p
                    if q:
                        col_axpy(j, t, -q)
                    if D[t][j]:
                        dirty = True
            if not dirty:
                bad = None if abs(p) == 1 else next(
                    (i for i in range(t + 1, m)
                     if any(x % p for x in D[i][t + 1:])), None)
                if bad is None:
                    break
                row_axpy(t, bad, 1)
                continue
            piv = _pivot_search(D, t, m, n)
            pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
        if D[t][t] < 0:
            negate_row(t)

    return SmithDecomposition(U, D, V, Ui, Vi, (m, n))


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------

class SparseMat:
    """Column-major sparse integer matrix: cols[c] = {r: value}, with a row
    index rows[r] = {c: None} whose keys are the column ids of row r's
    entries, in the order they appeared.  No zero is stored and rows is
    exactly the transpose of cols: c is in rows[r] iff r is in cols[c],
    and no row is empty.  The index changes only when an entry appears or
    vanishes."""

    __slots__ = ("cols", "rows", "nrows", "ncols")

    def __init__(self, nrows, ncols):
        self.cols = {}
        self.rows = {}
        self.nrows = nrows
        self.ncols = ncols

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        M = cls(nrows, ncols)
        cols = M.cols
        for (r, c), v in entries.items():
            if v:
                col = cols.get(c)
                if col is None:
                    cols[c] = {r: v}
                else:
                    col[r] = v
                M._link(r, c)
        return M

    def _link(self, r, c):
        """Index a new entry at (r, c)."""
        row = self.rows.get(r)
        if row is None:
            self.rows[r] = {c: None}
        else:
            row[c] = None

    def _unlink(self, r, c):
        """Drop the vanished entry at (r, c) from the index."""
        row = self.rows[r]
        del row[c]
        if not row:
            del self.rows[r]

    def remove_col(self, c):
        for r in self.cols.pop(c, ()):
            self._unlink(r, c)

    def remove_row(self, r):
        for c in self.rows.pop(r, ()):
            col = self.cols[c]
            del col[r]
            if not col:
                del self.cols[c]

    def col_axpy(self, j, colc, q, p=None):
        """col_j += q * colc for a column dict colc {row: value}, reduced
        mod p when p is given (updates the row index)."""
        if q == 0:
            return
        colj = self.cols.setdefault(j, {})
        for r, v in colc.items():
            old = colj.get(r)
            nv = q * v if old is None else old + q * v
            if p is not None:
                nv %= p
            if nv:
                colj[r] = nv
                if old is None:
                    self._link(r, j)
            elif old is not None:
                del colj[r]
                self._unlink(r, j)
        if not colj:
            del self.cols[j]

    def reduce_mod(self, p):
        """Reduce every entry mod p, dropping the ones that vanish."""
        for c in list(self.cols):
            col = self.cols[c]
            for r in [r for r, v in col.items() if v % p == 0]:
                del col[r]
                self._unlink(r, c)
            for r in col:
                col[r] %= p
            if not col:
                del self.cols[c]


def _dense_from_sparse(M):
    """Extract the remaining entries as a dense matrix plus index maps."""
    live_rows = sorted(M.rows)
    live_cols = sorted(M.cols)
    ri = {r: i for i, r in enumerate(live_rows)}
    ci = {c: i for i, c in enumerate(live_cols)}
    A = zeros(len(live_rows), len(live_cols))
    for c, col in M.cols.items():
        for r, v in col.items():
            A[ri[r]][ci[c]] = v
    return A


# ---------------------------------------------------------------------------
# unit elimination: the one cancellation loop
# ---------------------------------------------------------------------------

def _is_unit(v, q):
    """+-1 over Z (q None); prime to q over Z/q."""
    return v == 1 or v == -1 or (q is not None and gcd(v, q) == 1)


def _markowitz(m, r, col):
    """Fill-in estimate (row nnz - 1) * (col nnz - 1) of the entry at row r
    of the column dict `col` of m."""
    return (len(m.rows[r]) - 1) * (len(col) - 1)


def _queue_singletons(queue, k, m, rows, cols):
    """Queue the given rows and columns of m = d_k that hold one entry."""
    queue.extend([(k, True, r) for r in rows if len(m.rows.get(r, ())) == 1])
    queue.extend([(k, False, c) for c in cols if len(m.cols.get(c, ())) == 1])


def _cancel_pair(mats, k, r, c, q, queue, heap):
    """The one cancellation step: cancel the unit at (r, c) of d_k.

    Clears row r from the other columns of d_k (col_j -= d[r][j] / v *
    col_c), drops column c and row r from d_k, the row of cell c from
    d_{k+1} and the column of cell r from d_{k-1}.  Every row and column
    left with one entry goes on `queue`; once the heap exists, the unit
    entries of the columns changed by a column operation go on it too.
    """
    m = mats[k]
    col = m.cols[c]
    others = [j for j in m.rows[r] if j != c]
    if len(col) > 1:
        # a one-entry column would only clear row r, as remove_row does
        v = col[r]
        inv = v if q is None else pow(v, -1, q)
        for j in others:
            m.col_axpy(j, col, -m.cols[j][r] * inv, q)
            colj = m.cols.get(j)
            if heap is not None and colj:
                for r2, v2 in colj.items():
                    if _is_unit(v2, q):
                        heapq.heappush(heap,
                                       (_markowitz(m, r2, colj), k, r2, j))
    m.remove_col(c)
    m.remove_row(r)
    _queue_singletons(queue, k, m, col, others)
    up = mats.get(k + 1)
    if up is not None:
        cols = up.rows.get(c, ())
        up.remove_row(c)
        _queue_singletons(queue, k + 1, up, (), cols)
    down = mats.get(k - 1)
    if down is not None:
        rows = down.cols.get(r, ())
        down.remove_col(r)
        _queue_singletons(queue, k - 1, down, rows, ())


def _cancel_units(mats, q=None):
    """Cancel unit entries of the boundary matrices `mats` (degree k ->
    SparseMat of d_k) in place; returns the pivots (k, row, col, column)
    in order, where column is the dict {row: value} of d_k's column col at
    its cancellation (the step pops it and never changes it afterwards).

    Over Z (q None) the units are the +-1 entries; over Z/q the entries
    must already be reduced mod q and the units are those prime to q (over
    F_p every nonzero entry).  Every pair goes through `_cancel_pair`, a
    basis change followed by the removal of an acyclic two-cell summand,
    which is a chain homotopy equivalence (over Z, or over Z/q).  So the
    order of the pairs can change the residue but never its homology, nor
    any verdict read from it.

    Pivots come from two sources.  A FIFO queue holds the rows and columns
    that were left with one entry; a queued unit is pivoted on if it is
    still alone when it comes off.  A unit alone in its row (a free face:
    cell r is a face of c only) needs no column operation at all.  A unit
    alone in its column (a coreduction: c has the one face r) would
    subtract a one-entry column, which only clears row r from the other
    columns.  So neither adds an entry anywhere: no fill-in.  A
    cancellation also drops a row of d_{k+1} and a column of d_{k-1}, so
    it queues new singletons in all three degrees.  Only when the queue
    runs dry does a pivot come off a heap keyed by the Markowitz fill-in
    estimate (row nnz - 1) * (col nnz - 1), then degree and position;
    stale keys are re-pushed.  The heap is built at its first use, from
    the unit entries that the queue left.

    The queue follows the index's insertion order, not hash order: rows
    and columns are queued in the order the matrices list them, and the
    ids of a row in the order its entries appeared.  So the pivot order is
    fixed by the order of the input entries alone.
    """
    queue = deque()
    for k, m in mats.items():
        _queue_singletons(queue, k, m, m.rows, m.cols)
    heap = None
    pairs = []
    while True:
        if queue:
            k, is_row, i = queue.popleft()
            m = mats[k]
            line = m.rows.get(i, ()) if is_row else m.cols.get(i, ())
            if len(line) != 1:
                continue
            (j,) = line
            r, c = (i, j) if is_row else (j, i)
            if not _is_unit(m.cols[c][r], q):
                continue
        else:
            if heap is None:
                heap = [(_markowitz(m, r, col), k, r, c)
                        for k, m in mats.items()
                        for c, col in m.cols.items()
                        for r, v in col.items() if _is_unit(v, q)]
                heapq.heapify(heap)
            if not heap:
                break
            cost, k, r, c = heapq.heappop(heap)
            m = mats[k]
            col = m.cols.get(c)
            if col is None or r not in col or not _is_unit(col[r], q):
                continue
            cur = _markowitz(m, r, col)
            if cur > cost:
                heapq.heappush(heap, (cur, k, r, c))
                continue
        pairs.append((k, r, c, m.cols[c]))
        _cancel_pair(mats, k, r, c, q, queue, heap)
    return pairs


def sparse_rank_and_factors(M):
    """(rank, invariant factors) of a SparseMat over Z.  Destroys M.

    Unit pivots are cancelled by the elimination loop; the unit-free
    residue is handed to dense Smith reduction.
    """
    rank = len(_cancel_units({1: M}))
    if not M.cols:
        return rank, [1] * rank
    S = smith(_dense_from_sparse(M), with_transforms=False)
    rest = S.invariant_factors()
    return rank + len(rest), [1] * rank + rest


def sparse_rank_mod_p(M, p):
    """Rank of a SparseMat over F_p.  Destroys M."""
    M.reduce_mod(p)
    return len(_cancel_units({1: M}, p))


def morse_reduce(ranks, boundaries, q=None):
    """Cancel the unit entries of the boundary matrices of a complex over
    Z, or over Z/q when q is given (entries are reduced mod q first).

    `ranks` maps degree -> number of cells, `boundaries` maps degree k to a
    COO dict {(row, col): v} for d_k : C_k -> C_{k-1}.  Returns reduced
    (ranks, boundaries, pivots) of a complex with identical homology: each
    cancellation is a chain homotopy equivalence over Z (so homology with
    every coefficient ring is preserved), or over Z/q.  `pivots` is the
    record of `_cancel_units`, which `morse_carry` replays.

    The elimination consumes `boundaries`: each degree is popped from it,
    in its order, as that degree's SparseMat is built, so a COO dict that
    nobody else holds is freed before the next degree is built, and the
    mapping is left empty.  The inner dicts are never changed.  A caller
    that keeps its complex passes a copy of the outer mapping, dict(C.d).
    """
    mats = {k: SparseMat.from_entries(ranks.get(k - 1, 0), ranks.get(k, 0),
                                      boundaries.pop(k))
            for k in list(boundaries)}
    if q is not None:
        for m in mats.values():
            m.reduce_mod(q)
    pivots = _cancel_units(mats, q)
    index = _residue_index(ranks, pivots)
    new_boundaries = {}
    for k, m in mats.items():
        rows, cols = index.get(k - 1, {}), index.get(k, {})
        new_boundaries[k] = {(rows[r], cols[c]): v
                             for c, col in m.cols.items()
                             for r, v in col.items()}
    return {k: len(idx) for k, idx in index.items()}, new_boundaries, pivots


def _residue_index(ranks, pivots):
    """Degree -> {old cell index: residue index} of the cells that no
    pivot cancelled; the residue keeps their order."""
    dead = {k: set() for k in ranks}
    for k, r, c, _ in pivots:
        dead[k].add(c)
        dead[k - 1].add(r)
    return {k: {old: i for i, old in enumerate(
                [j for j in range(n) if j not in dead[k]])}
            for k, n in ranks.items()}


def morse_carry(ranks, pivots, maps):
    """Carry a chain map into the residue of a Morse reduction over Z.

    `ranks` and `pivots` are a complex C's ranks and the pivot record that
    morse_reduce(ranks, ...) returned; `maps` sends degree m to the COO
    dict {(row, col): v} of F_m : X_m -> C_m.  Returns the COO dicts of
    pi o F in residue coordinates, where pi : C -> residue is the chain
    projection of the reduction.  A pivot (k, r, c, column) with unit v at
    row r is the quotient by the contractible pair {c, d(c)}: on C_{k-1}
    it sends y to y - (y[r] / v) * column, whose row r is zero, and on C_k
    it drops coordinate c.  Each pivot touches only the columns of F with
    an entry at r or c, the way it touched the other columns of d_k.
    """
    mats = {m: SparseMat.from_entries(
                ranks.get(m, 0), 1 + max((c for _, c in coo), default=-1),
                coo)
            for m, coo in maps.items()}
    for k, r, c, column in pivots:
        below = mats.get(k - 1)
        if below is not None:
            v = column[r]
            for j in list(below.rows.get(r, ())):
                below.col_axpy(j, column, -below.cols[j][r] * v)
        above = mats.get(k)
        if above is not None:
            above.remove_row(c)
    index = _residue_index(ranks, pivots)
    return {m: {(index[m][r], c): v for c, col in G.cols.items()
                for r, v in col.items()}
            for m, G in mats.items()}
