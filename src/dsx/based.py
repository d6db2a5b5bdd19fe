"""Quotients and finite models of based Delta-sets.

A based Delta-set is a `delta.DeltaSet` built with based=True: only its
non-basepoint simplices are stored, and a face entry of None denotes the
basepoint.  Validation, morphisms, skeleta and pushouts are those of
`delta`, which read None as the basepoint.

`based_quotient` collapses a face-closed set of simplices to the basepoint.
`finite_model` produces the honest finite (unbased) Delta-set obtained by
materializing one basepoint cell per dimension up to a chosen level; this is
the skeleton finite presentation used to bridge into the unbased machinery
(expansion certificates, geometric products of presentations).
"""

from __future__ import annotations

from .delta import DeltaSet, validate


class BasedDeltaSet(DeltaSet):
    """`DeltaSet(simplices, faces, sort_keys, based=True)` under its old
    name, kept for callers that still bind it."""

    __slots__ = ()

    def __init__(self, simplices, faces, sort_keys=None):
        super().__init__(simplices, faces, sort_keys, based=True)


validate_based = validate


def based_quotient(K, collapse):
    """Collapse a face-closed set of non-basepoint simplices to the basepoint."""
    collapse = frozenset(collapse)
    for s in collapse:
        for f in K.faces[s]:
            if f is not None and f not in collapse:
                raise ValueError("collapsed set must be face-closed")
    simplices = {}
    faces = {}
    keys = {}
    for d, s in K.all_cells():
        if s in collapse:
            continue
        simplices.setdefault(d, []).append(s)
        faces[s] = tuple(None if (f is None or f in collapse) else f
                         for f in K.faces[s])
        keys[s] = K.sort_key(s)
    return DeltaSet(simplices, faces, sort_keys=keys, based=True)


# ---------------------------------------------------------------------------
# bridges to the unbased world
# ---------------------------------------------------------------------------

BASEPOINT_PREFIX = "*"


def basepoint_name(d):
    return f"{BASEPOINT_PREFIX}{d}"


def finite_model(K, up_to=None):
    """Finite unbased model: the non-basepoint cells of dimension <= up_to
    plus one explicit basepoint cell per dimension.

    This is the skeleton finite presentation r : R -> K; the preimage of the
    basepoints is the sub-Delta-set of the `*d` cells.  Defaults to the top
    non-basepoint dimension.
    """
    m = K.top_dim if up_to is None else up_to
    m = max(m, 0)
    simplices = {d: [basepoint_name(d)] for d in range(m + 1)}
    faces = {basepoint_name(d): tuple(basepoint_name(d - 1) for _ in range(d + 1))
             for d in range(1, m + 1)}
    keys = {basepoint_name(d): (0,) for d in range(m + 1)}
    for d, s in K.all_cells():
        if d > m:
            continue
        simplices[d].append(s)
        faces[s] = tuple(basepoint_name(d - 1) if f is None else f
                         for f in K.faces[s])
        keys[s] = (1, K.sort_key(s))
    return DeltaSet(simplices, faces, sort_keys=keys)
