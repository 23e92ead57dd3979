"""Triple Product Property verification.

A triple (S, T, U) of non-empty subsets fulfills the TPP when every
product s*t*u = 1 with s, t, u drawn from the right quotients Q(S),
Q(T), Q(U) forces s = t = u = 1. The check scans pairs (s, t) and tests
u = (s*t)^-1 for membership in Q(U) by bit-vector lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .groups import ElementSet, Group, _subgroup_generators

__all__ = [
    "TppVerdict",
    "right_quotient",
    "satisfies_tpp",
]


@dataclass(frozen=True)
class TppVerdict:
    """Outcome of a TPP check; a failing verdict carries the first
    violating (s, t, u) in row-major scan order over Q(S) x Q(T)."""

    holds: bool
    witness: tuple | None = None


def right_quotient(G: Group, X: ElementSet) -> ElementSet:
    """Q(X) = {x * y^-1 : x, y in X}; equals X when X is a subgroup.
    IndexOutOfRange when X holds an index outside G, whatever its
    `is_subgroup` flag says; NotASubgroup when X is flagged as a subgroup
    but is not closed, checked as `normal_core` checks it."""
    if len(X) == 0:
        raise errors.EmptySet("right quotient of the empty set")
    if X.mask >> G.order:
        top = errors.shown(X.mask.bit_length() - 1)
        raise errors.IndexOutOfRange(f"index {top} outside 0..{G.order - 1}")
    if X.is_subgroup:
        # {1} and G are subgroups of any group; any other flagged set is walked.
        if X.mask != 1 and X.size < G.order:
            _subgroup_generators(G, X)
        return ElementSet(X.mask, is_subgroup=True)
    mul = G.table.data
    idxs = list(X.indices())
    inv_idxs = G.inv[idxs].tolist()
    mask = 0
    for x in idxs:
        for iy in inv_idxs:
            mask |= 1 << mul[x, iy]
    return ElementSet(mask)


def satisfies_tpp(G: Group, S: ElementSet, T: ElementSet, U: ElementSet) -> TppVerdict:
    """Decide the TPP for (S, T, U); deterministic first-violation witness."""
    qs = right_quotient(G, S)
    qt = right_quotient(G, T)
    qu = right_quotient(G, U).mask
    mul, inv = G.table.data, G.inv.tolist()
    t_list = list(qt.indices())
    for s in qs.indices():
        for t in t_list:
            u = inv[mul[s, t]]
            if (qu >> u) & 1 and (s or t):
                return TppVerdict(False, (s, t, u))
    return TppVerdict(True)
