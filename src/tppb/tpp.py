"""Triple Product Property verification.

A triple (S, T, U) of non-empty subsets fulfills the TPP when every
product s*t*u = 1 with s, t, u drawn from the right quotients Q(S),
Q(T), Q(U) forces s = t = u = 1. The check scans pairs (s, t) and tests
u = (s*t)^-1 for membership in Q(U) by bit-vector lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .groups import ElementSet, Group, _bits, _mask

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
    """Q(X) = {x * y^-1 : x, y in X}, one gather over the table; it equals
    X exactly when X is a subgroup.  Q(X) has at least |X| elements, so
    X = G is returned as it is.  IndexOutOfRange when X holds an index
    outside G."""
    if len(X) == 0:
        raise errors.EmptySet("right quotient of the empty set")
    if X.mask >> G.order:
        top = errors.shown(X.mask.bit_length() - 1)
        raise errors.IndexOutOfRange(f"index {top} outside 0..{G.order - 1}")
    if X.size == G.order:
        return X
    idx = np.flatnonzero(_bits(X.mask, G.order))
    row = np.zeros(G.order, dtype=bool)
    row[G.table[idx[:, None], G.inv[idx]]] = True
    return ElementSet(_mask(row))


def satisfies_tpp(G: Group, S: ElementSet, T: ElementSet, U: ElementSet) -> TppVerdict:
    """Decide the TPP for (S, T, U); deterministic first-violation witness."""
    return _tpp(G, right_quotient(G, S), right_quotient(G, T), right_quotient(G, U))


def _tpp(G: Group, qs: ElementSet, qt: ElementSet, qu: ElementSet) -> TppVerdict:
    """The TPP verdict from the quotients Q(S), Q(T), Q(U), already taken."""
    mul, inv, u_mask = G.table.data, G.inv.tolist(), qu.mask
    t_list = list(qt.indices())
    for s in qs.indices():
        for t in t_list:
            u = inv[mul[s, t]]
            if (u_mask >> u) & 1 and (s or t):
                return TppVerdict(False, (s, t, u))
    return TppVerdict(True)
