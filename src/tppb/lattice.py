"""Complete subgroup lattices and normal cores."""

from __future__ import annotations

import numpy as np

from . import errors
from .groups import ElementSet, Group, _coset_join, closure, conjugacy_classes, prime_power

__all__ = [
    "DEFAULT_LATTICE_LIMIT",
    "SubgroupLattice",
    "enumerate_subgroups",
    "normal_core",
    "normal_cores",
]

DEFAULT_LATTICE_LIMIT = 100000


class SubgroupLattice:
    """All subgroups of a group, sorted ascending by order with ties
    broken lexicographically by the sorted element-index sequence.

    Indexing is 1-based: lattice[1] is the trivial subgroup and
    lattice[count] is the whole group.
    """

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items

    @property
    def count(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> ElementSet:
        if not 1 <= i <= len(self.items):
            raise errors.IndexOutOfRange(f"index {i} outside 1..{len(self.items)}")
        return self.items[i - 1]

    def __repr__(self) -> str:
        return f"SubgroupLattice(count={len(self.items)})"


def _conjugate_masks(T, inv, members) -> set:
    """Masks of the conjugates x*K*x^-1 of the subgroup with the given
    member array, one table gather for every x at once."""
    n = len(T)
    conj = T[T[:, members], inv[:, None]]
    hit = np.zeros((n, n), dtype=bool)
    hit[np.arange(n)[:, None], conj] = True
    packed = np.packbits(hit, axis=1, bitorder="little")
    return {int.from_bytes(row.tobytes(), "little") for row in packed}


def enumerate_subgroups(G: Group, lattice_limit: int | None = None) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension over conjugacy
    classes of subgroups.

    Seeds are the cyclic subgroups of prime-power order.  A finite group
    is generated by its elements of prime-power order, so every subgroup K
    ends a chain 1 = K_0 < ... < K_m = K with K_i = <K_(i-1), g_i> and each
    g_i of prime-power order.  One representative per conjugacy class of
    subgroups is joined with every seed it does not contain.  That reaches
    every class: if K = <K', g> and R = x*K'*x^-1 represents the class of
    K', then x*K*x^-1 = <R, x*g*x^-1>, and x*g*x^-1 generates a seed.
    A join that gives a new subgroup K adds K's whole conjugacy class at
    once, as bit masks gathered from the table (x*y*x^-1 = T[T[x, y],
    inv[x]]), and queues K as the class representative.  A normal K is its
    own class and skips the gather: K is normal exactly when the union of
    its members' conjugacy classes is K.

    `lattice_limit` caps the number of subgroups; it is checked as each
    class is added, so LatticeLimitExceeded is raised exactly when the
    count would pass the limit.
    """
    limit = lattice_limit if lattice_limit is not None else DEFAULT_LATTICE_LIMIT
    mul, T = G.mul, G.table
    inv = np.asarray(G.inv)
    class_of = np.asarray(conjugacy_classes(G).class_of)
    class_size = np.bincount(class_of)
    seeds = {}
    for g in range(1, G.order):
        cyclic = closure(G, (g,))
        if prime_power(cyclic.size) is not None:
            seeds.setdefault(cyclic.mask, g)
    seeds = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    known = set()
    reps = []  # (member list, mask, generator tuple) per class

    def add_class(members, mask, gens):
        idx = np.asarray(members)
        touched = np.zeros(len(class_size), dtype=bool)
        touched[class_of[idx]] = True
        if class_size[touched].sum() == len(members):
            conjugates = (mask,)
        else:
            conjugates = _conjugate_masks(T, inv, idx)
        if len(known) + len(conjugates) > limit:
            raise errors.LatticeLimitExceeded(f"more than {limit} subgroups; raise the lattice limit")
        known.update(conjugates)
        reps.append((members, mask, gens))

    add_class([0], 1, ())
    # add_class appends to reps as this loop runs, so each new class is
    # joined in turn.
    for members, hmask, gens in reps:
        for smask, g in seeds:
            if smask & ~hmask == 0:
                continue
            kmembers, kmask = _coset_join(mul, members, hmask, gens + (g,))
            if kmask not in known:
                add_class(kmembers, kmask, gens + (g,))

    items = [ElementSet(mask, is_subgroup=True) for mask in known]
    items.sort(key=lambda s: (s.size, tuple(s.indices())))
    return SubgroupLattice(items)


def _require_subgroup(G: Group, S: ElementSet):
    H = closure(G, S.indices())
    if H != S:
        raise errors.NotASubgroup(f"set of {len(S)} elements generates a subgroup of order {len(H)}")


def _cores(G: Group, subgroups) -> list:
    """Normal core of each subgroup.  An element lies in every conjugate
    g*S*g^-1 exactly when its whole conjugacy class lies in S, so the core
    is the union of the classes inside S.  The sets must be subgroups; only
    callers passing outside sets check that."""
    classes = [c.mask for c in conjugacy_classes(G).classes]
    cores = []
    for S in subgroups:
        core = 0
        for c in classes:
            if c & ~S.mask == 0:
                core |= c
        cores.append(ElementSet(core, is_subgroup=True))
    return cores


def normal_core(G: Group, S: ElementSet) -> ElementSet:
    """Largest normal subgroup of G contained in S; NotASubgroup when S is
    not closed, whatever its `is_subgroup` flag says."""
    _require_subgroup(G, S)
    return _cores(G, [S])[0]


def normal_cores(G: Group, lattice: SubgroupLattice) -> list:
    """Normal core of every lattice member, aligned with lattice.items;
    the conjugacy classes are computed once."""
    return _cores(G, lattice.items)
