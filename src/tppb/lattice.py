"""Complete subgroup lattices, normality tests, and normal cores."""

from __future__ import annotations

from . import errors
from .groups import ElementSet, Group, _coset_join, closure, conjugacy_classes

__all__ = [
    "DEFAULT_LATTICE_LIMIT",
    "SubgroupLattice",
    "enumerate_subgroups",
    "is_normal",
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


def enumerate_subgroups(G: Group, lattice_limit: int | None = None) -> SubgroupLattice:
    """Enumerate every subgroup of G.

    Seeds with all cyclic subgroups, then repeatedly joins known
    subgroups with cyclic seeds until no new subgroup appears. Joining
    against cyclic seeds only reaches the same fixpoint as pairwise
    joins because any join decomposes into a chain of single-generator
    extensions.
    """
    limit = lattice_limit if lattice_limit is not None else DEFAULT_LATTICE_LIMIT
    mul = G.mul

    seeds = {}
    for g in range(1, G.order):
        seeds.setdefault(closure(G, (g,)).mask, g)
    seed_items = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    # mask -> (member list, generator tuple)
    known = {1: ([0], ())}
    for mask, g in seed_items:
        known[mask] = (list(ElementSet(mask).indices()), (g,))
    queue = list(known.keys())

    while queue:
        hmask = queue.pop()
        members, gens = known[hmask]
        for smask, g in seed_items:
            if smask & ~hmask == 0:
                continue
            kmembers, kmask = _coset_join(mul, members, hmask, gens + (g,))
            if kmask not in known:
                if len(known) + 1 > limit:
                    raise errors.LatticeLimitExceeded(
                        f"more than {limit} subgroups; raise the lattice limit"
                    )
                known[kmask] = (kmembers, gens + (g,))
                queue.append(kmask)

    items = [ElementSet(mask, is_subgroup=True) for mask in known]
    items.sort(key=lambda s: (s.size, tuple(s.indices())))
    return SubgroupLattice(items)


def _require_subgroup(G: Group, S: ElementSet):
    H = closure(G, S.indices())
    if H != S:
        raise errors.NotASubgroup(f"set of {len(S)} elements generates a subgroup of order {len(H)}")


def is_normal(G: Group, S: ElementSet) -> bool:
    """True iff g*S*g^-1 = S for every g."""
    return normal_core(G, S) == S


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
