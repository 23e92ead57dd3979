"""Complete subgroup lattices, normality tests, and normal cores."""

from __future__ import annotations

from . import errors
from .groups import ElementSet, Group

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


def _cyclic_mask(G: Group, g: int) -> int:
    mask = 1
    x = g
    while x != 0:
        mask |= 1 << x
        x = G.mul[x][g]
    return mask


def _coset_join(mul, members, mask, multipliers):
    """Members and mask of <H, multipliers> by right-coset search.

    H is given by its member list and mask; multipliers must include a
    generating set of H. New coset representatives are found by right-
    multiplying known representatives, and each coset H*r is filled by
    multiplying every member of H into r.
    """
    kmask = mask
    kmembers = list(members)
    reps = [0]
    pos = 0
    while pos < len(reps):
        r = reps[pos]
        pos += 1
        for m in multipliers:
            cand = mul[r][m]
            if not (kmask >> cand) & 1:
                reps.append(cand)
                for h in members:
                    x = mul[h][cand]
                    kmask |= 1 << x
                    kmembers.append(x)
    return kmembers, kmask


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
        mask = _cyclic_mask(G, g)
        if mask not in seeds:
            seeds[mask] = g
    seed_items = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    # mask -> (member list, generator tuple)
    known = {1: ([0], ())}
    for mask, g in seed_items:
        members = [0] + [x for x in ElementSet(mask).indices() if x != 0]
        known[mask] = (members, (g,))
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
    if len(S) == 0 or 0 not in S:
        raise errors.NotASubgroup("set does not contain the identity")
    members = list(S.indices())
    for a in members:
        row = G.mul[a]
        for b in members:
            if row[b] not in S:
                raise errors.NotASubgroup(
                    f"set is not closed: {G.label_of(a)} * {G.label_of(b)} escapes"
                )


def is_normal(G: Group, S: ElementSet) -> bool:
    """True iff g*S*g^-1 = S for every g."""
    return normal_core(G, S) == S


def normal_core(G: Group, S: ElementSet) -> ElementSet:
    """Largest normal subgroup of G contained in S: the intersection of
    all conjugates g*S*g^-1."""
    _require_subgroup(G, S)
    mul = G.mul
    inv = G.inv
    members = list(S.indices())
    core = S.mask
    for g in range(1, G.order):
        if g in S:
            continue
        row = mul[g]
        ig = inv[g]
        conj = 0
        for s in members:
            conj |= 1 << mul[row[s]][ig]
        core &= conj
        if core == 1:
            break
    return ElementSet(core, is_subgroup=True)


def normal_cores(G: Group, lattice: SubgroupLattice) -> list:
    """Normal core of every lattice member, aligned with lattice.items."""
    return [normal_core(G, s) for s in lattice.items]
