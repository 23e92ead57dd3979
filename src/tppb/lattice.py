"""Complete subgroup lattices, with each member's normal core kept from
the conjugates that the lattice walk gathers."""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import and_

import numpy as np

from . import errors
from .groups import (
    ElementSet,
    Group,
    _bits,
    _conjugates,
    _coset_join,
    _masks,
    _packed,
    check_positive_int,
    conjugacy_classes,
    cyclic_subgroups,
    derived_subgroup,
    prime_power,
)

__all__ = [
    "DEFAULT_LATTICE_LIMIT",
    "SubgroupLattice",
    "enumerate_subgroups",
    "normal_cores",
    "perfect_residual",
]

DEFAULT_LATTICE_LIMIT = 100000
# Cells of the boolean arrays built per block of queued class
# representatives: its membership, normalizer and gather-mark rows hold
# block x order cells, 32 KiB each, and its seed tests no more, since
# distinct seeds have distinct generators.
LATTICE_CELLS = 1 << 15


class SubgroupLattice:
    """All subgroups of a group, sorted ascending by order with ties
    broken lexicographically by the sorted element-index sequence.

    Indexing is 1-based: lattice[1] is the trivial subgroup and
    lattice[count] is the whole group.

    `classes`, `cores` and `orders` are int64 arrays aligned with
    `items`.  `classes` holds the number of each member's conjugacy class
    of subgroups.  Classes are numbered 0, 1, ... in the order of their
    least-index members, so the trivial subgroup is in class 0 and a
    member is the least of its class exactly when its number is new.
    `cores` holds the 0-based index in `items` of each member's normal
    core, itself a member (a normal subgroup): the members of one class
    share their core, and member i is normal exactly when cores[i] == i.
    `orders` holds each member's order.
    """

    __slots__ = ("items", "classes", "cores", "orders")

    def __init__(self, items, classes, cores, orders):
        self.items = items
        self.classes = classes
        self.cores = cores
        self.orders = orders

    @property
    def count(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> ElementSet:
        if not 1 <= i <= len(self.items):
            raise errors.IndexOutOfRange(f"index {i} outside 1..{len(self.items)}")
        return self.items[i - 1]

    def __repr__(self) -> str:
        return f"SubgroupLattice(count={len(self.items)})"


def _subgroup_class(T, inv, mask, gens, support):
    """The masks of the conjugates of K = <gens> (mask `mask`) and the
    membership row of its normalizer, or None when K is normal;
    `support` is the OR of the masks of the generators' conjugacy
    classes.  See `enumerate_subgroups` for why the generators suffice."""
    if support & ~mask == 0:
        return (mask,), None
    n = len(T)
    inside = _bits(mask, n)
    normalizer = inside[_conjugates(T, inv, list(gens))].all(axis=1)
    in_normalizer = np.flatnonzero(normalizer)
    reps = np.empty(n // len(in_normalizer), dtype=np.int64)
    unmarked = np.ones(n, dtype=bool)
    x = 0
    for i in range(len(reps)):
        x += int(unmarked[x:].argmax())
        reps[i] = x
        unmarked[T[x, in_normalizer]] = False
    conj = T[T[reps[:, None], np.flatnonzero(inside)], inv[reps][:, None]]
    hit = np.zeros((len(reps), n), dtype=bool)
    hit[np.arange(len(reps))[:, None], conj] = True
    return _masks(hit), normalizer


def _gather_extension(rows, members, mask, bit) -> int:
    """Mask of R<g> = R ∪ g*R ∪ ... ∪ g^(p-1)*R, given R's member list
    and mask and the table rows of the powers g^1..g^(p-1) of a g that
    normalizes R with g^p in R (so g^j*R = R*g^j), each row a slice of the
    flat row-major table; `bit[i]` is 1 << i.  The cosets are read off
    the rows, with no search for their representatives."""
    for row in rows:
        for h in members:
            mask |= bit[row[h]]
    return mask


# Byte b with its eight bits in reverse order and then inverted: its bits
# unpacked from the highest and packed back, inverted, from the lowest.
_INVERTED_REVERSED_BYTES = np.packbits(
    ~np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).view(bool), axis=1, bitorder="little"
).tobytes()


def _lattice_order(masks, sizes, n: int):
    """The permutation that sorts masks over n elements, of sizes `sizes`
    (an int64 array), by size and then by ascending index tuples: one
    argsort over a byte key per mask (see `enumerate_subgroups`)."""
    lead, width = -(-n.bit_length() // 8), -(-n // 8)
    key = np.empty((len(masks), lead + width), dtype=np.uint8)
    # The big-endian bytes of each size, at most n: two for 256 <= n < 2^16.
    key[:, :lead] = sizes.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - lead :]
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    key[:, lead:] = np.frombuffer(data.translate(_INVERTED_REVERSED_BYTES), dtype=np.uint8).reshape(-1, width)
    return key.view(f"V{lead + width}").ravel().argsort()


def perfect_residual(G: Group) -> ElementSet:
    """The last term G^(∞) of the derived series, the largest perfect
    subgroup of G.  The series starts from the G' stored on G."""
    D = derived_subgroup(G)
    while (E := derived_subgroup(G, D)).size < D.size:
        D = E
    return D


def enumerate_subgroups(G: Group, lattice_limit: int | None = None) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension over conjugacy
    classes of subgroups.

    Seeds are the cyclic subgroups <g> of prime-power order p^k, read
    from the masks `cyclic_subgroups` keeps on G.  One
    representative R per conjugacy class of subgroups is extended by each
    seed with g outside R, in one of two ways:

    - gather: when g normalizes R and g^p lies in R, K = <R, g> is
      R ∪ Rg ∪ ... ∪ Rg^(p-1), of prime index p over R, read off the
      table.  Any g' in K outside R gives <R, g'> = K, so K is gathered
      once, and the gather seeds whose generators it holds are dropped;
    - coset search: otherwise, and only when R is nonabelian and R and g
      both lie in the perfect residual P = G^(∞), K = <R, g> by
      `_coset_join`, once per N(R)-orbit of such seeds, at the orbit's
      least seed.  The join lies in P, and a perfect group has no proper
      subgroup of index m <= 4, since P would map onto a nontrivial
      subgroup of the solvable S_m; so once the join holds more than
      |P|/5 elements, it is P and the search stops.

    Every other pair is skipped, and still every subgroup is reached.
    Both steps commute with conjugation: if K = <K', g> and
    R = x*K'*x^-1 represents the class of K', then
    x*K*x^-1 = <R, x*g*x^-1>, where x*g*x^-1 generates a seed and meets
    the same condition as g.  So a class is reached once some chain of
    steps from 1 ends in it; a gather seed that is dropped only repeats
    a known extension.  So does a search seed g that is not the least of
    its orbit: for x in N(R), <R, x*g*x^-1> = x*<R, g>*x^-1 is in the
    class of <R, g>, and x*g*x^-1 again lies outside R, inside P and
    fails the gather test, so the orbit's least seed, searched first,
    reaches that class.

    Any K lies above its own perfect residual K^(∞), a subgroup of P,
    and K/K^(∞) is solvable, so a composition series of it lifts to a
    chain K^(∞) = K_0 ⊲ K_1 ⊲ ... ⊲ K_m = K in which each index is a
    prime p.  Take y in K_(i+1) outside K_i.  Its image generates
    K_(i+1)/K_i, of order p, and so does the image of its p-part g, since
    the rest of y has order prime to p.  Then g normalizes K_i, g^p lies
    in K_i, and K_(i+1) = <K_i, g> is a gather.  The same holds for the
    seed's own generator, a power of g that generates <g>.

    So joins are needed only to reach the perfect subgroups.  A perfect
    Q != 1 is <R, g> for any maximal subgroup R of Q and any seed
    generator g in Q outside R.  Such a g exists: an element of Q
    outside R is the product of its prime-power parts, which cannot all
    lie in R, and the seed of a part outside R has its generator outside
    R.  R is nonabelian, since a finite group with an abelian maximal
    subgroup is solvable (Herstein, Proc. AMS 9, 1958).  g fails the
    gather test, or else R would be normal of prime index in the perfect
    Q.  By induction on the order, the class of R is reached, and the
    conjugation argument above carries the join to its representative.
    Abelian-ness is a class invariant, read off the representative's
    recorded generators, which commute pairwise exactly when R is
    abelian; the trivial class, with none, counts as abelian.  When G is
    solvable, P = 1 and no coset search runs.

    A representative R inside the centre Z = Z(G) gathers only by seeds
    above its level, so each subgroup of Z is gathered once.  The chain
    1 = Z_0 < Z_1 < ... < Z_r = Z is built once, without a counted
    gather: Z_(i+1) = Z_i<z> for each central seed generator z outside
    Z_i, in seed order.  The seed of z^p has smaller order and sorts
    earlier, so z^p lies in Z_i and Z_i<z> has index p over Z_i; every
    central seed generator ends in Z_r, and Z is generated by its
    elements of prime-power order, so Z_r = Z.  An element's level is
    the least i with the element in Z_i, and r + 1 outside Z.  The level
    of R, the least i with R inside Z_i, is the largest level of its
    recorded generators (0 for the trivial group); it is r + 1 exactly
    when R is not central, and such an R gathers as before.  Still every
    subgroup K is reached:

    - K inside Z, K != 1, of level t: R = K ∩ Z_(t-1) has index p in K,
      as K/R embeds in Z_t/Z_(t-1) of order p.  The p-part of any
      element of K outside R has level t, and so has the generator g of
      its seed; g is central with g^p in R, so K = R<g> is a gather, and
      R, normal, is its own class.  If also K = R'<g'> with g' above the
      level of R', then g' has level t and R' lies in K ∩ Z_(t-1) = R,
      of the same index p, so R' = R.  R is abelian and is never joined,
      so K is gathered exactly once.
    - K outside Z with K^(∞) != 1: the chain of gathers from K^(∞)
      above runs through subgroups that hold the perfect K^(∞) != 1,
      so none of them lies in the abelian Z.
    - K outside Z and solvable: K ∩ Z is normal in K, so a composition
      series of K/(K ∩ Z) lifts to a chain of prime-index gathers from
      K ∩ Z.  Its first seed generator lies in K outside K ∩ Z, so it is
      not central and has level r + 1, above that of any central R;
      every later step starts outside Z.

    Conjugation fixes every element of Z, so it fixes Z and every level,
    and the conjugation argument above carries each step to the class
    representative as before.  So the counts do not depend on the chain
    or on the numbering: the subgroups of Z other than 1 take one gather
    each, and a central R still runs every noncentral seed.

    A new subgroup K = <gens> (the seeds' generators along its chain)
    adds its whole conjugacy class at once and is queued as the class
    representative.  K is normal, its own class, exactly when the
    conjugacy class of each generator lies in K: then x*K*x^-1 =
    <x*g*x^-1 : g in gens> lies in K for every x.  The OR of those class
    masks, the support, is set once per class, as the parent's support
    ORed with the class mask of the new generator, so the test is one
    AND.  Otherwise its normalizer is read from the generators alone: x
    normalizes K exactly when every x*g*x^-1 lies in K, because
    conjugation by x is an automorphism, so x*<gens>*x^-1 lies in K and,
    having K's order, is K.  That is one n x |gens| gather, not n x |K|.
    x and x*m for m in N(K) give the same conjugate, so the conjugates
    are gathered from the table (x*y*x^-1 = T[T[x, y], inv[x]]) only at
    the least element of each left coset x*N(K): the least x not yet
    marked, whose coset, one row T[x, N(K)], is then marked, |G:N(K)|
    times in all.  The class records are parallel lists, one entry per
    class: the representative's mask, its normalizer row (None when
    normal), its generators, its support, its level (the larger of the
    parent's level and the new generator's), its order and its normal
    core, the AND of the conjugate masks, the mask itself when normal.

    The queue is read in blocks of representatives of at most
    LATTICE_CELLS cells (block x n), so the membership rows, the member
    lists and the gather and search tests are built once per block; its
    normalizer rows start all True and only non-normal rows are written
    in.  The join screen (nonabelian, inside P) runs only on rows that
    still hold search seeds, none when G is solvable.  The generators of
    each representative's gather seeds are marked in a block x n array,
    whose rows are packed to one int per representative (`_masks`).  The
    walk takes the lowest marked generator g, gathers K = R<g> and clears
    K from the marks, so it visits only the extensions it runs.  The
    search seeds, the least of their orbits, follow with no such test: a
    seed in a gathered K = R<g'> normalizes R, and its p-th power lies in
    R since K/R has order p, so it is a gather seed and never a search
    seed.

    This order may find a class first at another of its members, with
    other generators, than a walk by ascending seeds would.  The results
    do not depend on it: the lattice, `classes` and `cores` are sorted
    and renumbered after the walk.  Nor does the work: the joins and
    gathers add up, over the classes, the N(R)-orbits of R's search
    seeds and the distinct prime-index extensions R<g> of R by the seeds
    it may gather by, and conjugation by x carries both to those of
    x*R*x^-1.

    The lattice is sorted by size, ties broken by the ascending index
    tuples.  Two masks A and B of one size agree below the lowest bit of
    A ^ B, and the one holding that bit has the smaller tuple.  Reversing
    the bits makes that bit the highest one in which they differ, so the
    mask holding it has the larger reversed value, and inverting every
    bit makes it the smaller.  So one argsort over a byte key per mask
    (`_lattice_order`), the big-endian bytes of the size and then the
    inverted bytes of the bit-reversed mask, compared as unsigned bytes,
    gives the same order without listing any indices.  The little-endian
    bytes of a mask, each reversed and inverted by a byte table, are those
    bytes.  The sizes come from the class records, one per class, and
    become `SubgroupLattice.orders`.  Each mask keeps the class it was
    added with, so the sorted lattice records every member's class and
    core (`SubgroupLattice.classes`, `SubgroupLattice.cores`) in bulk,
    with no conjugation after the walk: the first position of each class
    in the sorted lattice is its least member, which numbers it, and a
    core, normal, is the one member of its class, so that position is
    the core's index.

    `lattice_limit` caps the number of subgroups; it must be an integer
    >= 1, else BadParameter.  It is checked as each class is added, so
    LatticeLimitExceeded is raised exactly when the count would pass the
    limit.
    """
    limit = DEFAULT_LATTICE_LIMIT
    if lattice_limit is not None:
        limit = check_positive_int(lattice_limit, "lattice limit")
    n, T, inv = G.order, G.table, G.inv
    mul, flat, bit = T.data, T.reshape(-1).data, [1 << i for i in range(n)]
    partition = conjugacy_classes(G)
    orders = [cyclic.bit_count() for cyclic in cyclic_subgroups(G)]
    prime_of = {order: prime_power(order) for order in set(orders)}
    seeds = {}
    for g, cyclic in enumerate(cyclic_subgroups(G)):
        if g and prime_of[orders[g]] is not None:
            seeds.setdefault(cyclic, g)
    seeds = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    # power_rows[g]: the table rows of g^1..g^(p-1) for each seed generator
    # g, p the prime of the seed <g>; roots: g^p per seed.
    power_rows, roots = {}, []
    for _, g in seeds:
        x, rows = g, []
        for _ in range(prime_of[orders[g]][0] - 1):
            rows.append(flat[x * n : (x + 1) * n])
            x = mul[x, g]
        power_rows[g] = rows
        roots.append(x)
    # level[x]: the least i with x in Z_i of the central chain, r + 1
    # outside Z(G); above[i]: the seed generators of level above i, and
    # above[r + 1] every bit.
    centre = sum(c.mask for c in partition.classes if c.size == 1)
    level, chain = [-1] * n, [0]
    level[0] = r = 0
    for _, z in seeds:
        if centre >> z & 1 and level[z] < 0:
            r += 1
            cosets = [row[h] for row in power_rows[z] for h in chain]
            for x in cosets:
                level[x] = r
            chain += cosets
    level = [r + 1 if i < 0 else i for i in level]
    above = [sum(bit[g] for _, g in seeds if level[g] > i) for i in range(r + 1)] + [-1]
    gen_idx = np.asarray([g for _, g in seeds], dtype=np.int64)
    root_idx = np.asarray(roots, dtype=np.int64)
    index = {smask: s for s, (smask, _) in enumerate(seeds)}
    seed_of = np.asarray([index.get(cyclic, -1) for cyclic in cyclic_subgroups(G)])
    residual = perfect_residual(G).mask
    gen_in_residual = _bits(residual, n)[gen_idx]
    step = max(1, LATTICE_CELLS // n)

    # class_mask[g]: the mask of g's conjugacy class.
    class_mask = [partition.classes[c].mask for c in partition.class_of]
    known = {}  # mask -> its class's place in the records
    # Per class, aligned: the representative's mask, normalizer row (None
    # when normal), generators, support, level, order and normal core mask.
    rep_masks, normalizer_rows, rep_gens, supports, levels, sizes, cores = [], [], [], [], [], [], []

    def add_class(mask, gens, support, lvl):
        conjugates, normalizer = _subgroup_class(T, inv, mask, gens, support)
        if len(known) + len(conjugates) > limit:
            raise errors.LatticeLimitExceeded(f"more than {limit} subgroups; raise the lattice limit")
        known.update(dict.fromkeys(conjugates, len(rep_masks)))
        rep_masks.append(mask)
        normalizer_rows.append(normalizer)
        rep_gens.append(gens)
        supports.append(support)
        levels.append(lvl)
        sizes.append(mask.bit_count())
        cores.append(reduce(and_, conjugates))

    def extend(gens, support, lvl, g, kmask):
        add_class(kmask, gens + (g,), support | class_mask[g], max(lvl, level[g]))

    add_class(1, (), 0, 0)
    # add_class appends to the records as the blocks are walked, so each new
    # class is extended in turn, in a later block.
    head = 0
    while head < len(rep_masks):
        first, head = head, min(head + step, len(rep_masks))
        _, rows = _packed(rep_masks[first:head], n)
        normalizers = np.ones_like(rows)
        for i, row in enumerate(normalizer_rows[first:head]):
            if row is not None:
                normalizers[i] = row
        outside = ~rows[:, gen_idx]
        gather = outside & rows[:, root_idx] & normalizers[:, gen_idx]
        marked = np.zeros_like(rows)
        marked[:, gen_idx] = gather
        gathers = _masks(marked)  # per representative, its gather seeds' generators
        search = outside & gen_in_residual & ~gather
        for i in np.flatnonzero(search.any(axis=1)).tolist():
            # Joins run only from nonabelian representatives inside P.
            gens = rep_gens[first + i]
            if rep_masks[first + i] & ~residual or all(mul[a, b] == mul[b, a] for a in gens for b in gens):
                search[i] = False
                continue
            # x*<R, g>*x^-1 = <R, x*g*x^-1> for x in N(R): only the least
            # seed of each N(R)-orbit is searched.
            ids, xs = np.flatnonzero(search[i]), np.flatnonzero(normalizers[i])
            orbits = seed_of[T[T[xs[:, None], gen_idx[ids]], inv[xs][:, None]]]
            search[i, ids[orbits.min(axis=0) < ids]] = False
        at, seed_at = np.nonzero(search)
        starts = np.searchsorted(at, np.arange(head - first + 1)).tolist()
        search_gens = gen_idx[seed_at].tolist()
        members, ends = np.nonzero(rows)[1].tolist(), list(accumulate(sizes[first:head]))
        for i, c in enumerate(range(first, head)):
            # A central R gathers only by seeds above its level.
            rem = gathers[i] & above[levels[c]]
            lo, hi = starts[i], starts[i + 1]
            if not rem and lo == hi:
                continue
            hmask, gens, support, lvl = rep_masks[c], rep_gens[c], supports[c], levels[c]
            rmembers = members[ends[i] - sizes[c] : ends[i]]
            while rem:
                g = (rem & -rem).bit_length() - 1
                kmask = _gather_extension(power_rows[g], rmembers, hmask, bit)
                # Every other gather seed generator in K \ R gives this K.
                rem &= ~kmask
                if kmask not in known:
                    extend(gens, support, lvl, g, kmask)
            for g in search_gens[lo:hi]:
                kmask = _coset_join(mul, rmembers, gens + (g,), residual, 5)
                if kmask not in known:
                    extend(gens, support, lvl, g, kmask)

    masks = list(known)
    place = np.fromiter(known.values(), dtype=np.int64, count=len(masks))
    sizes = np.array(sizes, dtype=np.int64)[place]
    order = _lattice_order(masks, sizes, n)
    masks = list(map(masks.__getitem__, order.tolist()))
    place = place[order]
    # least[c]: the position of the least member of the class found c-th.
    # The classes are numbered again in the order of those members, so the
    # numbers do not depend on the order in which they were found.
    least = np.unique(place, return_index=True)[1]
    rank = least.argsort().argsort()
    # A normal core is a normal subgroup: a member whose class is itself.
    core_at = least[[known[core] for core in cores]]
    return SubgroupLattice([ElementSet(mask) for mask in masks], rank[place], core_at[place], sizes[order])


def normal_cores(G: Group, lattice: SubgroupLattice) -> np.ndarray:
    """The 0-based index in lattice.items of every member's normal core,
    aligned with lattice.items: the cores the lattice walk kept
    (`SubgroupLattice.cores`)."""
    return lattice.cores
