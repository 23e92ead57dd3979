"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a library quantity by a different route:
definitional scans, unpruned enumeration, or classical character
inner products. They are deliberately slow and simple.
"""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from tppb import errors
from tppb.bounds import BetaResult, HBound, admissible_profiles
from tppb.chars import _rref_mod, d_sum_int, d_sum_real
from tppb.groups import (
    ElementSet,
    _conjugates,
    _mask,
    closure,
    conjugacy_classes,
    from_permutation_generators,
)

__all__ = [
    "TppTriple",
    "class_union_core",
    "conjugate_intersection_core",
    "delta_index_based",
    "per_member_t",
    "per_member_delta_by_order",
    "scan_N",
    "per_index_h",
    "element_order",
    "orbit_loop_partition",
    "random_generators",
    "renumbered",
    "tuple_closure",
    "dicyclic_by_relations",
    "permutation_table",
    "quotient_set",
    "definitional_tpp",
    "brute_force_subgroup_masks",
    "plain_closure",
    "cyclic_join_lattice",
    "class_union_is_normal",
    "commutator_set_derived_subgroup",
    "derived_series_residual",
    "naive_beta_over_subgroups",
    "quotient_tpp",
    "per_triple_search_beta_g",
    "s4_degrees_by_inner_products",
    "class_matrices_double_loop",
    "DenseClassAlgebra",
    "scan_split_lines",
    "grid_omega_bound",
]


@dataclass(frozen=True)
class TppTriple:
    """Subset triple with its size |S|*|T|*|U|."""

    S: ElementSet
    T: ElementSet
    U: ElementSet

    def __post_init__(self):
        if len(self.S) == 0 or len(self.T) == 0 or len(self.U) == 0:
            raise errors.EmptySet("TPP triple components must be non-empty")

    @property
    def size(self) -> int:
        return len(self.S) * len(self.T) * len(self.U)


def delta_index_based(orders, i: int, group_order: int):
    """Audit variant of the order-relaxed delta of `bounds._delta_by_order`,
    using strict positions 1 < k < j < i over an explicit ascending-by-order
    arrangement; None when empty."""
    si = orders[i - 1]
    best = None
    for j in range(3, i):
        for k in range(2, j):
            a, b = orders[j - 1], orders[k - 1]
            if si * (a + b - 1) <= group_order:
                if best is None or a * b > best:
                    best = a * b
    return best


def per_member_t(G, lattice) -> int:
    """`bounds.compute_t` from a Counter over len(s) of every proper
    nontrivial member."""
    n = G.order
    counts = Counter(len(s) for s in lattice.items if 1 < len(s) < n)
    return max([n] + [a * b * c for a, b, c in admissible_profiles(counts, n)])


def per_member_delta_by_order(G, lattice) -> dict:
    """`bounds._delta_by_order` from a Counter over len(s) of every
    nontrivial member."""
    counts = Counter(len(s) for s in lattice.items if len(s) > 1)
    best = {}
    for a, b, c in admissible_profiles(counts, G.order):
        best[a] = max(best.get(a, 0), b * c)
    return best


def scan_N(G, lattice) -> int:
    """`bounds.compute_N` by scanning the members in index order up to the
    first that fails |S_i|*(|S_2|+|S_3|-1) <= |G|."""
    items = lattice.items
    if len(items) < 3:
        return 1
    m = len(items[1]) + len(items[2]) - 1
    best = 0
    for idx, s in enumerate(items, start=1):
        if len(s) * m > G.order:
            break
        best = idx
    return best


def per_index_h(G, lattice, cores) -> HBound:
    """`bounds.compute_h` one candidate index at a time, with `scan_N` and
    `per_member_delta_by_order`; a candidate without a delta is a
    KeyError.  `cores` holds the lattice index of each member's core, whose
    size is read as the length of that member."""
    n = G.order
    n_cap = scan_N(G, lattice)
    delta_of = per_member_delta_by_order(G, lattice)
    rows = []
    for i, S, c in zip(range(4, n_cap + 1), lattice.items[3:], cores[3:]):
        si, core = len(S), len(lattice.items[c])
        left = (n * si) // core
        delta = delta_of[si]
        right = si * delta
        rows.append([i, si, core, delta, left, right, min(left, right)])
    b = max((row[6] for row in rows), default=None)
    h = n if b is None else max(b, n)
    return HBound(b=b, h=h, candidates=np.array(rows, dtype=np.int64).reshape(-1, 7), N=n_cap)


def conjugate_intersection_core(G, S) -> int:
    """Mask of the normal core of subgroup S as the intersection of the
    conjugates g*S*g^-1 over every g outside S."""
    mul = G.table.tolist()
    inv = G.inv.tolist()
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
    return core


def element_order(G, g: int) -> int:
    times_g = G.table[:, g].tolist()
    k = 1
    x = g
    while x != 0:
        x = times_g[x]
        k += 1
    return k


def orbit_loop_partition(G):
    """Class masks and element -> class map of the conjugacy partition, by
    the orbit {g*x*g^-1 : g in G} of each element x not yet placed, found
    one product at a time; classes are numbered by their least elements."""
    mul, inv = G.table.tolist(), G.inv.tolist()
    class_of = [-1] * G.order
    classes = []
    for x in range(G.order):
        if class_of[x] >= 0:
            continue
        orbit = {mul[mul[g][x]][inv[g]] for g in range(G.order)}
        for y in orbit:
            class_of[y] = len(classes)
        classes.append(sum(1 << y for y in orbit))
    return classes, class_of


def random_generators(G, seed):
    """Random elements of G, drawn until they generate it, as one-line
    permutations (1-based images) of the elements of G by left
    multiplication."""
    rng = random.Random(seed)
    gens = []
    while len(closure(G, gens)) < G.order:
        gens.append(rng.randrange(1, G.order))
    mul = G.table.tolist()
    return [[mul[g][x] + 1 for x in range(G.order)] for g in gens]


def renumbered(G, seed):
    """G rebuilt from random elements that generate it, acting on G by left
    multiplication, so the breadth-first element numbering follows the seed."""
    return from_permutation_generators(G.order, random_generators(G, seed))


def tuple_closure(degree: int, gens, order_limit: int):
    """`groups.from_permutation_generators` one product at a time: each
    element, in discovery order, is composed as a tuple with every
    generator in turn, (g * x)(i) = g(x(i)), and a product not seen before
    is the next element.  Returns the table, the inverses looked up by
    value, and the one-line labels (1-based images); past the limit it
    raises OrderLimitExceeded with the count the new element would make."""
    perms = [tuple(i - 1 for i in g) for g in gens]
    identity = tuple(range(degree))
    index = {identity: 0}
    elems = [identity]
    parent, via = [0], [0]
    # left[k][y] = index of perms[k] * elems[y]
    left = [[] for _ in perms]
    for pos, cur in enumerate(elems):
        for k, g in enumerate(perms):
            new = tuple(g[c] for c in cur)
            if new not in index:
                if len(elems) + 1 > order_limit:
                    raise errors.OrderLimitExceeded(
                        f"closure exceeds order limit {order_limit}",
                        partial_count=len(elems) + 1,
                    )
                index[new] = len(elems)
                elems.append(new)
                parent.append(pos)
                via.append(k)
            left[k].append(index[new])
    n = len(elems)
    table = [list(range(n))]
    for x in range(1, n):
        table.append([left[via[x]][y] for y in table[parent[x]]])
    inv = []
    for p in elems:
        q = [0] * degree
        for i, image in enumerate(p):
            q[image] = i
        inv.append(index[tuple(q)])
    labels = [" ".join(str(i + 1) for i in p) for p in elems]
    return table, inv, labels


def dicyclic_by_relations(m: int):
    """The left-regular images of the dicyclic generators a and b, one
    product at a time from the relations: element a^i b^j has index
    i + (m/2)*j, a has order m/2 and b^2 = a^(m/4)."""
    half = m // 2
    quarter = m // 4

    def mul_rule(i, j, k, l):
        if j == 0:
            return (i + k) % half, l
        if l == 0:
            return (i - k) % half, 1
        return (i - k + quarter) % half, 0

    def left_mult(i, j):
        images = [0] * m
        for k in range(half):
            for l in (0, 1):
                ri, rj = mul_rule(i, j, k, l)
                images[k + half * l] = ri + half * rj + 1
        return images

    return [left_mult(1, 0), left_mult(0, 1)]


def label_perms(G):
    """0-based image tuples parsed back from the one-line labels of a
    permutation group (1-based images), or None for an unlabeled group."""
    if G.images is None:
        return None
    return [tuple(int(x) - 1 for x in G.label_of(i).split()) for i in range(G.order)]


def permutation_table(perms):
    """Multiplication table and inverses of a list of 0-based image tuples
    by composing every pair, (p * q)(x) = p(q(x)), and looking each
    product and inverse up by value."""
    index = {p: i for i, p in enumerate(perms)}
    rng = range(len(perms[0]))
    mul = [[index[tuple(pa[pb[x]] for x in rng)] for pb in perms] for pa in perms]
    inv = []
    for p in perms:
        q = [0] * len(p)
        for x, y in enumerate(p):
            q[y] = x
        inv.append(index[tuple(q)])
    return mul, inv


def quotient_set(G, idxs) -> frozenset:
    """Direct evaluation of {x * y^-1 : x, y in X}."""
    inv = G.inv.tolist()
    mul = G.table.tolist()
    return frozenset(mul[x][inv[y]] for x in idxs for y in idxs)


def definitional_tpp(G, s_idxs, t_idxs, u_idxs) -> bool:
    """Triple loop straight off the definition: every product s*t*u = 1
    with s, t, u drawn from the three right quotients forces s = t = u = 1."""
    qs = quotient_set(G, s_idxs)
    qt = quotient_set(G, t_idxs)
    qu = quotient_set(G, u_idxs)
    mul = G.table.tolist()
    for s in qs:
        for t in qt:
            st = mul[s][t]
            for u in qu:
                if mul[st][u] == 0 and (s, t, u) != (0, 0, 0):
                    return False
    return True


def brute_force_subgroup_masks(G) -> set:
    """Closed-subset scan: a subset is a subgroup iff it contains 0 and is
    closed under mul and inv. Scans every subset of divisor cardinality."""
    n = G.order
    mul = G.table.tolist()
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    found = set()
    rest = range(1, n)
    for d in divisors:
        for combo in combinations(rest, d - 1):
            members = (0,) + combo
            mset = set(members)
            ok = True
            for a in members:
                row = mul[a]
                for b in members:
                    if row[b] not in mset:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                mask = 0
                for a in members:
                    mask |= 1 << a
                found.add(mask)
    return found


def plain_closure(mul, seed, members=(0,)) -> int:
    """Mask of the subgroup generated by the seed elements and the
    subgroup H with the given members (the trivial group by default); the
    seed must include generators of H.  Every element reached is
    multiplied on the right by every seed element until nothing new
    appears (in a finite group the monoid generated is the subgroup).
    Each new element y brings its whole right coset H*y, and only y is
    multiplied further: H*y*s is the coset of y*s."""
    mask, reached = 0, [0]
    for h in members:
        mask |= 1 << h
    for y in reached:
        row = mul[y]
        for s in seed:
            z = row[s]
            if not (mask >> z) & 1:
                reached.append(z)
                for h in members:
                    mask |= 1 << mul[h][z]
    return mask


def cyclic_join_lattice(G) -> list:
    """Subgroup masks in lattice order, by joining every known subgroup
    with every cyclic subgroup until no new subgroup appears.  Any join
    decomposes into a chain of single-generator extensions, so this
    fixpoint is the whole lattice; no conjugacy classes are used, and
    every join is a `plain_closure`."""
    mul = G.table.tolist()
    seeds = {}
    for g in range(1, G.order):
        seeds.setdefault(plain_closure(mul, (g,)), g)
    seed_items = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    # mask -> generator tuple
    known = {1: ()}
    for mask, g in seed_items:
        known[mask] = (g,)
    queue = list(known.keys())
    while queue:
        hmask = queue.pop()
        gens = known[hmask]
        members = list(ElementSet(hmask).indices())
        for smask, g in seed_items:
            if smask & ~hmask == 0:
                continue
            kmask = plain_closure(mul, gens + (g,), members)
            if kmask not in known:
                known[kmask] = gens + (g,)
                queue.append(kmask)
    return sorted(known, key=lambda m: (m.bit_count(), tuple(ElementSet(m).indices())))


def class_union_core(G, S) -> int:
    """Mask of the normal core of subgroup S as the union of the conjugacy
    classes that lie inside S: x lies in every conjugate g*S*g^-1 exactly
    when g^-1*x*g lies in S for every g, that is when x's class does."""
    core = 0
    for c in conjugacy_classes(G).classes:
        if c.mask & ~S.mask == 0:
            core |= c.mask
    return core


def class_union_is_normal(G, mask) -> bool:
    """Whether the subgroup with this mask is normal, by the union of the
    conjugacy classes of all its members: K is normal exactly when that
    union is K."""
    partition = conjugacy_classes(G)
    union = 0
    for x in ElementSet(mask).indices():
        union |= partition.classes[partition.class_of[x]].mask
    return union == mask


def _conjugate_masks(T, inv, members, inside):
    """Masks of the distinct conjugates x*K*x^-1 of the subgroup K with the
    given member array and membership row, and the membership row of its
    normalizer N(K): the x whose conjugate lies inside K.  One table
    gather conjugates every member by every x at once; x and x*m for m in
    N(K) give the same conjugate, so each left coset x*N(K) is turned into
    a mask once, at its least element."""
    conj = _conjugates(T, inv, members)
    normalizer = inside[conj].all(axis=1)
    reps = np.flatnonzero(T[:, normalizer].min(axis=1) == np.arange(len(T)))
    hit = np.zeros((len(reps), len(T)), dtype=bool)
    hit[np.arange(len(reps))[:, None], conj[reps]] = True
    return [_mask(row) for row in hit], normalizer


def quotient_tpp(G):
    """A TPP test holds(S, T, U) for subsets of G that takes each set's
    right quotient {x * y^-1} once, by its own pair loop, at its first
    triple: a triple holds when no pair (s, t) != (1, 1) from Q(S) x Q(T)
    has (s*t)^-1 in Q(U)."""
    mul, inv = G.table.tolist(), G.inv.tolist()
    quotients = {}

    def quotient(X):
        if X.mask not in quotients:
            idx = list(X.indices())
            quotients[X.mask] = frozenset(mul[a][inv[b]] for a in idx for b in idx)
        return quotients[X.mask]

    def holds(S, T, U):
        qt, qu = quotient(T), quotient(U)
        for s in quotient(S):
            row = mul[s]
            if any(inv[row[t]] in qu and (s or t) for t in qt):
                return False
        return True

    return holds


def naive_beta_over_subgroups(G, subgroup_sets, tpp_predicate) -> int:
    """Unpruned maximum of |S||T||U| over all ordered subgroup triples.

    tpp_predicate(G, S, T, U) decides the triple; triples whose product
    cannot beat the running maximum are skipped, which provably leaves
    the maximum unchanged.
    """
    best = 0
    items = list(subgroup_sets)
    for S in items:
        for T in items:
            pq = len(S) * len(T)
            for U in items:
                size = pq * len(U)
                if size <= best:
                    continue
                if tpp_predicate(G, S, T, U):
                    best = size
    return best


def _concrete_triples(by_size, a, b, c):
    """Ascending index triples (i, j, k) with orders (c, b, a); equal
    nontrivial orders draw distinct lattice members."""
    for i in range(*by_size[c]):
        for j in range(i + 1 if b == c > 1 else by_size[b][0], by_size[b][1]):
            for k in range(j + 1 if a == b > 1 else by_size[a][0], by_size[a][1]):
                yield i, j, k


def per_triple_search_beta_g(G, lattice, budget=None, cores=None) -> BetaResult:
    """search_beta_g with one full TPP scan per concrete triple: the same
    profiles, prunes, order and check budget, so it must return an equal
    BetaResult, check count included.  Each member's right quotient
    {x * y^-1} is taken once, by its own pair loop, at its first triple;
    a triple (S, T, U) holds when no pair (s, t) != (1, 1) from Q(S) x
    Q(T) has (s*t)^-1 in Q(U), by `quotient_tpp`."""
    items = lattice.items
    count = len(items)
    n = G.order
    tpp = quotient_tpp(G)

    def holds(i, j, k):
        return tpp(items[i], items[j], items[k])

    core_size = [len(items[c]) for c in (lattice.cores if cores is None else cores)]
    orders = [len(s) for s in items]
    by_size = {}
    for x, size in enumerate(orders):
        lo, _ = by_size.get(size, (x, x))
        by_size[size] = (lo, x + 1)
    cnt = {size: hi - lo for size, (lo, hi) in by_size.items()}
    min_core = {size: min(core_size[lo:hi]) for size, (lo, hi) in by_size.items()}

    checks = 1
    assert holds(0, 0, count - 1)
    best = n
    witnesses = {(1, 1, count)}

    profiles = []
    for a, b, c in admissible_profiles(cnt, n):
        product = a * b * c
        if product >= n and not any(
            min_core[v] > 1 and (product // v) * min_core[v] > n for v in (a, b, c)
        ):
            profiles.append((a, b, c, product))
    profiles.sort(key=lambda r: (-r[3], r[:3]))

    for a, b, c, product in profiles:
        if product < best:
            break
        if product == best == n:
            continue
        for i, j, k in _concrete_triples(by_size, a, b, c):
            if any(
                core_size[x] > 1 and (product // orders[x]) * core_size[x] > n
                for x in (i, j, k)
            ):
                continue
            if budget is not None and checks >= budget:
                return BetaResult(best, min(witnesses), False, checks)
            checks += 1
            if holds(i, j, k):
                found = (i + 1, j + 1, k + 1)
                if product > best:
                    best = product
                    witnesses = {found}
                else:
                    witnesses.add(found)
    return BetaResult(best, min(witnesses), True, checks)


def _commutator_closure(G, members) -> int:
    mul, inv = G.table.tolist(), G.inv.tolist()
    return plain_closure(mul, {mul[mul[mul[inv[g]][inv[h]]][g]][h] for g in members for h in members})


def commutator_set_derived_subgroup(G, H=None) -> ElementSet:
    """Closure of the set of all commutators g^-1 * h^-1 * g * h of g, h in
    H, or in G when H is None."""
    members = range(G.order) if H is None else list(H.indices())
    return ElementSet(_commutator_closure(G, members))


def derived_series_residual(G) -> int:
    """Mask of the last term of the derived series, each term the closure
    of all commutators of the one before."""
    mask = (1 << G.order) - 1
    while (nxt := _commutator_closure(G, list(ElementSet(mask).indices()))) != mask:
        mask = nxt
    return mask


def _perm_parity(perm) -> int:
    """+1 or -1 from the cycle decomposition of a 0-based image tuple."""
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def s4_degrees_by_inner_products(G, partition) -> list:
    """Derive the degree multiset of the symmetric group on 4 points from
    classical character theory, without any finite-field computation.

    Uses the permutation character (fixed points), the sign character,
    and exact inner products over the class data: the trivial, sign,
    standard, and sign-twisted standard characters are verified pairwise
    orthogonal of norm 1, and the remaining degree is pinned by the
    squared-degree sum. Requires G to carry permutation labels.
    """
    n = G.order
    k = len(partition.classes)
    sizes = [len(c) for c in partition.classes]
    reps = [min(c.indices()) for c in partition.classes]
    perms = [label_perms(G)[r] for r in reps]

    chi_triv = [1] * k
    chi_sign = [_perm_parity(p) for p in perms]
    chi_perm = [sum(1 for i, img in enumerate(p) if img == i) for p in perms]
    chi_std = [a - 1 for a in chi_perm]
    chi_std_sign = [a * e for a, e in zip(chi_std, chi_sign)]

    def inner(a, b):
        # All characters here are integer valued, so no conjugation needed.
        return sum(Fraction(sz * x * y, n) for sz, x, y in zip(sizes, a, b))

    basis = [chi_triv, chi_sign, chi_std, chi_std_sign]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1 if i == j else 0
            assert inner(a, b) == want, (i, j, inner(a, b))

    degrees = sorted(chi[0] for chi in basis)
    missing = n - sum(d * d for d in degrees)
    assert k == len(degrees) + 1
    root = 1
    while root * root < missing:
        root += 1
    assert root * root == missing
    return sorted(degrees + [root])


def class_matrices_double_loop(G):
    """`chars._class_matrices` by counting, for each class representative
    z_t, every x in G into cell (class of x, class of x^-1 z_t, t)."""
    part = conjugacy_classes(G)
    k = len(part.classes)
    class_of = part.class_of
    sizes = [len(c) for c in part.classes]
    reps = [next(c.indices()) for c in part.classes]
    mul, inv = G.table.tolist(), G.inv.tolist()
    inv_class = [class_of[inv[r]] for r in reps]
    A = np.zeros((k, k, k), dtype=np.int64)
    for t in range(k):
        zt = reps[t]
        for x in range(G.order):
            A[class_of[x], class_of[mul[inv[x]][zt]], t] += 1
    return A, sizes, inv_class


class DenseClassAlgebra:
    """`chars._ClassAlgebra` read from a dense k x k x k array A with
    A[r] = M_r, as `class_matrices_double_loop` gives or a test writes by
    hand: the combinations and spans are plain sums over A."""

    def __init__(self, A, sizes):
        self.A = np.asarray(A, dtype=np.int64)
        self.sizes = list(sizes)

    def matrix(self, r: int):
        return self.A[r]

    def combination(self, c):
        return np.tensordot(np.asarray(c, dtype=np.int64), self.A, axes=1)

    def span(self, u):
        return self.A @ np.asarray(u, dtype=np.int64)


def charpoly_scalar_loop(R: np.ndarray, p: int) -> np.ndarray:
    """`chars._charpoly_mod` with every entry reduced mod p after each
    Hessenberg step and the recurrence one scalar product at a time.

    R is reduced to upper Hessenberg form H by similarity (each row
    elimination below the subdiagonal is undone on the columns), then the
    leading principal minors P_m of xI - H follow the Hessenberg recurrence
    (Cohen, GTM 138, Alg. 2.2.9):
        P_m = (x - h_mm) P_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} P_{i-1}.
    Entries stay below p, so a product is below p^2 and a row of d of them
    sums inside int64 while d*p^2 < 2^63.
    """
    H = np.array(R % p, dtype=np.int64)
    d = H.shape[0]
    for m in range(1, d - 1):
        nz = np.nonzero(H[m:, m - 1])[0]
        if nz.size == 0:
            continue
        i = m + int(nz[0])
        if i != m:
            H[[m, i]] = H[[i, m]]
            H[:, [m, i]] = H[:, [i, m]]
        u = H[m + 1 :, m - 1] * pow(int(H[m, m - 1]), -1, p) % p
        H[m + 1 :] = (H[m + 1 :] - np.outer(u, H[m])) % p
        H[:, m] = (H[:, m] + H[:, m + 1 :] @ u) % p
    P = np.zeros((d + 1, d + 1), dtype=np.int64)
    P[0, 0] = 1
    for m in range(1, d + 1):
        P[m, 1:] = P[m - 1, :-1]
        P[m] = (P[m] - int(H[m - 1, m - 1]) * P[m - 1]) % p
        coef = np.zeros(m - 1, dtype=np.int64)
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * int(H[i, i - 1]) % p
            coef[i - 1] = t * int(H[i - 1, m - 1]) % p
        P[m] = (P[m] - coef @ P[: m - 1]) % p
    return P[d]


def _nullspace_mod(A: np.ndarray, p: int):
    """Row basis of the right null space {x : A x = 0} over F_p, and its
    free columns, on which the basis is the identity."""
    R, pivots = _rref_mod(A, p)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = (-R[:, free].T) % p
    return basis, free


def _roots_by_horner(coeffs: np.ndarray, p: int) -> list:
    """Roots in F_p, ascending, of the polynomial with these coefficients
    (constant term first): Horner's rule at every lam = 0, 1, ..., p-1 at
    once, each step below p^2."""
    lam = np.arange(p, dtype=np.int64)
    value = np.zeros(p, dtype=np.int64)
    for c in coeffs[::-1]:
        value = (value * lam + int(c)) % p
    return np.flatnonzero(value == 0).tolist()


def scan_split_lines(A, sizes, p: int):
    """`chars._split_to_lines` by splitting the whole space class matrix
    by class matrix, trying each root lam of the characteristic
    polynomial (`charpoly_scalar_loop`) in ascending order with a null
    space computation, stopping once the eigenspaces fill the space
    being split.  Every eigenvalue in F_p is such a root."""
    k = A.shape[0]
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    for j in sorted(range(1, k), key=lambda j: (sizes[j], j)):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        M = A[j] % p
        next_spaces = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                next_spaces.append((B, piv))
                continue
            Rm = ((M @ B.T) % p)[piv, :]
            found = 0
            for lam in _roots_by_horner(charpoly_scalar_loop(Rm, p), p):
                nb, _ = _nullspace_mod((Rm - lam * np.eye(d, dtype=np.int64)) % p, p)
                if nb.shape[0]:
                    next_spaces.append(_rref_mod((nb @ B) % p, p))
                    found += nb.shape[0]
                    if found == d:
                        break
            if found != d:
                raise errors.EigenspaceSplitFailure(f"matrix {j} is not diagonalizable over F_{p}")
        spaces = next_spaces
    if any(B.shape[0] != 1 for B, _ in spaces):
        raise errors.EigenspaceSplitFailure(f"common eigenspaces not one-dimensional over F_{p}")
    return [B[0] % p for B, _ in spaces]


def grid_omega_bound(beta: int, degrees, step: float = 1e-4, tol: float = 1e-9):
    """`bounds.solve_omega_bound` by walking a grid of pitch `step` down
    from 3 to the first x with sum(d_i**x) >= beta**(x/3), then bisecting
    that cell to width `tol`; NoRootInRange if no grid point qualifies."""
    if beta <= d_sum_int(degrees, 3):
        return None

    def gap(x):
        return d_sum_real(degrees, x) - beta ** (x / 3.0)

    steps = int(round(1.0 / step))
    hi = 3.0
    for k in range(1, steps + 1):
        lo = 2.0 if k == steps else 3.0 - k * step
        if gap(lo) >= 0.0:
            break
        hi = lo
    else:
        raise errors.NoRootInRange(f"no crossing in [2, 3] for beta={beta}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
