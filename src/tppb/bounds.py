"""Capacity bounds over the subgroup lattice.

Provides the classical product bound t, the lattice index cutoff N, the
order-relaxed pair bound delta, the core-refined bound h, an exact pruned
search for the best subgroup-triple capacity beta_g, exclusion flags against
the cubic character-degree sum, and a solver for the induced exponent bound.
`bounds_report` runs the whole per-group pipeline and returns `ReportRow`,
the one result record, which the CSV report writes as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors
from .chars import CharacterDegrees, character_degrees, d_sum_int, d_sum_real
from .groups import Group, _packed, check_positive_int
from .lattice import SubgroupLattice, enumerate_subgroups, normal_cores
from .tpp import _tpp, right_quotient


def neumann_admissible(group_order: int, a: int, b: int, c: int) -> bool:
    """Size test a*(b+c-1) <= group_order for sorted sizes a >= b >= c >= 1."""
    if not (a >= b >= c >= 1):
        raise errors.UnsortedSizes(f"sizes must satisfy a >= b >= c >= 1, got ({a}, {b}, {c})")
    return a * (b + c - 1) <= group_order


def admissible_profiles(counts, n: int):
    """Yield sorted order profiles (a, b, c), a >= b >= c, over the keys of
    `counts` (subgroup order -> number of subgroups of that order) that pass
    the size test for a group of order n.  Each order above 1 must have as
    many members as the profile uses; the trivial order may repeat.  In a
    sorted profile only b can repeat, used 1 + (a == b) + (b == c) times."""
    sizes = sorted(counts, reverse=True)
    for ai, a in enumerate(sizes):
        for bi in range(ai, len(sizes)):
            b = sizes[bi]
            for c in sizes[bi:]:
                # The size test of neumann_admissible, on sorted sizes.
                if a * (b + c - 1) <= n and (b == 1 or counts[b] > (a == b) + (b == c)):
                    yield a, b, c


def _order_counts(lattice: SubgroupLattice) -> dict:
    """Number of members of each nontrivial order, read off `lattice.orders`."""
    counts = np.bincount(lattice.orders)
    sizes = np.flatnonzero(counts[2:]) + 2
    return dict(zip(sizes.tolist(), counts[sizes].tolist()))


def compute_t(G: Group, lattice: SubgroupLattice) -> int:
    """Best product a*b*c over admissible triples of pairwise-distinct proper
    nontrivial subgroups, by order multiset; floor at |G| when none exists.
    The whole group takes part in no profile: |G|*(b+c-1) > |G| for b, c > 1."""
    n = G.order
    return max([n] + [a * b * c for a, b, c in admissible_profiles(_order_counts(lattice), n)])


def compute_N(G: Group, lattice: SubgroupLattice) -> int:
    """Largest 1-based index i with |S_i|*(|S_2|+|S_3|-1) <= |G|.

    Returns 0 when even the trivial subgroup fails the test and 1 when the
    lattice has fewer than three members.  The orders ascend, so i counts
    the members of order at most |G| // (|S_2|+|S_3|-1).
    """
    orders = lattice.orders
    if len(orders) < 3:
        return 1
    return int(np.searchsorted(orders, G.order // int(orders[1] + orders[2] - 1), side="right"))


def _delta_by_order(G: Group, lattice: SubgroupLattice) -> dict:
    """delta keyed by subgroup order s: the best b*c over admissible profiles
    (s, b, c) of nontrivial orders; orders with no such profile are absent."""
    best = {}
    for a, b, c in admissible_profiles(_order_counts(lattice), G.order):
        best[a] = max(best.get(a, 0), b * c)
    return best


class HCandidate(NamedTuple):
    """One evaluated lattice index in the core-refined bound."""

    index: int
    order: int
    core_size: int
    delta: int | None
    left: int
    right: int | None
    minimum: int | None


@dataclass(frozen=True)
class HBound:
    b: int | None
    h: int
    candidates: list[HCandidate]
    N: int


def compute_h(G: Group, lattice: SubgroupLattice, cores) -> HBound:
    """Core-refined bound h = max(b, |G|) where b maximises, over candidate
    indices 4..N, the minimum of |G|*|S_i|/|core(S_i)| and |S_i|*delta(S_i).

    `cores` is the normal-core list aligned with the lattice.  Candidates
    whose delta is absent contribute nothing.  The candidates are read off
    `lattice.orders` and the core orders as arrays; the cutoff N is kept
    on the result.
    """
    n = G.order
    n_cap = compute_N(G, lattice)
    delta_of = _delta_by_order(G, lattice)
    orders = lattice.orders[3:n_cap]
    core = np.array([s.size for s in cores[3:n_cap]], dtype=np.int64)
    # delta by order, 0 where absent: a present delta is at least 2*2.
    delta_at = np.zeros(n + 1, dtype=np.int64)
    delta_at[list(delta_of)] = list(delta_of.values())
    delta = delta_at[orders]
    left = n * orders // core
    right = orders * delta
    minimum = np.minimum(left, right)
    # An absent delta makes the minimum 0, and a present one a positive one.
    b = int(minimum.max(initial=0)) or None
    present = delta > 0
    rows = zip(
        range(4, n_cap + 1),
        orders.tolist(),
        core.tolist(),
        np.where(present, delta, None).tolist(),
        left.tolist(),
        np.where(present, right, None).tolist(),
        np.where(present, minimum, None).tolist(),
    )
    h = n if b is None else max(b, n)
    return HBound(b=b, h=h, candidates=list(map(HCandidate._make, rows)), N=n_cap)


@dataclass(frozen=True)
class BetaResult:
    """Outcome of the exact triple search.

    `witness` is an ascending 1-based lattice index triple; when several
    triples attain the value the lexicographically smallest is kept.  `exact`
    is False when the check budget ran out, making `value` a lower bound.
    """

    value: int
    witness: tuple[int, int, int]
    exact: bool
    checks: int


# Pairs are tested in chunks.  A chunk's pair-by-U array of uint64 words
# and its product sets, 64 * ceil(|G| / 64) entries per pair, each hold at
# most BETA_CHUNK_CELLS cells, so none of its arrays exceeds
# 8 * BETA_CHUNK_CELLS bytes (256 KiB), since |S||T| <= |G| on every
# admissible profile.  A chunk holds at least one pair, so a single pair
# whose U range is longer than that still goes whole.
BETA_CHUNK_CELLS = 1 << 15


def search_beta_g(G: Group, lattice: SubgroupLattice, budget: int | None = None, cores=None) -> BetaResult:
    """Exact best capacity |S||T||U| over valid subgroup triples.

    Enumerates order profiles in descending product, pruning with the size
    test and with normal-core product limits.  The whole-group seed
    (1, 1, count) guarantees |G|.

    For subgroups the TPP holds exactly when S∩T = {1} and ST∩U = {1}: if
    s*t*u = 1 then s*t = u^-1 lies in ST∩U, so s*t = 1 and s = t^-1 lies in
    S∩T; conversely s = t^-1 in S∩T gives s*t*1 = 1.

    The ordered scan of a profile is every ascending index triple (i, j, k)
    of orders (c, b, a) whose members pass the core prune, in lexicographic
    order.  `checks` counts the triples of the full ordered scan up to the
    budget, the seed included, from the member counts and a prefix sum of
    the prune mask alone, whichever triples are tested.  Each profile is
    one step and stops at its first hit, its lexicographically smallest
    valid triple, so the rest of the profile cannot change the witness.

    Only pairs (i, j) whose first member is the least-index kept member of
    its class of subgroups (`lattice.classes`) are tested.  This finds the
    same first hit: let (i, j, k) be the smallest valid triple and x map
    S_i to its class's least member S0.  Conjugation by x keeps the orders,
    the TPP and the core prune, so the prune mask is a union of classes;
    and a valid triple of subgroups stays valid in any order (a cyclic
    shift of s*t*u = 1 is again a product equal to 1, and inverting it
    reverses the order).  A repeated nontrivial member fails S∩T = {1}
    or ST∩U = {1} by itself.  So the conjugate, sorted by index, is a
    valid scan triple whose first index is at most idx(S0) <= i, and
    minimality of (i, j, k) makes i = idx(S0), for b == c and a == b == c
    too.

    The profile in which the budget runs out tests every first member, in
    a prefix of its pairs cut at the exact triple by a cumulative sum of
    each pair's number of third members; a prefix holding any valid triple
    holds the smallest.  The pairs are tested a chunk at a time: S∩T and
    ST∩U as ANDs of packed bit rows (the identity left out), the product
    set ST as one gather over the table.  The returned witness and the
    seed are verified again: each member X with `right_quotient` (Q(X) = X
    exactly when X is a subgroup), the triple by the TPP of the quotients.
    """
    if budget is not None:
        budget = check_positive_int(budget, "budget")
    items = lattice.items
    count = len(items)
    n = G.order
    if cores is None:
        cores = normal_cores(G, lattice)
    core_size = np.array([s.size for s in cores], dtype=np.int64)
    orders = lattice.orders
    least = np.zeros(count, dtype=bool)  # the least-index member of each class
    least[np.unique(lattice.classes, return_index=True)[1]] = True
    # The members of each order, a run of the ascending orders: lo..hi-1.
    counts = np.bincount(orders)
    sizes = np.flatnonzero(counts)
    cnt = dict(zip(sizes.tolist(), counts[sizes].tolist()))
    by_size = {size: (hi - k, hi) for (size, k), hi in zip(cnt.items(), np.cumsum(counts[sizes]).tolist())}

    def verify(triple, invariant: str, shown) -> None:
        # Each member must be a subgroup, Q(X) = X, and the triple valid.
        members = [items[x - 1] for x in triple]
        quotients = [right_quotient(G, X) for X in members]
        if quotients != members or not _tpp(G, *quotients).holds:
            raise errors.InvariantViolation(invariant, f"triple {shown} failed verification")

    checks = 1
    seed = (1, 1, count)
    verify(seed, "whole-group seed", "(G, 1, 1)")
    best = n
    witness = seed

    def result(exact: bool) -> BetaResult:
        verify(witness, "beta witness", witness)
        return BetaResult(best, witness, exact, checks)

    profiles = [(a, b, c, a * b * c) for a, b, c in admissible_profiles(cnt, n) if a * b * c >= n]
    profiles.sort(key=lambda r: (-r[3], r[:3]))

    # Row x of `words` is lattice member x without the identity, packed
    # little-endian into uint64 words; row r of `elements[size]` lists the
    # elements of the r-th member of that order.
    words, member = _packed([s.mask & ~1 for s in items], n)
    member[:, 0] = True
    width = words.shape[1]
    elements = {size: np.nonzero(member[lo:hi])[1].reshape(hi - lo, size) for size, (lo, hi) in by_size.items()}

    def first_hit(c, b, u_index, I, J, lo, hi):
        """The first valid triple, in scan order, of the pairs (I, J) of
        orders (c, b), pair p tested against u_index[lo[p]:hi[p]]; or None."""
        u_words = words[u_index]
        cols = np.arange(len(u_index))
        step = max(1, BETA_CHUNK_CELLS // (width * max(64, len(u_index))))
        for start in range(0, len(I), step):
            chunk = slice(start, start + step)
            ok = ~(words[I[chunk]] & words[J[chunk]]).any(axis=1)
            Ic, Jc = I[chunk][ok], J[chunk][ok]
            if not len(Ic):
                continue
            st = np.zeros((len(Ic), 64 * width), dtype=bool)
            prod = G.table[elements[c][Ic - by_size[c][0], :, None], elements[b][Jc - by_size[b][0], None, :]]
            st[np.arange(len(Ic))[:, None], prod.reshape(len(Ic), -1)] = True
            st_words = np.packbits(st, axis=1, bitorder="little").view("<u8")
            valid = ~(st_words[:, None, :] & u_words[None, :, :]).any(axis=2)
            valid &= (cols >= lo[chunk][ok, None]) & (cols < hi[chunk][ok, None])
            x = int(valid.argmax())
            if valid.flat[x]:
                p, r = divmod(x, len(u_index))
                return int(Ic[p]) + 1, int(Jc[p]) + 1, int(u_index[r]) + 1
        return None

    for a, b, c, product in profiles:
        if product < best:
            break
        if product == best == n:
            # Any other triple of this product starts at index pair (1, 2)
            # or later, so the seed witness is already lexicographically
            # minimal and equal-product checks cannot change the result.
            continue
        keep = ~((core_size > 1) & ((product // orders) * core_size > n))
        kept = np.flatnonzero(keep)
        csum = np.concatenate(([0], np.cumsum(keep)))
        ic = kept[csum[by_size[c][0]] : csum[by_size[c][1]]]
        jb = kept[csum[by_size[b][0]] : csum[by_size[b][1]]]
        # The kept members of order a are kept[u0:u1]; those of a pair are
        # kept[u0 + lo:u0 + hi], after its second member when a == b > 1.
        # Equal nontrivial orders b == c draw distinct members, in pairs
        # (jb[x], jb[y]) with x < y; the trivial subgroup is the only one
        # allowed to repeat.  The pair count and the sum of lo come from
        # the member counts, so only the pairs tested are built.
        u0, u1 = int(csum[by_size[a][0]]), int(csum[by_size[a][1]])
        pairs = len(jb) * (len(jb) - 1) // 2 if b == c > 1 else len(ic) * len(jb)
        lo_sum = 0
        if a == b > 1:
            # jb[y] is the second member of y pairs when b == c, else of
            # len(ic) pairs.
            w = csum[jb + 1] - u0
            lo_sum = int(np.arange(len(jb)) @ w) if b == c else len(ic) * int(w.sum())
        total = pairs * (u1 - u0) - lo_sum
        if not total:
            continue
        exhausted = budget is not None and total > budget - checks
        # First members at positions xs of ic; pair x takes jb[start[x]:].
        xs = np.arange(len(ic)) if exhausted else np.flatnonzero(least[ic])
        start = xs + 1 if b == c > 1 else np.zeros_like(xs)
        rows = len(jb) - start
        I = np.repeat(ic[xs], rows)
        J = jb[np.arange(len(I)) + np.repeat(start + rows - np.cumsum(rows), rows)]
        lo = csum[J + 1] - u0 if a == b > 1 else np.broadcast_to(0, J.shape)
        hi = np.broadcast_to(u1 - u0, J.shape)
        if exhausted:
            # The budget runs out inside pair `cut`; with no room left, that
            # is the first pair, and its range comes out empty.
            room = budget - checks
            cum = np.cumsum(hi - lo)
            cut = int(np.searchsorted(cum, room))
            I, J, lo, hi = I[: cut + 1], J[: cut + 1], lo[: cut + 1], hi[: cut + 1].copy()
            hi[cut] -= cum[cut] - room
            checks = budget
        else:
            checks += total
        found = first_hit(c, b, kept[u0:u1], I, J, lo, hi)
        if found is not None:
            witness = found if product > best else min(witness, found)
            best = product
        if exhausted:
            return result(False)
    return result(True)


@dataclass(frozen=True)
class ExclusionFlags:
    t_le_d3: bool
    h_le_d3: bool
    beta_le_d3: bool | None


def exclusion_flags(t: int, h: int, beta_g: int | None, d3: int) -> ExclusionFlags:
    return ExclusionFlags(
        t_le_d3=t <= d3,
        h_le_d3=h <= d3,
        beta_le_d3=None if beta_g is None else beta_g <= d3,
    )


OMEGA_TOL = 1e-9


def solve_omega_bound(beta: int, degrees: CharacterDegrees):
    """Largest x in [2, 3] with sum(d_i**x) == beta**(x/3).

    Returns None when beta <= the cubic sum (no constraint), and raises
    NoRootInRange when beta exceeds it but no crossing lies in the interval.

    gap(x) = sum(d_i**x) - beta**(x/3) has the sign of
    f(x) = sum(exp(x * ln(d_i / beta**(1/3)))) - 1, a convex function with
    f(3) = D3 / beta - 1 < 0 once beta > D3.  So {gap < 0} meets [2, 3] in
    one interval ending at 3: gap(2) < 0 means no crossing at all, and
    otherwise the crossing is bisected on [2, 3] to width OMEGA_TOL.
    """
    d3 = d_sum_int(degrees, 3)
    if beta <= d3:
        return None

    def gap(x: float) -> float:
        return d_sum_real(degrees, x) - beta ** (x / 3.0)

    if gap(2.0) < 0.0:
        raise errors.NoRootInRange(
            f"no crossing in [2, 3] for beta={beta} against {degrees.degrees}"
        )
    lo, hi = 2.0, 3.0
    while hi - lo > OMEGA_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReportRow:
    """One group's verdict: the CSV columns first, then what `analyze` and
    library callers read.  Blank-rendered fields stay None; a failed catalog
    entry carries only its name and `error`."""

    name: str
    order: int | None = None
    is_abelian: bool | None = None
    subgroup_count: int | None = None
    class_count: int | None = None
    d3: int | None = None
    t: int | None = None
    b_or_blank: int | None = None
    h: int | None = None
    t_le_d3: bool | None = None
    h_le_d3: bool | None = None
    beta_g_or_blank: int | None = None
    runtime_ms: int | None = None
    error: str = ""
    N: int | None = None
    degrees: CharacterDegrees | None = None
    beta_witness: tuple[int, int, int] | None = None
    beta_exact: bool | None = None
    candidates: list[HCandidate] | None = None


def bounds_report(
    G: Group,
    group_name: str = "",
    exact_beta: bool = False,
    beta_budget: int | None = None,
) -> ReportRow:
    """Run the whole pipeline for one group (lattice, cores, degrees, t, h,
    d3 and, when asked, the exact beta) and return its record.

    `beta_g_or_blank` and `beta_witness` stay None when the search ran out of
    `beta_budget`; `beta_exact` then reads False.  Raises InvariantViolation
    unless h <= t and, when a beta was computed, beta <= h.
    """
    lattice = enumerate_subgroups(G)
    cores = normal_cores(G, lattice)
    degrees = character_degrees(G)
    t = compute_t(G, lattice)
    hb = compute_h(G, lattice, cores)
    d3 = d_sum_int(degrees, 3)
    beta = search_beta_g(G, lattice, budget=beta_budget, cores=cores) if exact_beta else None
    # beta_g <= h is the paper's bound; a beta cut by the budget is a lower
    # bound on beta_g, so it obeys it too.
    if hb.h > t:
        raise errors.InvariantViolation("h <= t", f"h = {hb.h} exceeds t = {t}")
    if beta is not None and beta.value > hb.h:
        raise errors.InvariantViolation("beta_g <= h", f"beta = {beta.value} exceeds h = {hb.h}")
    exact = beta is not None and beta.exact
    flags = exclusion_flags(t, hb.h, beta.value if exact else None, d3)
    class_count = len(degrees.degrees)
    return ReportRow(
        name=group_name,
        order=G.order,
        # Abelian iff every conjugacy class is a singleton.
        is_abelian=class_count == G.order,
        subgroup_count=lattice.count,
        class_count=class_count,
        d3=d3,
        t=t,
        b_or_blank=hb.b,
        h=hb.h,
        t_le_d3=flags.t_le_d3,
        h_le_d3=flags.h_le_d3,
        beta_g_or_blank=beta.value if exact else None,
        N=hb.N,
        degrees=degrees,
        beta_witness=beta.witness if exact else None,
        beta_exact=None if beta is None else beta.exact,
        candidates=hb.candidates,
    )
