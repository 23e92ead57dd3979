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

import numpy as np

from . import errors
from .chars import CharacterDegrees, character_degrees, d_sum_int, d_sum_real
from .groups import Group, _packed, check_positive_int
from .lattice import SubgroupLattice, enumerate_subgroups
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
    """Number of members of each nontrivial order, ascending, read off
    `lattice.orders`; each order's members are one run after index 0."""
    counts = np.bincount(lattice.orders)
    sizes = np.flatnonzero(counts[2:]) + 2
    return dict(zip(sizes.tolist(), counts[sizes].tolist()))


def _delta_by_order(G: Group, lattice: SubgroupLattice) -> dict:
    """delta keyed by subgroup order s: the best b*c over admissible profiles
    (s, b, c) of nontrivial orders; orders with no such profile are absent."""
    best = {}
    for a, b, c in admissible_profiles(_order_counts(lattice), G.order):
        best[a] = max(best.get(a, 0), b * c)
    return best


def compute_t(G: Group, lattice: SubgroupLattice) -> int:
    """Best product a*b*c over admissible triples of pairwise-distinct proper
    nontrivial subgroups, by order multiset, which is the best a*delta(a);
    floor at |G| when none exists.  The whole group takes part in no
    profile: |G|*(b+c-1) > |G| for b, c > 1."""
    return max([G.order] + [a * d for a, d in _delta_by_order(G, lattice).items()])


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


@dataclass(frozen=True)
class HBound:
    """`candidates` holds one int64 row per candidate index 4..N, with the
    columns index, order, core, delta, left, right and min."""

    b: int | None
    h: int
    candidates: np.ndarray
    N: int


def compute_h(G: Group, lattice: SubgroupLattice, cores) -> HBound:
    """Core-refined bound h = max(b, |G|) where b maximises, over candidate
    indices 4..N, the minimum of |G|*|S_i|/|core(S_i)| and |S_i|*delta(S_i).

    `cores` holds the 0-based lattice index of each member's normal core
    (`SubgroupLattice.cores`), so the core orders are one gather from
    `lattice.orders`.  Every candidate has a delta, of at least 4: for
    4 <= i <= N the profile (|S_i|, |S_3|, |S_2|) passes the size test,
    since that test at S_i is the cutoff N; it is sorted,
    |S_i| >= |S_3| >= |S_2| >= 2, since the lattice ascends and holds one
    trivial subgroup; and S_2, S_3 and S_i are distinct members, so each
    order has as many members as the profile uses.  So
    delta(|S_i|) >= |S_3|*|S_2| >= 4, and a missing delta is a KeyError.
    b is None exactly when there is no candidate.
    """
    n = G.order
    n_cap = compute_N(G, lattice)
    delta_of = _delta_by_order(G, lattice)
    orders = lattice.orders[3:n_cap]
    core = lattice.orders[cores[3:n_cap]]
    # The orders ascend, so each order's delta repeats over its run.
    counts = np.bincount(orders)
    sizes = np.flatnonzero(counts)
    delta = np.repeat(np.array([delta_of[s] for s in sizes.tolist()], dtype=np.int64), counts[sizes])
    left = n * orders // core
    right = orders * delta
    minimum = np.minimum(left, right)
    candidates = np.column_stack((np.arange(4, 4 + len(orders)), orders, core, delta, left, right, minimum))
    b = int(minimum.max()) if len(minimum) else None
    h = n if b is None else max(b, n)
    return HBound(b=b, h=h, candidates=candidates, N=n_cap)


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


# Pairs are made and tested in chunks, and no other array of the search
# is longer than the lattice.  A chunk's pair-by-U array of uint64 words
# and its product sets, 64 * ceil(|G| / 64) entries per pair, each hold at
# most BETA_CHUNK_CELLS cells, so none of its arrays exceeds
# 8 * BETA_CHUNK_CELLS bytes (256 KiB), since |S||T| <= |G| on every
# admissible profile.  A chunk holds at least one pair, so a single pair
# whose U range is longer than that still goes whole.
BETA_CHUNK_CELLS = 1 << 15


def search_beta_g(G: Group, lattice: SubgroupLattice, budget: int | None = None, cores=None) -> BetaResult:
    """Exact best capacity |S||T||U| over valid subgroup triples.

    Enumerates the order profiles of product above |G| in descending
    product, pruning with the size test and with normal-core product
    limits.  The whole-group seed (1, 1, count) guarantees |G|.  `cores`,
    the lattice index of each member's normal core, defaults to
    `lattice.cores`.

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

    The profile in which the budget runs out is scanned the same way, up
    to the cut: the triples of its ordered scan that the budget reaches
    are a lexicographic initial segment.  If they hold any valid triple,
    they hold the profile's smallest, whose first member is class-least,
    in a row (the triples of one first member) at or before the cut; so
    testing the class-least rows up to the cut, the row of the cut itself
    ending at the exact triple, finds the same first hit, or none.  A
    budget that ends exactly at a profile boundary leaves no room in the
    next profile: nothing of it is tested, and the result is inexact.
    The pairs are made from the rows' end offsets and tested a chunk at a
    time: S∩T and ST∩U as ANDs of packed bit rows (the identity left
    out), the product set ST as one gather over the table.  The returned witness and the seed are verified again:
    each member X with `right_quotient` (Q(X) = X exactly when X is a
    subgroup), the triple by the TPP of the quotients.
    """
    if budget is not None:
        budget = check_positive_int(budget, "budget")
    items = lattice.items
    count = len(items)
    n = G.order
    orders = lattice.orders
    core_size = orders[lattice.cores if cores is None else cores]
    least = np.zeros(count, dtype=bool)  # the least-index member of each class
    least[np.unique(lattice.classes, return_index=True)[1]] = True
    # The members of each nontrivial order: a run lo..hi-1 after index 0.
    cnt = _order_counts(lattice)
    edges = np.cumsum([1, *cnt.values()]).tolist()
    by_size = {size: (lo, hi) for size, lo, hi in zip(cnt, edges, edges[1:])}

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

    # A profile of product |G| cannot change the result: the seed is then
    # already minimal, or the scan has broken out.  Every other profile has
    # c > 1, since c = 1 makes the size test a*b <= |G|.
    profiles = [(a, b, c, a * b * c) for a, b, c in admissible_profiles(cnt, n) if a * b * c > n]
    profiles.sort(key=lambda r: (-r[3], r[:3]))

    # Row x of `words` is lattice member x without the identity, packed
    # little-endian into uint64 words; row r of `elements[size]` lists the
    # elements of the r-th member of that order.
    words, member = _packed([s.mask & ~1 for s in items], n)
    member[:, 0] = True
    width = words.shape[1]
    elements = {size: np.nonzero(member[lo:hi])[1].reshape(hi - lo, size) for size, (lo, hi) in by_size.items()}

    for a, b, c, product in profiles:
        if product < best:
            break
        keep = ~((core_size > 1) & ((product // orders) * core_size > n))
        kept = np.flatnonzero(keep)
        csum = np.concatenate(([0], np.cumsum(keep)))
        ic = kept[csum[by_size[c][0]] : csum[by_size[c][1]]]
        jb = kept[csum[by_size[b][0]] : csum[by_size[b][1]]]
        # Row x of the scan pairs ic[x] with jb[first[x]:].  Equal orders
        # b == c draw distinct members, first[x] = x + 1.  Pair (ic[x], jb[y])
        # takes the kept members of order a kept[u0 + lo[y]:u1], those after
        # its second member when a == b.
        u0, u1 = int(csum[by_size[a][0]]), int(csum[by_size[a][1]])
        first = np.arange(1, len(ic) + 1) if b == c else np.zeros(len(ic), dtype=np.int64)
        lo = csum[jb + 1] - u0 if a == b else np.zeros(len(jb), dtype=np.int64)
        # tail[y] counts the triples of a row's pairs from jb[y] on, and the
        # scan reaches row x after start[x] triples.
        tail = np.append(np.cumsum((u1 - u0 - lo)[::-1])[::-1], 0)
        start = np.append(0, np.cumsum(tail[first]))
        total = int(start[-1])
        if not total:
            continue
        room = total if budget is None else min(total, budget - checks)
        checks += room
        # The tested pairs are those of class-least rows that the first
        # `room` triples reach.  Pair (ic[x], jb[y]) begins after
        # start[x + 1] - tail[y] triples, so row x holds the n_row[x] pairs
        # with tail[y] > -left[x], and the budget cuts pair y at third
        # member lo[y] + tail[y] + left[x]: only the last tested pair, when
        # its row is the one where the budget runs out.
        xs = np.flatnonzero(least[ic] & (start[:-1] < room))
        left = room - start[xs + 1]
        n_row = np.searchsorted(-tail[:-1], left) - first[xs]
        ends = np.cumsum(n_row)
        shift = first[xs] + n_row - ends
        npairs = int(n_row.sum())
        u_index = kept[u0:u1]
        u_words = words[u_index]
        cols = np.arange(u1 - u0)
        step = max(1, BETA_CHUNK_CELLS // (width * max(64, u1 - u0)))
        for p0 in range(0, npairs, step):
            # Tested pair p is (ic[xs[r]], jb[p + shift[r]]), r its row.
            p = np.arange(p0, min(p0 + step, npairs))
            r = ends.searchsorted(p, side="right")
            y = p + shift[r]
            I, J = ic[xs[r]], jb[y]
            ok = ~(words[I] & words[J]).any(axis=1)
            I, J = I[ok], J[ok]
            if not len(I):
                continue
            st = np.zeros((len(I), 64 * width), dtype=bool)
            prod = G.table[elements[c][I - by_size[c][0], :, None], elements[b][J - by_size[b][0], None, :]]
            st[np.arange(len(I))[:, None], prod.reshape(len(I), -1)] = True
            st_words = np.packbits(st, axis=1, bitorder="little").view("<u8")
            valid = ~(st_words[:, None, :] & u_words[None, :, :]).any(axis=2) & (cols >= lo[y[ok], None])
            if p[-1] == npairs - 1 and ok[-1]:
                valid[-1, lo[y[-1]] + tail[y[-1]] + left[-1] :] = False
            hit = int(valid.argmax())
            if valid.flat[hit]:
                q, k = divmod(hit, u1 - u0)
                found = int(I[q]) + 1, int(J[q]) + 1, int(u_index[k]) + 1
                witness = found if product > best else min(witness, found)
                best = product
                break
        if room < total:
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
    candidates: np.ndarray | None = None


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
    degrees = character_degrees(G)
    t = compute_t(G, lattice)
    hb = compute_h(G, lattice, lattice.cores)
    d3 = d_sum_int(degrees, 3)
    beta = search_beta_g(G, lattice, budget=beta_budget, cores=lattice.cores) if exact_beta else None
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
