"""Capacity bounds: t, N, delta, b, h, exact beta_g search, flags, solver."""

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tppb import bounds, errors
from tppb.bounds import (
    HBound,
    admissible_profiles,
    bounds_report,
    compute_N,
    compute_h,
    compute_t,
    exclusion_flags,
    neumann_admissible,
    search_beta_g,
    solve_omega_bound,
)
from tppb.chars import CharacterDegrees, character_degrees, d_sum_int, d_sum_real
from tppb.groups import ElementSet, builtin, direct_product
from tppb.lattice import SubgroupLattice, enumerate_subgroups, normal_cores
from tppb.cli import parse_group_spec, realize_group_spec
from tppb.tpp import TppVerdict, right_quotient, satisfies_tpp
from oracles import (
    delta_index_based,
    naive_beta_over_subgroups,
    per_index_h,
    per_member_delta_by_order,
    per_member_t,
    per_triple_search_beta_g,
    renumbered,
    scan_N,
)


def lat_of(G):
    return enumerate_subgroups(G)


def make(spec):
    if "x" in spec:
        left, right = spec.split("x")
        return direct_product(make(left), make(right))
    family, p = spec.split(":")
    return builtin(family, int(p))


class TestNeumannAdmissible:
    def test_s3_boundary(self):
        assert neumann_admissible(6, 2, 2, 2)
        assert not neumann_admissible(6, 3, 2, 2)

    def test_trivial_tail_always_admissible(self):
        for g in (1, 5, 24):
            for a in range(1, g + 1):
                assert neumann_admissible(g, a, 1, 1)

    def test_unsorted_rejected(self):
        for bad in [(2, 3, 2), (2, 2, 3), (3, 1, 2), (1, 1, 0)]:
            with pytest.raises(errors.UnsortedSizes):
                neumann_admissible(6, *bad)


class TestAdmissibleProfiles:
    def test_matches_brute_force_on_catalog(self, catalog, catalog_lattices):
        for name, G in catalog:
            orders = [len(s) for s in catalog_lattices[name].items]
            counts = Counter(orders)
            sizes = sorted(counts, reverse=True)
            want = [
                (a, b, c)
                for a, b, c in itertools.product(sizes, repeat=3)
                if a >= b >= c
                and a * (b + c - 1) <= G.order
                and all(v == 1 or orders.count(v) >= (a, b, c).count(v) for v in (a, b, c))
            ]
            assert list(admissible_profiles(counts, G.order)) == want, name


class TestComputeT:
    # Values hand-evaluated from each group's subgroup order multiset.
    @pytest.mark.parametrize(
        "spec,want",
        [
            ("sym:3", 8),
            ("dicyclic:8", 8),
            ("cyclic:5", 5),
            ("cyclic:12", 12),
            ("dicyclic:12", 12),
            ("dihedral:8", 8),
            ("sym:4", 48),
            ("alt:5", 180),
            ("sym:3xsym:3", 72),
            ("dihedral:24", 48),
            ("dicyclic:24", 48),
            ("cyclic:3xdihedral:8", 48),
            ("cyclic:3xdicyclic:8", 48),
            ("alt:4xcyclic:2", 48),
            ("dihedral:12xcyclic:2", 48),
            ("sym:3xcyclic:4", 48),
            # Raw maximum 40 via (10,2,2) is below |G|; result floors at 50.
            ("dihedral:50", 50),
            ("cyclic:5xdihedral:10", 125),
        ],
    )
    def test_frozen(self, spec, want):
        G = make(spec)
        assert compute_t(G, lat_of(G)) == want

    def test_floor_at_group_order(self):
        # Only one involution exists, so no distinct admissible triple.
        G = builtin("dicyclic", 12)
        assert compute_t(G, lat_of(G)) == G.order


class TestOrdersArray:
    """t, N, delta and h read `SubgroupLattice.orders` in bulk; each must
    equal its per-member reference, every candidate row included, and
    every candidate's delta is positive and the reference delta at its
    order."""

    @staticmethod
    def check(name, G, lat):
        assert lat.orders.dtype == np.int64, name
        assert lat.orders.tolist() == [len(s) for s in lat.items], name
        cores = normal_cores(G, lat)
        assert compute_t(G, lat) == per_member_t(G, lat), name
        assert compute_N(G, lat) == scan_N(G, lat), name
        delta_of = per_member_delta_by_order(G, lat)
        assert bounds._delta_by_order(G, lat) == delta_of, name
        hb, want = compute_h(G, lat, cores), per_index_h(G, lat, cores)
        assert (hb.b, hb.h, hb.N) == (want.b, want.h, want.N), name
        assert hb.candidates.dtype == np.int64, name
        assert np.array_equal(hb.candidates, want.candidates), name
        assert all(0 < delta == delta_of[order] for order, delta in hb.candidates[:, [1, 3]].tolist()), name

    def test_catalog(self, catalog, catalog_lattices):
        for name, G in catalog:
            self.check(name, G, catalog_lattices[name])

    @pytest.mark.parametrize(
        "spec,seed",
        [
            ("sym:5", None),
            ("product(sym:4,dihedral:8)", None),
            ("elem_abelian:2^6", None),
            ("sym:5", 3),
            ("product(sym:4,dihedral:8)", 11),
        ],
    )
    def test_larger_groups(self, spec, seed):
        G = realize_group_spec(parse_group_spec(spec))
        if seed is not None:
            G = renumbered(G, seed)
        self.check(spec, G, lat_of(G))


class TestComputeN:
    @pytest.mark.parametrize(
        "spec,want",
        [
            ("sym:3", 4),
            ("dicyclic:8", 1),
            ("cyclic:12", 3),
            ("cyclic:4", 0),
            ("cyclic:5", 1),
            ("cyclic:1", 1),
            ("sym:4", 28),
            ("dihedral:8", 6),
        ],
    )
    def test_frozen(self, spec, want):
        G = make(spec)
        assert compute_N(G, lat_of(G)) == want

    def test_definition(self):
        G = make("dihedral:12")
        lat = lat_of(G)
        n_cap = compute_N(G, lat)
        s2, s3 = len(lat[2]), len(lat[3])
        assert len(lat[n_cap]) * (s2 + s3 - 1) <= G.order
        if n_cap < len(lat.items):
            assert len(lat[n_cap + 1]) * (s2 + s3 - 1) > G.order


class TestComputeDelta:
    """delta at lattice index i is `_delta_by_order` at the order of S_i."""

    def test_s3_order2_sees_other_pair(self):
        G = make("sym:3")
        lat = lat_of(G)
        delta = bounds._delta_by_order(G, lat)
        assert delta.get(len(lat[4])) == 4
        # Equal-order subgroups qualify regardless of index position.
        assert delta.get(len(lat[2])) == 4

    def test_s3_order3_fails_size_test(self):
        # 3*(2+2-1) = 9 > 6, so no pair is admissible at the order-3 member.
        G = make("sym:3")
        lat = lat_of(G)
        assert bounds._delta_by_order(G, lat).get(len(lat[5])) is None

    def test_d12_order3_sees_involution_pair(self):
        G = make("dihedral:12")
        lat = lat_of(G)
        assert bounds._delta_by_order(G, lat).get(len(lat[9])) == 4

    def test_quaternion_absent(self):
        G = make("dicyclic:8")
        lat = lat_of(G)
        assert bounds._delta_by_order(G, lat).get(len(lat[3])) is None

    def test_cyclic12_single_small_subgroup(self):
        G = make("cyclic:12")
        lat = lat_of(G)
        assert bounds._delta_by_order(G, lat).get(len(lat[2])) is None

    def test_s4_sylow(self):
        G = make("sym:4")
        lat = lat_of(G)
        assert bounds._delta_by_order(G, lat).get(len(lat[28])) == 4

    def test_index_out_of_range(self):
        G = make("sym:3")
        lat = lat_of(G)
        for i in (0, 7):
            with pytest.raises(errors.IndexOutOfRange):
                lat[i]

    @pytest.mark.parametrize("spec", ["sym:3", "dihedral:8", "dicyclic:8", "cyclic:12", "alt:4"])
    def test_dominates_index_based_under_tie_shuffles(self, spec):
        G = make(spec)
        lat = lat_of(G)
        orders = [len(s) for s in lat.items]
        rng = random.Random(99)
        arrangements = [list(orders)]
        for _ in range(20):
            arr = list(orders)
            lo = 0
            while lo < len(arr):
                hi = lo
                while hi < len(arr) and arr[hi] == arr[lo]:
                    hi += 1
                block = arr[lo:hi]
                rng.shuffle(block)
                arr[lo:hi] = block
                lo = hi
            arrangements.append(arr)
        delta = bounds._delta_by_order(G, lat)
        for arr in arrangements:
            for i in range(1, len(arr) + 1):
                relaxed = delta.get(len(lat[i]))
                strict = delta_index_based(arr, i, G.order)
                if strict is not None:
                    assert relaxed is not None and relaxed >= strict


class TestComputeH:
    @pytest.mark.parametrize(
        "spec,b_want,h_want",
        [
            ("sym:3", 8, 8),
            ("dicyclic:8", None, 8),
            ("cyclic:12", None, 12),
            ("sym:4", 48, 48),
            ("dihedral:8", 8, 8),
            ("dihedral:24", 48, 48),
            ("dicyclic:24", 48, 48),
            ("cyclic:3xdihedral:8", 36, 36),
            ("cyclic:3xdicyclic:8", 24, 24),
            ("dihedral:50", 40, 50),
            ("cyclic:5xdihedral:10", 125, 125),
            ("elem_abelian:16", 16, 16),
        ],
    )
    def test_frozen(self, spec, b_want, h_want):
        G = make(spec)
        lat = lat_of(G)
        res = compute_h(G, lat, normal_cores(G, lat))
        assert res.b == b_want
        assert res.h == h_want

    def test_s3_candidate_detail(self):
        G = make("sym:3")
        lat = lat_of(G)
        res = compute_h(G, lat, normal_cores(G, lat))
        # index, order, core, delta, left, right, min
        assert res.candidates.tolist() == [[4, 2, 1, 4, 12, 8, 8]]

    def test_h_at_least_group_order(self):
        for spec in ["cyclic:7", "dihedral:10", "dihedral:50", "elem_abelian:27"]:
            G = make(spec)
            lat = lat_of(G)
            assert compute_h(G, lat, normal_cores(G, lat)).h >= G.order

    def test_empty_candidate_range_has_no_rows(self):
        G = make("dicyclic:8")
        lat = lat_of(G)
        res = compute_h(G, lat, normal_cores(G, lat))
        assert res.candidates.shape == (0, 7)
        assert res.b is None


class TestSearchBeta:
    def test_s3_three_involution_subgroups(self):
        G = make("sym:3")
        res = search_beta_g(G, lat_of(G))
        assert res.value == 8
        assert res.exact
        assert res.witness == (2, 3, 4)

    @pytest.mark.parametrize(
        "spec,value,witness",
        [
            ("dicyclic:8", 8, (1, 1, 6)),
            ("cyclic:12", 12, (1, 1, 6)),
            ("dihedral:8", 8, (1, 1, 10)),
            ("elem_abelian:9", 9, (1, 1, 6)),
            ("cyclic:3xdicyclic:8", 24, (1, 1, 12)),
        ],
    )
    def test_frozen_group_order_cases(self, spec, value, witness):
        G = make(spec)
        res = search_beta_g(G, lat_of(G))
        assert (res.value, res.witness) == (value, witness)
        assert res.exact

    def test_witness_triple_verifies(self):
        for spec in ["sym:3", "sym:4", "dihedral:12", "alt:4"]:
            G = make(spec)
            lat = lat_of(G)
            res = search_beta_g(G, lat)
            s, t, u = (lat[i] for i in res.witness)
            assert satisfies_tpp(G, s, t, u).holds
            sizes = sorted((len(s), len(t), len(u)), reverse=True)
            assert neumann_admissible(G.order, *sizes)
            assert len(s) * len(t) * len(u) == res.value

    @pytest.mark.parametrize("spec", ["sym:3", "dihedral:8", "dicyclic:8", "cyclic:12", "alt:4", "dihedral:12"])
    def test_matches_naive_oracle(self, spec):
        G = make(spec)
        lat = lat_of(G)
        res = search_beta_g(G, lat)
        want = naive_beta_over_subgroups(
            G, lat.items, lambda g, s, t, u: satisfies_tpp(g, s, t, u).holds
        )
        assert res.value == want

    @pytest.mark.parametrize(
        "spec,value,witness,checks",
        [
            ("sym:4", 36, (2, 11, 25), 241),
            ("sym:5", 256, (37, 111, 116), 42_891),
            ("dicyclic:48", 48, (1, 1, 36), 221),
        ],
    )
    def test_frozen_value_witness_and_checks(self, spec, value, witness, checks):
        # The check count moves if a prune is lost or profiles are reordered.
        G = make(spec)
        res = search_beta_g(G, lat_of(G))
        assert (res.value, res.witness, res.exact, res.checks) == (value, witness, True, checks)

    def test_matches_per_triple_search_at_every_budget(self, catalog, catalog_lattices):
        # Value, witness, exactness and check count must all agree, also
        # where the budget cuts a pair's range of third subgroups.
        cases = [(name, G, catalog_lattices[name]) for name, G in catalog]
        for spec in ["sym:5", "product(sym:4,cyclic:4)"]:
            G = realize_group_spec(parse_group_spec(spec))
            cases.append((spec, G, lat_of(G)))
        for name, G, lat in cases:
            cores = normal_cores(G, lat)
            full = search_beta_g(G, lat, None, cores)
            # One check short of the full search cuts its last tested range;
            # `full.checks` and one more end the scan exactly at its end.
            budgets = [None, 1, 2, 37, 500, 20_000, full.checks - 1, full.checks, full.checks + 1]
            if name in ("sym:4", "dicyclic:48"):
                # Every budget, so every profile boundary, where the next
                # profile returns before it tests anything.
                budgets += range(3, full.checks)
            for budget in budgets:
                if budget is not None and budget < 1:
                    continue
                got = search_beta_g(G, lat, budget, cores)
                assert got == per_triple_search_beta_g(G, lat, budget, cores), (name, budget)

    # Values of the search that tested every ordered triple of every
    # profile; the scan from class-least first members must give the same
    # results, check counts included.
    FROZEN_BETA = {
        "product(sym:4,dihedral:8)": (384, (67, 618, 723), True, 23_001_662),
        "alt:6": (972, (363, 364, 424), True, 760_766),
        "product(alt:5,sym:3)": (864, (198, 239, 578), True, 2_886_143),
    }

    @pytest.mark.parametrize("spec", FROZEN_BETA)
    def test_frozen_budget_scale_group(self, spec):
        G = realize_group_spec(parse_group_spec(spec))
        res = search_beta_g(G, lat_of(G))
        assert (res.value, res.witness, res.exact, res.checks) == self.FROZEN_BETA[spec]

    BEFORE_THE_CUT = {"product(sym:3,dihedral:8)": (14_100, 15_000, 27_200)}

    @pytest.mark.parametrize(
        "spec,value,witness,cut",
        [
            # b != c, and no valid triple through the first kept class of
            # order-c members.
            ("product(sym:3,dihedral:8)", 64, (7, 13, 112), 27_305),
            # b == c = 2, with one class-least order-2 member before 3.
            ("product(sym:3,cyclic:6)", 48, (3, 5, 31), 214),
            # b != c, with one class-least order-c member before 3.
            ("product(sym:4,cyclic:2)", 72, (3, 21, 90), 10_385),
        ],
    )
    def test_matches_per_triple_search_past_the_first_class(self, spec, value, witness, cut):
        # The witness's first member is a class-least member, but not the
        # profile's first one, so a scan that tested too few first members
        # would move it.  Budget `cut` ends the scan at the witness triple,
        # inside its profile, and one check less stops just before it.
        # The budgets of BEFORE_THE_CUT end the scan earlier, where a scan
        # that also tested class-least rows past the budget's cut would
        # find a triple it has not counted.
        G = realize_group_spec(parse_group_spec(spec))
        lat = lat_of(G)
        cores = normal_cores(G, lat)
        res = search_beta_g(G, lat, None, cores)
        assert res == per_triple_search_beta_g(G, lat, None, cores)
        assert (res.value, res.witness, res.exact) == (value, witness, True)
        for budget in (*self.BEFORE_THE_CUT.get(spec, ()), cut - 1, cut):
            got = search_beta_g(G, lat, budget, cores)
            assert got == per_triple_search_beta_g(G, lat, budget, cores), budget
            assert (got.witness == witness) == (budget == cut), budget

    def test_budget_stopping_after_restricted_misses(self):
        # alt:6 has 29 searched profiles, and only the last, (18, 18, 3),
        # has a valid triple.  This budget stops inside it, 1,266 checks
        # short of the end, after 28 profiles that the scan from
        # class-least first members found empty.  Frozen from the search
        # that tested every ordered triple.
        G = builtin("alt", 6)
        res = search_beta_g(G, lat_of(G), budget=759_500)
        assert (res.value, res.witness, res.exact, res.checks) == (972, (363, 364, 424), False, 759_500)

    # Search result and tracemalloc peak bound by group.
    CHUNK_MEMORY = {
        # Its one searched profile (8, 4, 4) has 6,441 pairs of 120 third
        # subgroups each: 6.2 MB of pair-by-U words if tested in one array.
        "product(dihedral:8,dihedral:8)": ((128, (39, 74, 301), True, 772_921), 1 << 20),
        # 10,552 subgroups; its hit profile's pairs of class-least first
        # members took 61 MiB as whole-profile index arrays.
        "product(dihedral:6,elem_abelian:2^5)": ((256, (33, 65, 10488), True, 13_041_598_609), 16 << 20),
    }

    @pytest.mark.parametrize("spec", CHUNK_MEMORY, ids=["dihedral:8xdihedral:8", "dihedral:6xelem_abelian:2^5"])
    def test_pair_chunks_bound_memory(self, spec):
        want, limit = self.CHUNK_MEMORY[spec]
        G = realize_group_spec(parse_group_spec(spec))
        lat = lat_of(G)
        cores = normal_cores(G, lat)
        tracemalloc.start()
        try:
            res = search_beta_g(G, lat, None, cores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.value, res.witness, res.exact, res.checks) == want
        # A few chunk arrays of at most 256 KiB plus arrays no longer than
        # the lattice.
        assert peak < limit

    @pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "sym:3"])
    @pytest.mark.parametrize("budget", [0, -1, -500, 2.5, True, "10", pytest.param(-(10**5000), id="-10**5000")])
    def test_budget_below_one_is_rejected(self, spec, budget):
        G = make(spec)
        with pytest.raises(errors.BadParameter, match="budget"):
            search_beta_g(G, lat_of(G), budget=budget)

    def test_failed_witness_verification_raises(self, monkeypatch):
        G = make("sym:4")
        lat = lat_of(G)
        seed = (lat.items[0], lat.items[0], lat.items[-1])

        # The witness is verified on its members' quotients, equal to the
        # members themselves for subgroups.
        def seed_only(G, QS, QT, QU):
            return TppVerdict((QS, QT, QU) == seed)

        monkeypatch.setattr(bounds, "_tpp", seed_only)
        with pytest.raises(errors.InvariantViolation, match="beta witness"):
            search_beta_g(G, lat)

    def test_witness_member_not_a_subgroup_raises(self):
        # {0, 16, 17} in sym:4 is not closed.  In place of lattice member 11
        # the scan, which reads members as subgroups, still takes it into the
        # witness (2, 11, 24) of beta 36, and its TPP check alone passes.
        G = make("sym:4")
        lat = lat_of(G)
        items = list(lat.items)
        items[10] = ElementSet.from_indices([0, 16, 17])
        assert right_quotient(G, items[10]) != items[10]
        with pytest.raises(errors.InvariantViolation, match=r"beta witness: triple \(2, 11, 24\)"):
            search_beta_g(G, SubgroupLattice(items, lat.classes, lat.cores, lat.orders))

    def test_budget_exhaustion_flags_inexact(self):
        G = make("sym:4")
        res = search_beta_g(G, lat_of(G), budget=1)
        assert not res.exact
        assert res.value >= G.order

    def test_value_never_below_group_order(self):
        for spec in ["cyclic:9", "dihedral:16", "sym:4", "alt:5"]:
            G = make(spec)
            assert search_beta_g(G, lat_of(G)).value >= G.order

    def test_checks_counted(self):
        G = make("sym:3")
        res = search_beta_g(G, lat_of(G))
        assert res.checks >= 1


class TestExclusionFlags:
    def test_s3(self):
        flags = exclusion_flags(8, 8, 8, 10)
        assert flags.t_le_d3 and flags.h_le_d3 and flags.beta_le_d3

    def test_without_beta(self):
        flags = exclusion_flags(48, 48, None, 44)
        assert not flags.t_le_d3
        assert not flags.h_le_d3
        assert flags.beta_le_d3 is None

    def test_boundary_inclusive(self):
        flags = exclusion_flags(36, 36, None, 36)
        assert flags.t_le_d3 and flags.h_le_d3


class TestSolveOmega:
    def test_trivial_regime_absent(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        assert solve_omega_bound(10, deg) is None
        assert solve_omega_bound(8, deg) is None

    def test_beta_12_root(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        root = solve_omega_bound(12, deg)
        assert root is not None
        assert 2.3 < root < 2.5
        assert abs(d_sum_real(deg, root) - 12 ** (root / 3)) < 1e-6
        # Largest root: strictly inside the trivial regime above it.
        for x in (root + 0.01, root + 0.1, 2.999):
            assert d_sum_real(deg, x) < 12 ** (x / 3)

    def test_deterministic(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        assert solve_omega_bound(12, deg) == solve_omega_bound(12, deg)

    def test_no_root_reported(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        with pytest.raises(errors.NoRootInRange):
            solve_omega_bound(15, deg)


class TestBoundsReport:
    def test_s3_end_to_end(self):
        G = make("sym:3")
        rep = bounds_report(G, group_name="s3", exact_beta=True)
        assert rep.name == "s3"
        assert rep.order == 6
        assert (rep.N, rep.t, rep.b_or_blank, rep.h, rep.d3) == (4, 8, 8, 8, 10)
        assert rep.beta_g_or_blank == 8
        assert rep.beta_witness == (2, 3, 4)
        assert rep.t_le_d3 and rep.h_le_d3 and rep.beta_g_or_blank <= rep.d3

    def test_chain_when_beta_computed(self):
        for spec in ["sym:4", "dihedral:12", "dicyclic:16", "cyclic:3xdihedral:8"]:
            G = make(spec)
            rep = bounds_report(G, exact_beta=True)
            assert rep.beta_g_or_blank <= rep.h <= rep.t
            assert rep.h >= G.order

    @pytest.mark.parametrize(
        "h,budget,invariant",
        [
            (10**6, None, "h <= t"),  # above t = 8
            (7, None, "beta_g <= h"),  # below the exact beta 8
            (5, 1, "beta_g <= h"),  # below the inexact lower bound |G| = 6
        ],
    )
    def test_bound_chain_is_a_hard_error(self, monkeypatch, h, budget, invariant):
        monkeypatch.setattr(bounds, "compute_h", lambda G, lat, cores: HBound(b=h, h=h, candidates=[], N=0))
        with pytest.raises(errors.InvariantViolation, match=invariant):
            bounds_report(make("sym:3"), exact_beta=True, beta_budget=budget)

    def test_beta_omitted_by_default(self):
        rep = bounds_report(make("sym:3"))
        assert rep.beta_g_or_blank is None
        assert rep.beta_exact is None

    def test_d3_is_cubic_degree_sum(self):
        G = make("sym:3")
        assert bounds_report(G).d3 == d_sum_int(character_degrees(G), 3)
