"""End-to-end gate for the whole pipeline.

Each class freezes one guarantee the package makes: the bound chain on
the builtin catalog, exact hand-checked values for the smallest
nonabelian group, exclusion tallies for the shipped order-24 and
order-50 catalogs, triviality on abelian groups, character-degree
identities, agreement with unpruned oracles, randomized structural
properties of the TPP check, and byte-level determinism of batch runs.
"""

import itertools
import random
import time
from pathlib import Path

from tppb.bounds import (
    bounds_report,
    compute_h,
    compute_t,
    neumann_admissible,
    search_beta_g,
)
from tppb.chars import character_degrees, d_sum_int
from tppb.cli import main
from tppb.groups import (
    ElementSet,
    builtin,
    conjugacy_classes,
    derived_subgroup,
    group_stats,
)
from tppb.lattice import enumerate_subgroups, normal_cores
from tppb.tpp import satisfies_tpp

from oracles import (
    brute_force_subgroup_masks,
    naive_beta_over_subgroups,
    quotient_tpp,
    s4_degrees_by_inner_products,
)

CATALOG_DIR = Path(__file__).resolve().parent.parent / "catalogs"


class TestChainProperty:
    """beta_g <= h <= t as exact integers across the builtin catalog."""

    def test_chain_holds_for_every_group_up_to_order_48(self, catalog):
        start = time.monotonic()
        covered = 0
        for name, G in catalog:
            if G.order > 48:
                continue
            lattice = enumerate_subgroups(G)
            cores = normal_cores(G, lattice)
            beta = search_beta_g(G, lattice, cores=cores)
            hb = compute_h(G, lattice, cores)
            t = compute_t(G, lattice)
            assert beta.exact, name
            assert isinstance(beta.value, int), name
            assert isinstance(hb.h, int), name
            assert isinstance(t, int), name
            assert beta.value <= hb.h <= t, (name, beta.value, hb.h, t)
            covered += 1
        elapsed = time.monotonic() - start
        assert covered >= 50
        assert elapsed < 120.0

    def test_catalog_covers_all_required_families(self, catalog):
        small = [name for name, G in catalog if G.order <= 48]
        required = (
            "cyclic:",
            "dihedral:",
            "dicyclic:",
            "sym:3",
            "sym:4",
            "alt:4",
            "elem_abelian:",
            "product(",
        )
        for prefix in required:
            assert any(name.startswith(prefix) for name in small), prefix


class TestSym3EndToEnd:
    """Every bound collapses to 8 on the smallest nonabelian group."""

    def test_all_bounds_agree_at_eight(self):
        G = builtin("sym", 3)
        report = bounds_report(G, group_name="s3", exact_beta=True)
        assert report.t == 8
        assert report.b_or_blank == 8
        assert report.h == 8
        assert report.beta_g_or_blank == 8
        assert report.beta_exact is True
        assert report.d3 == 10
        assert report.t_le_d3 is True
        assert report.h_le_d3 is True

    def test_witness_is_three_distinct_order_two_subgroups(self):
        G = builtin("sym", 3)
        lattice = enumerate_subgroups(G)
        result = search_beta_g(G, lattice)
        assert result.value == 8
        members = [lattice[i] for i in result.witness]
        assert [len(s) for s in members] == [2, 2, 2]
        assert len({s.mask for s in members}) == 3
        assert satisfies_tpp(G, *members).holds


class TestOrder24Catalog:
    """Exclusion tallies over the twelve nonabelian groups of order 24."""

    def test_batch_tallies(self, tmp_path, capsys):
        manifest = CATALOG_DIR / "order24_nonabelian.manifest"
        out = tmp_path / "order24.csv"
        start = time.monotonic()
        code = main(["batch", str(manifest), "--out", str(out)])
        elapsed = time.monotonic() - start
        summary = capsys.readouterr().out.strip()
        assert code == 0
        assert summary == "order=24 groups=12 t_le_d3=4 h_le_d3=6"
        assert elapsed < 60.0


class TestOrder50Catalog:
    """Exclusion tallies over the three nonabelian groups of order 50."""

    def test_batch_tallies(self, tmp_path, capsys):
        manifest = CATALOG_DIR / "order50_nonabelian.manifest"
        out = tmp_path / "order50.csv"
        start = time.monotonic()
        code = main(["batch", str(manifest), "--out", str(out)])
        elapsed = time.monotonic() - start
        summary = capsys.readouterr().out.strip()
        assert code == 0
        assert summary == "order=50 groups=3 t_le_d3=1 h_le_d3=2"
        assert elapsed < 10.0


class TestAbelianTriviality:
    """On abelian groups every quantity pins to the group order."""

    def test_h_beta_and_cubic_degree_sum_equal_order(
        self, catalog, catalog_lattices
    ):
        checked = 0
        for name, G in catalog:
            if G.order > 64 or not group_stats(G).is_abelian:
                continue
            lattice = catalog_lattices[name]
            cores = normal_cores(G, lattice)
            hb = compute_h(G, lattice, cores)
            beta = search_beta_g(G, lattice, cores=cores)
            d3 = d_sum_int(character_degrees(G), 3)
            assert beta.exact, name
            assert hb.h == G.order, name
            assert beta.value == G.order, name
            assert d3 == G.order, name
            checked += 1
        assert checked >= 25


class TestCharacterInvariants:
    """Structural identities the degree multiset must satisfy."""

    def test_degree_identities_across_catalog(self, catalog):
        start = time.monotonic()
        for name, G in catalog:
            if G.order > 100:
                continue
            n = G.order
            deg = character_degrees(G)
            partition = conjugacy_classes(G)
            assert sum(d * d for d in deg.degrees) == n, name
            assert len(deg.degrees) == len(partition.classes), name
            assert all(n % d == 0 for d in deg.degrees), name
            abelianization = n // len(derived_subgroup(G))
            assert deg.degrees.count(1) == abelianization, name
        elapsed = time.monotonic() - start
        assert elapsed < 60.0

    def test_sym4_degrees_match_inner_product_oracle(self):
        G = builtin("sym", 4)
        partition = conjugacy_classes(G)
        expected = s4_degrees_by_inner_products(G, partition)
        assert expected == [1, 1, 2, 3, 3]
        assert list(character_degrees(G).degrees) == expected


class TestOracleEquivalence:
    """Pruned implementations agree exactly with unpruned references."""

    def test_pruned_beta_matches_naive_enumeration_up_to_order_16(
        self, catalog, catalog_lattices
    ):
        checked = 0
        for name, G in catalog:
            if G.order > 16:
                continue
            lattice = catalog_lattices[name]
            # Each member's right quotient is taken once per group.
            holds = quotient_tpp(G)
            naive = naive_beta_over_subgroups(G, lattice.items, lambda G, S, T, U: holds(S, T, U))
            pruned = search_beta_g(G, lattice)
            assert pruned.exact, name
            assert pruned.value == naive, name
            checked += 1
        assert checked >= 28

    def test_lattice_matches_closed_subset_scan_up_to_order_24(
        self, catalog, catalog_lattices
    ):
        checked = 0
        for name, G in catalog:
            if G.order > 24:
                continue
            expected = brute_force_subgroup_masks(G)
            got = {s.mask for s in catalog_lattices[name].items}
            assert got == expected, name
            checked += 1
        assert checked >= 35


class TestTppPropertySuite:
    """Randomized structural properties of the subset-level TPP check."""

    TRIALS = 1000
    SEED = 20260814

    def test_invariance_monotonicity_and_size_necessity(self, catalog):
        small = [(name, G) for name, G in catalog if G.order <= 12]
        assert len(small) >= 20
        rng = random.Random(self.SEED)

        def random_subset(universe):
            size = rng.randint(1, len(universe))
            return ElementSet.from_indices(rng.sample(universe, size))

        held = 0
        for _ in range(self.TRIALS):
            name, G = small[rng.randrange(len(small))]
            S, T, U = (random_subset(range(G.order)) for _ in range(3))
            base = satisfies_tpp(G, S, T, U).holds

            # The property is symmetric in the three components.
            for ordering in itertools.permutations((S, T, U)):
                assert satisfies_tpp(G, *ordering).holds == base, name

            if not base:
                continue
            held += 1

            # Sorted sizes of any holding triple pass the size test.
            a, b, c = sorted((len(S), len(T), len(U)), reverse=True)
            assert neumann_admissible(G.order, a, b, c), name

            # Shrinking components never breaks a holding triple.
            for _ in range(3):
                shrunk = [random_subset(list(X.indices())) for X in (S, T, U)]
                assert satisfies_tpp(G, *shrunk).holds, name

        assert held >= 50


class TestDeterminism:
    """Batch output is byte-stable across runs and worker counts."""

    def test_repeat_and_parallel_runs_byte_identical(self, tmp_path, capsys):
        manifest = CATALOG_DIR / "order24_nonabelian.manifest"
        outputs = []
        for tag, extra in (("a", []), ("b", []), ("c", ["--jobs", "8"])):
            out = tmp_path / f"run_{tag}.csv"
            code = main(["batch", str(manifest), "--out", str(out)] + extra)
            capsys.readouterr()
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
