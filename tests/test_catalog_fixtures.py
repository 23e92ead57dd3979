"""Catalog fixtures: completeness fingerprints and frozen per-group values.

Every numeric expectation below was derived by hand from the subgroup order
multiset and the character degree multiset of the named isomorphism class,
before the pipeline ran on these files.
"""

from collections import Counter
from pathlib import Path

import pytest

from tppb.chars import character_degrees, d_sum_int
from tppb.bounds import bounds_report
from tppb.cli import load_manifest, realize_group_spec
from tppb.groups import element_order
from tppb.lattice import enumerate_subgroups

CATALOG_DIR = Path(__file__).resolve().parent.parent / "catalogs"

# name -> (subgroup_count, class_count, d3, t, b, h)
ORDER24 = {
    "sym4": (30, 5, 64, 48, 48, 48),
    "sl_2_3": (15, 7, 54, 48, 48, 48),
    "a4xc2": (26, 8, 60, 48, 48, 48),
    "d24": (34, 9, 44, 48, 48, 48),
    "dic24": (18, 9, 44, 48, 48, 48),
    "c3_by_c8": (10, 12, 40, 36, 24, 24),
    "c3xd8": (20, 15, 36, 48, 36, 36),
    "c3xq8": (12, 15, 36, 48, 24, 24),
    "s3xc4": (26, 12, 40, 48, 48, 48),
    "d12xc2": (54, 12, 40, 48, 48, 48),
    "dic12xc2": (22, 12, 40, 48, 48, 48),
    "c3_by_d8": (30, 9, 44, 48, 48, 48),
}

ORDER50 = {
    "d50": (34, 14, 98, 50, 40, 50),
    "c5xd10": (20, 20, 90, 125, 125, 125),
    "gdih_c5c5": (64, 14, 98, 125, 50, 50),
}


def manifest(name):
    return load_manifest(CATALOG_DIR / name)


def realized(man):
    out = []
    for name, spec in man.entries:
        G = realize_group_spec(spec, CATALOG_DIR)
        out.append((name, spec, bounds_report(G, group_name=name)))
    return out


@pytest.fixture(scope="module")
def order24():
    return realized(manifest("order24_nonabelian.manifest"))


@pytest.fixture(scope="module")
def order50():
    return realized(manifest("order50_nonabelian.manifest"))


class TestManifestShape:
    def test_order24_declares_and_counts(self):
        man = manifest("order24_nonabelian.manifest")
        assert man.declared_order == 24
        assert len(man.entries) == 12

    def test_order50_declares_and_counts(self):
        man = manifest("order50_nonabelian.manifest")
        assert man.declared_order == 50
        assert len(man.entries) == 3


class TestRealizedGroups:
    def test_orders_match_declaration(self, order24, order50):
        for name, _, row in order24:
            assert row.order == 24, name
            assert row.is_abelian is False, name
        for name, _, row in order50:
            assert row.order == 50, name
            assert row.is_abelian is False, name

    def test_pairwise_nonisomorphic_fingerprints(self, order24, order50):
        for batch, base in ((order24, CATALOG_DIR), (order50, CATALOG_DIR)):
            prints = []
            for name, spec, row in batch:
                from tppb.cli import realize_group_spec

                G = realize_group_spec(spec, base_dir=base)
                orders = tuple(sorted(Counter(
                    element_order(G, g) for g in range(G.order)
                ).items()))
                prints.append((name, (orders, row.subgroup_count)))
            seen = {}
            for name, fp in prints:
                assert fp not in seen, f"{name} matches {seen.get(fp)}"
                seen[fp] = name


class TestFrozenValues:
    @pytest.mark.parametrize("name", sorted(ORDER24))
    def test_order24_rows(self, order24, name):
        row = next(r for n, _, r in order24 if n == name)
        want = ORDER24[name]
        got = (row.subgroup_count, row.class_count, row.d3, row.t, row.b_or_blank, row.h)
        assert got == want

    @pytest.mark.parametrize("name", sorted(ORDER50))
    def test_order50_rows(self, order50, name):
        row = next(r for n, _, r in order50 if n == name)
        want = ORDER50[name]
        got = (row.subgroup_count, row.class_count, row.d3, row.t, row.b_or_blank, row.h)
        assert got == want

    def test_order24_tally(self, order24):
        t_count = sum(1 for _, _, r in order24 if r.t_le_d3)
        h_count = sum(1 for _, _, r in order24 if r.h_le_d3)
        assert (t_count, h_count) == (4, 6)

    def test_order50_tally(self, order50):
        t_count = sum(1 for _, _, r in order50 if r.t_le_d3)
        h_count = sum(1 for _, _, r in order50 if r.h_le_d3)
        assert (t_count, h_count) == (1, 2)


class TestSpotChecks:
    def test_sl_2_3_structure(self):
        from tppb.cli import parse_group_spec, realize_group_spec

        G = realize_group_spec(parse_group_spec("perm:sl2_3.pgens"), base_dir=CATALOG_DIR)
        assert G.order == 24
        lat = enumerate_subgroups(G)
        # Unique involution (the centre), one order-8 member (quaternion Sylow).
        assert sum(1 for s in lat.items if len(s) == 2) == 1
        assert sum(1 for s in lat.items if len(s) == 8) == 1
        assert character_degrees(G).degrees == (1, 1, 1, 2, 2, 2, 3)

    def test_gdihedral_25_involutions(self):
        from tppb.cli import parse_group_spec, realize_group_spec

        G = realize_group_spec(
            parse_group_spec("perm:gdihedral_5_5.pgens"), base_dir=CATALOG_DIR
        )
        assert sum(1 for g in range(G.order) if element_order(G, g) == 2) == 25

    def test_c3_by_c8_element_orders(self):
        from tppb.cli import parse_group_spec, realize_group_spec

        G = realize_group_spec(parse_group_spec("perm:c3_by_c8.pgens"), base_dir=CATALOG_DIR)
        counts = Counter(element_order(G, g) for g in range(G.order))
        # a^i b^j has order 8 whenever j is odd, pinning the twisted action.
        assert counts[8] == 12

    def test_d3_values_match_degree_sums(self, order24):
        for name, spec, row in order24:
            from tppb.cli import realize_group_spec

            deg = character_degrees(realize_group_spec(spec, base_dir=CATALOG_DIR))
            assert d_sum_int(deg, 3) == row.d3, name
