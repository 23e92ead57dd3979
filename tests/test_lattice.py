"""Subgroup lattice enumeration, normality, and normal cores."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppb import errors, lattice
from tppb.cli import parse_group_spec, realize_group_spec
from tppb.groups import ElementSet, _bits, builtin, direct_product, from_permutation_generators
from tppb.lattice import enumerate_subgroups, normal_cores, perfect_residual
from oracles import (
    _conjugate_masks,
    brute_force_subgroup_masks,
    class_union_core,
    class_union_is_normal,
    conjugate_intersection_core,
    cyclic_join_lattice,
    derived_series_residual,
    label_perms,
    renumbered,
)


def spec_group(text):
    return realize_group_spec(parse_group_spec(text))


def order_multiset(lat):
    return sorted(len(s) for s in lat.items)


def extension_counts(monkeypatch, G):
    """(coset-search joins, prime-index gathers, lattice) of one
    enumeration of G."""
    calls = {"_coset_join": 0, "_gather_extension": 0}
    for name in calls:

        def counting(*args, name=name, real=getattr(lattice, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(lattice, name, counting)
    lat = enumerate_subgroups(G)
    return calls["_coset_join"], calls["_gather_extension"], lat


def sl_2_5():
    """SL(2,5), order 120, acting on the 24 nonzero vectors of F_5^2."""
    vectors = [(a, b) for a in range(5) for b in range(5) if a or b]
    place = {v: i + 1 for i, v in enumerate(vectors)}

    def perm(matrix):
        (p, q), (r, s) = matrix
        return [place[((p * a + q * b) % 5, (r * a + s * b) % 5)] for a, b in vectors]

    return from_permutation_generators(24, [perm(((1, 1), (0, 1))), perm(((0, 4), (1, 0)))])


def psl_2_7():
    """PSL(2,7), order 168, from (1,2,3,4,5,6,7) and (1,2)(3,5)."""
    return from_permutation_generators(7, [[2, 3, 4, 5, 6, 7, 1], [2, 1, 5, 4, 3, 6, 7]])


class TestEnumerate:
    def test_cyclic12_divisor_lattice(self):
        lat = enumerate_subgroups(builtin("cyclic", 12))
        assert order_multiset(lat) == [1, 2, 3, 4, 6, 12]

    def test_s3(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        assert order_multiset(lat) == [1, 2, 2, 2, 3, 6]

    def test_trivial_group(self):
        lat = enumerate_subgroups(builtin("cyclic", 1))
        assert order_multiset(lat) == [1]

    # Frozen counts, hand-checked against the standard structure of each
    # group (cyclic subgroup inventories plus joins).
    @pytest.mark.parametrize(
        "make,count",
        [
            (lambda: builtin("sym", 4), 30),
            (lambda: builtin("dicyclic", 8), 6),
            (lambda: builtin("dihedral", 8), 10),
            (lambda: builtin("alt", 4), 10),
            (lambda: builtin("alt", 5), 59),
            (lambda: builtin("dihedral", 24), 34),
            (lambda: builtin("dicyclic", 24), 18),
            (lambda: builtin("elem_abelian", 16), 67),
            (lambda: direct_product(builtin("sym", 3), builtin("cyclic", 4)), 26),
            (lambda: direct_product(builtin("cyclic", 3), builtin("dihedral", 8)), 20),
            (lambda: direct_product(builtin("cyclic", 3), builtin("dicyclic", 8)), 12),
            (lambda: direct_product(builtin("alt", 4), builtin("cyclic", 2)), 26),
            (lambda: direct_product(builtin("dihedral", 12), builtin("cyclic", 2)), 54),
        ],
    )
    def test_frozen_counts(self, make, count):
        assert len(enumerate_subgroups(make()).items) == count

    def test_sorted_with_endpoints(self):
        G = builtin("sym", 4)
        lat = enumerate_subgroups(G)
        sizes = [len(s) for s in lat.items]
        assert sizes == sorted(sizes)
        assert list(lat[1].indices()) == [0]
        assert len(lat[len(lat.items)]) == G.order

    def test_one_based_indexing(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        assert len(lat[1]) == 1
        assert len(lat[6]) == 6
        with pytest.raises(errors.IndexOutOfRange):
            lat[0]
        with pytest.raises(errors.IndexOutOfRange):
            lat[7]

    def test_tie_break_lexicographic(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        two_element = [tuple(s.indices()) for s in lat.items if len(s) == 2]
        assert two_element == sorted(two_element)

    def test_deterministic(self):
        G = direct_product(builtin("dihedral", 12), builtin("cyclic", 2))
        a = enumerate_subgroups(G)
        b = enumerate_subgroups(G)
        assert [s.mask for s in a.items] == [s.mask for s in b.items]

    def test_lattice_limit(self):
        with pytest.raises(errors.LatticeLimitExceeded):
            enumerate_subgroups(builtin("sym", 4), lattice_limit=10)

    @pytest.mark.parametrize("value", ["7", 0, -1, 2.5, True])
    def test_lattice_limit_must_be_a_positive_integer(self, value):
        with pytest.raises(errors.BadParameter, match="lattice limit"):
            enumerate_subgroups(builtin("sym", 3), lattice_limit=value)

    def test_lattice_limit_accepts_numpy_integers(self):
        assert enumerate_subgroups(builtin("sym", 3), lattice_limit=np.int64(6)).count == 6

    # Whole conjugacy classes are added at once, but the limit counts
    # members: the whole lattice passes at its size and fails one below.
    # A5's last class has five members, so a check per class overshoots.
    # In elem_abelian:16 every class has one member and the last one, the
    # whole group, comes from a prime-index gather.
    LIMIT_BOUNDARY = [("sym", 4, 30), ("alt", 5, 59), ("elem_abelian", 16, 67)]

    @pytest.mark.parametrize("family,k,count", LIMIT_BOUNDARY)
    def test_lattice_limit_boundary(self, family, k, count):
        G = builtin(family, k)
        assert enumerate_subgroups(G, lattice_limit=count).count == count
        with pytest.raises(errors.LatticeLimitExceeded):
            enumerate_subgroups(G, lattice_limit=count - 1)

    # The limit is checked as each class is added, not once per block, so
    # it holds to the member when every block is one representative.
    @pytest.mark.parametrize("family,k,count", LIMIT_BOUNDARY)
    def test_lattice_limit_boundary_one_representative_per_block(self, monkeypatch, family, k, count):
        monkeypatch.setattr(lattice, "LATTICE_CELLS", 1)
        self.test_lattice_limit_boundary(family, k, count)

    # Frozen work counts: coset-search joins (only from nonabelian
    # representatives R inside the perfect residual, once per N(R)-orbit
    # of seeds) and prime-index gathers (one per distinct extension R<g>
    # of a class representative R by the seeds it may gather by, however
    # many of them reach it), so a lost cut shows here even when timings
    # hide it.  A representative inside the centre gathers only by seeds
    # above its level in the central chain, so every subgroup of the
    # centre but 1 is gathered exactly once: in the abelian cyclic:30 and
    # elem_abelian:2^6 the gathers are the subgroup count minus one.
    # sym:4 and cyclic:30 are solvable: their derived series ends in the
    # trivial group, so no coset search runs.  In dihedral:6 x
    # elem_abelian:2^5, whose centre is elem_abelian:2^5, most of the walk
    # is gathers from noncentral representatives.
    FROZEN_EXTENSION_COUNTS = [
        ("sym:4", 0, 25),
        ("cyclic:30", 0, 7),
        ("sym:5", 11, 64),
        ("alt:6", 215, 146),
        ("sym:6", 163, 286),
        ("product(alt:5,cyclic:2)", 15, 103),
        ("product(sym:4,dihedral:8)", 0, 1177),
        ("elem_abelian:2^6", 0, 2824),
        ("product(dihedral:6,elem_abelian:2^5)", 0, 50696),
    ]

    @pytest.mark.parametrize("spec,coset_joins,gathers", FROZEN_EXTENSION_COUNTS)
    def test_frozen_extension_counts(self, monkeypatch, spec, coset_joins, gathers):
        assert extension_counts(monkeypatch, spec_group(spec))[:2] == (coset_joins, gathers)

    # The counts add up, over the classes, invariants of each class (the
    # N(R)-orbits of search seeds and the distinct prime-index extensions
    # of R), so they do not depend on the element numbering, which sets
    # the representatives and the order of the walk.  Nor do they depend
    # on the central chain, which follows the numbering: each subgroup of
    # the centre but 1 takes one gather whatever the chain.
    @pytest.mark.parametrize(
        "spec,coset_joins,gathers",
        [
            row
            for row in FROZEN_EXTENSION_COUNTS
            if row[0]
            in (
                "sym:5",
                "product(alt:5,cyclic:2)",
                "product(sym:4,dihedral:8)",
                "alt:6",
                "elem_abelian:2^6",
                "cyclic:30",
                "product(dihedral:6,elem_abelian:2^5)",
            )
        ],
    )
    def test_extension_counts_survive_renumbering(self, monkeypatch, spec, coset_joins, gathers):
        got = extension_counts(monkeypatch, renumbered(spec_group(spec), seed=spec))
        assert got[:2] == (coset_joins, gathers)

    # The block size sets only how many queued representatives share one
    # set of membership rows and seed tests: one representative per block
    # and the whole queue as one block give the default run's lattice,
    # classes, cores, orders and work counts.
    @pytest.mark.parametrize(
        "spec", ["sym:5", "product(alt:5,cyclic:2)", "product(sym:4,dihedral:8)", "elem_abelian:2^5", "alt:6"]
    )
    @pytest.mark.parametrize("cells", [1, 1 << 40], ids=["one-representative", "one-block"])
    def test_walk_does_not_depend_on_block_size(self, monkeypatch, spec, cells):
        G = spec_group(spec)
        default = extension_counts(monkeypatch, G)
        monkeypatch.setattr(lattice, "LATTICE_CELLS", cells)
        got = extension_counts(monkeypatch, G)
        assert got[:2] == default[:2]
        assert [s.mask for s in got[2].items] == [s.mask for s in default[2].items]
        for name in ("classes", "cores", "orders"):
            assert np.array_equal(getattr(got[2], name), getattr(default[2], name))

    # In an abelian group every subgroup lies in the centre, so each one
    # but 1 is gathered exactly once, at every prime and numbering: the
    # chain's steps add p - 1 cosets each, and in cyclic:4 x cyclic:4 and
    # cyclic:9 x cyclic:3 some central seeds have order p^2.
    @pytest.mark.parametrize(
        "spec",
        ["cyclic:30", "elem_abelian:2^6", "elem_abelian:3^3", "product(cyclic:4,cyclic:4)", "product(cyclic:9,cyclic:3)"],
    )
    @pytest.mark.parametrize("renumber", [False, True], ids=["built", "renumbered"])
    def test_abelian_gathers_each_subgroup_once(self, monkeypatch, spec, renumber):
        G = spec_group(spec)
        if renumber:
            G = renumbered(G, seed=spec)
        coset_joins, gathers, lat = extension_counts(monkeypatch, G)
        assert (coset_joins, gathers) == (0, lat.count - 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("sym", 3),
            lambda: builtin("dihedral", 8),
            lambda: builtin("dicyclic", 8),
            lambda: builtin("cyclic", 12),
            lambda: builtin("elem_abelian", 8),
            lambda: builtin("dihedral", 16),
            lambda: direct_product(builtin("cyclic", 2), builtin("dihedral", 8)),
        ],
    )
    def test_matches_closed_subset_scan(self, make):
        G = make()
        lat = enumerate_subgroups(G)
        assert {s.mask for s in lat.items} == brute_force_subgroup_masks(G)

    def test_matches_cyclic_join_oracle_on_catalog(self, catalog, catalog_lattices):
        for name, G in catalog:
            got = [s.mask for s in catalog_lattices[name].items]
            assert got == cyclic_join_lattice(G), name

    # Every class passes through _subgroup_class once, with the generators
    # of its representative and their support, the union of their
    # conjugacy classes.  Its normality test (the support inside K) must
    # agree with the union of the classes of all members, and for a
    # non-normal class the normalizer read from the generators and the
    # conjugates gathered at one element per coset must equal those from
    # conjugating every member by every element.  Two lattice members
    # share a number in `classes`, an int64 array aligned with `items`,
    # exactly when some element conjugates one onto the other: the members
    # of each number are the conjugates of its least member, by every
    # element.  The numbers are 0, 1, ... in the order of their least
    # members, in the given and in a renumbered numbering.
    def test_classes_match_conjugation_by_every_element(self, monkeypatch, catalog):
        calls = []
        real = lattice._subgroup_class

        def recording(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(lattice, "_subgroup_class", recording)
        groups = catalog + [(spec, spec_group(spec)) for spec in ("sym:5", "product(sym:4,dihedral:8)")]
        groups.append(("renumbered sym:4", renumbered(spec_group("sym:4"), seed="sym:4")))
        non_normal = 0
        for name, G in groups:
            calls.clear()
            lat = enumerate_subgroups(G)
            count = lat.count
            T, inv = G.table, G.inv
            assert lat.classes.dtype == np.int64 and lat.classes.shape == (count,), name
            members_of = {}
            for x, number in enumerate(lat.classes):
                assert number <= len(members_of), (name, x)
                members_of.setdefault(number, []).append(lat.items[x].mask)
            for number, masks in members_of.items():
                inside = _bits(masks[0], G.order)
                conjugates, _ = _conjugate_masks(T, inv, np.flatnonzero(inside), inside)
                assert sorted(conjugates) == sorted(masks), (name, number)
            assert sum(len(conjugates) for _, (conjugates, _) in calls) == count, name
            for (_, _, mask, gens, support), (conjugates, normalizer) in calls:
                classes = {x for g in gens for x in T[T[np.arange(G.order), g], inv].tolist()}
                assert support == sum(1 << x for x in classes), (name, gens)
                assert (normalizer is None) == class_union_is_normal(G, mask), (name, gens)
                if normalizer is not None:
                    non_normal += 1
                    inside = _bits(mask, G.order)
                    masks, oracle_normalizer = _conjugate_masks(T, inv, np.flatnonzero(inside), inside)
                    assert np.array_equal(normalizer, oracle_normalizer), (name, gens)
                    assert conjugates == masks, (name, gens)
        # Non-normal classes of subgroups over these groups, a property of
        # the groups alone: 203 of them in sym:4 x dihedral:8, and 7 in the
        # renumbered sym:4.
        assert non_normal == 363 + 7

    # The bulk sort orders masks by size and masks of one size by their
    # ascending index tuples, for any width: one element, widths that are
    # not whole bytes, and sizes of 256 or more, which need a second size
    # byte.
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bulk_sort_orders_by_index_tuples(self, data):
        bits = data.draw(st.sampled_from([1, 7, 8, 9, 255, 256, 257, 300, 600]) | st.integers(1, 600))
        if data.draw(st.booleans()):
            masks = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=40, unique=True))
        else:
            # Masks of one size, so each pair is ordered by its index tuples.
            size = data.draw(st.integers(0, bits))
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            masks = {sum(1 << i for i in rng.sample(range(bits), size)) for _ in range(data.draw(st.integers(0, 20)))}
        masks = list(masks)
        sizes = np.array([mask.bit_count() for mask in masks], dtype=np.int64)
        by_sort = [masks[x] for x in lattice._lattice_order(masks, sizes, bits)]
        by_indices = sorted(masks, key=lambda mask: (mask.bit_count(), tuple(ElementSet(mask).indices())))
        assert by_sort == by_indices

    # Past 2^16 elements a size takes three bytes.
    def test_bulk_sort_orders_sizes_past_two_bytes(self):
        n = (1 << 16) + 5
        masks = [(1 << 65536) - 1, ((1 << 65535) - 1) << 2, (1 << 65537) - 1, 1 << (n - 1) | 1, 3 << 200]
        sizes = np.array([mask.bit_count() for mask in masks], dtype=np.int64)
        by_sort = [masks[x] for x in lattice._lattice_order(masks, sizes, n)]
        by_indices = sorted(masks, key=lambda mask: (mask.bit_count(), tuple(ElementSet(mask).indices())))
        assert by_sort == by_indices

    # The queue is read in blocks of at most LATTICE_CELLS cells, so the
    # per-block rows and member and pair lists stay small.
    def test_traced_peak_stays_small(self):
        G = spec_group("elem_abelian:2^6")
        tracemalloc.start()
        try:
            count = enumerate_subgroups(G).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2825
        assert peak < 3_000_000

    # Renumbered groups: the element numbering sets the join order, the
    # representative of each class and the central chain.  In alt:5 x
    # cyclic:2 the perfect residual is proper and nontrivial, so both
    # coset searches and gathers run; elem_abelian:2^5 is reached by
    # gathers alone.  The central chain's edge cases: in elem_abelian:3^3
    # each step adds two cosets; cyclic:4 x cyclic:4 has central seeds of
    # order p^2; in dicyclic:8 x cyclic:2 the central involution of Q8
    # lies in its Frattini subgroup, so the chain to Q8 leaves the centre
    # by a noncentral seed; dihedral:8 x cyclic:4 has a centre of order 8
    # and both kinds of step.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: renumbered(spec_group("sym:5"), seed="sym:5"),
            lambda: renumbered(spec_group("product(sym:4,dihedral:8)"), seed="sym4xd8"),
            lambda: renumbered(spec_group("product(alt:4,alt:4)"), seed="a4xa4"),
            lambda: renumbered(spec_group("product(alt:5,cyclic:2)"), seed="a5xc2"),
            lambda: builtin("elem_abelian", 32),
            lambda: builtin("alt", 6),
            lambda: renumbered(spec_group("elem_abelian:3^3"), seed="e3_3"),
            lambda: spec_group("product(cyclic:4,cyclic:4)"),
            lambda: spec_group("product(dicyclic:8,cyclic:2)"),
            lambda: renumbered(spec_group("product(dihedral:8,cyclic:4)"), seed="d8xc4"),
        ],
        ids=[
            "sym:5-renumbered",
            "sym4xd8-renumbered",
            "a4xa4-renumbered",
            "a5xc2-renumbered",
            "elem_abelian:2^5",
            "alt:6",
            "elem_abelian:3^3-renumbered",
            "c4xc4",
            "q8xc2",
            "d8xc4-renumbered",
        ],
    )
    def test_matches_cyclic_join_oracle(self, make):
        G = make()
        got = [s.mask for s in enumerate_subgroups(G).items]
        assert got == cyclic_join_lattice(G)

    # Two perfect groups, P = G, where each join stops once it passes
    # |G|/5: SL(2,5), whose centre has order 2, and PSL(2,7), whose
    # largest proper subgroups (order 24, index 7) lie below that stop.
    @pytest.mark.parametrize("make,count,classes", [(sl_2_5, 76, 12), (psl_2_7, 179, 15)], ids=["SL(2,5)", "PSL(2,7)"])
    def test_perfect_group_matches_cyclic_join_oracle(self, make, count, classes):
        G = make()
        assert len(perfect_residual(G)) == G.order
        lat = enumerate_subgroups(G)
        assert (lat.count, len(set(lat.classes))) == (count, classes)
        assert [s.mask for s in lat.items] == cyclic_join_lattice(G)

    # The coset search runs once per N(R)-orbit of seeds, at the orbit's
    # least seed, so which seed runs follows the numbering.  A renumbered
    # group acts on the builtin by left multiplication, so each element is
    # the image of the identity under its permutation; mapped back through
    # that, its lattice must be the builtin's.
    @pytest.mark.parametrize("spec", ["alt:6", "sym:6"])
    def test_renumbered_lattice_maps_to_builtin(self, spec):
        G = spec_group(spec)
        H = renumbered(G, seed=spec)
        old = [p[0] for p in label_perms(H)]
        mapped = set()
        for s in enumerate_subgroups(H).items:
            mask = 0
            for i in s.indices():
                mask |= 1 << old[i]
            mapped.add(mask)
        assert mapped == {s.mask for s in enumerate_subgroups(G).items}

    @pytest.mark.parametrize("make", [lambda: builtin("sym", 4), lambda: builtin("dicyclic", 12)])
    def test_subgroup_invariants(self, make):
        G = make()
        lat = enumerate_subgroups(G)
        mul, inv = G.table.tolist(), G.inv.tolist()
        for s in lat.items:
            assert 0 in s
            assert G.order % len(s) == 0
            members = list(s.indices())
            assert all(mul[a][b] in s for a in members for b in members)
            assert all(inv[a] in s for a in members)

    def test_meet_closed(self):
        lat = enumerate_subgroups(builtin("dihedral", 12))
        masks = {s.mask for s in lat.items}
        for a in lat.items:
            for b in lat.items:
                assert (a.mask & b.mask) in masks


class TestPerfectResidual:
    @pytest.mark.parametrize(
        "spec,order",
        [("sym:4", 1), ("sym:5", 60), ("alt:5", 60), ("product(alt:5,sym:3)", 60), ("alt:6", 360)],
    )
    def test_order(self, spec, order):
        assert len(perfect_residual(spec_group(spec))) == order

    # The series from the stored G' agrees with the oracle's series, each
    # term the closure of all commutators of the one before.
    def test_matches_derived_series_on_catalog(self, catalog):
        for name, G in catalog:
            assert perfect_residual(G).mask == derived_series_residual(G), name


class TestIsNormal:
    """A member is normal exactly when it is its own normal core."""

    def test_s3_order2_not_normal(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        for i, s in enumerate(lat.items):
            if len(s) == 2:
                assert lat.cores[i] != i

    def test_quaternion_all_normal(self):
        lat = enumerate_subgroups(builtin("dicyclic", 8))
        assert np.array_equal(lat.cores, np.arange(lat.count))

    def test_center_is_normal(self):
        G = builtin("dihedral", 16)
        mul = G.table.tolist()
        center = ElementSet.from_indices(
            [z for z in range(G.order) if all(mul[z][g] == mul[g][z] for g in range(G.order))]
        )
        lat = enumerate_subgroups(G)
        i = lat.items.index(center)
        assert lat.cores[i] == i


class TestNormalCore:
    def test_normal_subgroup_is_its_own_core(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        (i,) = [i for i, s in enumerate(lat.items) if len(s) == 3]
        assert lat.cores[i] == i

    def test_s3_order2_core_trivial(self):
        lat = enumerate_subgroups(builtin("sym", 3))
        for i, s in enumerate(lat.items):
            if len(s) == 2:
                assert len(lat.items[lat.cores[i]]) == 1

    def test_dihedral8_in_s4_has_klein_core(self):
        lat = enumerate_subgroups(builtin("sym", 4))
        eights = [i for i, s in enumerate(lat.items) if len(s) == 8]
        assert len(eights) == 3
        for i in eights:
            core = lat.cores[i]
            assert len(lat.items[core]) == 4
            assert lat.cores[core] == core

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("sym", 4),
            lambda: builtin("dihedral", 24),
            lambda: direct_product(builtin("cyclic", 3), builtin("dihedral", 8)),
        ],
    )
    def test_core_is_largest_contained_normal_subgroup(self, make):
        lat = enumerate_subgroups(make())
        cores = lat.cores
        normal_masks = [s.mask for i, s in enumerate(lat.items) if cores[i] == i]
        for s, c in zip(lat.items, cores):
            core = lat.items[c]
            assert core.mask & ~s.mask == 0
            assert cores[c] == c
            for nm in normal_masks:
                if nm & ~s.mask == 0:
                    assert nm & ~core.mask == 0

    def test_normal_cores_aligned(self):
        G = builtin("sym", 3)
        lat = enumerate_subgroups(G)
        cores = normal_cores(G, lat)
        assert len(cores) == len(lat.items)
        assert [len(lat.items[c]) for c in cores] == [1, 1, 1, 1, 3, 6]

    def test_cores_match_conjugate_intersection_on_catalog(self, catalog, catalog_lattices):
        for name, G in catalog:
            lat = catalog_lattices[name]
            got = [lat.items[c].mask for c in normal_cores(G, lat)]
            assert got == [conjugate_intersection_core(G, s) for s in lat.items], name

    # The walk keeps each class's core as the AND of its conjugates; the
    # oracle takes the union of the element classes inside each member.
    # `cores` is an int64 array of member indices aligned with `items`: each
    # core lies inside its member, is its own core, and a member is its own
    # core exactly when the union of its elements' classes is itself.
    def test_cores_match_class_union(self, catalog, catalog_lattices):
        groups = [(name, G, catalog_lattices[name]) for name, G in catalog]
        for spec in ("sym:5", "product(sym:4,dihedral:8)", "dicyclic:292", "dihedral:1000"):
            G = spec_group(spec)
            groups.append((spec, G, enumerate_subgroups(G)))
        G = renumbered(spec_group("sym:5"), seed="sym:5")
        groups.append(("renumbered sym:5", G, enumerate_subgroups(G)))
        for name, G, lat in groups:
            cores, items = lat.cores, lat.items
            assert cores.dtype == np.int64 and cores.shape == (lat.count,), name
            assert np.array_equal(cores[cores], cores), name
            got = [items[c].mask for c in cores.tolist()]
            assert got == [class_union_core(G, s) for s in items], name
            for i, (s, core) in enumerate(zip(items, got)):
                assert core & ~s.mask == 0, (name, i)
                assert (cores[i] == i) == class_union_is_normal(G, s.mask), (name, i)
