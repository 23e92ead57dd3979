"""Group construction, builtin families, stats, classes, and closure."""

import random
import time
from pathlib import Path

import numpy as np
import pytest

import tppb.cli
from tppb import errors, groups
from tppb.cli import parse_group_spec, realize_group_spec
from tppb.groups import (
    ElementSet,
    builtin,
    check_order_limit,
    closure,
    configured_order_limit,
    conjugacy_classes,
    cyclic_subgroups,
    derived_subgroup,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    group_from_ctab_file,
    group_from_pgens_file,
    group_stats,
    prime_power,
)
from tppb.lattice import enumerate_subgroups, perfect_residual
from tppb.tpp import right_quotient, satisfies_tpp
from oracles import (
    brute_force_subgroup_masks,
    commutator_set_derived_subgroup,
    dicyclic_by_relations,
    element_order,
    label_perms,
    orbit_loop_partition,
    permutation_table,
    plain_closure,
    random_generators,
    renumbered,
    tuple_closure,
)

CATALOG_DIR = Path(__file__).resolve().parent.parent / "catalogs"

# An order-5 Latin square with identity row and column that is not a
# group table: element 1 squares to the identity, which no order-5
# group allows, so some associativity triple must fail.
NONASSOC5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


class TestFromCayleyTable:
    def test_trivial(self):
        G = from_cayley_table(1, [[0]])
        assert G.order == 1
        assert G.inv.tolist() == [0]

    def test_c2(self):
        G = from_cayley_table(2, [[0, 1], [1, 0]])
        assert G.order == 2
        assert G.inv.tolist() == [0, 1]
        assert G.table[1, 1] == 0

    def test_c5_accepted(self):
        G = from_cayley_table(5, cyclic_table(5))
        assert G.order == 5
        assert G.inv.tolist() == [0, 4, 3, 2, 1]

    def test_row_not_latin(self):
        with pytest.raises(errors.NotLatinSquare):
            from_cayley_table(2, [[0, 1], [1, 1]])

    def test_column_not_latin(self):
        # Rows are permutations but column 1 repeats.
        table = [
            [0, 1, 2],
            [1, 2, 0],
            [2, 1, 0],
        ]
        with pytest.raises(errors.NotLatinSquare):
            from_cayley_table(3, table)

    def test_no_identity_at_zero(self):
        with pytest.raises(errors.NoIdentityAtZero):
            from_cayley_table(2, [[1, 0], [0, 1]])

    def test_not_associative_with_witness(self):
        with pytest.raises(errors.NotAssociative) as exc:
            from_cayley_table(5, NONASSOC5)
        assert exc.value.witness == (1, 1, 2)

    def test_bad_shape_rejected(self):
        with pytest.raises(errors.TppbError):
            from_cayley_table(2, [[0, 1]])

    @pytest.mark.parametrize(
        "rows",
        [[[0, 1, 2], [1, 2], [2, 0, 1]], [[0, 1, 2], [1, 2, 10**20], [2, 0, 1]]],
        ids=["ragged", "overflow"],
    )
    def test_unconvertible_rows_rejected(self, rows):
        with pytest.raises(errors.BadParameter, match="3x3"):
            from_cayley_table(3, rows)

    def test_entry_out_of_range(self):
        with pytest.raises(errors.TppbError):
            from_cayley_table(2, [[0, 2], [2, 0]])

    def test_order_limit(self):
        with pytest.raises(errors.OrderLimitExceeded):
            from_cayley_table(3, cyclic_table(3), order_limit=2)

    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:8"])
    def test_strided_table_gives_opposite_group(self, spec):
        # G.table.T is a strided view, the table of the opposite group
        # a*b := b*a.  Inversion maps G onto it, and both have the same
        # subgroups as sets, so the scalar loops must agree on them.
        G = realize_group_spec(parse_group_spec(spec))
        H = from_cayley_table(G.order, G.table.T)
        assert H.table.flags.c_contiguous
        # Elements 1 and 2 generate either group.
        assert closure(H, (1, 2)) == closure(G, (1, 2)) == ElementSet((1 << G.order) - 1)
        assert enumerate_subgroups(H).count == enumerate_subgroups(G).count
        for sets in ([[0, 1, 2], [0, 3], [0, 5]], [[0, 2], [0, 3], [0, 5]]):
            verdict = satisfies_tpp(G, *map(ElementSet.from_indices, sets))
            flipped = [ElementSet.from_indices(G.inv[x].tolist()) for x in sets]
            assert satisfies_tpp(H, *flipped).holds == verdict.holds


class TestFromPermutationGenerators:
    def test_three_cycle(self):
        G = from_permutation_generators(3, [[2, 3, 1]])
        assert G.order == 3

    def test_s3(self):
        G = from_permutation_generators(3, [[2, 1, 3], [1, 3, 2]])
        assert G.order == 6

    def test_klein(self):
        G = from_permutation_generators(4, [[2, 1, 4, 3], [3, 4, 1, 2]])
        assert G.order == 4
        assert group_stats(G).is_abelian

    def test_composition_convention(self):
        # Product a*b applies b first: (1 2) * (2 3) maps 1 -> 2, 2 -> 3.
        G = from_permutation_generators(3, [[2, 1, 3], [1, 3, 2]])
        a = G.index_of_label("2 1 3")
        b = G.index_of_label("1 3 2")
        assert G.table[a, b] == G.index_of_label("2 3 1")

    def test_identity_is_index_zero(self):
        G = from_permutation_generators(3, [[2, 1, 3]])
        assert G.label_of(0) == "1 2 3"

    @pytest.mark.parametrize("degree", [1, 3, 12])
    def test_no_generators_is_trivial_group(self, degree):
        G = from_permutation_generators(degree, [])
        assert G.order == 1 and G.table.tolist() == [[0]] and G.inv.tolist() == [0]
        assert G.label_of(0) == " ".join(str(i) for i in range(1, degree + 1))

    def test_not_a_permutation(self):
        with pytest.raises(errors.NotAPermutation):
            from_permutation_generators(3, [[1, 1, 2]])

    def test_order_limit_reports_partial_count(self):
        # S3 from (1 2) and (2 3) has the levels {e}, {a, b}, {ba, ab},
        # {aba}: the fifth element is the second of level two, so limit 4
        # stops the closure inside a level.
        with pytest.raises(errors.OrderLimitExceeded) as exc:
            from_permutation_generators(3, [[2, 1, 3], [1, 3, 2]], order_limit=4)
        assert exc.value.partial_count == 5
        with pytest.raises(errors.OrderLimitExceeded) as exc:
            from_permutation_generators(3, [[2, 1, 3], [1, 3, 2]], order_limit=5)
        assert exc.value.partial_count == 6
        assert from_permutation_generators(3, [[2, 1, 3], [1, 3, 2]], order_limit=6).order == 6

    @pytest.mark.parametrize("k,fact", [(2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
    def test_symmetric_group_orders(self, k, fact):
        gens = [[2, 1] + list(range(3, k + 1))] if k == 2 else [
            [2, 1] + list(range(3, k + 1)),
            list(range(2, k + 1)) + [1],
        ]
        assert from_permutation_generators(k, gens).order == fact


class TestPrimePower:
    def test_matches_sieve_below_10000(self):
        limit = 10_000
        is_prime = [True] * limit
        is_prime[0] = is_prime[1] = False
        for p in range(2, limit):
            if is_prime[p]:
                for m in range(p * p, limit, p):
                    is_prime[m] = False
        want = {}
        for p in range(2, limit):
            if is_prime[p]:
                q, k = p, 1
                while q < limit:
                    want[q] = (p, k)
                    q, k = q * p, k + 1
        for q in range(-1, limit):
            assert prime_power(q) == want.get(q), q

    @pytest.mark.parametrize(
        "q,want",
        [
            (3**20000, (3, 20000)),
            (41**12000, (41, 12000)),
            (1000003**3000, (1000003, 3000)),
            ((2**61 - 1) ** 6, (2**61 - 1, 6)),
            (2 * 1009**9000, None),
            (1009**9000 * 1013**9000, None),
        ],
        ids=["3^20000", "41^12000", "1000003^3000", "mersenne61^6", "times-2", "two-primes"],
    )
    def test_large_orders_fast(self, q, want):
        start = time.perf_counter()
        assert prime_power(q) == want
        assert time.perf_counter() - start < 1.0


class TestBuiltin:
    @pytest.mark.parametrize(
        "family,param,order",
        [
            ("cyclic", 1, 1),
            ("cyclic", 2, 2),
            ("cyclic", 12, 12),
            ("dihedral", 4, 4),
            ("dihedral", 6, 6),
            ("dihedral", 24, 24),
            ("dicyclic", 8, 8),
            ("dicyclic", 12, 12),
            ("dicyclic", 24, 24),
            ("sym", 1, 1),
            ("sym", 3, 6),
            ("sym", 4, 24),
            ("alt", 3, 3),
            ("alt", 4, 12),
            ("alt", 5, 60),
            ("elem_abelian", 4, 4),
            ("elem_abelian", 8, 8),
            ("elem_abelian", 9, 9),
            ("elem_abelian", 49, 49),
        ],
    )
    def test_orders(self, family, param, order):
        assert builtin(family, param).order == order

    def test_dihedral_4_is_klein(self):
        st = group_stats(builtin("dihedral", 4))
        assert st.is_abelian and st.exponent == 2

    def test_dihedral_6_nonabelian(self):
        assert not group_stats(builtin("dihedral", 6)).is_abelian

    def test_quaternion_stats(self):
        st = group_stats(builtin("dicyclic", 8))
        assert not st.is_abelian
        assert st.exponent == 4
        assert st.center_size == 2

    def test_elem_abelian_exponents(self):
        assert group_stats(builtin("elem_abelian", 8)).exponent == 2
        assert group_stats(builtin("elem_abelian", 9)).exponent == 3

    @pytest.mark.parametrize(
        "family,param",
        [
            ("dihedral", 7),
            ("dihedral", 2),
            ("dicyclic", 6),
            ("dicyclic", 0),
            ("cyclic", 0),
            ("sym", 0),
            ("alt", 2),
            ("elem_abelian", 6),
            ("elem_abelian", 1),
        ],
    )
    def test_bad_parameter(self, family, param):
        with pytest.raises(errors.BadParameter):
            builtin(family, param)

    def test_unknown_family(self):
        with pytest.raises(errors.UnknownFamily):
            builtin("frieze", 8)

    def test_long_unknown_family_gives_short_message(self):
        with pytest.raises(errors.UnknownFamily) as exc:
            builtin("x" * 5000, 1)
        assert len(str(exc.value)) <= 200

    @pytest.mark.parametrize("m", [8, 12, 24, 212, 292, 1000, 2000])
    def test_dicyclic_closed_form_matches_relations(self, m):
        assert groups._dicyclic_perms(m) == dicyclic_by_relations(m)

    def test_one_family_list(self):
        assert groups.BUILTIN_FAMILIES == ("cyclic", "dihedral", "dicyclic", "sym", "alt", "elem_abelian")
        assert tppb.cli.BUILTIN_FAMILIES is groups.BUILTIN_FAMILIES
        for family in groups.BUILTIN_FAMILIES:
            with pytest.raises(errors.BadParameter):
                groups.validate_family_parameter(family, 0)

    @pytest.mark.parametrize(
        "q", [1009**1420 * 1013, (2**89 - 1) ** 2], ids=["4269-digit-composite", "mersenne89^2"]
    )
    def test_huge_elem_abelian_base_refused_before_prime_test(self, q):
        # The prime test of the first base alone takes seconds.
        start = time.perf_counter()
        with pytest.raises(errors.BadParameter, match="has 64 bits or more") as exc:
            builtin("elem_abelian", q)
        assert time.perf_counter() - start < 0.1
        assert len(str(exc.value)) <= 200

    @pytest.mark.parametrize(
        "family,param,error,shown",
        [
            ("cyclic", 10**5000, errors.OrderLimitExceeded, "'1" + "0" * 29 + "'..."),
            ("sym", 10**5000, errors.OrderLimitExceeded, "'1" + "0" * 29 + "'..."),
            ("elem_abelian", 2 * 10**5000, errors.BadParameter, "'2" + "0" * 29 + "'..."),
            ("elem_abelian", -(10**5000), errors.BadParameter, "'-1" + "0" * 28 + "'..."),
        ],
        ids=["cyclic", "sym", "elem_abelian-composite", "elem_abelian-negative"],
    )
    def test_parameter_past_4300_digits_gives_short_message(self, family, param, error, shown):
        # str() of such an int raises ValueError on Python 3.11 and later.
        with pytest.raises(error) as exc:
            builtin(family, param)
        assert shown in str(exc.value) and len(str(exc.value)) <= 200

    @pytest.mark.parametrize(
        "family,param,want",
        [
            ("cyclic", 10**29, "cyclic:100000000000000000000000000000 exceeds order limit 2000"),
            ("cyclic", 10**30, "cyclic:'100000000000000000000000000000'... exceeds order limit 2000"),
            ("elem_abelian", 2**70, "elem_abelian:2^70 exceeds order limit 2000"),
        ],
    )
    def test_order_limit_message_unchanged(self, family, param, want):
        with pytest.raises(errors.OrderLimitExceeded) as exc:
            builtin(family, param)
        assert str(exc.value) == want


class TestDirectProduct:
    def test_c2_c2(self):
        G = direct_product(builtin("cyclic", 2), builtin("cyclic", 2))
        assert G.order == 4
        assert group_stats(G).is_abelian

    def test_s3_c2(self):
        G = direct_product(builtin("sym", 3), builtin("cyclic", 2))
        assert G.order == 12
        assert not group_stats(G).is_abelian

    def test_product_with_trivial_is_identical(self):
        A = builtin("sym", 3)
        G = direct_product(A, builtin("cyclic", 1))
        assert np.array_equal(G.table, A.table)

    def test_order_multiplicative(self):
        for a, b in [(3, 4), (2, 6), (5, 2)]:
            A, B = builtin("cyclic", a), builtin("dihedral", 2 * b)
            assert direct_product(A, B).order == A.order * B.order

    def test_pair_multiplication(self):
        A, B = builtin("cyclic", 3), builtin("cyclic", 2)
        G = direct_product(A, B)
        # (1, 1) * (2, 1) = (0, 0): index a*|B| + b.
        assert G.table[1 * 2 + 1, 2 * 2 + 1] == 0


class TestTableConstruction:
    """Every constructor ends in one table; check it against independent
    constructions of the same table."""

    def test_permutation_tables_match_composition_oracle(self, catalog):
        checked = 0
        for name, G in catalog:
            if G.images is None:
                continue
            mul, inv = permutation_table(label_perms(G))
            assert G.table.tolist() == mul, name
            assert G.inv.tolist() == inv, name
            checked += 1
        for path in sorted(CATALOG_DIR.glob("*.pgens")):
            G = group_from_pgens_file(path)
            assert (G.table.tolist(), G.inv.tolist()) == permutation_table(label_perms(G)), path.name
            checked += 1
        assert checked > 50

    def test_products_follow_pair_formula(self, catalog):
        products = [(name, G) for name, G in catalog if name.startswith("product(")]
        assert products
        for name, G in products:
            A, B = (realize_group_spec(f) for f in parse_group_spec(name).factors)
            nb = B.order
            mul, amul, bmul = G.table.tolist(), A.table.tolist(), B.table.tolist()
            inv, ainv, binv = G.inv.tolist(), A.inv.tolist(), B.inv.tolist()
            for a in range(A.order):
                for b in range(nb):
                    row = mul[a * nb + b]
                    assert inv[a * nb + b] == ainv[a] * nb + binv[b], name
                    for a2 in range(A.order):
                        for b2 in range(nb):
                            want = amul[a][a2] * nb + bmul[b][b2]
                            assert row[a2 * nb + b2] == want, name

    def test_group_holds_one_int64_table(self, catalog):
        # Scalar loops index the table's memoryview, which needs one
        # contiguous int64 buffer; no list copy of the table is kept.
        for name, G in catalog:
            assert G.table.dtype == np.int64 and G.table.flags.c_contiguous, name
            assert G.inv.dtype == np.int64, name
            assert not hasattr(G, "mul"), name


class TestGroupStats:
    def test_cyclic6(self):
        st = group_stats(builtin("cyclic", 6))
        assert (st.order, st.is_abelian, st.exponent, st.center_size) == (6, True, 6, 6)

    def test_s3(self):
        st = group_stats(builtin("sym", 3))
        assert (st.order, st.is_abelian, st.exponent, st.center_size) == (6, False, 6, 1)

    def test_exponent_is_lcm_of_element_orders(self):
        import math

        for spec in ["cyclic:12", "sym:4", "dicyclic:12"]:
            family, p = spec.split(":")
            G = builtin(family, int(p))
            want = 1
            for g in range(G.order):
                want = math.lcm(want, element_order(G, g))
            assert group_stats(G).exponent == want


class TestConjugacyClasses:
    def test_abelian_all_singletons(self):
        G = builtin("cyclic", 8)
        part = conjugacy_classes(G)
        assert len(part.classes) == 8
        assert all(len(c) == 1 for c in part.classes)

    def test_s3_class_sizes(self):
        part = conjugacy_classes(builtin("sym", 3))
        assert sorted(len(c) for c in part.classes) == [1, 2, 3]

    @pytest.mark.parametrize("spec", ["sym:4", "dicyclic:12", "dihedral:16", "alt:4"])
    def test_partition_properties(self, spec):
        family, p = spec.split(":")
        G = builtin(family, int(p))
        part = conjugacy_classes(G)
        mul, inv = G.table.tolist(), G.inv.tolist()
        seen = set()
        for c in part.classes:
            idxs = list(c.indices())
            assert not seen.intersection(idxs)
            seen.update(idxs)
            assert G.order % len(idxs) == 0
            # Conjugation closure and a single element order per class.
            orders = {element_order(G, x) for x in idxs}
            assert len(orders) == 1
            for g in range(G.order):
                for x in idxs:
                    assert mul[mul[g][x]][inv[g]] in c
        assert seen == set(range(G.order))
        assert [part.class_of[min(c.indices())] for c in part.classes] == list(
            range(len(part.classes))
        )

    # Class order and class_of must match too: the lattice, the cores and
    # the class matrices all index classes by number.
    def test_matches_orbit_loop(self, catalog):
        sym4xd8 = direct_product(builtin("sym", 4), builtin("dihedral", 8))
        groups = catalog + [
            ("sym:5 renumbered", renumbered(builtin("sym", 5), seed="sym:5")),
            ("sym4xd8 renumbered", renumbered(sym4xd8, seed="sym4xd8")),
            ("dicyclic:292", builtin("dicyclic", 292)),
        ]
        for name, G in groups:
            part = conjugacy_classes(G)
            classes, class_of = orbit_loop_partition(G)
            assert [c.mask for c in part.classes] == classes, name
            assert list(part.class_of) == class_of, name


class TestClosure:
    def test_empty_and_identity(self):
        G = builtin("sym", 3)
        assert list(closure(G, ()).indices()) == [0]
        assert list(closure(G, (0,)).indices()) == [0]

    def test_single_generator_gives_element_order(self):
        G = builtin("cyclic", 12)
        for g in range(12):
            assert len(closure(G, (g,))) == element_order(G, g)

    def test_two_transpositions_generate_s3(self):
        G = builtin("sym", 3)
        a = G.index_of_label("2 1 3")
        b = G.index_of_label("1 3 2")
        got = closure(G, (a, b))
        assert len(got) == 6

    # The coset search returns the whole group once its cosets fill more
    # than half of it; a join of exactly half the order is still filled.
    def test_join_of_exactly_half_the_group_is_filled(self):
        G = builtin("sym", 5)
        a = G.index_of_label("2 3 1 4 5")
        b = G.index_of_label("1 2 4 5 3")
        got = closure(G, (a, b))
        assert len(got) == 60
        assert got.mask == plain_closure(G.table.tolist(), (a, b))
        assert list(closure(G, (0,)).indices()) == [0]

    @pytest.mark.parametrize("spec", ["cyclic:7", "sym:5", "alt:5", "product(alt:5,cyclic:2)"])
    def test_join_past_half_the_group_is_whole(self, spec):
        G = realize_group_spec(parse_group_spec(spec))
        whole = (1 << G.order) - 1
        gens = [g for g in range(G.order) if g]
        assert closure(G, gens[:1] + gens[-1:]).mask == plain_closure(G.table.tolist(), gens[:1] + gens[-1:])
        assert closure(G, gens).mask == whole
        H = closure(G, gens[:1])
        members = list(H.indices())
        assert groups._coset_join(G.table.data, members, (gens[0], *gens)) == whole

    # A join that the caller vouches lies in `ambient`, a group with no
    # proper subgroup of index below `index`, returns `ambient` once it
    # passes |ambient|/index elements.  The joins below lie in alt:5 inside
    # sym:5, whose proper subgroups have index 5 or more; alt:4, exactly
    # |alt:5|/5 elements, is still filled.
    @pytest.mark.parametrize(
        "labels,order",
        [
            (("2 3 1 4 5", "2 1 4 3 5"), 12),
            (("2 3 4 5 1", "5 4 3 2 1"), 10),
            (("2 3 1 4 5", "1 2 4 5 3"), 60),
            (("2 3 4 5 1", "2 3 1 4 5"), 60),
        ],
    )
    def test_join_inside_ambient(self, labels, order):
        G = builtin("sym", 5)
        ambient = perfect_residual(G).mask
        gens = tuple(G.index_of_label(label) for label in labels)
        H = closure(G, gens[:1])
        got = groups._coset_join(G.table.data, list(H.indices()), gens, ambient, 5)
        want = plain_closure(G.table.tolist(), gens)
        assert want.bit_count() == order
        assert got == want

    # The stop trusts the caller: with |ambient|/index = 2 in alt:5, a join
    # of two cosets of the trivial group is filled, and the third coset
    # returns `ambient` without filling it.
    def test_join_past_ambient_share_returns_ambient(self):
        G = builtin("alt", 5)
        whole = (1 << G.order) - 1
        involution = next(g for g in range(G.order) if element_order(G, g) == 2)
        three = next(g for g in range(G.order) if element_order(G, g) == 3)
        mul = G.table.data
        assert groups._coset_join(mul, [0], (involution,), whole, 30) == 1 | 1 << involution
        assert groups._coset_join(mul, [0], (three,), whole, 30) == whole

    def test_result_is_a_subgroup(self):
        G = builtin("dihedral", 8)
        H = closure(G, (1,))
        assert right_quotient(G, H) == H
        assert 0 in H

    @pytest.mark.parametrize(
        "spec",
        ["sym:3", "alt:4", "dihedral:8", "dicyclic:8", "cyclic:12", "elem_abelian:2^3", "dihedral:16"],
    )
    def test_is_smallest_subgroup_containing_seed(self, spec):
        G = realize_group_spec(parse_group_spec(spec))
        masks = brute_force_subgroup_masks(G)
        rng = random.Random(spec)
        n = G.order
        seeds = [(g,) for g in range(n)]
        seeds += [(a, b) for a in range(n) for b in range(a + 1, n)]
        seeds += [tuple(rng.sample(range(n), rng.randint(1, 4))) for _ in range(30)]
        for seed in seeds:
            seed_mask = ElementSet.from_indices(seed).mask
            containing = [m for m in masks if seed_mask & ~m == 0]
            want = min(containing, key=int.bit_count)
            assert all(want & ~m == 0 for m in containing)
            assert closure(G, seed).mask == want, seed

    def test_element_order_matches_oracle(self, catalog):
        for name, G in catalog:
            got = [groups.element_order(G, g) for g in range(G.order)]
            assert got == [element_order(G, g) for g in range(G.order)], name
            mul = G.table.tolist()
            want = tuple(plain_closure(mul, (g,)) for g in range(G.order))
            assert cyclic_subgroups(G) == want, name


class TestOrderLimit:
    """One validated order limit, applied before any group is built."""

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5", "1_0", "+5", " 5", "١٠"])
    def test_bad_environment_value(self, monkeypatch, raw):
        monkeypatch.setenv("TPPB_ORDER_LIMIT", raw)
        with pytest.raises(errors.BadParameter, match="TPPB_ORDER_LIMIT"):
            configured_order_limit()

    def test_environment_and_default(self, monkeypatch):
        monkeypatch.delenv("TPPB_ORDER_LIMIT", raising=False)
        assert configured_order_limit() == groups.DEFAULT_ORDER_LIMIT == 2000
        monkeypatch.setenv("TPPB_ORDER_LIMIT", "7")
        assert configured_order_limit() == 7

    @pytest.mark.parametrize("value", [0, -5, "x", 2.5, True])
    def test_explicit_limit_checked(self, value):
        with pytest.raises(errors.BadParameter):
            check_order_limit(value)
        with pytest.raises(errors.BadParameter):
            builtin("cyclic", 3, order_limit=value)

    def test_table_loader_shares_the_limit(self, monkeypatch):
        monkeypatch.setenv("TPPB_ORDER_LIMIT", "10")
        assert from_cayley_table(10, cyclic_table(10)).order == 10
        with pytest.raises(errors.OrderLimitExceeded):
            from_cayley_table(11, cyclic_table(11))
        with pytest.raises(errors.OrderLimitExceeded):
            builtin("cyclic", 11)

    @pytest.mark.parametrize(
        "family,param,order",
        [("cyclic", 9, 9), ("dihedral", 10, 10), ("dicyclic", 12, 12), ("sym", 2, 2),
         ("sym", 4, 24), ("alt", 3, 3), ("alt", 5, 60), ("elem_abelian", 27, 27)],
    )
    def test_family_order_at_the_limit(self, family, param, order):
        assert builtin(family, param, order_limit=order).order == order
        with pytest.raises(errors.OrderLimitExceeded, match=f"exceeds order limit {order - 1}$"):
            builtin(family, param, order_limit=order - 1)


class TestDerivedSubgroup:
    @pytest.mark.parametrize(
        "family,param,size",
        [
            ("sym", 3, 3),
            ("sym", 4, 12),
            ("dicyclic", 8, 2),
            ("cyclic", 12, 1),
            ("alt", 4, 4),
        ],
    )
    def test_sizes(self, family, param, size):
        G = builtin(family, param)
        assert len(derived_subgroup(G)) == size

    def test_matches_commutator_set_on_catalog(self, catalog):
        for name, G in catalog:
            assert derived_subgroup(G) == commutator_set_derived_subgroup(G), name

    def test_proper_subgroups_match_commutator_set(self):
        # alt:6 is a proper subgroup of sym:6, as is the point stabilizer
        # sym:5, whose own G' is alt:5.
        G = builtin("sym", 6)
        A6 = derived_subgroup(G)
        assert len(A6) == 360
        S5 = ElementSet.from_indices(i for i in range(G.order) if G.images[i, 0] == 0)
        for H in (A6, S5):
            assert derived_subgroup(G, H) == commutator_set_derived_subgroup(G, H)
        assert len(derived_subgroup(G, S5)) == 60
        alt6 = builtin("alt", 6)
        assert derived_subgroup(alt6) == commutator_set_derived_subgroup(alt6)
        assert len(derived_subgroup(alt6)) == 360

    def test_not_a_subgroup(self):
        # The commutators of {0, 1, 2} generate a subgroup of order 3, but
        # the set itself is not closed.
        G = builtin("sym", 4)
        with pytest.raises(errors.NotASubgroup, match="set of 3 elements generates a subgroup of order"):
            derived_subgroup(G, ElementSet.from_indices([0, 1, 2]))

    @pytest.mark.parametrize("indices", [[0, 100], [0, 1, 2, 3, 4, 100], [0, 7]])
    def test_index_outside_group_is_not_a_subgroup(self, indices):
        # Index 100 lies past the membership row of sym:3, and 7 inside its
        # one byte; a set of |G| elements that is not G is no shortcut to G'.
        with pytest.raises(errors.NotASubgroup, match="outside"):
            derived_subgroup(builtin("sym", 3), ElementSet.from_indices(indices))

    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:16", "dicyclic:24", "product(sym:3,cyclic:4)"])
    def test_every_lattice_member_matches_commutator_set(self, spec):
        # Most of these members are not normal in G, so their commutators
        # are conjugated only by H's own generators.
        G = realize_group_spec(parse_group_spec(spec))
        for H in enumerate_subgroups(G).items:
            assert derived_subgroup(G, H) == commutator_set_derived_subgroup(G, H), (spec, len(H))

    @pytest.mark.parametrize(
        "spec,derived,residual",
        [
            ("dihedral:1000", 250, 1),
            ("dicyclic:2000", 500, 1),
            ("product(sym:5,dihedral:16)", 240, 60),
            ("product(alt:6,cyclic:4)", 360, 360),
            ("product(alt:5,alt:4)", 240, 60),
            ("sym:6", 360, 360),
            ("elem_abelian:2^7", 1, 1),
        ],
    )
    def test_closed_forms_at_large_order(self, spec, derived, residual):
        """|G'| and |G^(∞)| from closed forms that share no code with the
        program: `dihedral:2m` has |G'| = m / gcd(m, 2) and `dicyclic:4m`
        has |G'| = m, both solvable; `sym:n` and `alt:n` (n >= 5) have
        |G'| = n!/2, with alt:n perfect, and `alt:4` has |G'| = 4, solvable;
        abelian groups have |G'| = 1; (A x B)' = A' x B', and the perfect
        residual of a product is the product of the residuals."""
        G = realize_group_spec(parse_group_spec(spec))
        assert len(derived_subgroup(G)) == derived
        assert len(perfect_residual(G)) == residual

    def test_whole_group_reads_the_stored_value(self):
        G = builtin("sym", 4)
        whole = ElementSet((1 << G.order) - 1)
        assert derived_subgroup(G, whole) is derived_subgroup(G)
        assert len(derived_subgroup(G, derived_subgroup(G))) == 4


class TestGroupInvariants:
    @pytest.mark.parametrize(
        "spec",
        ["cyclic:1", "cyclic:7", "dihedral:12", "dicyclic:16", "sym:4", "alt:5", "elem_abelian:27"],
    )
    def test_revalidation_round_trip(self, spec):
        # Re-ingesting a constructed table runs the full Latin, identity,
        # and associativity validation; it must pass.
        family, p = spec.split(":")
        G = builtin(family, int(p))
        H = from_cayley_table(G.order, G.table.tolist(), order_limit=G.order)
        assert np.array_equal(H.table, G.table)
        assert np.array_equal(H.inv, G.inv)

    @pytest.mark.parametrize("spec", ["sym:3", "dicyclic:8"])
    def test_inverse_table(self, spec):
        family, p = spec.split(":")
        G = builtin(family, int(p))
        mul, inv = G.table.tolist(), G.inv.tolist()
        for a in range(G.order):
            assert mul[a][inv[a]] == 0
            assert mul[inv[a]][a] == 0


class TestElementSet:
    def test_basic(self):
        s = ElementSet.from_indices([3, 1, 1])
        assert len(s) == 2
        assert list(s.indices()) == [1, 3]
        assert 1 in s and 3 in s and 0 not in s

    def test_equality_and_hash(self):
        a = ElementSet.from_indices([0, 2])
        b = ElementSet.from_indices([2, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ElementSet.from_indices([0, 1])

    def test_empty(self):
        s = ElementSet.from_indices([])
        assert len(s) == 0
        assert list(s.indices()) == []


class TestFileFormats:
    def test_pgens_round_trip(self, tmp_path):
        path = tmp_path / "s3.pgens"
        path.write_text("degree 3\n# symmetric group on 3 points\n2 1 3\n\n1 3 2\n")
        G = group_from_pgens_file(path)
        assert G.order == 6

    def test_pgens_bad_degree_line(self, tmp_path):
        path = tmp_path / "bad.pgens"
        # int() reads the last two as 3.
        for head in ("3", "degree +3", "degree 0_3"):
            path.write_text(f"{head}\n2 1 3\n")
            with pytest.raises(errors.ParseError, match="expected leading 'degree <d>' line"):
                group_from_pgens_file(path)

    def test_pgens_bad_image(self, tmp_path):
        path = tmp_path / "bad.pgens"
        path.write_text("degree 3\n2 1 4\n")
        with pytest.raises(errors.NotAPermutation):
            group_from_pgens_file(path)
        # int() reads both lines as 2 1 3.
        for line in ("+2 1 3", "2 1 0_3"):
            path.write_text(f"degree 3\n{line}\n")
            with pytest.raises(errors.ParseError, match="line 2: generator lines must be integers"):
                group_from_pgens_file(path)

    def test_ctab_round_trip(self, tmp_path):
        path = tmp_path / "c3.ctab"
        rows = cyclic_table(3)
        path.write_text("3\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        G = group_from_ctab_file(path)
        assert G.order == 3

    def test_ctab_rejects_shifted_identity(self, tmp_path):
        path = tmp_path / "bad.ctab"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(errors.NoIdentityAtZero):
            group_from_ctab_file(path)
        # int() reads each of these as the table of C2.
        for body, message in (
            ("+2\n0 1\n1 0\n", "expected leading order line"),
            ("0_2\n0 1\n1 0\n", "expected leading order line"),
            ("2\n0 1\n+1 0\n", "line 3: table rows must be integers"),
            ("2\n# C2\n0 1\n1 0_0\n", "line 4: table rows must be integers"),
        ):
            path.write_text(body)
            with pytest.raises(errors.ParseError, match=message):
                group_from_ctab_file(path)


class TestLabels:
    def test_perm_labels_one_line(self):
        G = builtin("sym", 3)
        assert G.label_of(0) == "1 2 3"
        assert G.index_of_label("2 1 3") is not None

    def test_label_fallback_for_products(self):
        G = direct_product(builtin("cyclic", 2), builtin("cyclic", 2))
        assert G.label_of(3) == "g3"

    def test_unknown_label(self):
        G = builtin("sym", 3)
        with pytest.raises(errors.UnknownElement):
            G.index_of_label("3 3 3")

    @pytest.mark.parametrize(
        "text",
        [
            "1 2",  # too few images
            "1 2 3 4",  # too many images
            "1 2 x",  # a token that is no integer
            "1 2 3.0",
            "1 1 3",  # a repeated image
            "0 1 2",  # an image below 1
            "1 2 4",  # an image past the degree
            "1 2 " + "9" * 40,
            "1 2 " + "9" * 5000,  # past int()'s default digit limit
            "",
        ],
    )
    def test_malformed_label_is_unknown(self, text):
        with pytest.raises(errors.UnknownElement):
            builtin("sym", 3).index_of_label(text)

    def test_permutation_outside_group_is_unknown(self):
        G = builtin("cyclic", 3)
        assert G.index_of_label("2 3 1") == 1
        with pytest.raises(errors.UnknownElement):
            G.index_of_label("2 1 3")

    @pytest.mark.parametrize("text", [" 1 2 3", "1  2 3", "01 2 3", "+1 2 3", "1 2 3 "])
    def test_label_must_match_exactly(self, text):
        # The text parses to the identity, but no label reads that way.
        with pytest.raises(errors.UnknownElement):
            builtin("sym", 3).index_of_label(text)

    @pytest.mark.parametrize("text", ["g4", "g03", "g", "3", "g-1", "g٣", "g" + "9" * 5000])
    def test_unlabeled_label_must_match_exactly(self, text):
        G = direct_product(builtin("cyclic", 2), builtin("cyclic", 2))
        with pytest.raises(errors.UnknownElement):
            G.index_of_label(text)
        assert [G.index_of_label(f"g{i}") for i in range(4)] == [0, 1, 2, 3]

    def test_label_round_trip(self):
        G = builtin("sym", 4)
        labels = [G.label_of(i) for i in range(G.order)]
        assert len(set(labels)) == G.order
        assert [G.index_of_label(text) for text in labels] == list(range(G.order))

    def test_labels_past_one_byte(self):
        # Degree 300 stores its images as uint16; image 256 must print as
        # 256, not wrap.
        cycle = list(range(2, 301)) + [1]
        G = from_permutation_generators(300, [cycle])
        assert G.images.dtype == np.uint16
        assert G.label_of(255).split()[:2] == ["256", "257"]
        assert G.index_of_label(G.label_of(255)) == 255


def _pgens(path):
    """(degree, generators) of a .pgens file, read without the library."""
    lines = [line.split() for line in path.read_text().splitlines()]
    lines = [line for line in lines if line and not line[0].startswith("#")]
    return int(lines[0][1]), [[int(tok) for tok in line] for line in lines[1:]]


class TestClosureOracle:
    """The closure against `tuple_closure`, the one-product-at-a-time
    closure it replaced: table, inverses and every label must agree."""

    @staticmethod
    def assert_matches(G, degree, gens):
        table, inv, labels = tuple_closure(degree, gens, G.order)
        assert G.table.tolist() == table
        assert G.inv.tolist() == inv
        assert [G.label_of(i) for i in range(G.order)] == labels

    @pytest.mark.parametrize(
        "family,parameter",
        [
            ("cyclic", 1), ("cyclic", 2), ("cyclic", 12),
            ("dihedral", 4), ("dihedral", 6), ("dihedral", 20),
            ("dicyclic", 8), ("dicyclic", 12), ("dicyclic", 292),
            ("sym", 1), ("sym", 2), ("sym", 3), ("sym", 4), ("sym", 6),
            ("alt", 3), ("alt", 4), ("alt", 5),
            ("elem_abelian", 2), ("elem_abelian", 8), ("elem_abelian", 9), ("elem_abelian", 25),
        ],
    )
    def test_builtin_families(self, family, parameter, monkeypatch):
        calls = []
        close = groups.from_permutation_generators

        def recorded(degree, gens, order_limit=None):
            calls.append((degree, [list(g) for g in gens]))
            return close(degree, gens, order_limit)

        monkeypatch.setattr(groups, "from_permutation_generators", recorded)
        G = builtin(family, parameter)
        (degree, gens), = calls
        self.assert_matches(G, degree, gens)

    @pytest.mark.parametrize("path", sorted(CATALOG_DIR.glob("*.pgens")), ids=lambda p: p.name)
    def test_catalog_pgens(self, path):
        degree, gens = _pgens(path)
        self.assert_matches(group_from_pgens_file(path), degree, gens)

    @pytest.mark.parametrize(
        "spec", ["sym:4", "dicyclic:24", "alt:5", "product(sym:3,cyclic:4)", "elem_abelian:2^4"]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_generating_sets(self, spec, seed):
        gens = random_generators(realize_group_spec(parse_group_spec(spec)), f"{spec}/{seed}")
        degree = len(gens[0])
        self.assert_matches(from_permutation_generators(degree, gens), degree, gens)

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 7, 23, 24, 25, 119])
    def test_order_limit_errors_match(self, limit):
        # sym:5 from (1 2) and (1 2 3 4 5): the limits fall at and inside
        # breadth-first levels.
        gens = [[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]
        with pytest.raises(errors.OrderLimitExceeded) as want:
            tuple_closure(5, gens, limit)
        with pytest.raises(errors.OrderLimitExceeded) as got:
            from_permutation_generators(5, gens, order_limit=limit)
        assert str(got.value) == str(want.value)
        assert got.value.partial_count == want.value.partial_count == limit + 1

    def test_gather_cap_splits_levels(self, monkeypatch):
        # A cap of one product row per gather leaves the numbering as it is.
        monkeypatch.setattr(groups, "GATHER_CELLS", 1)
        gens = [[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]
        self.assert_matches(from_permutation_generators(5, gens), 5, gens)
