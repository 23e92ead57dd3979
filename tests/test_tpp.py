"""Right quotients and definitional TPP verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppb import errors
from tppb.groups import ElementSet, builtin, direct_product
from tppb.lattice import enumerate_subgroups
from tppb.cli import main
from tppb.tpp import right_quotient, satisfies_tpp
from oracles import TppTriple, definitional_tpp, quotient_set


def eset(idxs):
    return ElementSet.from_indices(idxs)


def s3():
    return builtin("sym", 3)


class TestRightQuotient:
    def test_subgroup_is_fixed_point(self):
        # sym:5's masks take two 64-bit words.
        for G in [s3(), builtin("sym", 4), builtin("dihedral", 16), builtin("sym", 5)]:
            for s in enumerate_subgroups(G).items:
                assert right_quotient(G, s) == s

    # On sym:3, {0, 1, 2} has Q(X) = {0, 1, 2, 3, 5}; a single element
    # other than 1, or all but one element, is not a subgroup either.
    @pytest.mark.parametrize("idxs", [[0, 1, 2], [3], [1, 2, 3, 4, 5], [0, 1, 2, 3, 4]])
    def test_non_closed_set_is_not_fixed_point(self, idxs):
        G = s3()
        got = right_quotient(G, eset(idxs))
        assert got != eset(idxs)
        assert set(got.indices()) == quotient_set(G, idxs)

    def test_matches_pair_scan_past_one_word(self):
        G = builtin("sym", 5)
        rng = random.Random(29)
        for _ in range(40):
            x = rng.sample(range(G.order), rng.randint(1, 12)) + [rng.randrange(64, G.order)]
            assert set(right_quotient(G, eset(x)).indices()) == quotient_set(G, x)

    def test_singleton_gives_identity(self):
        G = s3()
        for g in range(G.order):
            assert list(right_quotient(G, eset([g])).indices()) == [0]

    def test_mixed_subset_matches_pair_scan(self):
        G = s3()
        x = [0, G.index_of_label("2 1 3"), G.index_of_label("2 3 1")]
        got = set(right_quotient(G, eset(x)).indices())
        assert got == set(quotient_set(G, x))
        assert len(got) >= len(x)

    def test_always_contains_identity(self):
        G = builtin("dihedral", 8)
        rng = random.Random(7)
        for _ in range(20):
            x = rng.sample(range(G.order), rng.randint(1, G.order))
            assert 0 in right_quotient(G, eset(x))

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptySet):
            right_quotient(s3(), eset([]))

    # A set reaching outside the group is refused before any table read,
    # also when none of its indices lies inside, and the message names
    # its highest index.
    @pytest.mark.parametrize(
        "X,message",
        [
            (ElementSet.from_indices([0, 100]), "index 100 outside 0..5"),
            (ElementSet(1 << 100), "index 100 outside 0..5"),
            (ElementSet(1 | 1 << 3 | 1 << 10**5), "index 100000 outside 0..5"),
        ],
    )
    def test_index_outside_group_rejected(self, X, message):
        with pytest.raises(errors.IndexOutOfRange) as info:
            right_quotient(s3(), X)
        assert str(info.value) == message

    def test_quotient_fixed_point_iff_subgroup(self):
        G = builtin("dihedral", 12)
        rng = random.Random(11)
        masks = {s.mask for s in enumerate_subgroups(G).items}
        for _ in range(60):
            x = rng.sample(range(G.order), rng.randint(1, 6))
            s = eset(x)
            q = right_quotient(G, s)
            if q.mask == s.mask:
                assert s.mask in masks
            else:
                assert s.mask not in masks


class TestSatisfiesTpp:
    def test_whole_group_with_trivials_holds(self):
        G = s3()
        v = satisfies_tpp(G, eset(range(6)), eset([0]), eset([0]))
        assert v.holds and v.witness is None

    def test_three_order2_subgroups_hold(self):
        G = s3()
        a = eset([0, G.index_of_label("2 1 3")])
        b = eset([0, G.index_of_label("1 3 2")])
        c = eset([0, G.index_of_label("3 2 1")])
        v = satisfies_tpp(G, a, b, c)
        assert v.holds
        assert TppTriple(a, b, c).size == 8

    def test_order3_with_two_order2_fails(self):
        G = s3()
        a3 = eset([0, G.index_of_label("2 3 1"), G.index_of_label("3 1 2")])
        t = eset([0, G.index_of_label("2 1 3")])
        u = eset([0, G.index_of_label("1 3 2")])
        v = satisfies_tpp(G, a3, t, u)
        assert not v.holds
        s, tt, uu = v.witness
        # Witness is a genuine violation drawn from the three quotients.
        mul = G.table.tolist()
        assert mul[mul[s][tt]][uu] == 0
        assert (s, tt, uu) != (0, 0, 0)
        assert s in right_quotient(G, a3)
        assert tt in right_quotient(G, t)
        assert uu in right_quotient(G, u)

    def test_witness_is_first_in_row_major_scan(self):
        G = s3()
        a3 = eset([0, G.index_of_label("2 3 1"), G.index_of_label("3 1 2")])
        t = eset([0, G.index_of_label("2 1 3")])
        u = eset([0, G.index_of_label("1 3 2")])
        qs = sorted(right_quotient(G, a3).indices())
        qt = sorted(right_quotient(G, t).indices())
        qu = right_quotient(G, u)
        mul, inv = G.table.tolist(), G.inv.tolist()
        expected = None
        for s in qs:
            for tt in qt:
                uu = inv[mul[s][tt]]
                if uu in qu and (s, tt) != (0, 0):
                    expected = (s, tt, uu)
                    break
            if expected:
                break
        v = satisfies_tpp(G, a3, t, u)
        assert v.witness == expected
        assert satisfies_tpp(G, a3, t, u).witness == expected

    def test_empty_rejected(self):
        G = s3()
        with pytest.raises(errors.EmptySet):
            satisfies_tpp(G, eset([]), eset([0]), eset([0]))

    @pytest.mark.parametrize("outside", [eset([0, 100]), ElementSet(1 << 100)])
    @pytest.mark.parametrize("place", range(3))
    def test_index_outside_group_rejected(self, outside, place):
        sets = [eset([0])] * 3
        sets[place] = outside
        with pytest.raises(errors.IndexOutOfRange, match="index 100 outside 0..5"):
            satisfies_tpp(s3(), *sets)

    def test_translation_invariance(self):
        # The predicate runs on quotients, so translating any input set
        # leaves the verdict unchanged.
        G = builtin("dihedral", 8)
        rng = random.Random(3)
        mul = G.table.tolist()
        for _ in range(40):
            sets = [rng.sample(range(G.order), rng.randint(1, 4)) for _ in range(3)]
            base = satisfies_tpp(G, *map(eset, sets)).holds
            g = rng.randrange(G.order)
            shifted = [[mul[x][g] for x in sets[0]]] + sets[1:]
            assert satisfies_tpp(G, *map(eset, shifted)).holds == base


class TestAgainstDefinitionalOracle:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: s3(),
            lambda: builtin("dihedral", 8),
            lambda: builtin("cyclic", 9),
            lambda: direct_product(builtin("cyclic", 2), builtin("cyclic", 6)),
        ],
    )
    def test_random_subsets(self, make):
        G = make()
        rng = random.Random(517)
        for _ in range(150):
            sets = [rng.sample(range(G.order), rng.randint(1, 5)) for _ in range(3)]
            got = satisfies_tpp(G, *map(eset, sets)).holds
            want = definitional_tpp(G, *sets)
            assert got == want

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_subsets(self, data):
        G = builtin("dihedral", 10)
        pick = st.sets(st.integers(0, G.order - 1), min_size=1, max_size=5)
        s = data.draw(pick)
        t = data.draw(pick)
        u = data.draw(pick)
        assert satisfies_tpp(G, eset(s), eset(t), eset(u)).holds == definitional_tpp(G, s, t, u)


class TestVerifyTripleReport:
    """`verify-tpp` reports the `satisfies_tpp` verdict, with the witness in
    group labels."""

    def test_holds_has_no_witness(self):
        G = s3()
        a = eset([0, G.index_of_label("2 1 3")])
        b = eset([0, G.index_of_label("1 3 2")])
        c = eset([0, G.index_of_label("3 2 1")])
        v = satisfies_tpp(G, a, b, c)
        assert v.holds and v.witness is None

    def test_failing_witness_rendered_with_labels(self, capsys):
        G = s3()
        sets = ("1 2 3,2 3 1,3 1 2", "1 2 3,2 1 3", "1 2 3,1 3 2")
        v = satisfies_tpp(G, *(eset(G.index_of_label(x) for x in arg.split(",")) for arg in sets))
        assert not v.holds
        assert tuple(G.label_of(i) for i in v.witness) == ("3 1 2", "2 1 3", "1 3 2")
        assert main(["verify-tpp", "sym:3", "--s", sets[0], "--t", sets[1], "--u", sets[2]]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "witness: s='3 1 2' t='2 1 3' u='1 3 2'"

    def test_subgroup_inputs_short_circuit(self):
        G = s3()
        lat = enumerate_subgroups(G)
        twos = [s for s in lat.items if len(s) == 2]
        v = satisfies_tpp(G, *twos)
        assert v.holds


class TestTppTriple:
    def test_size(self):
        G = s3()
        t = TppTriple(eset([0, 1]), eset([0, 2]), eset([0]))
        assert t.size == 4

    def test_empty_component_rejected(self):
        with pytest.raises(errors.EmptySet):
            TppTriple(eset([]), eset([0]), eset([0]))
