"""Character degrees via finite-field class matrices, degree sums, degree invariants."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppb import chars, errors
from tppb.chars import (
    CharacterDegrees,
    character_degrees,
    d_sum_int,
    d_sum_real,
    dixon_prime,
    validate_degrees,
)
from tppb.groups import (
    ElementSet,
    builtin,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    group_stats,
)
from tppb.cli import load_manifest, parse_group_spec, realize_group_spec
from conftest import CATALOG_SPECS
from oracles import (
    DenseClassAlgebra,
    charpoly_scalar_loop,
    class_matrices_double_loop,
    s4_degrees_by_inner_products,
    scan_split_lines,
)


class TestDixonPrime:
    @pytest.mark.parametrize(
        "make,want",
        [
            (lambda: builtin("sym", 3), 7),
            (lambda: builtin("cyclic", 2), 3),
            (lambda: builtin("dicyclic", 8), 13),
            (lambda: builtin("sym", 4), 13),
            (lambda: builtin("cyclic", 1), 3),
            (lambda: builtin("cyclic", 12), 13),
            (lambda: builtin("alt", 5), 31),
            (lambda: builtin("dicyclic", 116), 233),
        ],
    )
    def test_frozen(self, make, want):
        # The least p = 1 mod the exponent with p^2 > 4|G|, the floor of
        # Dixon's method: `_admissible_primes` at k = 2.
        G = make()
        assert next(chars._admissible_primes(group_stats(G).exponent, G.order, 2)) == want

    @pytest.mark.parametrize(
        "spec,want",
        [
            ("sym:3", 13),
            ("cyclic:2", 3),
            ("dicyclic:8", 17),
            ("sym:4", 37),
            # k = 1, so p^2 > 1; no abelian group is split.
            ("cyclic:1", 2),
            ("cyclic:12", 61),
            ("alt:5", 61),
            ("dicyclic:116", 349),
        ],
    )
    def test_frozen_dixon_prime(self, spec, want):
        family, parameter = spec.split(":")
        assert dixon_prime(builtin(family, int(parameter))) == want

    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:20", "dicyclic:12"])
    def test_conditions(self, spec):
        family, p = spec.split(":")
        G = builtin(family, int(p))
        st = group_stats(G)
        k = len(conjugacy_classes(G).classes)
        prime = dixon_prime(G)
        assert prime % st.exponent == 1
        assert prime * prime > k * k * st.order
        assert st.order % prime != 0
        smaller = range(st.exponent + 1, prime, st.exponent)
        assert not any(
            q * q > k * k * st.order and all(q % r for r in range(2, math.isqrt(q) + 1)) for q in smaller
        )

    def test_worst_case_is_exact(self):
        # A nonabelian group of order n has at most 5n/8 classes, and this
        # one has the most at order 2000.  Its prime meets the three bounds
        # that the split checks before its products.
        G = realize_group_spec(parse_group_spec("product(dihedral:8,cyclic:250)"))
        k = len(conjugacy_classes(G).classes)
        p = dixon_prime(G)
        assert (k, group_stats(G).exponent, p) == (1250, 500, 56501)
        assert k * (p - 1) ** 2 < 1 << 53
        assert G.order * k * (p - 1) < 1 << 53
        assert (k * (p - 1) + 1) * (p + (p - 1) ** 2) < 1 << 63

    def test_admissible_primes_increasing(self):
        G = builtin("sym", 3)
        seq = []
        gen = chars._admissible_primes(group_stats(G).exponent, G.order, 3)
        for _ in range(3):
            seq.append(next(gen))
        assert seq[0] == 13
        assert seq == sorted(seq)
        assert all(p % 6 == 1 for p in seq)


class TestCharacterDegrees:
    @pytest.mark.parametrize(
        "make,want",
        [
            (lambda: builtin("cyclic", 8), [1] * 8),
            (lambda: builtin("elem_abelian", 9), [1] * 9),
            (lambda: builtin("sym", 3), [1, 1, 2]),
            (lambda: builtin("sym", 4), [1, 1, 2, 3, 3]),
            (lambda: builtin("dicyclic", 8), [1, 1, 1, 1, 2]),
            (lambda: builtin("dihedral", 8), [1, 1, 1, 1, 2]),
            (lambda: builtin("dihedral", 10), [1, 1, 2, 2]),
            (lambda: builtin("dihedral", 12), [1, 1, 1, 1, 2, 2]),
            (lambda: builtin("dicyclic", 12), [1, 1, 1, 1, 2, 2]),
            (lambda: builtin("alt", 4), [1, 1, 1, 3]),
            (lambda: builtin("alt", 5), [1, 3, 3, 4, 5]),
            (lambda: direct_product(builtin("sym", 3), builtin("sym", 3)),
             [1, 1, 1, 1, 2, 2, 2, 2, 4]),
        ],
    )
    def test_frozen_multisets(self, make, want):
        deg = character_degrees(make())
        assert list(deg.degrees) == want

    def test_s4_against_inner_product_oracle(self):
        G = builtin("sym", 4)
        want = s4_degrees_by_inner_products(G, conjugacy_classes(G))
        assert list(character_degrees(G).degrees) == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("sym", 4),
            lambda: builtin("dihedral", 16),
            lambda: builtin("dicyclic", 16),
            lambda: builtin("alt", 5),
            lambda: direct_product(builtin("cyclic", 3), builtin("dihedral", 8)),
        ],
    )
    def test_invariants(self, make):
        G = make()
        deg = character_degrees(G)
        k = len(conjugacy_classes(G).classes)
        assert sum(d * d for d in deg.degrees) == G.order
        assert len(deg.degrees) == k
        assert all(G.order % d == 0 for d in deg.degrees)
        ones = sum(1 for d in deg.degrees if d == 1)
        assert ones == G.order // len(derived_subgroup(G))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("sym", 3),
            lambda: builtin("sym", 4),
            lambda: builtin("dicyclic", 8),
            lambda: builtin("dihedral", 12),
            lambda: builtin("alt", 4),
        ],
    )
    def test_prime_independent(self, make):
        # The split at the second admissible prime gives the same degrees
        # as the one character_degrees makes at the first.
        G = make()
        algebra = chars._ClassAlgebra(G)
        gen = chars._admissible_primes(group_stats(G).exponent, G.order, len(algebra.sizes))
        got = [
            chars._degrees_from_lines(
                chars._split_to_lines(algebra, p), algebra.sizes, algebra.inv_class, G.order, p
            )
            for p in (next(gen), next(gen))
        ]
        assert got[0] == got[1] == character_degrees(G).degrees

    def test_split_failure_is_not_retried(self, monkeypatch):
        # F_p is a splitting field at the first admissible prime, so a
        # failed split is a hard error, not a reason to try another prime.
        calls = []

        def failing(algebra, p):
            calls.append(p)
            raise errors.EigenspaceSplitFailure(f"forced at {p}")

        monkeypatch.setattr(chars, "_split_to_lines", failing)
        G = builtin("sym", 4)
        with pytest.raises(errors.EigenspaceSplitFailure, match="forced at 37"):
            character_degrees(G)
        assert calls == [dixon_prime(G)]

    def test_wrong_derived_subgroup_is_invariant_violation(self, monkeypatch):
        G = builtin("sym", 4)
        monkeypatch.setattr(chars, "derived_subgroup", lambda G: ElementSet.from_indices([0]))
        with pytest.raises(errors.InvariantViolation, match=r"\[G:G'\]"):
            character_degrees(G)

    def test_split_result_is_validated(self, monkeypatch):
        # Squares sum to |S4| = 24, but no degree equals 1.
        monkeypatch.setattr(chars, "_degrees_from_lines", lambda *args: (2,) * 6)
        with pytest.raises(errors.InvariantViolation, match="trivial character"):
            character_degrees(builtin("sym", 4))

    def test_group_order_recorded(self):
        deg = character_degrees(builtin("sym", 4))
        assert deg.group_order == 24

    def test_dihedral_1000(self):
        # 253 classes: the split by one generic class combination takes
        # about 0.2 s here, where a null space per eigenvalue of each class
        # matrix took seconds.
        assert character_degrees(builtin("dihedral", 1000)).degrees == (1,) * 4 + (2,) * 249


CATALOGS = Path(__file__).resolve().parent.parent / "catalogs"


def _sorted_lines(lines):
    return sorted(tuple(int(x) for x in v) for v in lines)


def _shipped_groups():
    for name in ("order24_nonabelian", "order50_nonabelian"):
        for _, spec in load_manifest(CATALOGS / f"{name}.manifest").entries:
            yield realize_group_spec(spec, CATALOGS)


class TestSplit:
    """One generic class combination splits the space at the roots of its
    characteristic polynomial; the class matrices split only what it
    leaves."""

    # dicyclic:116 has Dixon prime 349.
    @pytest.mark.parametrize("spec", CATALOG_SPECS + ["dicyclic:116"])
    def test_lines_match_eigenvalue_scan(self, spec):
        # The set of common eigenlines is unique; their order follows the
        # method, so the lines are compared as sorted lists.
        G = realize_group_spec(parse_group_spec(spec), order_limit=20000)
        p = dixon_prime(G)
        algebra = chars._ClassAlgebra(G)
        got = chars._split_to_lines(algebra, p)
        want = scan_split_lines(class_matrices_double_loop(G)[0], algebra.sizes, p)
        assert len(got) == len(want) == len(algebra.sizes)
        assert _sorted_lines(got) == _sorted_lines(want)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_class_matrices_match_double_loop(self, spec):
        G = realize_group_spec(parse_group_spec(spec), order_limit=20000)
        algebra = chars._ClassAlgebra(G)
        A, sizes0, inv_class0 = class_matrices_double_loop(G)
        dense = DenseClassAlgebra(A, sizes0)
        assert (algebra.sizes, algebra.inv_class) == (sizes0, inv_class0)
        for j in range(len(sizes0)):
            assert np.array_equal(algebra.matrix(j), A[j]), j
        rng = np.random.default_rng(len(sizes0))
        c, u = rng.integers(0, 87869, size=(2, len(sizes0)))
        assert np.array_equal(algebra.combination(c), dense.combination(c))
        assert np.array_equal(algebra.span(u), dense.span(u))

    @pytest.mark.parametrize("spec", ["dicyclic:292", "product(sym:4,dihedral:8)"])
    def test_repeated_generic_roots_split_by_class_matrices(self, spec):
        # The generic combination has repeated eigenvalues here (p = 1753
        # and p = 349), so the class-by-class refinement of their spaces runs.
        G = realize_group_spec(parse_group_spec(spec))
        p = dixon_prime(G)
        algebra = chars._ClassAlgebra(G)
        generic = chars._generic_combination(algebra, p) % p
        roots, simple = chars._roots(chars._charpoly_mod(generic, p), p)
        assert not simple.all()
        assert len(roots) < len(algebra.sizes)
        A, sizes, inv_class = class_matrices_double_loop(G)
        want = scan_split_lines(A, sizes, p)
        assert _sorted_lines(chars._split_to_lines(algebra, p)) == _sorted_lines(want)
        assert character_degrees(G).degrees == chars._degrees_from_lines(want, sizes, inv_class, G.order, p)

    @pytest.mark.parametrize(
        "spec,p",
        [
            pytest.param(spec, p, id=spec)
            for spec, p in [("product(sym:4,dihedral:8)", 37), ("product(dicyclic:8,elem_abelian:2^3)", 17)]
        ],
    )
    def test_spanned_space_matches_whole_span(self, spec, p, monkeypatch):
        # The span of a repeated root's vector, taken on the pivot columns
        # of its space and mapped back, is the echelon form of the whole
        # k x k span, so the lines equal those that the whole span gives.
        # F_p splits G at any prime p = 1 mod the exponent (12 and 4 here)
        # with p^2 > 4|G|; these small ones leave repeated roots inside a
        # space already split, so the nested path runs, which it does not
        # at the Dixon primes.
        G = realize_group_spec(parse_group_spec(spec))
        algebra = chars._ClassAlgebra(G)
        real, inside = chars._spanned_space, []

        def whole_span(algebra, B, piv, v, p):
            want = chars._rref_mod(algebra.span(v), p)
            got = real(algebra, B, piv, v, p)
            assert np.array_equal(got[0], want[0]) and list(got[1]) == list(want[1])
            inside.append(B is not None)
            return want

        monkeypatch.setattr(chars, "_spanned_space", whole_span)
        want = chars._split_to_lines(algebra, p)
        monkeypatch.undo()
        assert any(inside)
        assert _sorted_lines(chars._split_to_lines(algebra, p)) == _sorted_lines(want)

    @pytest.mark.parametrize(
        "groups,calls",
        [(_shipped_groups, 27), (lambda: [builtin("dicyclic", 292)], 3)],
        ids=["shipped", "dicyclic:292"],
    )
    def test_eigenvector_calls_are_frozen(self, groups, calls, monkeypatch):
        # A space on which a splitter is scalar goes on to the next one
        # with no eigenvector search; these counts hold that skip.
        names = []
        real = chars._eigenvectors
        monkeypatch.setattr(chars, "_eigenvectors", lambda R, y, p, name: names.append(name) or real(R, y, p, name))
        for G in groups():
            character_degrees(G)
        assert len(names) == calls

    def test_class_algebra_is_never_dense(self):
        # dihedral:400 has 103 classes, so a k x k x k int64 tensor of its
        # structure constants alone would take 8.7 MB.
        G = builtin("dihedral", 400)
        tracemalloc.start()
        try:
            deg = character_degrees(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deg.degrees == (1,) * 4 + (2,) * 99
        assert peak < 4_000_000

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_charpoly_roots_are_eigenvalues(self, data):
        p = data.draw(st.sampled_from([3, 13, 293, 1061]))
        d = data.draw(st.integers(1, 8))
        R = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)),
                     dtype=np.int64).reshape(d, d)
        if data.draw(st.booleans()):
            # Triangular up to a permutation similarity, so F_p holds every
            # eigenvalue and the Hessenberg reduction has rows to swap.
            perm = data.draw(st.permutations(range(d)))
            R = np.triu(R)[perm][:, perm]
        coeffs = chars._charpoly_mod(R, p)
        assert len(coeffs) == d + 1 and coeffs[d] == 1
        assert coeffs[d - 1] == -int(np.trace(R)) % p
        eye = np.eye(d, dtype=np.int64)
        roots, simple = chars._roots(coeffs, p)
        want_roots, want_simple = [], []
        for lam in range(p):
            value = sum(int(c) * pow(lam, i, p) for i, c in enumerate(coeffs)) % p
            rank = len(chars._rref_mod((R - lam * eye) % p, p)[1])
            assert (value == 0) == (rank < d), lam
            if value == 0:
                slope = sum(i * int(c) * pow(lam, i - 1, p) for i, c in enumerate(coeffs) if i) % p
                want_roots.append(lam)
                want_simple.append(slope != 0)
        assert roots.tolist() == want_roots and simple.tolist() == want_simple

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_charpoly_matches_scalar_loop(self, data):
        # 262,139 is the largest prime below 2^18: there a 30 x 30 matrix
        # passes the int64 bound after 17 unreduced Hessenberg steps, so
        # the full reduction runs in between.
        p = data.draw(st.sampled_from([2, 3, 13, 293, 87869, 262139]))
        d = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        R = rng.integers(0, p, size=(d, d))
        if data.draw(st.booleans()):
            # Block triangular, so column b - 1 has no pivot below the
            # diagonal and the subdiagonal entry h_{b,b-1} is zero.
            b = data.draw(st.integers(1, d))
            R[b:, :b] = 0
        assert chars._charpoly_mod(R, p).tolist() == charpoly_scalar_loop(R, p).tolist()

    @pytest.mark.parametrize("d", [30, 200])
    @pytest.mark.parametrize("blocks", [False, True])
    def test_charpoly_with_full_reductions(self, d, blocks):
        # Every 17 steps at d = 30 and every 2 at d = 200; with no full
        # reduction, the column products at d = 200 pass 2^63.
        p = 262139
        R = np.random.default_rng(d).integers(0, p, size=(d, d))
        if blocks:
            R[d // 3 :, : d // 3] = 0
            R[2 * d // 3 :, : 2 * d // 3] = 0
        assert chars._charpoly_mod(R, p).tolist() == charpoly_scalar_loop(R, p).tolist()

    def test_charpoly_refuses_int64_overflow(self):
        # (3 * (2^21 - 1) + 1) * (2^21 + (2^21 - 1)^2) >= 2^63: one
        # unreduced step could overflow the column product.
        eye = np.eye(3, dtype=np.int64)
        chars._charpoly_mod(eye, 1 << 20)
        with pytest.raises(errors.InvariantViolation, match=r"\(d\(p-1\)\+1\)\(p\+\(p-1\)\^2\) < 2\^63"):
            chars._charpoly_mod(eye, 1 << 21)

    @pytest.mark.parametrize(
        "lines,n,message",
        [
            ([[0, 1]], 1, "identity-class coordinate vanished"),
            ([[1, 5]], 1, "orthogonality denominator vanished"),  # 1 + 5^2 = 0 mod 13
            ([[1, 0]], 2, "2 has no square root mod 13"),
            ([[1, 0], [1, 0]], 1, "degree squares do not sum"),
        ],
    )
    def test_degree_checks_are_hard_errors(self, lines, n, message):
        with pytest.raises(errors.EigenspaceSplitFailure, match=message):
            chars._degrees_from_lines(np.array(lines), [1, 1], [0, 1], n, 13)

    def test_jordan_block_is_split_failure(self):
        # Class 1 acts as the Jordan block e_0 -> e_0 + e_1, e_1 -> e_1, so
        # the generic combination 1 + 3 M_1 has the one root 4 with a
        # one-dimensional eigenspace, and e_0 is not in it.
        A = np.array([np.eye(2, dtype=np.int64), [[1, 0], [1, 1]]])
        with pytest.raises(errors.EigenspaceSplitFailure, match="generic combination is not diagonalizable"):
            chars._split_to_lines(DenseClassAlgebra(A, [1, 1]), 13)

    def test_short_rank_sum_is_split_failure(self):
        # M_1 v1 = v1, M_1 v2 = v2 + v1, M_1 e_2 = 2 e_2 for v1 = e_0 - e_2,
        # v2 = e_1: a Jordan block at the root 1, which e_0 = v1 + e_2 meets
        # only in the eigenvector v1.  Every eigenvector check passes, but
        # the repeated root spans one dimension, so the ranks sum to 2 of 3.
        M1 = [[1, 1, 0], [0, 1, 0], [1, 12, 2]]
        A = np.array([np.eye(3, dtype=np.int64), M1, np.eye(3, dtype=np.int64)])
        algebra = DenseClassAlgebra(A, [1, 1, 1])
        generic = chars._generic_combination(algebra, 13) % 13
        roots, simple = chars._roots(chars._charpoly_mod(generic, 13), 13)
        assert roots.tolist() == [0, 3] and simple.tolist() == [False, True]
        chars._eigenvectors(generic, np.eye(3, dtype=np.int64)[0], 13, "A")
        with pytest.raises(errors.EigenspaceSplitFailure, match="generic combination is not diagonalizable"):
            chars._split_to_lines(algebra, 13)

    def test_eigenvector_products_refuse_inexact_float64(self):
        # 3 * (2^26 - 1)^2 >= 2^53, so float64 could round a sum of three
        # products below p^2.  The check runs before the scan of all of F_p.
        eye = np.eye(3, dtype=np.int64)
        with pytest.raises(errors.InvariantViolation, match=r"k\*\(p-1\)\^2 < 2\^53"):
            chars._eigenvectors(eye, eye[0], 1 << 26, "A")

    def test_class_algebra_refuses_inexact_float64(self):
        # sym:3 has n*k = 18 cells, and 18 * (2^50 - 1) >= 2^53.
        algebra = chars._ClassAlgebra(builtin("sym", 3))
        with pytest.raises(errors.InvariantViolation, match=r"n\*k\*\(p-1\) < 2\^53"):
            chars._split_to_lines(algebra, 1 << 50)

    def test_exact_bound_is_strict(self):
        chars._check_exact("bound", (1 << 53) - 1)
        with pytest.raises(errors.InvariantViolation):
            chars._check_exact("bound", 1 << 53)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_quotients_match_direct_products(self, data):
        # 104,831 bounds the Dixon prime of every nonabelian group of order
        # at most 2000 (see the `chars` module docstring).
        p = data.draw(st.sampled_from([3, 13, 293, 3001, 104831]))
        roots = sorted(data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 12))))
        Q = chars._quotients(np.array(roots, dtype=np.int64), p)
        assert Q.shape == (len(roots), len(roots))
        for i in range(len(roots)):
            q = [1]
            for lam in roots[:i] + roots[i + 1 :]:
                # q * (x - lam), constant term first.
                q = [(a - lam * b) % p for a, b in zip([0] + q, q + [0])]
            assert Q[i].tolist() == q, (roots, i)


class TestDegreeSums:
    def test_d3_s3(self):
        assert d_sum_int(character_degrees(builtin("sym", 3)), 3) == 10

    def test_d3_s4(self):
        assert d_sum_int(character_degrees(builtin("sym", 4)), 3) == 64

    def test_d2_is_order(self):
        for spec in ["sym:4", "dihedral:20", "cyclic:15"]:
            family, p = spec.split(":")
            G = builtin(family, int(p))
            assert d_sum_int(character_degrees(G), 2) == G.order

    def test_abelian_any_power_is_order(self):
        deg = character_degrees(builtin("cyclic", 9))
        for w in (1, 2, 3, 7):
            assert d_sum_int(deg, w) == 9

    def test_real_matches_int_at_endpoints(self):
        deg = character_degrees(builtin("sym", 4))
        for x, w in ((2.0, 2), (3.0, 3)):
            assert math.isclose(d_sum_real(deg, x), d_sum_int(deg, w), rel_tol=1e-12)

    def test_real_midpoint(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        assert math.isclose(d_sum_real(deg, 2.5), 2 + 2 ** 2.5, rel_tol=1e-12)

    def test_real_domain(self):
        deg = CharacterDegrees((1, 1, 2), 6)
        for x in (1.9, 3.1, -1.0):
            with pytest.raises(errors.DomainError):
                d_sum_real(deg, x)


class TestIngestDegrees:
    """The invariants `validate_degrees` requires of a degree multiset."""

    def test_valid_s3(self):
        deg = validate_degrees([1, 1, 2], 6)
        assert deg.degrees == (1, 1, 2)
        assert deg.group_order == 6

    def test_valid_s4(self):
        deg = validate_degrees([1, 1, 2, 3, 3], 24)
        assert deg.degrees == (1, 1, 2, 3, 3)

    def test_unsorted_input_is_sorted(self):
        deg = validate_degrees([3, 1, 2, 1, 3], 24)
        assert deg.degrees == (1, 1, 2, 3, 3)

    def test_square_sum_violation(self):
        with pytest.raises(errors.InvariantViolation) as exc:
            validate_degrees([1, 1, 1, 3], 6)
        assert "square" in str(exc.value)

    def test_divisor_violation(self):
        with pytest.raises(errors.InvariantViolation) as exc:
            validate_degrees([1, 1, 4, 4, 4], 50)
        assert "divide" in str(exc.value)

    def test_missing_trivial_character(self):
        with pytest.raises(errors.InvariantViolation) as exc:
            validate_degrees([5, 5], 50)
        assert "trivial" in str(exc.value)

    def test_positivity(self):
        with pytest.raises(errors.InvariantViolation):
            validate_degrees([1, 0, 2], 5)
