"""Subgroup counts and character degrees of the builtin families against
closed forms.

Each expected value comes from a formula written out here, by divisor
sums, Gaussian binomials or hook lengths; nothing is shared with the
lattice enumeration or the class algebra that computes the observed
values.
"""

from math import prod

import pytest

from tppb.chars import character_degrees
from tppb.groups import builtin, direct_product
from tppb.lattice import enumerate_subgroups


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n):
    """The number of divisors of n."""
    return len(divisors(n))


def sigma(n):
    """The sum of the divisors of n."""
    return sum(divisors(n))


def gaussian_binomial(r, k, p):
    """The number of k-dimensional subspaces of GF(p)^r:
    prod_{i < k} (p^(r-i) - 1) / (p^(i+1) - 1)."""
    return prod(p ** (r - i) - 1 for i in range(k)) // prod(p ** (i + 1) - 1 for i in range(k))


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def hook_length_degree(shape):
    """n! / prod of the hook lengths of the Young diagram of `shape`; the
    hook of box (i, j) is the arm shape[i] - j - 1, the leg (the rows
    below i that reach column j) and the box itself."""
    n = sum(shape)
    hooks = prod(
        shape[i] - j + sum(1 for below in shape[i + 1 :] if below > j)
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return prod(range(1, n + 1)) // hooks


def conjugate(shape):
    """The partition whose Young diagram is that of `shape` transposed."""
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0]))


def alternating_degrees(n):
    """Degrees of alt:n by restriction from sym:n (Clifford theory for a
    subgroup of index 2): the characters of shapes lam and conjugate(lam)
    restrict to one irreducible character when lam != conjugate(lam), and
    a self-conjugate lam splits into two of half its degree."""
    out = []
    for shape in partitions(n):
        twin = conjugate(shape)
        if twin == shape:
            out += [hook_length_degree(shape) // 2] * 2
        elif shape > twin:
            out.append(hook_length_degree(shape))
    return sorted(out)


def dihedral_degrees(order):
    """dihedral:2m has 2 linear characters and (m - 1)/2 of degree 2 for
    odd m, and 4 linear and (m - 2)/2 of degree 2 for even m."""
    m = order // 2
    ones, twos = (2, (m - 1) // 2) if m % 2 else (4, (m - 2) // 2)
    return [1] * ones + [2] * twos


def count(G):
    return enumerate_subgroups(G).count


def degrees(G):
    return sorted(character_degrees(G).degrees)


class TestSubgroupCounts:
    def test_cyclic(self):
        """cyclic:n has one subgroup per divisor of n: tau(n)."""
        assert count(builtin("cyclic", 1000)) == tau(1000) == 16

    @pytest.mark.parametrize("order,want", [(50, 34), (998, 502), (1000, 1104)])
    def test_dihedral(self, order, want):
        """dihedral:2m = <r, s> has tau(m) + sigma(m): tau(m) subgroups of
        the rotations <r>, and for each divisor d of m the d subgroups
        <r^d, r^i s>, 0 <= i < d, that meet <r> in <r^d>."""
        m = order // 2
        assert count(builtin("dihedral", order)) == tau(m) + sigma(m) == want

    @pytest.mark.parametrize("order,want", [(292, 78), (1000, 480), (2000, 1108)])
    def test_dicyclic(self, order, want):
        """dicyclic:4m = <a, b> (a of order 2m, b^2 = a^m) has
        tau(2m) + sigma(m): tau(2m) subgroups of <a>, and for each divisor
        d of m the d subgroups <a^d, a^i b>, 0 <= i < d.  A subgroup
        outside <a> holds (a^i b)^2 = a^m, so it meets <a> in <a^d> with
        d | m."""
        m = order // 4
        assert count(builtin("dicyclic", order)) == tau(2 * m) + sigma(m) == want

    @pytest.mark.parametrize("p,r,want", [(5, 2, 8), (3, 3, 28), (2, 5, 374), (2, 6, 2825)])
    def test_elem_abelian(self, p, r, want):
        """elem_abelian:p^r has one subgroup per subspace of GF(p)^r: the
        sum over k of the Gaussian binomials [r choose k]_p."""
        expected = sum(gaussian_binomial(r, k, p) for k in range(r + 1))
        assert count(builtin("elem_abelian", p**r)) == expected == want

    def test_coprime_product(self):
        """For |A| and |B| coprime every subgroup of A x B is H x K with
        H <= A and K <= B, so the counts multiply.  alt:5 has 59 subgroups:
        1 + 15 + 10 + 5 + 6 + 10 + 6 + 5 + 1 of orders 1, 2, 3, 4, 5, 6, 10,
        12 and 60; cyclic:7 has tau(7) = 2."""
        G = direct_product(builtin("alt", 5), builtin("cyclic", 7))
        assert count(G) == 59 * tau(7) == 118


class TestDegrees:
    @pytest.mark.parametrize("order", [50, 998, 1000])
    def test_dihedral(self, order):
        """See `dihedral_degrees`."""
        assert degrees(builtin("dihedral", order)) == dihedral_degrees(order)

    @pytest.mark.parametrize("order", [292, 1000])
    def test_dicyclic(self, order):
        """dicyclic:4m has 4 linear characters and m - 1 of degree 2."""
        m = order // 4
        assert degrees(builtin("dicyclic", order)) == [1] * 4 + [2] * (m - 1)

    @pytest.mark.parametrize(
        "n,want",
        [(5, [1, 1, 4, 4, 5, 5, 6]), (6, [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16])],
    )
    def test_sym(self, n, want):
        """sym:n has one irreducible character per partition of n, of the
        degree that the hook length formula gives."""
        expected = sorted(hook_length_degree(shape) for shape in partitions(n))
        assert degrees(builtin("sym", n)) == expected == want

    def test_product(self):
        """The irreducible characters of A x B are the products of those of
        A and B, so the degrees are the pairwise products: alt:5 has
        degrees 1, 3, 3, 4, 5 and cyclic:7 has seven of degree 1."""
        G = direct_product(builtin("alt", 5), builtin("cyclic", 7))
        assert degrees(G) == sorted(a * b for a in (1, 3, 3, 4, 5) for b in [1] * 7)

    @pytest.mark.parametrize("n,want", [(5, [1, 3, 3, 4, 5]), (6, [1, 5, 5, 8, 8, 9, 10])])
    def test_alt(self, n, want):
        """alt:n by restriction from the hook-length degrees of sym:n (see
        `alternating_degrees`)."""
        assert degrees(builtin("alt", n)) == alternating_degrees(n) == want

    def test_product_not_coprime(self):
        """The degrees of A x B are the pairwise products also when |A| and
        |B| share a prime: sym:4 (hook lengths) times dihedral:8."""
        G = direct_product(builtin("sym", 4), builtin("dihedral", 8))
        sym4 = [hook_length_degree(shape) for shape in partitions(4)]
        assert degrees(G) == sorted(a * b for a in sym4 for b in dihedral_degrees(8))

    def test_product_with_elementary_abelian(self):
        """dicyclic:8 (4 linear characters and one of degree 2) times the
        64 linear characters of elem_abelian:2^6: 256 ones and 64 twos."""
        G = direct_product(builtin("dicyclic", 8), builtin("elem_abelian", 64))
        assert degrees(G) == [1] * 256 + [2] * 64
