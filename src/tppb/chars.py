"""Irreducible character degrees over characteristic zero, computed by a
finite-field common-eigenvector method on conjugacy class matrices.

The class sums K_r multiply as K_r K_s = sum_t a_rst K_t. Over a prime
field with p = 1 (mod exponent) and p^2 > 4|G|, the matrices
(M_r)[s][t] = a_rst commute and share exactly one common eigenvector per
irreducible character: the central character values. Each degree is
recovered from the orthogonality relation d^2 = |G| / sum_j w_j w_j* / |C_j|
evaluated mod p and lifted to the unique integer in (0, sqrt(|G|)].

One such prime suffices.  F_p holds the e-th roots of unity for the
exponent e, so it is a splitting field of G (Brauer), and p does not
divide |G|; the class algebra over F_p is then F_p^k and the split
succeeds (Dixon 1967, Numer. Math. 10).  A failure is a hard error.

The split visits only eigenvalues: each space is cut by the restriction
of the next class matrix at the roots in F_p of its characteristic
polynomial, which a Hessenberg reduction gives (Cohen, GTM 138,
Alg. 2.2.9), not at every element of F_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .groups import Group, conjugacy_classes, derived_subgroup, group_stats, prime_power

__all__ = [
    "CharacterDegrees",
    "dixon_prime",
    "character_degrees",
    "d_sum_int",
    "d_sum_real",
    "validate_degrees",
]

PRIME_SEARCH_CAP = 10_000_000


@dataclass(frozen=True)
class CharacterDegrees:
    """Sorted multiset of irreducible character degrees of a group."""

    degrees: tuple
    group_order: int


def _admissible_primes(e: int, order: int):
    """Yield primes p = 1 (mod e) with p^2 > 4*order, ascending."""
    floor = 4 * order
    k = 1
    while k <= PRIME_SEARCH_CAP:
        p = k * e + 1
        if p * p > floor and prime_power(p) == (p, 1):
            yield p
        k += 1
    raise errors.PrimeSearchExhausted(f"no admissible prime below {PRIME_SEARCH_CAP * e}")


def dixon_prime(G: Group) -> int:
    """Smallest admissible prime for the finite-field method."""
    return next(_admissible_primes(group_stats(G).exponent, G.order))


def _rref_mod(A: np.ndarray, p: int):
    """Reduced row echelon form over F_p; returns (R, pivot columns)."""
    R = np.array(A % p, dtype=np.int64)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, p)) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def _nullspace_mod(A: np.ndarray, p: int):
    """Row basis of the right null space {x : A x = 0} over F_p, and its
    free columns, on which the basis is the identity."""
    R, pivots = _rref_mod(A, p)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = (-R[:, free].T) % p
    return basis, free


def _class_matrices(G: Group):
    """Structure-constant matrices on demand, plus class sizes and the
    inverse-class permutation.

    (M_r)[s][t] = a_rst counts the x in class r with x^-1 z_t in class s,
    for the representative z_t of class t.  One n x k table holds the flat
    cell (class of x^-1 z_t, t) for every x and t; `matrix(r)` bincounts
    the rows of class r into M_r, so no k x k x k array is ever built."""
    part = conjugacy_classes(G)
    k = len(part.classes)
    class_of = np.array(part.class_of, dtype=np.int64)
    sizes = [len(c) for c in part.classes]
    reps = [next(c.indices()) for c in part.classes]
    inv_class = [part.class_of[G.inv[r]] for r in reps]
    cells = class_of[G.table[np.asarray(G.inv)[:, None], reps]] * k + np.arange(k)

    def matrix(r: int) -> np.ndarray:
        return np.bincount(cells[class_of == r].ravel(), minlength=k * k).reshape(k, k)

    return matrix, sizes, inv_class


def _charpoly_mod(R: np.ndarray, p: int) -> np.ndarray:
    """Coefficients, constant term first, of det(xI - R) over F_p.

    R is reduced to upper Hessenberg form H by similarity (each row
    elimination below the subdiagonal is undone on the columns), then the
    leading principal minors P_m of xI - H follow the Hessenberg recurrence
    (Cohen, GTM 138, Alg. 2.2.9):
        P_m = (x - h_mm) P_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} P_{i-1}.
    Entries stay below p, so a product is below p^2 and a row of d of them
    sums far inside int64 for every Dixon prime in reach (the largest for
    an exponent <= 2000 is 87,869).
    """
    H = np.array(R % p, dtype=np.int64)
    d = H.shape[0]
    for m in range(1, d - 1):
        nz = np.nonzero(H[m:, m - 1])[0]
        if nz.size == 0:
            continue
        i = m + int(nz[0])
        if i != m:
            H[[m, i]] = H[[i, m]]
            H[:, [m, i]] = H[:, [i, m]]
        u = H[m + 1 :, m - 1] * pow(int(H[m, m - 1]), -1, p) % p
        H[m + 1 :] = (H[m + 1 :] - np.outer(u, H[m])) % p
        H[:, m] = (H[:, m] + H[:, m + 1 :] @ u) % p
    P = np.zeros((d + 1, d + 1), dtype=np.int64)
    P[0, 0] = 1
    for m in range(1, d + 1):
        P[m, 1:] = P[m - 1, :-1]
        P[m] = (P[m] - int(H[m - 1, m - 1]) * P[m - 1]) % p
        coef = np.zeros(m - 1, dtype=np.int64)
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * int(H[i, i - 1]) % p
            coef[i - 1] = t * int(H[i - 1, m - 1]) % p
        P[m] = (P[m] - coef @ P[: m - 1]) % p
    return P[d]


def _split_to_lines(matrix, sizes, p: int):
    """Split F_p^k into the common eigenvector lines of the class
    matrices `matrix(j)`, processing them in ascending class-size order.

    Each space of dimension d > 1 is split by the restriction R of the next
    class matrix: its eigenvalues are the roots in F_p of det(xI - R)
    (`_charpoly_mod`, Cohen Alg. 2.2.9), found by one vectorised Horner
    pass over all of F_p, and a null space is taken at each root in
    ascending order.  The eigenspaces must fill the space, else R is not
    diagonalizable over F_p and the split fails.

    A space is a basis B with the identity on columns piv, so R is the piv
    rows of M B^T.  A null-space basis is the identity on its free columns,
    so the eigenspace basis nb B is the identity on piv[free]: one
    elimination per eigenspace.  Each line is scaled to lead with 1."""
    k = len(sizes)
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    xs = np.arange(p, dtype=np.int64)
    for j in sorted(range(1, k), key=lambda j: (sizes[j], j)):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        M = matrix(j) % p
        next_spaces = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                next_spaces.append((B, piv))
                continue
            Rm = (M[piv] @ B.T) % p
            values = np.zeros(p, dtype=np.int64)
            for c in _charpoly_mod(Rm, p)[::-1]:
                values = (values * xs + int(c)) % p
            found = 0
            for lam in np.nonzero(values == 0)[0]:
                nb, free = _nullspace_mod((Rm - int(lam) * np.eye(d, dtype=np.int64)) % p, p)
                next_spaces.append(((nb @ B) % p, [piv[f] for f in free]))
                found += nb.shape[0]
            if found != d:
                raise errors.EigenspaceSplitFailure(f"matrix {j} is not diagonalizable over F_{p}")
        spaces = next_spaces
    if any(B.shape[0] != 1 for B, _ in spaces):
        raise errors.EigenspaceSplitFailure(f"common eigenspaces not one-dimensional over F_{p}")
    return [v * pow(int(v[v != 0][0]), -1, p) % p for (v,), _ in spaces]


def _degrees_from_lines(lines, sizes, inv_class, n: int, p: int):
    """Degree of the character of each line v: d^2 = |G| v_1^2 / S over
    F_p with S = sum_j v_j v_j* / |C_j| (orthogonality at v / v_1), lifted
    to its root in (0, p/2).  Each check runs over all lines at once."""
    V = np.array(lines, dtype=np.int64) % p
    if not V[:, 0].all():
        raise errors.EigenspaceSplitFailure("identity-class coordinate vanished")
    inv_sizes = np.array([pow(sz, -1, p) for sz in sizes], dtype=np.int64)
    S = (V * V[:, inv_class] % p * inv_sizes % p).sum(axis=1) % p
    if not S.all():
        raise errors.EigenspaceSplitFailure("orthogonality denominator vanished")
    d2 = [n * v0 * v0 * pow(s, -1, p) % p for v0, s in zip(V[:, 0].tolist(), S.tolist())]
    roots = np.zeros(p, dtype=np.int64)
    r = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    roots[r * r % p] = r
    degrees = roots[d2].tolist()
    if 0 in degrees:
        raise errors.EigenspaceSplitFailure(f"{d2[degrees.index(0)]} has no square root mod {p}")
    if sum(d * d for d in degrees) != n:
        raise errors.EigenspaceSplitFailure("degree squares do not sum to the group order")
    return tuple(sorted(degrees))


def character_degrees(G: Group) -> CharacterDegrees:
    """Exact degree multiset of the irreducible characters of G.

    Abelian groups short-circuit to all ones.  Otherwise the class algebra
    is split once, at the smallest admissible prime: F_p is a splitting
    field of G, so an EigenspaceSplitFailure there is a hard error, not a
    reason to try another prime.  The result must pass `validate_degrees`
    and have [G:G'] degrees equal to 1, else InvariantViolation.
    """
    st = group_stats(G)
    n = st.order
    if st.is_abelian:
        return CharacterDegrees((1,) * n, n)
    p = next(_admissible_primes(st.exponent, n))
    matrix, sizes, inv_class = _class_matrices(G)
    degrees = _degrees_from_lines(_split_to_lines(matrix, sizes, p), sizes, inv_class, n, p)
    result = validate_degrees(degrees, n)
    index = n // len(derived_subgroup(G))
    if degrees.count(1) != index:
        raise errors.InvariantViolation("[G:G'] linear characters", f"{degrees} for [G:G'] = {index}")
    return result


def d_sum_int(deg: CharacterDegrees, w: int) -> int:
    """Exact integer degree-power sum at integer exponent w >= 1."""
    if w < 1:
        raise errors.BadParameter("exponent must be a positive integer")
    return sum(d ** w for d in deg.degrees)


def d_sum_real(deg: CharacterDegrees, x: float) -> float:
    """Floating-point degree-power sum on the solver domain [2, 3]."""
    if not 2.0 <= x <= 3.0:
        raise errors.DomainError(f"exponent {x} outside [2, 3]")
    return float(sum(d ** x for d in deg.degrees))


def validate_degrees(degrees, order: int) -> CharacterDegrees:
    """Validate a degree multiset against the invariants a genuine group
    must satisfy; raises InvariantViolation naming the failed one."""
    degs = tuple(sorted(degrees))
    if not degs:
        raise errors.InvariantViolation("positivity", "empty degree list")
    if any(d < 1 for d in degs):
        raise errors.InvariantViolation("positivity", f"non-positive degree in {degs}")
    total = sum(d * d for d in degs)
    if total != order:
        raise errors.InvariantViolation(
            "sum of squares equals group order", f"sum {total} != order {order}"
        )
    bad = [d for d in degs if order % d != 0]
    if bad:
        raise errors.InvariantViolation(
            "every degree divides the group order", f"{bad[0]} does not divide {order}"
        )
    if degs[0] != 1:
        raise errors.InvariantViolation("trivial character present", "no degree equals 1")
    return CharacterDegrees(degs, order)
