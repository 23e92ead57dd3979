"""Irreducible character degrees over characteristic zero, computed by a
finite-field common-eigenvector method on conjugacy class matrices.

The class sums K_r multiply as K_r K_s = sum_t a_rst K_t. Over a prime
field with p = 1 (mod exponent) and p^2 > k^2 |G|, for the number k of
conjugacy classes, the matrices (M_r)[s][t] = a_rst commute and share
exactly one common eigenvector per irreducible character chi: w_chi with
w_chi[t] = |C_t| chi(z_t) / chi(1), the central character values. Each
degree is recovered from the orthogonality relation
d^2 = |G| / sum_j w_j w_j* / |C_j| evaluated mod p and lifted to the
unique integer in (0, sqrt(|G|)].

One such prime suffices.  F_p holds the e-th roots of unity for the
exponent e, so it is a splitting field of G (Brauer), and p does not
divide |G|; the class algebra over F_p is then F_p^k and the split
succeeds (Dixon 1967, Numer. Math. 10).  Dixon needs only p > 2 sqrt|G|,
which the rule meets as k >= 2 for a nontrivial G; the larger p is for
speed.  The k roots of the generic combination A below collide in about
k^2 / 2p pairs, and each collision costs a span over n*k cells and one
more eigenvector search, while the scan for the roots costs k*p cells.
The two balance near p = k sqrt(|G| / 2), and p^2 > k^2 |G| is within
sqrt(2) of that with no tuning constant.  A failure is a hard error.

The split follows Dixon as revisited by Schneider (J. Symbolic Comput. 9,
1990): first by one generic combination A = sum_j 3^j M_j, then class
matrix by class matrix on what A leaves unsplit.
- The identity class vector e_0 reaches every line.  Column
  orthogonality gives e_0 = sum_chi (chi(1)^2 / |G|) w_chi, and no
  coefficient vanishes mod p, as p does not divide |G|.  So for each
  root lam of f = det(xI - A) and the squarefree m = prod (x - lam),
  (m / (x - lam))(A) e_0 is a nonzero eigenvector at lam: the part of
  e_0 in that eigenspace, times prod (lam - mu) over the other roots.
  One matrix product of the quotient coefficients with the Krylov rows
  A^i e_0 gives all of them, with no null space per root.
- A simple root, f'(lam) != 0, has a one-dimensional eigenspace, and
  each M_j commutes with A, so maps it to itself: it is a common
  eigenvector, a line.  The roots and their simplicity come from one
  Horner pass over F_p, and the characteristic polynomial from a
  Hessenberg reduction (Cohen, GTM 138, Alg. 2.2.9).
- A repeated root's eigenvector v spans its whole eigenspace under the
  class matrices, so the rows M_j v, one weighted bincount, give it; its
  echelon form is taken on the d pivot columns of the space being split.
  Only these small spaces go on to the class matrices, and a space on
  which a class matrix is already scalar passes it with no eigenvector
  search: a scalar matrix has one root and splits nothing.

Every product stays exact.  The Krylov products in int64 sum at most
k products below p^2, far inside int64.  The Hessenberg reduction of
the characteristic polynomial reduces mod p only the entries each step
reads, and the whole matrix only when its unreduced entries could carry
a column product past 2^63: (d(p-1)+1)(p + s(p-1)^2) < 2^63 after s
steps, checked up front for s = 1.  The two k x k x r products of
the eigenvectors run in float64, which holds their sums of at most k
products below p^2 exactly while k*p^2 < 2^53, and the weighted
bincounts sum in float64 at most n*k weights below p, exact while
n*k*p < 2^53.  All three bounds hold within the default order limit:
a nonabelian group of order n <= 2000 has k <= 5n/8 <= 1,250 classes,
and over every exponent up to 1,000 the smallest prime = 1 (mod e)
above 1,250 sqrt(2000) is at most 104,831, which gives k*p^2 = 1.4e13,
n*k*p = 2.6e11 and a Hessenberg step bound of 1.4e18.  But the order
limit can be raised, so each is checked before its products and a
breach is an InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
# float64 holds every integer below 2^53 exactly.
FLOAT64_EXACT = 1 << 53
# Every int64 magnitude is below 2^63.
INT64_LIMIT = 1 << 63
# Cells per weighted bincount of the class algebra (64 KiB per temporary).
CELLS_PER_BINCOUNT = 1 << 13


@dataclass(frozen=True)
class CharacterDegrees:
    """Sorted multiset of irreducible character degrees of a group."""

    degrees: tuple
    group_order: int


def _admissible_primes(e: int, order: int, k: int):
    """Yield primes p = 1 (mod e) with p^2 > k^2 * order, ascending, for
    a group of that order and exponent with k conjugacy classes (see the
    module docstring for why k enters)."""
    floor = k * k * order
    m = 1
    while m <= PRIME_SEARCH_CAP:
        p = m * e + 1
        if p * p > floor and prime_power(p) == (p, 1):
            yield p
        m += 1
    raise errors.PrimeSearchExhausted(f"no admissible prime below {PRIME_SEARCH_CAP * e}")


def dixon_prime(G: Group) -> int:
    """Smallest admissible prime for the finite-field method: the least
    p = 1 (mod exponent) with p^2 > k^2 |G| for the k conjugacy classes."""
    k = len(conjugacy_classes(G).classes)
    return next(_admissible_primes(group_stats(G).exponent, G.order, k))


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
        if not R[r:].any():
            break
    return R[:r].copy(), pivots


class _ClassAlgebra:
    """The class algebra of G through its structure constants, plus the
    class sizes and the inverse-class permutation.

    (M_r)[s][t] = a_rst counts the x in class r with x^-1 z_t in class s,
    for the representative z_t of class t.  One n x k table holds the flat
    cell (class of x, class of x^-1 z_t) for every x and t, so each
    product below is one bincount over its n*k cells and no k x k x k
    array is ever built."""

    def __init__(self, G: Group):
        part = conjugacy_classes(G)
        k = len(part.classes)
        self.class_of = np.array(part.class_of, dtype=np.int64)
        self.sizes = [len(c) for c in part.classes]
        reps = [next(c.indices()) for c in part.classes]
        self.inv_class = [part.class_of[G.inv[r]] for r in reps]
        self.cells = self.class_of[G.table[G.inv[:, None], reps]]
        self.cells += self.class_of[:, None] * k

    def matrix(self, r: int) -> np.ndarray:
        """M_r, from the rows of class r alone."""
        k = len(self.sizes)
        bins = (self.cells[self.class_of == r] - r * k) * k + np.arange(k)
        return np.bincount(bins.ravel(), minlength=k * k).reshape(k, k)

    def combination(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j M_j: cell (x, t) adds c[class of x] to entry
        (class of x^-1 z_t, t)."""
        k = len(self.sizes)
        return self._weighted_bincount(
            lambda cells: cells % k * k + np.arange(k), c[self.class_of], np.ones(k)
        )

    def span(self, u: np.ndarray) -> np.ndarray:
        """The k x k matrix whose row j is M_j u: cell (x, t) adds u_t to
        entry (class of x, class of x^-1 z_t)."""
        return self._weighted_bincount(lambda cells: cells, np.ones(len(self.class_of)), u)

    def _weighted_bincount(self, bins, row_weight, col_weight) -> np.ndarray:
        """Sum row_weight[x] * col_weight[t] over the cells (x, t) into the
        k x k entries bins(cells), a block of whole rows at a time: at most
        CELLS_PER_BINCOUNT cells, so no n x k float64 temporary exists, but
        at least k rows, so adding up the k x k block sums costs no more
        than the blocks themselves.  Each sum is an integer below n*k*p,
        which float64 holds exactly while `_check_exact` passes."""
        n, k = self.cells.shape
        total = np.zeros(k * k)
        step = max(k, CELLS_PER_BINCOUNT // k)
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            weights = np.outer(row_weight[block], col_weight).ravel()
            total += np.bincount(bins(self.cells[block]).ravel(), weights, minlength=k * k)
        return total.astype(np.int64).reshape(k, k)


def _check_exact(what: str, bound: int):
    """InvariantViolation unless the bound on a float64 sum is below 2^53."""
    if bound >= FLOAT64_EXACT:
        raise errors.InvariantViolation(f"{what} < 2^53", f"{bound} is not exact in float64")


def _mulmod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for entries in [0, p), summed in float64 by BLAS:
    exact when the inner dimension times (p-1)^2 is below 2^53, which the
    caller checks."""
    return (A.astype(np.float64) @ B.astype(np.float64) % p).astype(np.int64)


def _charpoly_mod(R: np.ndarray, p: int) -> np.ndarray:
    """Coefficients, constant term first, of det(xI - R) over F_p.

    R is reduced to upper Hessenberg form H by similarity (each row
    elimination below the subdiagonal is undone on the columns), then the
    leading principal minors P_m of xI - H follow the Hessenberg recurrence
    (Cohen, GTM 138, Alg. 2.2.9):
        P_m = (x - h_mm) P_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} P_{i-1}.

    Step m reduces mod p only what it reads: the pivot column from the
    subdiagonal down, the pivot row and the new column m.  Its row update
    covers the columns >= m-1 alone, as the rows below the pivot are zero
    mod p to their left, and adds less than p^2 to the magnitude of an
    entry.  So after s unreduced steps an entry is below p + s(p-1)^2, and
    the column product, d such entries times u < p plus column m itself,
    is below (d(p-1)+1)(p + s(p-1)^2), which must stay below 2^63.  A full
    H %= p runs only when the next step would pass that bound: every 17
    steps for d = 30 at a prime near 2^18, every 6 for d = 1,250 at
    104,831, the bound on the Dixon prime of a nonabelian group of order
    <= 2000, and never for d = 503 at p = 3001.  If one step alone passes
    it, InvariantViolation.  The recurrence then updates all of P_m at
    once, with the running products of the subdiagonal as one array; its
    sums of d products below p^2 are inside the same bound.
    """
    H = np.array(R % p, dtype=np.int64)
    d = H.shape[0]
    steps = ((INT64_LIMIT - 1) // (d * (p - 1) + 1) - p) // (p - 1) ** 2
    if steps < 1:
        raise errors.InvariantViolation("(d(p-1)+1)(p+(p-1)^2) < 2^63", f"d = {d}, p = {p}")
    unreduced = 0
    for m in range(1, d - 1):
        H[m:, m - 1] %= p
        nz = np.nonzero(H[m:, m - 1])[0]
        if nz.size == 0:
            continue
        i = m + int(nz[0])
        if i != m:
            H[[m, i]] = H[[i, m]]
            H[:, [m, i]] = H[:, [i, m]]
        if unreduced == steps:
            H %= p
            unreduced = 0
        H[m, m - 1 :] %= p
        u = H[m + 1 :, m - 1] * pow(int(H[m, m - 1]), -1, p) % p
        H[m + 1 :, m - 1 :] -= np.outer(u, H[m, m - 1 :])
        H[:, m] = (H[:, m] + H[:, m + 1 :] @ u) % p
        unreduced += 1
    H %= p
    sub = np.diagonal(H, -1)
    P = np.zeros((d + 1, d + 1), dtype=np.int64)
    P[0, 0] = 1
    # run[i] = h_{i+1,i} h_{i+2,i+1} ... h_{m-1,m-2} for i < m-1; P_i has
    # degree i, so P[:m-1] is zero past column m-2.
    run = np.zeros(d, dtype=np.int64)
    for m in range(1, d + 1):
        P[m, 1:] = P[m - 1, :-1]
        P[m] -= H[m - 1, m - 1] * P[m - 1]
        P[m, : m - 1] -= run[: m - 1] * H[: m - 1, m - 1] % p @ P[: m - 1, : m - 1]
        P[m] %= p
        if m < d:
            run[m - 1] = 1
            run[:m] = run[:m] * sub[m - 1] % p
    return P[d]


def _roots(coeffs: np.ndarray, p: int):
    """Roots in F_p, ascending, of the polynomial with these coefficients
    (constant term first), and whether each is simple: one Horner pass
    over all of F_p evaluates f and f' together."""
    xs = np.arange(p, dtype=np.int64)
    f = np.zeros(p, dtype=np.int64)
    df = np.zeros(p, dtype=np.int64)
    for c in coeffs[::-1]:
        df = (df * xs + f) % p
        f = (f * xs + int(c)) % p
    roots = np.flatnonzero(f == 0)
    return roots, df[roots] != 0


def _quotients(roots: np.ndarray, p: int) -> np.ndarray:
    """Row i: the coefficients, constant term first, of m(x) / (x - roots[i])
    over F_p, where m is the product of (x - root) over the distinct roots.
    One synthetic division serves every root at once."""
    r = len(roots)
    m = np.zeros(r + 1, dtype=np.int64)
    m[0] = 1
    for lam in roots.tolist():
        m[1:] = (m[:-1] - lam * m[1:]) % p
        m[0] = -lam * m[0] % p
    Q = np.zeros((r, r), dtype=np.int64)
    Q[:, -1:] = 1
    for i in range(r - 1, 0, -1):
        Q[:, i - 1] = (m[i] + roots * Q[:, i]) % p
    return Q


def _eigenvectors(R: np.ndarray, y: np.ndarray, p: int, name: str):
    """The roots in F_p of f = det(xI - R), whether each is simple, and
    one eigenvector per root: row i of L is q_i(R) y for the quotient
    q_i = m / (x - roots[i]) of the squarefree m, that is the quotient
    coefficients times the Krylov rows R^i y, i < len(roots).  When y has
    a part in every eigenspace of a diagonalizable R, each row is that
    part up to a unit.  A zero row, or a row that R does not scale by its
    root, is an EigenspaceSplitFailure.  The two k x k x r products run in
    float64 (`_mulmod`), so k*(p-1)^2 < 2^53 is checked first."""
    k = len(y)
    _check_exact("k*(p-1)^2", k * (p - 1) ** 2)
    roots, simple = _roots(_charpoly_mod(R, p), p)
    r = len(roots)
    K = [y % p]
    while len(K) < r:
        K.append(R @ K[-1] % p)
    L = _mulmod(_quotients(roots, p), np.array(K[:r]).reshape(r, k), p)
    if not L.any(axis=1).all() or (_mulmod(R, L.T, p) != roots * L.T % p).any():
        raise errors.EigenspaceSplitFailure(f"{name} is not diagonalizable over F_{p}")
    return roots, simple, L


def _generic_combination(algebra: _ClassAlgebra, p: int) -> np.ndarray:
    """sum_j c_j M_j with c_j = 3^j mod p, a fixed rule, so the split and
    its work are deterministic.  A linear rule, c_j = j + 1, is not
    generic enough: on product(alt:6,cyclic:4) it leaves 11 distinct
    eigenvalues of 28, where powers of 3 leave 25."""
    k = len(algebra.sizes)
    return algebra.combination(np.array([pow(3, j, p) for j in range(k)]))


def _spanned_space(algebra: _ClassAlgebra, B, piv, v: np.ndarray, p: int):
    """Echelon basis and pivot columns of the span of v under the class
    matrices, for v in the space with echelon basis B (None for F_p^k).
    Each row M_j v of `span(v)` lies in the row space of B, which is the
    identity on the columns piv, so span(v) = span(v)[:, piv] B, and the
    echelon form C of the k x d block span(v)[:, piv] gives the basis
    C B, with pivots piv[c] for the pivots c of C.  That is the echelon
    form of span(v) itself, as each row of B is zero left of its pivot,
    and it costs d columns, not k.  C B runs in float64 (`_mulmod`): a B
    exists only after `_eigenvectors` split all of F_p^k, which checked
    k*(p-1)^2 < 2^53, and d <= k."""
    S = algebra.span(v)
    if B is None:
        return _rref_mod(S, p)
    C, cols = _rref_mod(S[:, piv], p)
    return _mulmod(C, B, p), [piv[c] for c in cols]


def _split_to_lines(algebra: _ClassAlgebra, p: int):
    """Split F_p^k into the common eigenvector lines of the class matrices.

    The first splitter is the generic combination A (`_generic_combination`),
    the rest are the class matrices in ascending class-size order.  A space
    is an echelon basis B (identity on its columns piv; None for all of
    F_p^k) and a vector u in it whose span under the class matrices is the
    whole space.  For F_p^k that is e_0, since M_j e_0 = |C_j| e_{j*}, and
    e_0 = sum_chi (chi(1)^2 / |G|) w_chi meets every line, as p does not
    divide |G|.  The restriction R of the splitter (the rows piv of M B^T)
    has one eigenvector q(R) u per root from `_eigenvectors`, each a
    product of quotient coefficients and Krylov rows, exact while
    k*p^2 < 2^53.
    - A simple root, f'(lam) != 0, has a one-dimensional eigenspace, which
      every M_j maps to itself, as M_j commutes with the splitter: it is a
      line.
    - A repeated root's vector v spans its eigenspace under the class
      matrices, so the echelon form of `span(v)` (`_spanned_space`), one
      weighted bincount, exact in float64 while n*k*p < 2^53, is the
      smaller space.  Only these spaces meet the next splitter.
    - A space of dimension >= 2 on which R is already scalar goes to the
      next splitter as it is, with no `_eigenvectors` call: R has the one
      root there, and no split.  (A space of dimension 1 is a line, and
      every 1 x 1 R is scalar.)
    The ranks of the new spaces must sum to the dimension of the split
    space, else the splitter is not diagonalizable over F_p.  A space
    still unsplit after the last class matrix is an error too.  Each line
    is scaled to lead with 1.  The bincount bound n*k*(p-1) < 2^53 is
    checked before the first bincount."""
    k = len(algebra.sizes)
    _check_exact("n*k*(p-1)", sum(algebra.sizes) * k * (p - 1))
    e0 = np.zeros(k, dtype=np.int64)
    e0[0] = 1
    order = sorted(range(1, k), key=lambda j: (algebra.sizes[j], j))
    generic = [("the generic combination", _generic_combination(algebra, p))]
    splitters = chain(generic, ((f"matrix {j}", algebra.matrix(j)) for j in order))
    lines = []
    spaces = [(None, None, e0)]
    for name, M in splitters:
        M = M % p
        next_spaces = []
        for B, piv, u in spaces:
            R = M if B is None else M[piv] @ B.T % p
            if len(R) > 1 and (R == R[0, 0] * np.eye(len(R), dtype=np.int64)).all():
                next_spaces.append((B, piv, u))
                continue
            roots, simple, L = _eigenvectors(R, u if B is None else u[piv], p, name)
            rank = 0
            for is_simple, y in zip(simple.tolist(), L):
                v = y if B is None else y @ B % p
                if is_simple:
                    lines.append(v)
                    rank += 1
                else:
                    basis, pivots = _spanned_space(algebra, B, piv, v, p)
                    next_spaces.append((basis, pivots, v))
                    rank += len(pivots)
            if rank != len(R):
                raise errors.EigenspaceSplitFailure(f"{name} is not diagonalizable over F_{p}")
        spaces = next_spaces
        if not spaces:
            break
    else:
        raise errors.EigenspaceSplitFailure(f"common eigenspaces not one-dimensional over F_{p}")
    return [v * pow(int(v[v != 0][0]), -1, p) % p for v in lines]


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

    Abelian groups, those with |G| conjugacy classes, short-circuit to
    all ones.  Otherwise the class algebra is split once, at the smallest
    admissible prime for the k classes of its partition (`dixon_prime`):
    F_p is a splitting field of G, so an EigenspaceSplitFailure there is a
    hard error, not a reason to try another prime.  The result must pass
    `validate_degrees` and have [G:G'] degrees equal to 1, else
    InvariantViolation.
    """
    n = G.order
    if len(conjugacy_classes(G).classes) == n:
        return CharacterDegrees((1,) * n, n)
    algebra = _ClassAlgebra(G)
    p = dixon_prime(G)
    lines = _split_to_lines(algebra, p)
    degrees = _degrees_from_lines(lines, algebra.sizes, algebra.inv_class, n, p)
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
