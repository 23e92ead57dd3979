"""Finite groups as explicit multiplication tables.

Groups are built from raw Cayley tables, permutation generators, builtin
families, or direct products. Element 0 is always the identity. The group
operation on permutations is composition applying the right factor first:
(p * q)(x) = p(q(x)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = [
    "BUILTIN_FAMILIES",
    "DEFAULT_ORDER_LIMIT",
    "MAX_PRIME_BITS",
    "check_order_limit",
    "check_positive_int",
    "read_int",
    "configured_order_limit",
    "ElementSet",
    "Group",
    "ConjugacyPartition",
    "GroupStats",
    "from_cayley_table",
    "from_permutation_generators",
    "direct_product",
    "builtin",
    "conjugacy_classes",
    "closure",
    "cyclic_subgroups",
    "derived_subgroup",
    "group_stats",
    "element_order",
    "prime_power",
    "data_lines",
    "group_from_pgens_file",
    "group_from_ctab_file",
]

DEFAULT_ORDER_LIMIT = 2000
# An elem_abelian parameter whose prime base would have this many bits or
# more is refused before the prime test, which takes seconds on thousands
# of digits.  No group near such an order can be built.
MAX_PRIME_BITS = 64
# Image cells of products per gather of the permutation closure: 4 MiB
# of uint8 images up to degree 256, 8 MiB of uint16 ones up to 65,536.
GATHER_CELLS = 1 << 22


def read_int(token: str, huge: int | None = None) -> int | None:
    """The integer that `token` writes in ASCII digits, else None: the one
    rule for integers in outside text (int() also takes a sign, `_`,
    spaces and other scripts' digits).  Digits past int()'s 4,300-digit
    limit read as `huge`: None, unless the caller only compares the
    number against a bound and passes that bound."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:
            return huge
    return None


def check_positive_int(value, source: str) -> int:
    """`value` as a count or limit: an integer >= 1 (a bool, a float or a
    string is not one), else BadParameter."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        if isinstance(value, str):
            got = errors.quoted(value)
        else:
            # A huge int is cut, since repr refuses more than 4,300 digits.
            got = errors.shown(value) if type(value) is int else repr(value)
        raise errors.BadParameter(f"{source} must be an integer >= 1, got {got}")
    return int(value)


def check_order_limit(value, source: str = "order limit") -> int:
    """`value`, an integer or its text by `read_int` (from the command line
    or the environment), as an order limit: >= 1, else BadParameter."""
    if isinstance(value, str) and (number := read_int(value)) is not None:
        value = number
    return check_positive_int(value, source)


def configured_order_limit() -> int:
    """Order cap used by constructors; TPPB_ORDER_LIMIT overrides it."""
    raw = os.environ.get("TPPB_ORDER_LIMIT")
    return check_order_limit(raw, "TPPB_ORDER_LIMIT") if raw else DEFAULT_ORDER_LIMIT


def _resolve_limit(order_limit) -> int:
    return configured_order_limit() if order_limit is None else check_order_limit(order_limit)


class ElementSet:
    """Dense bit-vector set of element indices with cached size."""

    __slots__ = ("mask", "size")

    def __init__(self, mask: int):
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def from_indices(cls, idxs) -> "ElementSet":
        mask = 0
        for i in idxs:
            mask |= 1 << i
        return cls(mask)

    def indices(self):
        """Yield member indices in increasing order."""
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __contains__(self, i: int) -> bool:
        return (self.mask >> i) & 1 == 1

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"ElementSet({sorted(self.indices())})"


# A mask holds element i in bit i; as bytes it is little-endian, so its
# membership row is the little-endian unpacking of those bytes.
def _bits(mask: int, n: int):
    """Boolean membership row of a mask over n elements."""
    row = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(row, count=n, bitorder="little").view(bool)


def _mask(row) -> int:
    """Mask of a boolean membership row; the inverse of `_bits`."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _masks(rows) -> list:
    """Masks of the rows of a 2-D boolean membership array, packed by one
    `np.packbits` call: entry i is `_mask(rows[i])`."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _packed(masks, n: int):
    """Masks packed little-endian into rows of uint64 words, and the
    boolean membership rows unpacked from those words: row i of the
    second is `_bits(masks[i], n)`."""
    width = -(-n // 64)
    packed = b"".join(mask.to_bytes(8 * width, "little") for mask in masks)
    words = np.frombuffer(packed, dtype="<u8").reshape(len(masks), width)
    rows = np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    return words, rows


class Group:
    """Immutable finite group over element indices 0..order-1, held as its
    multiplication table, a C-contiguous int64 array; the int64 array of
    inverses is read off the table.  Scalar loops read the table through
    its zero-copy 2-D memoryview, `mul = G.table.data`, as `mul[h, x]`:
    each read is a Python int and no list copy is made.  The view stays
    a local of each reader, since a memoryview cannot be pickled.

    A group closed from permutations keeps the image array of its
    elements, `images` (row i holds the 0-based images of element i, in
    the narrowest unsigned dtype); every other group has None there.  A
    label is rendered from its row only when asked for.

    Three invariants are kept once computed: the conjugacy partition
    (`conjugacy_classes`), the mask of <g> for every g
    (`cyclic_subgroups`) and G' (`derived_subgroup`).  The first reader
    of each pays for it; every later one reads the stored value."""

    __slots__ = ("order", "table", "inv", "images", "_classes", "_cyclic", "_derived")

    def __init__(self, table, images=None):
        self.table = np.ascontiguousarray(table, dtype=np.int64)
        self.order = len(self.table)
        self.inv = (self.table == 0).argmax(axis=1)
        self.images = images
        self._classes = self._cyclic = self._derived = None

    def label_of(self, i: int) -> str:
        """One-line notation with 1-based images for a permutation group,
        `g<i>` otherwise."""
        if self.images is None:
            return f"g{i}"
        return " ".join(str(x + 1) for x in self.images[i].tolist())

    def index_of_label(self, text: str) -> int:
        """The element i with `label_of(i) == text`, else UnknownElement.
        A one-line label is parsed and its row found by one comparison
        against `images`; the found row is rendered back and must match
        the text exactly, so spacing and leading zeros count."""
        i = None
        if self.images is None:
            if text[:1] == "g":
                i = read_int(text[1:])
        else:
            row = [read_int(token) for token in text.split()]
            if None not in row and sorted(row) == list(range(1, self.images.shape[1] + 1)):
                # With no row equal, argmax gives 0, the identity,
                # whose label matches only the identity's text.
                i = int((self.images == np.subtract(row, 1)).all(axis=1).argmax())
        if i is not None and i < self.order and self.label_of(i) == text:
            return i
        raise errors.UnknownElement(f"no element labeled {errors.quoted(text)}")

    def __repr__(self) -> str:
        return f"Group(order={self.order})"


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes as element sets plus the element -> class map,
    both tuples: one partition is shared by every reader of a group."""

    classes: tuple
    class_of: tuple


@dataclass(frozen=True)
class GroupStats:
    order: int
    is_abelian: bool
    exponent: int
    center_size: int


# Miller-Rabin with these bases has no strong pseudoprime below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _iroot(q: int, k: int) -> int:
    """Largest r with r**k <= q, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = s
    return r


def _exact_root(q: int, k: int):
    """r with r**k == q for a prime k, else None.  The integer root is taken
    only after q is a k-th power residue modulo four primes l = 1 (mod k),
    which a random q passes with chance k**-4."""
    m, tested = 1, 0
    while tested < 4:
        l = m * k + 1
        if _is_prime(l):
            r = q % l
            if r and pow(r, m, l) != 1:
                return None
            tested += 1
        m += 1
    r = _iroot(q, k)
    return r if r**k == q else None


def prime_power(q: int):
    """(p, k) with q == p**k for a prime p and k >= 1; None when q is not a
    prime power.  Exact for every q below 3.3e24, far past any order that
    can be built, so there q is prime iff the result is (q, 1)."""
    base = _power_base(q)
    return base if base is not None and _is_prime(base[0]) else None


def _power_base(q: int):
    """(r, k) with q == r**k such that q is a prime power iff r is prime;
    None when q is known not to be one.  The prime test of r is left out."""
    if q < 2:
        return None
    for p in _WITNESSES:
        if q % p == 0:
            k = round(math.log(q, p))
            return (p, k) if p**k == q else None
    # No prime up to 37 divides q, so a root r exceeds 2**5 and q = r**l needs
    # l <= (bits - 1) // 5.  Roots are taken one prime exponent l at a time.
    k, l = 1, 2
    while l <= (q.bit_length() - 1) // 5:
        r = _exact_root(q, l) if _is_prime(l) else None
        if r is None:
            l += 1
        else:
            q, k = r, k * l
    return q, k


def _check_limit(n: int, limit: int, what: str):
    if n > limit:
        raise errors.OrderLimitExceeded(f"{what} of order {n} exceeds limit {limit}")


def from_cayley_table(n: int, table, order_limit: int | None = None) -> Group:
    """Validate a raw n x n multiplication table and wrap it as a Group.

    Checks, in order: shape and entry range, the Latin-square property by
    rows then columns, identity at index 0, then the full associativity
    scan. The first failing witness is reported.
    """
    limit = _resolve_limit(order_limit)
    if n < 1:
        raise errors.BadParameter("order must be at least 1")
    _check_limit(n, limit, "table")
    try:
        M = np.asarray(table, dtype=np.int64)
    except (ValueError, OverflowError):
        raise errors.BadParameter(f"table must be {n}x{n} integers in 0..{n - 1}") from None
    if M.shape != (n, n):
        raise errors.BadParameter(f"table must be {n}x{n}, got shape {M.shape}")
    if M.min() < 0 or M.max() >= n:
        raise errors.BadParameter("table entries must lie in 0..n-1")

    ref = np.arange(n)
    row_ok = (np.sort(M, axis=1) == ref).all(axis=1)
    if not row_ok.all():
        raise errors.NotLatinSquare("row", int(np.nonzero(~row_ok)[0][0]))
    col_ok = (np.sort(M, axis=0) == ref[:, None]).all(axis=0)
    if not col_ok.all():
        raise errors.NotLatinSquare("column", int(np.nonzero(~col_ok)[0][0]))

    if not (M[0] == ref).all() or not (M[:, 0] == ref).all():
        raise errors.NoIdentityAtZero("row/column 0 is not the identity map")

    for a in range(n):
        left = M[M[a], :]
        right = M[a][M]
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)
            b, c = (int(v) for v in bad[np.lexsort((bad[:, 1], bad[:, 0]))[0]])
            raise errors.NotAssociative(a, b, c)
    return Group(M)


def _as_zero_based_perm(seq, degree: int):
    images = list(seq)
    if len(images) != degree or sorted(images) != list(range(1, degree + 1)):
        shown = errors.shown(repr(images))
        raise errors.NotAPermutation(f"{shown} is not a permutation of 1..{errors.shown(degree)}")
    return tuple(i - 1 for i in images)


def from_permutation_generators(degree: int, gens, order_limit: int | None = None) -> Group:
    """Close a set of one-line permutations of 1..degree into a Group.

    Elements get indices in breadth-first discovery order from the
    identity: the products g_k * x are taken for x in index order and,
    for each x, k in generator order, and each product not seen before
    is the next element.  A step takes every element found but not yet
    multiplied, at most GATHER_CELLS image cells of products at a time,
    so it is one breadth-first level or a slice of one.  One gather of
    the generator images gives all its products, and the bytes of a
    product row are its key in the index.  The element images are kept
    on the Group, which renders a label from them when asked.
    """
    limit = _resolve_limit(order_limit)
    if degree < 1:
        raise errors.BadParameter("degree must be at least 1")
    dtype = np.min_scalar_type(degree - 1)
    P = np.array([_as_zero_based_perm(g, degree) for g in gens], dtype=dtype).reshape(-1, degree)
    k = len(P)
    width = degree * dtype.itemsize
    step = max(1, GATHER_CELLS // max(1, k * degree))

    rows = [np.arange(degree, dtype=dtype)]
    index = {rows[0].tobytes(): 0}
    parent, via = [0], [0]
    # left[y * k + j] = index of gens[j] * element y
    left = []
    # ends[s]: the number of elements found once step s is done.
    ends = [1]
    pos = 0
    while pos < len(rows):
        stop = min(len(rows), pos + step)
        # Row r of the gather is gens[r % k] * element pos + r // k.
        raw = np.take(P, rows[pos:stop], axis=1).swapaxes(0, 1).tobytes()
        new = []
        for r in range(len(raw) // width):
            key = raw[r * width : (r + 1) * width]
            x = index.get(key)
            if x is None:
                x = len(index)
                if x == limit:
                    raise errors.OrderLimitExceeded(
                        f"closure exceeds order limit {limit}", partial_count=limit + 1
                    )
                index[key] = x
                new.append(r)
                parent.append(pos + r // k)
                via.append(r % k)
            left.append(x)
        if new:
            rows.extend(np.frombuffer(raw, dtype=dtype).reshape(-1, degree)[new])
            ends.append(len(rows))
        pos = stop

    # x = g * parent(x), so row x of the table is L_g applied to row
    # parent(x); the rows found in one step have their parents in earlier
    # steps, so each step's rows are one gather from `left`.
    n = len(index)
    left, parent, via = np.array(left, dtype=np.int64), np.array(parent), np.array(via)
    M = np.empty((n, n), dtype=np.int64)
    M[0] = np.arange(n)
    for lo, hi in zip(ends, ends[1:]):
        M[lo:hi] = left[M[parent[lo:hi]] * k + via[lo:hi, None]]
    return Group(M, images=np.array(rows))


def direct_product(A: Group, B: Group, order_limit: int | None = None) -> Group:
    """Componentwise product; element (a, b) gets index a*|B| + b."""
    limit = _resolve_limit(order_limit)
    n = A.order * B.order
    _check_limit(n, limit, "direct product")
    table = A.table[:, None, :, None] * B.order + B.table[None, :, None, :]
    return Group(table.reshape(n, n))


def _cycle(k: int) -> list:
    """The cycle 1 -> 2 -> ... -> k -> 1 in one-line form."""
    return list(range(2, k + 1)) + [1]


def _dicyclic_perms(m: int):
    """Left-regular images of the two standard dicyclic generators.

    Element a^i b^j (0 <= i < h, j in {0, 1}) has index i + h*j, where
    h = m/2 is the order of a and b^2 = a^q with q = m/4.  From the
    relations b a b^-1 = a^-1 and b^2 = a^q: a * a^k b^l = a^(k+1) b^l,
    b * a^k = a^(-k) b, and b * a^k b = a^(-k) b^2 = a^(q-k).
    """
    h, q = m // 2, m // 4
    a = [(k + 1) % h + h * l + 1 for l in (0, 1) for k in range(h)]
    b = [-k % h + h + 1 for k in range(h)] + [(q - k) % h + 1 for k in range(h)]
    return [a, b]


# The parameter rule and refusal message of each family that has one
# constructor argument; elem_abelian's prime-power rule is its own branch.
_FAMILY_RULES = {
    "cyclic": (lambda p: p >= 1, "cyclic parameter must be >= 1"),
    "dihedral": (lambda p: p >= 4 and p % 2 == 0, "dihedral parameter is the group order, even and >= 4"),
    "dicyclic": (
        lambda p: p >= 8 and p % 4 == 0,
        "dicyclic parameter is the group order, divisible by 4 and >= 8",
    ),
    "sym": (lambda p: p >= 1, "sym parameter must be >= 1"),
    "alt": (lambda p: p >= 3, "alt parameter must be >= 3"),
}
BUILTIN_FAMILIES = (*_FAMILY_RULES, "elem_abelian")


def validate_family_parameter(family: str, parameter: int) -> None:
    """Check a builtin family parameter without constructing the group."""
    if family in _FAMILY_RULES:
        test, message = _FAMILY_RULES[family]
        if not test(parameter):
            raise errors.BadParameter(message)
    elif family == "elem_abelian":
        base = _power_base(parameter)
        if base is not None and base[0].bit_length() >= MAX_PRIME_BITS:
            raise errors.BadParameter(
                f"elem_abelian base {errors.quoted(base[0])} has {MAX_PRIME_BITS} bits or more"
            )
        if base is None or not _is_prime(base[0]):
            raise errors.BadParameter(
                f"elem_abelian parameter must be a prime power, got {errors.quoted(parameter)}"
            )
    else:
        raise errors.UnknownFamily(f"unknown builtin family {errors.quoted(family)}")


def builtin(family: str, parameter: int, order_limit: int | None = None) -> Group:
    """Construct a builtin family member via an explicit permutation
    representation.  The families are BUILTIN_FAMILIES, with the parameter
    rules of `validate_family_parameter`.
    """
    validate_family_parameter(family, parameter)
    order_limit = _resolve_limit(order_limit)
    order = parameter
    if family in ("sym", "alt"):
        # k! (k!/2 for alt) as a running product that stops past the
        # limit, so a large k never computes k!.
        order = 1
        for i in range(3 if family == "alt" else 2, parameter + 1):
            order *= i
            if order > order_limit:
                break
    if order > order_limit:
        prime, k = prime_power(parameter) if family == "elem_abelian" else (parameter, 1)
        # A long parameter is cut as the parse messages cut a token.
        what = errors.shown(f"{prime}^{k}" if k > 1 else parameter)
        raise errors.OrderLimitExceeded(f"{family}:{what} exceeds order limit {order_limit}")
    p = parameter
    if family == "cyclic":
        return from_permutation_generators(p, [_cycle(p)], order_limit)
    if family == "dihedral":
        if p == 4:
            return from_permutation_generators(4, [[2, 1, 3, 4], [1, 2, 4, 3]], order_limit)
        k = p // 2
        return from_permutation_generators(k, [_cycle(k), list(range(k, 0, -1))], order_limit)
    if family == "dicyclic":
        return from_permutation_generators(p, _dicyclic_perms(p), order_limit)
    # sym:1, sym:2 and alt:3 are generated by their long cycle alone.
    if family == "sym":
        gens = [_cycle(2) + list(range(3, p + 1))] if p > 2 else []
        return from_permutation_generators(p, gens + [_cycle(p)], order_limit)
    if family == "alt":
        gens = [_cycle(3) + list(range(4, p + 1))] if p > 3 else []
        second = _cycle(p) if p % 2 else [1] + list(range(3, p + 1)) + [2]
        return from_permutation_generators(p, gens + [second], order_limit)
    prime, k = prime_power(p)
    degree = prime * k
    gens = []
    for block in range(k):
        base = block * prime
        images = list(range(1, degree + 1))
        for off in range(prime):
            images[base + off] = base + (off + 1) % prime + 1
        gens.append(images)
    return from_permutation_generators(degree, gens, order_limit)


def conjugacy_classes(G: Group) -> ConjugacyPartition:
    """Partition elements by the orbit relation x ~ g*x*g^-1, computed on
    the first call and stored on G.

    Classes are numbered by ascending minimal element, so the identity
    class is always class 0.
    """
    if G._classes is None:
        G._classes = _conjugacy_partition(G)
    return G._classes


def _conjugates(T, inv, members):
    """Row g holds g*y*g^-1 for each y of the member array, for every g
    at once: one gather over the table T with inverse array inv."""
    return T[T[:, members], inv[:, None]]


def _conjugacy_partition(G: Group) -> ConjugacyPartition:
    """Each element not yet in a class starts a new one, its orbit
    gathered whole by `_conjugates`; so the classes come out numbered by
    their least elements."""
    n = G.order
    class_of = np.full(n, -1)
    classes = []
    for x in range(n):
        if class_of[x] < 0:
            row = np.zeros(n, dtype=bool)
            row[_conjugates(G.table, G.inv, [x])] = True
            class_of[row] = len(classes)
            classes.append(ElementSet(_mask(row)))
    return ConjugacyPartition(tuple(classes), tuple(class_of.tolist()))


def _coset_join(mul, members, multipliers, ambient=None, index=2) -> int:
    """Mask of <H, multipliers> by `_coset_search`, reading the table
    through its memoryview `mul`; H is given by its member list.  The
    caller vouches that the join lies in the subgroup `ambient` (by
    default the whole group, of order n = len(mul)) and that `ambient`
    has no proper subgroup of index below `index`; so once the join
    passes |ambient|/index elements, `ambient` is returned.  By Lagrange,
    `index` 2 holds for any ambient group."""
    n = len(mul)
    if ambient is None:
        ambient = (1 << n) - 1
    seen = bytearray(n)
    for h in members:
        seen[h] = 1
    if _coset_search(mul, members, multipliers, seen, ambient.bit_count() // index) is None:
        return ambient
    return _mask(seen)


def _coset_search(mul, members, multipliers, seen, bound):
    """Right-coset representatives of H in <H, multipliers>, the first
    being the identity, or None once the join passes `bound` elements.
    H is given by its member list and its byte marks `seen`, a bytearray
    over the group that is marked in place as the join grows;
    multipliers must include a generating set of H.  New coset
    representatives are right multiples of known ones, and each coset H*r
    is filled by multiplying every member of H into r, so after k cosets
    the join holds k*|H| elements."""
    reps = [0]
    # reps grows while it is read, so each new representative is used in turn.
    for r in reps:
        for m in multipliers:
            cand = mul[r, m]
            if not seen[cand]:
                reps.append(cand)
                if len(reps) * len(members) > bound:
                    return None
                for h in members:
                    seen[mul[h, cand]] = 1
    return reps


def closure(G: Group, seed) -> ElementSet:
    """Smallest subgroup containing the seed elements: the coset search
    started from the trivial subgroup."""
    return ElementSet(_coset_join(G.table.data, [0], tuple(seed)))


def cyclic_subgroups(G: Group) -> tuple:
    """Mask of the cyclic subgroup <g> for every element g, in index
    order, computed on the first call and stored on G."""
    if G._cyclic is None:
        G._cyclic = _cyclic_masks(G)
    return G._cyclic


def _cyclic_masks(G: Group) -> tuple:
    """Walks the powers of each g not yet reached; the same <g> is then
    stored for every generator g^k of it, k prime to the order of g."""
    mul = G.table.data
    masks = [0] * G.order
    for g in range(G.order):
        if masks[g]:
            continue
        powers, mask, x = [0], 1, g
        while x:
            powers.append(x)
            mask |= 1 << x
            x = mul[x, g]
        m = len(powers)
        for k in range(m):
            if math.gcd(k, m) == 1:
                masks[powers[k]] = mask
    return tuple(masks)


def _walk(G: Group, queue: list, conjugators=()):
    """(mask, generators) of <queue>.  The queue is read as it grows: each
    element outside the join so far joins as a generator by
    `_coset_search`, and queues its conjugates g*x*g^-1 by every g of
    `conjugators`.  The join's byte marks and its member list, read off
    the coset representatives, carry on to the next join, so the mask is
    packed only at the end.  A join past n/2 elements is the whole group,
    and the walk ends there."""
    mul, n = G.table.data, G.order
    seen, members, gens = bytearray(n), [0], ()
    seen[0] = 1
    for x in queue:
        if not seen[x]:
            gens += (x,)
            reps = _coset_search(mul, members, gens, seen, n // 2)
            if reps is None:
                return (1 << n) - 1, gens
            members = [mul[h, r] for r in reps for h in members]
            queue.extend(mul[mul[g, x], G.inv[g]] for g in conjugators)
    return _mask(seen), gens


def _subgroup_generators(G: Group, S: ElementSet) -> tuple:
    """Generators of S by `_walk` over its members in ascending order; the
    walk ends at <S>, so NotASubgroup when S is not closed or holds an
    index outside G."""
    if S.mask >> G.order:
        raise errors.NotASubgroup(f"set holds an index outside 0..{G.order - 1}")
    mask, gens = _walk(G, np.flatnonzero(_bits(S.mask, G.order)).tolist())
    if mask != S.mask:
        raise errors.NotASubgroup(f"set of {len(S)} elements generates a subgroup of order {mask.bit_count()}")
    return gens


def derived_subgroup(G: Group, H: ElementSet | None = None) -> ElementSet:
    """Commutator subgroup H' of H, or G' (stored on G at the first call)
    when H is None or G itself; NotASubgroup when H is not closed."""
    whole = (1 << G.order) - 1
    if H is not None and H.mask != whole:
        return _commutator_subgroup(G, H)
    if G._derived is None:
        G._derived = _commutator_subgroup(G, ElementSet(whole))
    return G._derived


def _commutator_subgroup(G: Group, H: ElementSet) -> ElementSet:
    """H' as the normal closure K in H of the commutators a^-1 b^-1 a b of
    H's generators, `_walk` conjugating each new generator of K by H's.
    K lies in H', which is normal in H and holds the commutators.  K is
    normal in H, as g*K*g^-1 lies in K for each generator g and conjugation
    by g^-1 is a power of it; H's generators commute modulo K, so K ⊇ H'."""
    gens = _subgroup_generators(G, H)
    mul, inv = G.table.data, G.inv
    commutators = [mul[mul[mul[inv[a], inv[b]], a], b] for a in gens for b in gens]
    return ElementSet(_walk(G, commutators, gens)[0])


def element_order(G: Group, g: int) -> int:
    return cyclic_subgroups(G)[g].bit_count()


def group_stats(G: Group) -> GroupStats:
    """Order, commutativity, exponent (lcm of element orders), center size:
    the number of one-element conjugacy classes."""
    center_size = sum(c.size == 1 for c in conjugacy_classes(G).classes)
    exponent = math.lcm(*{mask.bit_count() for mask in cyclic_subgroups(G)})
    return GroupStats(G.order, center_size == G.order, exponent, center_size)


def data_lines(path):
    """Yield (number, text) for each line of an ASCII file that is neither
    blank nor a `#` comment, stripped; a non-ASCII byte is a ParseError
    naming its line."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            # Quote the offending line, not the path, so the message does
            # not depend on where the file lives.
            raw = exc.object
            head = raw[: exc.start].decode("ascii").split("\n")
            raise errors.ParseError(
                head[-1], len(head[-1]), f"line {len(head)}: non-ASCII byte 0x{raw[exc.start]:02x}"
            ) from None
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def _int_rows(lines, what: str) -> list:
    """Each numbered line of `lines` as its integers by `read_int`, else a
    ParseError saying that `what` must be integers."""
    rows = []
    for number, line in lines:
        row = [read_int(token) for token in line.split()]
        if None in row:
            raise errors.ParseError(line, 0, f"line {number}: {what} must be integers")
        rows.append(row)
    return rows


def group_from_pgens_file(path, order_limit: int | None = None) -> Group:
    """Load a .pgens file: `degree <d>` then one generator per line in
    one-line notation (1-based images)."""
    lines = list(data_lines(path))
    head = lines[0][1] if lines else ""
    # A stripped line that starts with `degree ` has a second token.
    degree = read_int(head.split()[1]) if head.startswith("degree ") else None
    if degree is None:
        raise errors.ParseError(head, 0, "expected leading 'degree <d>' line")
    gens = _int_rows(lines[1:], "generator lines")
    if not gens:
        raise errors.ParseError(head, 0, "no generators in file")
    return from_permutation_generators(degree, gens, order_limit)


def group_from_ctab_file(path, order_limit: int | None = None) -> Group:
    """Load a .ctab file: `<n>` then n rows of n 0-based indices."""
    lines = list(data_lines(path))
    if not lines:
        raise errors.ParseError("", 0, "empty table file")
    head = lines[0][1]
    n = read_int(head)
    if n is None:
        raise errors.ParseError(head, 0, "expected leading order line")
    rows = _int_rows(lines[1:], "table rows")
    if len(rows) != n:
        raise errors.ParseError(head, 0, f"expected {errors.shown(n)} rows, got {len(rows)}")
    return from_cayley_table(n, rows, order_limit)
