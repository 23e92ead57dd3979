"""Seeded benchmark inputs: each builtin factor of a workload entry is
written as a `.pgens` file whose generating set is drawn at random.

The group (its permutations, on the same points) is the one the builtin
family names, so every frozen value stays the same; only the generating
set, and with it the breadth-first element numbering, follows the seed.
Each family's standard generators mirror `tppb.groups.builtin` for the
parameters the workloads use (`dihedral:4`, special-cased there, is not).
"""

from __future__ import annotations

import os
import random


def _cycle(k: int):
    return list(range(2, k + 1)) + [1]


def _dicyclic(m: int):
    """Left-regular generators a, b of the dicyclic group of order m,
    elements a^i b^j indexed i + (m//2)*j."""
    half, quarter = m // 2, m // 4

    def product(i, j, k, l):
        if j == 0:
            return (i + k) % half, l
        if l == 0:
            return (i - k) % half, 1
        return (i - k + quarter) % half, 0

    def left(i, j):
        images = [0] * m
        for k in range(half):
            for l in (0, 1):
                ri, rj = product(i, j, k, l)
                images[k + half * l] = ri + half * rj + 1
        return images

    return [left(1, 0), left(0, 1)]


def family_generators(family: str, parameter: str):
    """One-line (1-based) generators of a builtin family member."""
    if family == "cyclic":
        return [_cycle(int(parameter))]
    if family == "dihedral":
        k = int(parameter) // 2
        return [_cycle(k), list(range(k, 0, -1))]
    if family == "dicyclic":
        return _dicyclic(int(parameter))
    if family == "sym":
        k = int(parameter)
        return [[2, 1] + list(range(3, k + 1)), _cycle(k)]
    if family == "alt":
        k = int(parameter)
        three = [2, 3, 1] + list(range(4, k + 1))
        return [three, _cycle(k) if k % 2 else [1] + list(range(3, k + 1)) + [2]]
    if family == "elem_abelian":
        prime, _, power = parameter.partition("^")
        p, k = int(prime), int(power or 1)
        gens = []
        for block in range(k):
            images = list(range(1, p * k + 1))
            for off in range(p):
                images[block * p + off] = block * p + (off + 1) % p + 1
            gens.append(images)
        return gens
    raise ValueError(f"no generators for family {family!r}")


def closure(gens):
    """All elements generated by one-line 0-based permutations, BFS order."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    elems = [identity]
    for cur in elems:
        for g in gens:
            new = tuple(g[c] for c in cur)
            if new not in seen:
                seen.add(new)
                elems.append(new)
    return elems


def random_generating_set(family: str, parameter: str, rng: random.Random):
    """Random elements of the group, drawn until they generate all of it."""
    elems = closure([tuple(x - 1 for x in g) for g in family_generators(family, parameter)])
    order = len(elems)
    gens = []
    while not gens or len(closure(gens)) < order:
        gens.append(rng.choice(elems[1:]))
    return gens


def split_product(spec: str):
    """Top-level factors of `product(a,b)`, or None for a builtin spec."""
    if not spec.startswith("product(") or not spec.endswith(")"):
        return None
    body = spec[len("product("):-1]
    depth = 0
    for pos, ch in enumerate(body):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            return body[:pos], body[pos + 1:]
    raise ValueError(f"malformed product spec {spec!r}")


def write_entry(spec: str, stem: str, out_dir: str, rng: random.Random) -> str:
    """Write the `.pgens` files of one spec; return the manifest spec."""
    factors = split_product(spec)
    if factors is not None:
        left = write_entry(factors[0], stem + "_l", out_dir, rng)
        right = write_entry(factors[1], stem + "_r", out_dir, rng)
        return f"product({left},{right})"
    family, _, parameter = spec.partition(":")
    gens = random_generating_set(family, parameter, rng)
    path = os.path.join(out_dir, stem + ".pgens")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {spec}, random generating set\ndegree {len(gens[0])}\n")
        for g in gens:
            fh.write(" ".join(str(x + 1) for x in g) + "\n")
    return f"perm:{stem}.pgens"


def write_manifest(entries: dict, seed: int, out_dir: str) -> str:
    """Write one manifest naming generated `.pgens` files for every entry."""
    lines = []
    for name, spec in entries.items():
        rng = random.Random(f"{seed}/{name}")
        lines.append(f"{name}\t{write_entry(spec, name, out_dir, rng)}\n")
    path = os.path.join(out_dir, "workload.manifest")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    return path
