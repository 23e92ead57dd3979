"""Command-line surface: group-spec grammar, catalog manifests, batch CSV
reports, single-group analysis, triple verification, and degree printing.

Batch rows are buffered and written in manifest order so `--jobs` never
changes output bytes; the runtime column is left blank in CSV for the same
reason.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass

from . import errors
from .bounds import ReportRow, bounds_report
from .chars import character_degrees, d_sum_int
from .groups import (
    BUILTIN_FAMILIES,
    MAX_PRIME_BITS,
    ElementSet,
    Group,
    builtin,
    check_order_limit,
    configured_order_limit,
    data_lines,
    direct_product,
    group_from_ctab_file,
    group_from_pgens_file,
    prime_power,
    read_int,
    validate_family_parameter,
)
from .tpp import satisfies_tpp

CSV_SCHEMA = "tppb-csv-v1"
# (CSV header, ReportRow attribute) in column order.
_COLUMNS = (
    ("name", "name"),
    ("order", "order"),
    ("is_abelian", "is_abelian"),
    ("subgroup_count", "subgroup_count"),
    ("class_count", "class_count"),
    ("d3", "d3"),
    ("t", "t"),
    ("b", "b_or_blank"),
    ("h", "h"),
    ("t_le_d3", "t_le_d3"),
    ("h_le_d3", "h_le_d3"),
    ("beta_g", "beta_g_or_blank"),
    ("runtime_ms", "runtime_ms"),
    ("error", "error"),
)
CSV_COLUMNS = [header for header, _ in _COLUMNS]

# Parsing, rendering and building recurse once per product level.
MAX_PRODUCT_DEPTH = 100
# Largest elem_abelian:p^k order, in bits, that parsing evaluates.  No group
# near it can be built; the cap keeps p**k cheap before the order limit
# refuses it.
MAX_ORDER_BITS = 1 << 16


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group description; exactly the fields for `kind` are set."""

    kind: str
    family: str | None = None
    parameter: int | None = None
    path: str | None = None
    factors: tuple["GroupSpec", "GroupSpec"] | None = None

    @property
    def name(self) -> str:
        return render_group_spec(self)


def render_group_spec(spec: GroupSpec) -> str:
    if spec.kind == "builtin":
        if spec.family == "elem_abelian":
            prime, k = prime_power(spec.parameter)
            if k > 1:
                return f"elem_abelian:{prime}^{k}"
        return f"{spec.family}:{spec.parameter}"
    if spec.kind == "perm":
        return f"perm:{spec.path}"
    if spec.kind == "table":
        return f"table:{spec.path}"
    left, right = spec.factors
    return f"product({render_group_spec(left)},{render_group_spec(right)})"


def _parse_int(text: str, pos: int, token: str) -> int:
    value = read_int(token)
    if value is None:
        raise errors.ParseError(text, pos, f"expected an integer, got {errors.quoted(token)}")
    return value


def _parse_spec_at(text: str, pos: int, depth: int = 0):
    if text.startswith("product(", pos):
        if depth == MAX_PRODUCT_DEPTH:
            raise errors.ParseError(text, pos, f"product nesting deeper than {MAX_PRODUCT_DEPTH}")
        left, pos = _parse_spec_at(text, pos + len("product("), depth + 1)
        if pos >= len(text) or text[pos] != ",":
            raise errors.ParseError(text, pos, "expected ',' between product factors")
        right, pos = _parse_spec_at(text, pos + 1, depth + 1)
        if pos >= len(text) or text[pos] != ")":
            raise errors.ParseError(text, pos, "expected ')' closing product")
        return GroupSpec(kind="product", factors=(left, right)), pos + 1

    end = pos
    while end < len(text) and text[end] not in ",)":
        end += 1
    token = text[pos:end]
    if ":" not in token:
        raise errors.ParseError(text, pos, f"expected '<family>:<parameter>' in {errors.quoted(token)}")
    head, _, tail = token.partition(":")
    if head == "perm":
        if not tail:
            raise errors.ParseError(text, pos, "perm spec needs a file path")
        return GroupSpec(kind="perm", path=tail), end
    if head == "table":
        if not tail:
            raise errors.ParseError(text, pos, "table spec needs a file path")
        return GroupSpec(kind="table", path=tail), end
    if head not in BUILTIN_FAMILIES:
        raise errors.UnknownFamily(f"unknown builtin family {errors.quoted(head)}")
    if head == "elem_abelian":
        base = tail.partition("^")[0]
        # The MAX_PRIME_BITS rule of validate_family_parameter, applied to
        # the token so that the message gives its position.
        if _parse_int(text, pos, base).bit_length() >= MAX_PRIME_BITS:
            raise errors.ParseError(text, pos, f"{errors.quoted(base)} has {MAX_PRIME_BITS} bits or more")
        if "^" in tail:
            return GroupSpec(kind="builtin", family=head, parameter=_parse_power(text, pos, tail)), end
    parameter = _parse_int(text, pos, tail)
    validate_family_parameter(head, parameter)
    return GroupSpec(kind="builtin", family=head, parameter=parameter), end


def _parse_power(text: str, pos: int, tail: str) -> int:
    """p**k from `p^k`, checked as a prime p and k >= 1 without a root search."""
    base, _, exp = tail.partition("^")
    prime, k = _parse_int(text, pos, base), _parse_int(text, pos, exp)
    if k < 1:
        raise errors.ParseError(text, pos, f"expected an exponent >= 1, got {errors.quoted(exp)}")
    if prime_power(prime) != (prime, 1):
        raise errors.BadParameter(f"elem_abelian base must be a prime, got {errors.quoted(base)}")
    if k * prime.bit_length() > MAX_ORDER_BITS:
        raise errors.ParseError(text, pos, f"order has more than {MAX_ORDER_BITS} bits")
    return prime**k


def parse_group_spec(text: str) -> GroupSpec:
    """Parse `cyclic:n | dihedral:m | dicyclic:m | sym:k | alt:k |
    elem_abelian:p^k | perm:<path> | table:<path> | product(<spec>,<spec>)`."""
    text = text.strip()
    if not text:
        raise errors.ParseError(text, 0, "empty group spec")
    spec, pos = _parse_spec_at(text, 0)
    if pos != len(text):
        raise errors.ParseError(text, pos, "unexpected trailing characters")
    return spec


def realize_group_spec(spec: GroupSpec, base_dir=".", order_limit: int | None = None) -> Group:
    """Build the group, resolving relative paths against `base_dir`."""
    if spec.kind == "builtin":
        return builtin(spec.family, spec.parameter, order_limit=order_limit)
    if spec.kind in ("perm", "table"):
        path = spec.path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        loader = group_from_pgens_file if spec.kind == "perm" else group_from_ctab_file
        try:
            return loader(path, order_limit=order_limit)
        except OSError as exc:
            # Name the file as the spec wrote it, cut short, so output
            # depends neither on where the catalog lives nor on how long
            # the path is.
            raise type(exc)(exc.errno, f"{exc.strerror}: {errors.quoted(spec.path)}") from None
    left, right = spec.factors
    return direct_product(
        realize_group_spec(left, base_dir, order_limit),
        realize_group_spec(right, base_dir, order_limit),
        order_limit=order_limit,
    )


@dataclass(frozen=True)
class CatalogManifest:
    entries: tuple
    declared_order: int | None


def load_manifest(path) -> CatalogManifest:
    """Read `name<TAB>spec` lines, `#` comments, optional `order=<n>` header."""
    entries = []
    declared = None
    names = set()
    try:
        lines = list(data_lines(path))
    except errors.ParseError as exc:
        raise errors.ManifestError(exc.detail) from None
    for lineno, line in lines:
        if declared is None and not entries and line.startswith("order=") and "\t" not in line:
            declared = read_int(line[len("order="):])
            if declared is None:
                raise errors.ManifestError(f"line {lineno}: bad order header {errors.quoted(line)}")
            continue
        if "\t" not in line:
            raise errors.ManifestError(f"line {lineno}: expected name<TAB>spec")
        name, spec_text = (part.strip() for part in line.split("\t", 1))
        if not name:
            raise errors.ManifestError(f"line {lineno}: empty name")
        if name in names:
            raise errors.ManifestError(f"line {lineno}: duplicate name {errors.quoted(name)}")
        names.add(name)
        try:
            spec = parse_group_spec(spec_text)
        except errors.TppbError as exc:
            raise errors.ManifestError(f"line {lineno}: {exc}") from None
        entries.append((name, spec))
    return CatalogManifest(tuple(entries), declared)


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def write_report_csv(path, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(getattr(row, attr)) for _, attr in _COLUMNS])


def _batch_worker(payload):
    name, spec, base_dir, exact_beta, order_limit, declared = payload
    try:
        G = realize_group_spec(spec, base_dir, order_limit)
        if declared is not None and G.order != declared:
            return ReportRow(
                name=name,
                error=f"order {G.order} does not match declared order {declared}",
            )
        return bounds_report(G, group_name=name, exact_beta=exact_beta)
    except Exception as exc:
        # Any failure stays in this entry's row; the batch carries on.
        return ReportRow(name=name, error=f"{type(exc).__name__}: {exc}")


def _cmd_batch(args) -> int:
    manifest = load_manifest(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    payloads = [
        (name, spec, base_dir, args.exact_beta, args.order_limit, manifest.declared_order)
        for name, spec in manifest.entries
    ]
    if args.jobs > 1 and len(payloads) > 1:
        # Imported here, as its import alone costs a serial run ~10 ms.
        from concurrent.futures import ProcessPoolExecutor

        # Every worker is started at once, so no more than there are entries.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(payloads))) as pool:
            # map yields the rows in manifest order.
            rows = list(pool.map(_batch_worker, payloads))
    else:
        rows = [_batch_worker(p) for p in payloads]
    write_report_csv(args.out, rows)

    orders = {row.order for row in rows if row.order is not None}
    if manifest.declared_order is not None:
        order_tag = str(manifest.declared_order)
    elif len(orders) == 1:
        order_tag = str(orders.pop())
    else:
        order_tag = "?"
    t_count = sum(1 for row in rows if row.t_le_d3 is True)
    h_count = sum(1 for row in rows if row.h_le_d3 is True)
    print(f"order={order_tag} groups={len(rows)} t_le_d3={t_count} h_le_d3={h_count}")
    return 1 if any(row.error for row in rows) else 0


def _cmd_analyze(args) -> int:
    spec = parse_group_spec(args.spec)
    start = time.perf_counter()
    G = realize_group_spec(spec, order_limit=args.order_limit)
    row = bounds_report(G, group_name=spec.name, exact_beta=args.exact_beta)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    print(f"group: {row.name}")
    print(f"order: {row.order}")
    print(f"abelian: {_cell(row.is_abelian)}")
    print(f"subgroups: {row.subgroup_count}")
    print(f"classes: {row.class_count}")
    print(f"degrees: {' '.join(str(d) for d in row.degrees.degrees)}")
    print(f"d3: {row.d3}")
    print(f"N: {row.N}")
    print(f"t: {row.t}")
    print(f"b: {_cell(row.b_or_blank)}")
    print(f"h: {row.h}")
    if args.exact_beta:
        print(f"beta_g: {_cell(row.beta_g_or_blank)}")
        witness = row.beta_witness
        print(f"beta_witness: {','.join(map(str, witness)) if witness else ''}")
    print(f"t_le_d3: {_cell(row.t_le_d3)}")
    print(f"h_le_d3: {_cell(row.h_le_d3)}")
    print(f"runtime_ms: {runtime_ms}")
    if args.verbose:
        print("candidates:")
        for i, order, core, delta, left, right, minimum in row.candidates.tolist():
            print(f"  i={i} order={order} core={core} delta={delta} left={left} right={right} min={minimum}")
    return 0


def _parse_elements(G: Group, text: str) -> ElementSet:
    indices = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        # Digits past int's 4,300-digit limit are past any order.
        index = read_int(token, huge=G.order)
        if index is None:
            index = G.index_of_label(token)
        elif index >= G.order:
            raise errors.UnknownElement(f"index {errors.shown(token)} outside 0..{G.order - 1}")
        indices.append(index)
    if not indices:
        raise errors.EmptySet("element list is empty")
    return ElementSet.from_indices(indices)


def _cmd_verify_tpp(args) -> int:
    spec = parse_group_spec(args.spec)
    G = realize_group_spec(spec, order_limit=args.order_limit)
    s = _parse_elements(G, args.s)
    t = _parse_elements(G, args.t)
    u = _parse_elements(G, args.u)
    verdict = satisfies_tpp(G, s, t, u)
    sizes = f"sizes ({len(s)}, {len(t)}, {len(u)})"
    if verdict.holds:
        print(f"TPP holds for {spec.name} with {sizes}")
        return 0
    ws, wt, wu = (G.label_of(i) for i in verdict.witness)
    print(f"TPP fails for {spec.name} with {sizes}")
    print(f"witness: s={ws!r} t={wt!r} u={wu!r}")
    return 1


def _cmd_degrees(args) -> int:
    spec = parse_group_spec(args.spec)
    G = realize_group_spec(spec, order_limit=args.order_limit)
    degrees = character_degrees(G)
    print(f"group: {spec.name}")
    print(f"order: {G.order}")
    print(f"classes: {len(degrees.degrees)}")
    print(f"degrees: {' '.join(str(d) for d in degrees.degrees)}")
    print(f"d3: {d_sum_int(degrees, 3)}")
    return 0


def _check_jobs(value) -> int:
    """`value` as a worker count: an integer >= 1, else BadParameter."""
    return check_order_limit(value, "jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tppb",
        description="Subgroup-triple capacity bounds and character-degree sums "
        "for finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate all bounds for one group")
    analyze.add_argument("spec")
    analyze.add_argument("--exact-beta", action="store_true")
    analyze.add_argument("--verbose", action="store_true")
    analyze.add_argument("--order-limit", type=check_order_limit, default=None)
    analyze.set_defaults(func=_cmd_analyze)

    batch = sub.add_parser("batch", help="evaluate a manifest into a CSV report")
    batch.add_argument("manifest")
    batch.add_argument("--out", required=True)
    batch.add_argument("--jobs", type=_check_jobs, default=1)
    batch.add_argument("--exact-beta", action="store_true")
    batch.add_argument("--order-limit", type=check_order_limit, default=None)
    batch.set_defaults(func=_cmd_batch)

    verify = sub.add_parser("verify-tpp", help="check one explicit subset triple")
    verify.add_argument("spec")
    verify.add_argument("--s", required=True)
    verify.add_argument("--t", required=True)
    verify.add_argument("--u", required=True)
    verify.add_argument("--order-limit", type=check_order_limit, default=None)
    verify.set_defaults(func=_cmd_verify_tpp)

    degrees = sub.add_parser("degrees", help="print irreducible character degrees")
    degrees.add_argument("spec")
    degrees.add_argument("--order-limit", type=check_order_limit, default=None)
    degrees.set_defaults(func=_cmd_degrees)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # One validated limit for every entry and worker of this run.
        if args.order_limit is None:
            args.order_limit = configured_order_limit()
        return args.func(args)
    except (errors.TppbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
