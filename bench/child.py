"""Subprocess side of the benchmark.

`python3 bench/child.py batch JOB` repeats `tppb batch` over the job's
manifests through `tppb.cli.main`, untraced, for the job's seconds, with
a `probe.SpeedProbe` sampling the machine's speed during every batch.
`python3 bench/child.py trace JOB` alternates one untraced batch with one
traced pass that calls each layer's public functions in turn and times
every call with a span.  JOB is a JSON object; results go to stdout as
lines starting with `BENCH `, so the parent can read what a run reported
before it crashed or was killed.  Spans are kept in memory and written to
the job's `spans` file when the child ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

from probe import SpeedProbe

# Entries of bounds-only workloads get a budgeted beta search after the
# traced pass, outside its total, so the `tpp` per-check cost is measured
# on every workload.
PROBE_CHECKS = 500

# Span names whose summed duration is reported as the metric `<name>_s`.
TIMED_SPANS = (
    "groups.build", "groups.stats", "lattice.enumerate", "lattice.cores",
    "chars.degrees", "bounds.t", "bounds.h", "bounds.beta", "cli.manifest", "cli.csv",
)
LAYERS = ("groups", "lattice", "chars", "bounds", "cli")


def emit(**record) -> None:
    sys.stdout.write("BENCH " + json.dumps(record) + "\n")
    sys.stdout.flush()


def batch_once(cli, job, tag: str):
    """One untraced `tppb batch` over every manifest; returns (seconds, csvs)."""
    extra = ["--exact-beta"] if job["exact_beta"] else []
    outs = [os.path.join(job["out_dir"], f"{tag}_{k}.csv") for k in range(len(job["manifests"]))]
    start = time.perf_counter()
    for manifest, out in zip(job["manifests"], outs):
        cli.main(["batch", manifest, "--out", out, *extra])
    return time.perf_counter() - start, outs


class Tracer:
    """Spans as [id, name, parent, entry, start, end], held in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, entry: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, parent, entry, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()


def traced_entry(tr, job, name, spec, base_dir, counts, kept):
    """The `evaluate_spec` pipeline for one entry, one span per layer call."""
    from tppb import bounds, chars, cli, groups, lattice

    with tr.span("groups.build", name):
        G = cli.realize_group_spec(spec, base_dir, None)
    with tr.span("lattice.enumerate", name):
        lat = lattice.enumerate_subgroups(G)
    with tr.span("lattice.cores", name):
        cores = lattice.normal_cores(G, lat)
    with tr.span("chars.degrees", name):
        degrees = chars.character_degrees(G)
    with tr.span("bounds.t", name):
        t = bounds.compute_t(G, lat)
    with tr.span("bounds.h", name):
        hb = bounds.compute_h(G, lat, cores)
    beta = None
    if job["exact_beta"]:
        with tr.span("bounds.beta", name):
            res = bounds.search_beta_g(G, lat, cores=cores)
        counts["bounds.beta_checks"] += res.checks
        beta = res.value if res.exact else None
    with tr.span("groups.stats", name):
        stats = groups.group_stats(G)
    d3 = chars.d_sum_int(degrees, 3)
    flags = bounds.exclusion_flags(t, hb.h, beta, d3)
    counts["groups.table_cells"] += G.order * G.order
    counts["lattice.subgroups"] += lat.count
    counts["chars.classes"] += len(degrees.degrees)
    counts["bounds.h_candidates"] += len(hb.candidates)
    kept.append((name, G, lat, cores, stats.is_abelian))
    return cli.ReportRow(
        name=name,
        order=G.order,
        is_abelian=stats.is_abelian,
        subgroup_count=lat.count,
        class_count=len(degrees.degrees),
        d3=d3,
        t=t,
        b_or_blank=hb.b,
        h=hb.h,
        t_le_d3=flags.t_le_d3,
        h_le_d3=flags.h_le_d3,
        beta_g_or_blank=beta,
    )


def traced_pass(tr, job, tag: str):
    """Mirror of `tppb batch` with every layer call in its own span.

    Returns (csv paths, counts, kept groups) where `kept` holds each
    entry's group and lattice for the probe and the prime count.
    """
    from tppb import cli, errors

    counts = Counter()
    kept = []
    outs = [os.path.join(job["out_dir"], f"{tag}_{k}.csv") for k in range(len(job["manifests"]))]
    with tr.span("cli.batch"):
        for manifest_path, out in zip(job["manifests"], outs):
            with tr.span("cli.manifest"):
                manifest = cli.load_manifest(manifest_path)
                specs = [
                    (name, cli.parse_group_spec(cli.render_group_spec(spec)))
                    for name, spec in manifest.entries
                ]
            base_dir = os.path.dirname(os.path.abspath(manifest_path))
            rows = []
            for name, spec in specs:
                with tr.span("cli.entry", name):
                    try:
                        row = traced_entry(tr, job, name, spec, base_dir, counts, kept)
                        declared = manifest.declared_order
                        if declared is not None and row.order != declared:
                            row = cli.ReportRow(
                                name=name,
                                error=f"order {row.order} does not match declared order {declared}",
                            )
                    except (errors.TppbError, OSError) as exc:
                        row = cli.ReportRow(name=name, error=f"{type(exc).__name__}: {exc}")
                rows.append(row)
            with tr.span("cli.csv"):
                cli.write_report_csv(out, rows)
    return outs, counts, kept


def probe_and_count(tr, job, kept, counts):
    """Dixon prime count, and the budgeted beta probe on bounds-only work."""
    from tppb import bounds, chars

    counts["chars.prime_sum"] = sum(
        chars.dixon_prime(G) for _, G, _, _, abelian in kept if not abelian
    )
    if job["exact_beta"]:
        return
    with tr.span("bench.probe"):
        for name, G, lat, cores, _ in kept:
            with tr.span("bounds.beta", name):
                res = bounds.search_beta_g(G, lat, budget=PROBE_CHECKS, cores=cores)
            counts["bounds.beta_checks"] += res.checks


def layer_times(spans):
    """Summed duration per timed span name, and self time per layer."""
    child_time = Counter()
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    times = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    times.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    for sid, name, _, _, start, end in spans:
        if name in TIMED_SPANS:
            times[f"{name}_s"] += end - start
        layer = name.split(".")[0]
        if layer in LAYERS:
            times[f"{layer}.self_s"] += end - start - child_time[sid]
    return times


def repeat_for(seconds: float, body) -> None:
    """Call body(rep) until one more call would overrun `seconds`; at least once."""
    start = time.perf_counter()
    last = 0.0
    rep = 0
    while rep == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        body(rep)
        last = time.perf_counter() - began
        rep += 1


def run_batch(job) -> None:
    import tppb.cli as cli

    check_source(job)
    speed = SpeedProbe()
    speed.start()

    def rep(k):
        speed.take()
        batch_s, outs = batch_once(cli, job, f"batch{k}")
        spent, samples = speed.take()
        if not samples:
            samples = [speed.sample()]
            spent = 0.0
        emit(kind="rep", batch_s=batch_s, probe_spent_s=spent, probe_samples=samples, csv=outs)

    try:
        repeat_for(job["seconds"], rep)
    finally:
        speed.stop()
    emit(kind="rss", peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_trace(job) -> None:
    start = time.perf_counter()
    import tppb.cli as cli

    emit(kind="import", import_s=time.perf_counter() - start)
    check_source(job)
    tr = Tracer()

    def pair(k):
        batch_s, batch_csv = batch_once(cli, job, f"untraced{k}")
        emit(kind="rep", batch_s=batch_s, csv=batch_csv)
        first = len(tr.spans)
        outs, counts, kept = traced_pass(tr, job, f"traced{k}")
        probe = len(tr.spans)
        probe_and_count(tr, job, kept, counts)
        times = layer_times(tr.spans[first:probe])
        times["bounds.beta_s"] += sum(
            e - s for _, name, _, _, s, e in tr.spans[probe:] if name == "bounds.beta"
        )
        root = tr.spans[first]
        emit(kind="pass", batch_s=batch_s, traced_s=root[5] - root[4], times=times,
             counts=counts, csv=outs, untraced_csv=batch_csv)

    try:
        repeat_for(job["seconds"], pair)
    finally:
        with open(job["spans"], "w", encoding="ascii") as fh:
            for sid, name, parent, entry, s, e in tr.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "entry": entry, "start": s, "end": e}) + "\n")


def check_source(job) -> None:
    """Refuse to measure a tppb other than the checkout's own."""
    import tppb

    if os.path.dirname(os.path.dirname(os.path.abspath(tppb.__file__))) != job["src"]:
        sys.exit(f"tppb imported from {tppb.__file__}, not from {job['src']}")


if __name__ == "__main__":
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    {"batch": run_batch, "trace": run_trace}[mode](job)
