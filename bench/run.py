"""Benchmark of the tppb catalog pipeline.

    python3 bench/run.py --workload {shipped,search,lattice,kernels,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a tppb checkout; the package is imported from its
`src/`.  With `--trace 0` a child process repeats `tppb batch` over the
workload's generated manifest for S seconds (untraced) and fresh
interpreters are timed up to a loaded manifest, both at the reference
speed of `probe.py`; the end-to-end metrics follow.  With `--trace 1`
a child process alternates an untraced batch with a traced pass that
times each layer's calls; the per-layer metrics follow.  Every CSV row
is checked against the frozen values in `bench/expected.json`.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import probe  # noqa: E402


def load_json(name):
    with open(os.path.join(HERE, name), encoding="ascii") as fh:
        return json.load(fh)


WORKLOADS = load_json("workloads.json")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "tppb-bench")
SETUP_LAUNCHES = 7
# Probe samples taken before and after each set-up launch (about 0.06 s each side).
SETUP_PROBE_SAMPLES = 20
# A workload run must end within 180 s whatever the program does; the
# set-up launches keep a reserve of the budget after the child's deadline.
RUN_DEADLINE_S = 170.0
SETUP_RESERVE_S = 20.0

FROZEN_COLUMNS = (
    "order", "is_abelian", "subgroup_count", "class_count", "d3",
    "t", "b", "h", "t_le_d3", "h_le_d3", "beta_g",
)
COUNT_METRICS = (
    "groups.table_cells", "lattice.subgroups", "chars.classes",
    "chars.prime_sum", "bounds.h_candidates", "bounds.beta_checks",
)
UNITS = {"peak_rss_mb": "MB", "tpp.us_per_check": "us",
         **{name: "count" for name in COUNT_METRICS}}

SETUP_CODE = (
    "import sys, time\n"
    "import tppb.cli\n"
    "for path in sys.argv[1:]:\n"
    "    tppb.cli.load_manifest(path)\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), tppb.__file__)\n"
)


def cell(value) -> str:
    """Render a frozen value the way the batch CSV writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def read_csv(path):
    """Rows of a batch CSV as dicts keyed by column, in file order."""
    with open(path, encoding="ascii", newline="") as fh:
        if fh.readline().strip() != "# tppb-csv-v1":
            return []
        return list(csv.DictReader(fh))


def reference_mismatches(spec, expected):
    """Entries of a shipped catalog whose frozen values disagree with its
    committed results/<catalog>.csv, where that file is present."""
    bad = set()
    for manifest in spec.get("manifests", ()):
        stem = os.path.splitext(os.path.basename(manifest))[0]
        path = os.path.join(ROOT, "results", stem + ".csv")
        if not os.path.exists(path):
            continue
        for row in read_csv(path):
            frozen = expected.get(row["name"])
            if frozen is None or any(
                cell(frozen[col]) != row[col] for col in FROZEN_COLUMNS if col != "beta_g"
            ):
                bad.add(row["name"])
    return bad


def failed_entries(paths, expected, exact_beta):
    """Names of entries whose row is missing, has an error, or differs
    from the frozen values; a beta_g must lie in [|G|, h]."""
    rows = {}
    for path in paths:
        for row in read_csv(path) if os.path.exists(path) else []:
            rows[row["name"]] = row
    failed = set()
    for name, frozen in expected.items():
        row = rows.get(name)
        if row is None or row["error"] or row["runtime_ms"]:
            failed.add(name)
            continue
        if any(cell(frozen[col]) != row[col] for col in FROZEN_COLUMNS):
            failed.add(name)
        elif exact_beta and not int(row["order"]) <= int(row["beta_g"]) <= int(row["h"]):
            failed.add(name)
    return failed


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def run_child(mode, job, timeout):
    """Run bench/child.py; return (records, completed) where completed is
    False when it crashed or hit its deadline."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(job)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        out, completed = proc.stdout, proc.returncode == 0
        if not completed:
            sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired as exc:
        out, completed = exc.stdout or "", False
        if isinstance(out, bytes):
            out = out.decode("ascii", "replace")
        sys.stderr.write(f"{mode} child killed after {timeout:.0f} s\n")
    records = [json.loads(line[6:]) for line in out.splitlines() if line.startswith("BENCH ")]
    return records, completed


def time_setup(manifests, deadline):
    """(wall, scaled) seconds from launching a fresh interpreter to tppb.cli
    imported and the manifests loaded, once per launch; None marks a failed
    launch.  The scaled time puts each launch at the probe's reference
    speed, read from samples taken just before and just after it."""
    speed = probe.SpeedProbe()
    timings = []
    for _ in range(SETUP_LAUNCHES):
        speed.take()
        for _ in range(SETUP_PROBE_SAMPLES):
            speed.sample()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *manifests],
                                  env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            timings.append(None)
            continue
        fields = proc.stdout.split()
        ok = proc.returncode == 0 and len(fields) == 2 and fields[1].startswith(SRC + os.sep)
        wall = float(fields[0]) - start if ok else None
        for _ in range(SETUP_PROBE_SAMPLES):
            speed.sample()
        _, samples = speed.take()
        timings.append(None if wall is None else (wall, probe.scaled(wall, 0.0, samples)))
    return timings


def prepare(name, seed, work):
    """Write the workload's inputs; return (manifest paths, frozen values)."""
    spec = WORKLOADS[name]
    if "manifests" in spec:
        manifests = [os.path.join(ROOT, path) for path in spec["manifests"]]
    else:
        manifests = [inputs.write_manifest(spec["entries"], seed, work)]
    return manifests, load_json("expected.json")[name]


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (correct, attempted, failed, metrics, notes)."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    spec = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
    try:
        manifests, expected = prepare(name, seed, work)
        exact = spec["exact_beta"]
        job = {"manifests": manifests, "exact_beta": exact, "out_dir": work,
               "seconds": seconds, "src": SRC, "spans": spans}
        records, completed = run_child("trace" if trace else "batch", job,
                                       deadline - SETUP_RESERVE_S - time.monotonic())
        notes, problems = [], []
        bad = reference_mismatches(spec, expected)
        if bad:
            problems.append(f"frozen values disagree with results/*.csv for {sorted(bad)}")
        csv_sets = [r["csv"] for r in records if r["kind"] in ("rep", "pass")]
        unfinished = not completed or not csv_sets
        attempted = len(expected) * (len(csv_sets) + unfinished)
        failed = len(expected) * unfinished
        for paths in csv_sets:
            failed += len(failed_entries(paths, expected, exact) | bad)
        reps = [r for r in records if r["kind"] == "rep"]
        metrics = {}
        if not reps:
            problems.append("no batch completed")
        elif trace:
            metrics = layer_metrics(records, problems)
            notes.append(f"per-layer medians of {sum(r['kind'] == 'pass' for r in records)}"
                         f" traced passes; spans in {spans}")
        else:
            rss = [r["peak_rss_kb"] for r in records if r["kind"] == "rss"]
            launches = time_setup(manifests, deadline)
            if None in launches or not rss:
                problems.append("a set-up launch failed" if None in launches else "no peak RSS")
            launches = [t for t in launches if t is not None] or [(0.0, 0.0)]
            setup_walls = [wall for wall, _ in launches]
            setups = [scaled for _, scaled in launches]
            walls = [r["batch_s"] for r in reps]
            scaled = [probe.scaled(r["batch_s"], r["probe_spent_s"], r["probe_samples"])
                      for r in reps]
            samples = [x for r in reps for x in r["probe_samples"]]
            metrics = {
                "setup_s": statistics.median(setups),
                "batch_s": statistics.median(scaled),
                "peak_rss_mb": (rss[0] if rss else 0) / 1024,
            }
            notes.append(f"setup_s median of {len(setups)} launches at reference speed "
                         f"(min {min(setups):.4f}, max {max(setups):.4f} s); wall median "
                         f"{statistics.median(setup_walls):.4f} s (min {min(setup_walls):.4f}, "
                         f"max {max(setup_walls):.4f} s)")
            notes.append(f"batch_s median of {len(reps)} batch runs at reference speed "
                         f"(min {min(scaled):.4f}, max {max(scaled):.4f} s)")
            notes.append(f"batch wall time median {statistics.median(walls):.4f} s "
                         f"(min {min(walls):.4f}, max {max(walls):.4f} s); speed probe "
                         f"{len(samples)} samples, mean {1e3 * statistics.mean(samples):.4f} ms "
                         f"against the reference {1e3 * probe.REF_S} ms")
        notes.append(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} entries)")
        notes.append(f"wall {time.monotonic() - started:.1f} s")
        correct = completed and failed == 0 and not problems
        return correct, attempted, failed, metrics, notes + problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(records, problems):
    """Per-layer medians over the traced passes; counts must repeat."""
    passes = [r for r in records if r["kind"] == "pass"]
    if not passes:
        problems.append("no traced pass completed")
        return {}
    for p in passes:
        for traced, untraced in zip(p["csv"], p["untraced_csv"]):
            with open(traced, "rb") as a, open(untraced, "rb") as b:
                if a.read() != b.read():
                    problems.append(f"traced CSV {traced} differs from the untraced batch CSV")
    counts = [p["counts"] for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")
    metrics = {key: statistics.median(p["times"][key] for p in passes) for key in passes[0]["times"]}
    metrics.update({key: counts[0].get(key, 0) for key in COUNT_METRICS})
    metrics["tpp.us_per_check"] = statistics.median(
        1e6 * p["times"]["bounds.beta_s"] / p["counts"]["bounds.beta_checks"] for p in passes
    )
    metrics["cli.import_s"] = next(r["import_s"] for r in records if r["kind"] == "import")
    metrics["trace.overhead_s"] = statistics.median(p["traced_s"] - p["batch_s"] for p in passes)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tppb", "cli.py")):
        print(f"error: no tppb sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics, notes = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        print(f"workload {name} seed {args.seed} trace {args.trace}: "
              f"{'correct' if correct else 'INCORRECT'}")
        for key, value in metrics.items():
            print(f"  {key:22s} {value:>16} {UNITS.get(key, 's')}")
        for note in notes:
            print(f"  {note}")
        prefix = f"{name}." if len(names) > 1 else ""
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        for key, value in metrics.items():
            total["metrics"][prefix + key] = {"value": value, "unit": UNITS.get(key, "s")}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
