"""The scripts run: the shipped catalogs reproduce the committed
results/*.csv byte for byte, and the exponent explorer prints its table."""

import importlib.util
from pathlib import Path

import pytest

from tppb import errors
from tppb.bounds import solve_omega_bound
from tppb.chars import character_degrees, d_sum_int
from tppb.cli import parse_group_spec, realize_group_spec
from oracles import grid_omega_bound

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "results"


def load_script(name):
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["jobs1", "jobs2"])
def test_reproduce_matches_committed_results(tmp_path, capsys, jobs):
    code = load_script("reproduce_exclusion_tallies").main(["--out-dir", str(tmp_path), *jobs])
    capsys.readouterr()
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["order24_nonabelian.csv", "order50_nonabelian.csv"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name


def test_reproduce_rejects_jobs_below_one(tmp_path, capsys):
    script = load_script("reproduce_exclusion_tallies")
    code = script.main(["--out-dir", str(tmp_path), "--jobs", "0"])
    assert code == 2
    assert "jobs must be an integer >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_explore_omega_bounds_rows(capsys):
    assert load_script("explore_omega_bounds").main(["sym:3", "sym:4"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # group, order, beta_g, h, t, d3
    assert rows[1][:6] == ["sym:3", "6", "8", "8", "8", "10"]
    assert rows[2][:6] == ["sym:4", "24", "36", "48", "48", "64"]


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_explore_omega_bounds_rejects_bad_order_limit(monkeypatch, raw):
    script = load_script("explore_omega_bounds")

    def build(*args, **kwargs):
        raise AssertionError("the limit must be rejected before any group is built")

    monkeypatch.setattr(script, "realize_group_spec", build)
    with pytest.raises(errors.BadParameter, match="order limit must be an integer >= 1"):
        script.main(["sym:3", "--order-limit", raw])



@pytest.mark.parametrize("spec", load_script("explore_omega_bounds").DEFAULT_SPECS)
def test_omega_bisection_matches_grid(spec):
    # Capacities from just above D3 to past |G|^1.5, where the crossing
    # leaves [2, 3] and both solvers must raise.
    degrees = character_degrees(realize_group_spec(parse_group_spec(spec)))
    d3, n = d_sum_int(degrees, 3), degrees.group_order
    top = int(2 * n**1.5) + 2
    betas = sorted({d3, d3 + 1, d3 + 2, int(n**1.5), int(n**1.5) + 1, top}
                   | {int(d3 * 1.05**i) for i in range(200) if d3 * 1.05**i < top})
    raised = 0
    for beta in betas:
        try:
            want = grid_omega_bound(beta, degrees)
        except errors.NoRootInRange:
            raised += 1
            with pytest.raises(errors.NoRootInRange):
                solve_omega_bound(beta, degrees)
            continue
        got = solve_omega_bound(beta, degrees)
        assert (got is None) == (want is None), beta
        assert want is None or abs(got - want) < 1e-9, beta
    assert 0 < raised < len(betas)
