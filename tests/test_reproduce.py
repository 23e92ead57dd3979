"""The scripts run: the shipped catalogs reproduce the committed
results/*.csv byte for byte, and the exponent explorer prints its table."""

import importlib.util
from pathlib import Path

import pytest

from tppb import errors

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
