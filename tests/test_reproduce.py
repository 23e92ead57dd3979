"""The shipped catalogs reproduce the committed results/*.csv byte for byte."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "results"


def load_script():
    path = REPO_ROOT / "scripts" / "reproduce_exclusion_tallies.py"
    spec = importlib.util.spec_from_file_location("reproduce_exclusion_tallies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["jobs1", "jobs2"])
def test_reproduce_matches_committed_results(tmp_path, capsys, jobs):
    code = load_script().main(["--out-dir", str(tmp_path), *jobs])
    capsys.readouterr()
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["order24_nonabelian.csv", "order50_nonabelian.csv"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name
