"""CLI surface: spec grammar, manifests, batch CSV, analyze, verify-tpp."""

import concurrent.futures
import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tppb.cli
from tppb import bounds, chars, errors, groups, lattice, tpp
from tppb.cli import (
    MAX_PRODUCT_DEPTH,
    CatalogManifest,
    GroupSpec,
    load_manifest,
    main,
    parse_group_spec,
    realize_group_spec,
    render_group_spec,
)

S3_INVOLUTIONS = ("0,1", "0,3", "0,4")
S3_ROTATIONS = "0,2,5"


def nested_product(depth):
    return "product(" * depth + "cyclic:1" + ",cyclic:1)" * depth


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "sym:4",
            "alt:5",
            "cyclic:12",
            "dihedral:8",
            "dicyclic:8",
            "elem_abelian:7",
            "elem_abelian:2^3",
            "perm:fixtures/s3.pgens",
            "table:cayley.ctab",
            "product(sym:3,cyclic:4)",
            "product(product(cyclic:2,cyclic:3),sym:3)",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_group_spec(text)
        assert render_group_spec(spec) == text
        assert parse_group_spec(render_group_spec(spec)) == spec

    def test_prime_power_canonical_form(self):
        assert render_group_spec(parse_group_spec("elem_abelian:8")) == "elem_abelian:2^3"
        assert parse_group_spec("elem_abelian:8") == parse_group_spec("elem_abelian:2^3")

    def test_name_matches_render(self):
        spec = parse_group_spec("product(sym:3,cyclic:4)")
        assert spec.name == "product(sym:3,cyclic:4)"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "sym",
            "cyclic:x",
            "product(sym:3",
            "product(sym:3,)",
            "sym:3)",
            "sym:3 extra",
            "elem_abelian:2^-1",
            "elem_abelian:2^0",
            "elem_abelian:3^99999999",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(errors.ParseError):
            parse_group_spec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "cyclic:1_2",
            "cyclic: 12",
            "cyclic:+12",
            "cyclic:-3",
            "cyclic:١٢",
            "elem_abelian:2^1_0",
            "elem_abelian:٢^3",
        ],
    )
    def test_integer_is_ascii_digits_only(self, text):
        # int() takes all of these.
        with pytest.raises(errors.ParseError, match="expected an integer"):
            parse_group_spec(text)

    def test_parse_error_carries_position(self):
        try:
            parse_group_spec("product(sym:3")
        except errors.ParseError as exc:
            assert exc.pos > 0
        else:
            pytest.fail("expected ParseError")

    def test_parse_error_quotes_stripped_text(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_group_spec("  sym:3)")
        assert "'sym:3)' at position 5" in str(exc.value)

    @pytest.mark.parametrize(
        "text",
        [
            "x" * 1000,
            "x" * 1000 + ":1",
            "cyclic:" + "1" * 5000,
            "elem_abelian:" + "x" * 1000 + "^2",
            "elem_abelian:" + "9" * 400,
        ],
        ids=["no-colon", "family", "integer", "base", "parameter"],
    )
    def test_long_token_gives_short_message(self, text):
        with pytest.raises((errors.ParseError, errors.UnknownFamily, errors.BadParameter)) as exc:
            parse_group_spec(text)
        assert len(str(exc.value)) <= 200

    def test_unknown_family(self):
        with pytest.raises(errors.UnknownFamily):
            parse_group_spec("foo:3")

    def test_product_nesting_depth_capped(self):
        spec = parse_group_spec(nested_product(MAX_PRODUCT_DEPTH))
        assert realize_group_spec(spec).order == 1
        with pytest.raises(errors.ParseError, match="nesting"):
            parse_group_spec(nested_product(MAX_PRODUCT_DEPTH + 1))
        with pytest.raises(errors.ParseError, match="nesting"):
            parse_group_spec(nested_product(1500))

    def test_bad_parameter_caught_at_parse(self):
        with pytest.raises(errors.BadParameter):
            parse_group_spec("dihedral:7")
        with pytest.raises(errors.BadParameter):
            parse_group_spec("elem_abelian:6")
        with pytest.raises(errors.BadParameter, match="must be a prime"):
            parse_group_spec("elem_abelian:6^2")

    def test_power_form_needs_no_root_search(self, monkeypatch):
        def no_root(*args):
            raise AssertionError("root search")

        monkeypatch.setattr(groups, "_iroot", no_root)
        spec = parse_group_spec("elem_abelian:1000003^3000")
        assert spec.parameter == 1000003**3000


class TestRealize:
    def test_builtin(self):
        assert realize_group_spec(parse_group_spec("sym:4")).order == 24

    def test_product_order(self):
        G = realize_group_spec(parse_group_spec("product(sym:3,cyclic:4)"))
        assert G.order == 24

    def test_perm_path_relative_to_base(self, tmp_path):
        (tmp_path / "s3.pgens").write_text("degree 3\n2 1 3\n2 3 1\n")
        G = realize_group_spec(parse_group_spec("perm:s3.pgens"), base_dir=tmp_path)
        assert G.order == 6

    def test_table_path(self, tmp_path):
        rows = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        lines = ["3"] + [" ".join(map(str, r)) for r in rows]
        (tmp_path / "c3.ctab").write_text("\n".join(lines) + "\n")
        G = realize_group_spec(parse_group_spec("table:c3.ctab"), base_dir=tmp_path)
        assert G.order == 3

    def test_order_limit_enforced(self):
        with pytest.raises(errors.OrderLimitExceeded):
            realize_group_spec(parse_group_spec("sym:3"), order_limit=5)
        with pytest.raises(errors.OrderLimitExceeded):
            realize_group_spec(
                parse_group_spec("product(cyclic:4,cyclic:4)"), order_limit=15
            )

    def test_order_limit_reaches_product(self):
        G = realize_group_spec(
            parse_group_spec("product(cyclic:41,cyclic:50)"), order_limit=2100
        )
        assert G.order == 2050

    def test_oversized_product_fails_fast(self):
        # Both factors are built before the limit check, so each must build quickly.
        with pytest.raises(errors.OrderLimitExceeded):
            realize_group_spec(parse_group_spec("product(cyclic:1000,cyclic:1000)"))


class TestManifest:
    def test_load_with_header_and_comments(self, tmp_path):
        path = tmp_path / "cat.manifest"
        path.write_text(
            "# catalog\norder=6\ns3\tsym:3\nc6\tcyclic:6\n\n# done\n"
        )
        man = load_manifest(path)
        assert isinstance(man, CatalogManifest)
        assert man.declared_order == 6
        assert [name for name, _ in man.entries] == ["s3", "c6"]
        assert man.entries[0][1] == GroupSpec(kind="builtin", family="sym", parameter=3)

    @pytest.mark.parametrize("header", ["order=2_4", "order=+24", "order= 24"])
    def test_order_header_is_ascii_digits_only(self, tmp_path, header):
        path = tmp_path / "cat.manifest"
        path.write_text(f"{header}\ns3\tsym:3\n")
        with pytest.raises(errors.ManifestError, match="line 1: bad order header"):
            load_manifest(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.manifest"
        path.write_text("a\tsym:3\na\tcyclic:6\n")
        with pytest.raises(errors.ManifestError):
            load_manifest(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("just-a-name\n")
        with pytest.raises(errors.ManifestError):
            load_manifest(path)

    def test_non_ascii_byte_is_manifest_error(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_bytes(b"a\tsym:3\n# caf\xc3\xa9\n")
        with pytest.raises(errors.ManifestError) as exc:
            load_manifest(path)
        assert "line 2" in str(exc.value)

    def test_bad_spec_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("a\tsym:3\nb\tnope:1\n")
        with pytest.raises(errors.ManifestError) as exc:
            load_manifest(path)
        assert "line 2" in str(exc.value)


class TestBatch:
    def write_manifest(self, tmp_path, body):
        path = tmp_path / "cat.manifest"
        path.write_text(body)
        return path

    def test_small_batch_csv(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "s3\tsym:3\nc4\tcyclic:4\n")
        out = tmp_path / "rows.csv"
        code, stdout, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# tppb-csv-v1"
        assert lines[1] == (
            "name,order,is_abelian,subgroup_count,class_count,d3,t,b,h,"
            "t_le_d3,h_le_d3,beta_g,runtime_ms,error"
        )
        assert lines[2] == "s3,6,false,6,3,10,8,8,8,true,true,,,"
        assert lines[3] == "c4,4,true,3,4,4,4,,4,true,true,,,"
        assert "groups=2 t_le_d3=2 h_le_d3=2" in stdout

    def test_exact_beta_column(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "s3\tsym:3\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(["batch", str(man), "--out", str(out), "--exact-beta"], capsys)
        assert code == 0
        assert out.read_text().splitlines()[2] == "s3,6,false,6,3,10,8,8,8,true,true,8,,"

    def test_declared_order_summary(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "order=6\ns3\tsym:3\nd6\tdihedral:6\n")
        out = tmp_path / "rows.csv"
        code, stdout, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 0
        assert "order=6 groups=2" in stdout

    def test_declared_order_mismatch_is_entry_error(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "order=6\ns3\tsym:3\nc4\tcyclic:4\n")
        out = tmp_path / "rows.csv"
        code, stdout, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[2].startswith("s3,6,")
        assert lines[3].startswith("c4,") and "order" in lines[3]
        assert "groups=2 t_le_d3=1 h_le_d3=1" in stdout

    def test_entry_error_recorded_and_continues(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "tiny\tcyclic:3\nhuge\tsym:8\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(
            ["batch", str(man), "--out", str(out), "--order-limit", "100"], capsys
        )
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[2].startswith("tiny,3,")
        assert lines[3].startswith("huge,") and "OrderLimitExceeded" in lines[3]

    def test_non_ascii_perm_file_is_entry_error(self, tmp_path, capsys):
        (tmp_path / "bad.pgens").write_bytes(b"degree 3\n2 1 3\n\xc3\n")
        man = self.write_manifest(tmp_path, "s3\tsym:3\nbad\tperm:bad.pgens\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[2] == "s3,6,false,6,3,10,8,8,8,true,true,,,"
        assert lines[3].startswith("bad,,") and "ParseError" in lines[3]
        assert str(tmp_path) not in lines[3]

    def test_ragged_table_is_entry_error(self, tmp_path, capsys):
        (tmp_path / "ragged.ctab").write_text("3\n0 1 2\n1 2\n2 0 1\n")
        man = self.write_manifest(tmp_path, "s3\tsym:3\nragged\ttable:ragged.ctab\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[2] == "s3,6,false,6,3,10,8,8,8,true,true,,,"
        assert lines[3].startswith("ragged,,") and "BadParameter" in lines[3]

    def test_missing_file_error_names_spec_path(self, tmp_path, capsys):
        outputs = []
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            man = self.write_manifest(tmp_path / sub, "s3\tsym:3\nnope\tperm:nope.pgens\n")
            out = tmp_path / f"{sub}.csv"
            code, _, _ = run(["batch", str(man), "--out", str(out)], capsys)
            assert code == 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        row = outputs[0].decode().splitlines()[3]
        assert row.startswith("nope,,") and "'nope.pgens'" in row
        assert str(tmp_path) not in row

    def test_deep_product_line_is_manifest_error(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, f"s3\tsym:3\ndeep\t{nested_product(1500)}\n")
        out = tmp_path / "rows.csv"
        code, _, err = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: line 2:") and "nesting" in err

    def test_deep_product_error_line_is_short(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, f"s3\tsym:3\ndeep\t{nested_product(1500)}\n")
        code, _, err = run(["batch", str(man), "--out", str(tmp_path / "rows.csv")], capsys)
        assert code == 2
        assert len(err.encode()) < 200

    def test_unexpected_exception_fills_only_its_row(self, tmp_path, capsys, monkeypatch):
        real = tppb.cli.evaluate_spec

        def flaky(name, *args, **kwargs):
            if name == "boom":
                raise RuntimeError("unexpected failure")
            return real(name, *args, **kwargs)

        monkeypatch.setattr(tppb.cli, "evaluate_spec", flaky)
        man = self.write_manifest(tmp_path, "s3\tsym:3\nboom\tcyclic:2\nc4\tcyclic:4\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(["batch", str(man), "--out", str(out), "--jobs", "1"], capsys)
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[2] == "s3,6,false,6,3,10,8,8,8,true,true,,,"
        assert lines[3] == "boom,,,,,,,,,,,,,RuntimeError: unexpected failure"
        assert lines[4] == "c4,4,true,3,4,4,4,,4,true,true,,,"

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_environment_order_limit(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("TPPB_ORDER_LIMIT", raw)
        man = self.write_manifest(tmp_path, "s3\tsym:3\n")
        out = tmp_path / "rows.csv"
        code, _, err = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: TPPB_ORDER_LIMIT must be an integer >= 1")
        assert not out.exists()

    def test_empty_manifest(self, tmp_path, capsys):
        man = self.write_manifest(tmp_path, "# nothing\n")
        out = tmp_path / "rows.csv"
        code, stdout, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 2
        assert "groups=0 t_le_d3=0 h_le_d3=0" in stdout

    def test_byte_determinism_and_jobs(self, tmp_path, capsys):
        man = self.write_manifest(
            tmp_path, "s3\tsym:3\nq8\tdicyclic:8\nd12\tdihedral:12\nc9\tcyclic:9\n"
        )
        outputs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"rows-{tag}.csv"
            code, _, _ = run(
                ["batch", str(man), "--out", str(out), "--jobs", jobs], capsys
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", "1_0", "+5", " 5", "١٠"])
    def test_bad_jobs_option(self, tmp_path, capsys, raw):
        man = self.write_manifest(tmp_path, "s3\tsym:3\n")
        out = tmp_path / "rows.csv"
        code, _, err = run(["batch", str(man), "--out", str(out), "--jobs", raw], capsys)
        assert code == 2
        assert err.startswith("error: jobs must be an integer >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("jobs, workers", [("2", 2), ("64", 3)])
    def test_pool_no_larger_than_manifest(self, tmp_path, capsys, monkeypatch, jobs, workers):
        # A recording stand-in for the pool, so no process is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        # batch imports the pool class only on its --jobs > 1 path.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        man = self.write_manifest(tmp_path, "s3\tsym:3\nq8\tdicyclic:8\nc9\tcyclic:9\n")
        outputs = []
        for tag, n in (("serial", "1"), ("pool", jobs)):
            out = tmp_path / f"rows-{tag}.csv"
            code, _, _ = run(["batch", str(man), "--out", str(out), "--jobs", n], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert sizes == [workers]
        assert outputs[0] == outputs[1]

    def test_import_leaves_process_pool_unloaded(self):
        # A fresh interpreter, as this one has imported the pool already.
        src = str(Path(tppb.cli.__file__).resolve().parent.parent)
        code = "import sys, tppb.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_manifest_relative_perm_entry(self, tmp_path, capsys):
        (tmp_path / "s3.pgens").write_text("degree 3\n2 1 3\n2 3 1\n")
        man = self.write_manifest(tmp_path, "file_s3\tperm:s3.pgens\n")
        out = tmp_path / "rows.csv"
        code, _, _ = run(["batch", str(man), "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[2].startswith("file_s3,6,")


class TestAnalyze:
    def test_s3_exact_beta(self, capsys):
        code, stdout, _ = run(["analyze", "sym:3", "--exact-beta"], capsys)
        assert code == 0
        for needle in (
            "order: 6",
            "degrees: 1 1 2",
            "d3: 10",
            "N: 4",
            "t: 8",
            "b: 8",
            "h: 8",
            "beta_g: 8",
            "beta_witness: 2,3,4",
            "t_le_d3: true",
            "h_le_d3: true",
        ):
            assert needle in stdout

    def test_group_and_degrees_computed_once(self, capsys, monkeypatch):
        calls = []

        def count_calls(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count_calls(tppb.cli, "realize_group_spec")
        count_calls(bounds, "character_degrees")
        code, stdout, _ = run(["analyze", "sym:3"], capsys)
        assert code == 0 and "degrees: 1 1 2" in stdout
        assert sorted(calls) == ["character_degrees", "realize_group_spec"]

    def test_quaternion_blank_b(self, capsys):
        code, stdout, _ = run(["analyze", "dicyclic:8"], capsys)
        assert code == 0
        assert "b: \n" in stdout
        assert "t: 8" in stdout and "h: 8" in stdout

    def test_abelian(self, capsys):
        code, stdout, _ = run(["analyze", "cyclic:12"], capsys)
        assert code == 0
        assert "h: 12" in stdout and "d3: 12" in stdout

    def test_verbose_candidates(self, capsys):
        code, stdout, _ = run(["analyze", "sym:3", "--verbose"], capsys)
        assert code == 0
        assert "i=4 order=2 core=1 delta=4 left=12 right=8 min=8" in stdout

    def test_ragged_table_exits_with_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.ctab"
        path.write_text("3\n0 1 2\n1 2\n2 0 1\n")
        code, _, err = run(["analyze", f"table:{path}"], capsys)
        assert code == 2
        assert err.startswith("error: table must be 3x3")

    def test_bad_spec_exits_nonzero(self, capsys):
        code, _, stderr = run(["analyze", "dihedral:7"], capsys)
        assert code == 2
        assert "error" in stderr.lower()

    def test_group_stats_computed_once(self, capsys, monkeypatch):
        calls = []
        real = groups.group_stats

        def counted(G):
            calls.append(G.order)
            return real(G)

        for module in (groups, lattice, chars, bounds, tpp, tppb.cli):
            if hasattr(module, "group_stats"):
                monkeypatch.setattr(module, "group_stats", counted)
        code, stdout, _ = run(["analyze", "sym:4"], capsys)
        assert code == 0 and "abelian: false" in stdout
        assert calls == [24]

    def test_group_invariants_computed_once(self, capsys, monkeypatch):
        # sym:5 has three prime divisors, so the perfect residual A5 is
        # computed: its derived series starts from G' = A5 and takes one
        # more commutator subgroup, A5' = A5, to stop.
        names = ("_conjugacy_partition", "_cyclic_masks", "_commutator_subgroup")
        calls = {name: [] for name in names}
        for name, made in calls.items():
            real = getattr(groups, name)

            def recording(*args, real=real, made=made):
                made.append((args, real(*args)))
                return made[-1][1]

            monkeypatch.setattr(groups, name, recording)
        code, stdout, _ = run(["analyze", "sym:5"], capsys)
        assert code == 0 and "degrees: 1 1 4 4 5 5 6" in stdout
        assert len(calls["_conjugacy_partition"]) == len(calls["_cyclic_masks"]) == 1
        sizes = [len(members) for (G, members), _ in calls["_commutator_subgroup"]]
        assert sizes == [120, 60]
        ((_, part),) = calls["_conjugacy_partition"]
        assert type(part.classes) is tuple and type(part.class_of) is tuple
        with pytest.raises(AttributeError):
            part.classes = ()

    def test_deep_product_exits_with_parse_error(self, capsys):
        code, _, err = run(["analyze", nested_product(1500)], capsys)
        assert code == 2
        assert "nesting" in err

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "1_0", "+5", " 5", "١٠"])
    def test_bad_order_limit_option(self, capsys, raw):
        code, _, err = run(["analyze", "sym:3", "--order-limit", raw], capsys)
        assert code == 2
        assert err.startswith("error: order limit must be an integer >= 1")

    @pytest.mark.parametrize(
        "spec",
        [
            "alt:100000",
            "sym:100000",
            "elem_abelian:2^5000",
            "elem_abelian:3^20000",
            "elem_abelian:2003",
            "cyclic:10000000",
            "elem_abelian:2305843009213693951",
        ],
    )
    def test_huge_builtin_fails_fast(self, capsys, spec):
        # Each family checks its order before it builds anything.
        start = time.perf_counter()
        code, _, err = run(["degrees", spec], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == f"error: {spec} exceeds order limit 2000\n"

    @pytest.mark.parametrize("suffix", ["", "^1"])
    def test_huge_elem_abelian_number_refused_before_prime_test(self, capsys, suffix):
        # A 4,269-digit composite with no prime factor up to 37; its prime
        # test alone takes seconds.
        digits = str(1009**1420 * 1013)
        start = time.perf_counter()
        code, _, err = run(["degrees", f"elem_abelian:{digits}{suffix}"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"'{digits[:30]}'... has 64 bits or more" in err and len(err) <= 200

    def test_long_parameter_order_limit_message_is_short(self, capsys):
        code, _, err = run(["degrees", "cyclic:" + "9" * 4000], capsys)
        assert code == 2
        assert err == "error: cyclic:'" + "9" * 30 + "'... exceeds order limit 2000\n"

    def test_env_order_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("TPPB_ORDER_LIMIT", "5")
        code, _, stderr = run(["analyze", "sym:3"], capsys)
        assert code == 2
        assert "limit" in stderr.lower()


class TestVerifyTpp:
    def test_involution_triple_holds(self, capsys):
        s, t, u = S3_INVOLUTIONS
        code, stdout, _ = run(
            ["verify-tpp", "sym:3", "--s", s, "--t", t, "--u", u], capsys
        )
        assert code == 0
        assert "holds" in stdout

    def test_whole_group_with_trivials(self, capsys):
        code, stdout, _ = run(
            ["verify-tpp", "sym:3", "--s", "0,1,2,3,4,5", "--t", "0", "--u", "0"],
            capsys,
        )
        assert code == 0
        assert "holds" in stdout

    def test_failing_triple_prints_witness(self, capsys):
        code, stdout, _ = run(
            ["verify-tpp", "sym:3", "--s", S3_ROTATIONS, "--t", "0,1", "--u", "0,3"],
            capsys,
        )
        assert code == 1
        assert "fails" in stdout and "witness" in stdout

    def test_label_elements(self, capsys):
        code, stdout, _ = run(
            [
                "verify-tpp",
                "sym:3",
                "--s",
                "1 2 3,2 1 3",
                "--t",
                "1 2 3,3 2 1",
                "--u",
                "1 2 3,1 3 2",
            ],
            capsys,
        )
        assert code == 0
        assert "holds" in stdout

    def test_label_witness_line_is_frozen(self, capsys):
        # Degree 10, so labels carry two-digit images.
        e, r, r2 = "1 2 3 4 5 6 7 8 9 10", "2 3 4 5 6 7 8 9 10 1", "3 4 5 6 7 8 9 10 1 2"
        s, rs = "10 9 8 7 6 5 4 3 2 1", "1 10 9 8 7 6 5 4 3 2"
        code, stdout, _ = run(
            ["verify-tpp", "dihedral:20", "--s", f"{e},{r},{r2}", "--t", f"{e},{s}", "--u", f"{e},{rs}"],
            capsys,
        )
        assert code == 1
        assert stdout.splitlines() == [
            "TPP fails for dihedral:20 with sizes (3, 2, 2)",
            "witness: s='2 3 4 5 6 7 8 9 10 1' t='10 9 8 7 6 5 4 3 2 1' u='1 10 9 8 7 6 5 4 3 2'",
        ]

    def test_unknown_element(self, capsys):
        code, _, stderr = run(
            ["verify-tpp", "sym:3", "--s", "9", "--t", "0", "--u", "0"], capsys
        )
        assert code == 2
        assert "error" in stderr.lower()

    def test_index_past_int_digit_limit(self, capsys):
        # int() refuses more than 4,300 digits; the token is still an index
        # outside the group, not a traceback.
        code, _, stderr = run(
            ["verify-tpp", "sym:3", "--s", "9" * 5000, "--t", "0", "--u", "0"], capsys
        )
        assert code == 2
        assert stderr == "error: index '" + "9" * 30 + "'... outside 0..5\n"

    @pytest.mark.parametrize("token", ["²", "①", "0,³", "١"])
    def test_non_decimal_digit_is_unknown_label(self, capsys, token):
        # str.isdigit accepts these; int() does not parse the first three
        # and reads the Arabic-Indic one as 1, but an index is ASCII digits.
        code, _, stderr = run(
            ["verify-tpp", "sym:3", "--s", token, "--t", "1", "--u", "2"], capsys
        )
        assert code == 2
        assert stderr.startswith("error: no element labeled")

    def test_empty_set_rejected(self, capsys):
        code, _, stderr = run(
            ["verify-tpp", "sym:3", "--s", "", "--t", "0", "--u", "0"], capsys
        )
        assert code == 2
        assert "error" in stderr.lower()


class TestDegrees:
    @pytest.mark.parametrize("token", ["1_2", "-3"])
    def test_integer_not_ascii_digits_exits_2(self, capsys, token):
        code, stdout, stderr = run(["degrees", f"cyclic:{token}"], capsys)
        assert (code, stdout) == (2, "")
        detail = f"expected an integer, got '{token}'"
        assert stderr == f"error: cannot parse 'cyclic:{token}' at position 0: {detail}\n"

    def test_sym4(self, capsys):
        code, stdout, _ = run(["degrees", "sym:4"], capsys)
        assert code == 0
        for needle in ("order: 24", "classes: 5", "degrees: 1 1 2 3 3", "d3: 64"):
            assert needle in stdout

    def test_abelian(self, capsys):
        code, stdout, _ = run(["degrees", "cyclic:6"], capsys)
        assert code == 0
        assert "degrees: 1 1 1 1 1 1" in stdout


class TestOutsideText:
    """Text from files, flags and the environment, read by one rule."""

    @pytest.mark.parametrize(
        "files, args, env, before, token, after",
        [
            (
                {"cat.manifest": "order=" + "1_" * 3000 + "\ns3\tsym:3\n"},
                ["batch", "cat.manifest", "--out", "rows.csv"],
                None,
                "line 1: bad order header ",
                "order=" + "1_" * 3000,
                "",
            ),
            (
                {},
                ["verify-tpp", "sym:3", "--s", "x" * 5000, "--t", "0", "--u", "0"],
                None,
                "no element labeled ",
                "x" * 5000,
                "",
            ),
            (
                {"long.pgens": "degree 3\n" + " ".join(["1"] * 3000) + "\n"},
                ["analyze", "perm:long.pgens"],
                None,
                "",
                repr([1] * 3000),
                " is not a permutation of 1..3",
            ),
            (
                {},
                ["analyze", "sym:3", "--order-limit", "x" * 5000],
                None,
                "order limit must be an integer >= 1, got ",
                "x" * 5000,
                "",
            ),
            (
                {},
                ["analyze", "sym:3"],
                "x" * 5000,
                "TPPB_ORDER_LIMIT must be an integer >= 1, got ",
                "x" * 5000,
                "",
            ),
            (
                {"cat.manifest": "a\tsym:3\n" + ("n" * 5000 + "\tsym:3\n") * 2},
                ["batch", "cat.manifest", "--out", "rows.csv"],
                None,
                "line 3: duplicate name ",
                "n" * 5000,
                "",
            ),
        ],
        ids=["order-header", "label", "pgens-line", "order-limit", "environment", "duplicate-name"],
    )
    def test_long_token_is_cut(self, tmp_path, capsys, monkeypatch, files, args, env, before, token, after):
        monkeypatch.chdir(tmp_path)
        for name, body in files.items():
            (tmp_path / name).write_text(body)
        if env is not None:
            monkeypatch.setenv("TPPB_ORDER_LIMIT", env)
        code, _, err = run(args, capsys)
        assert code == 2
        assert err == f"error: {before}{errors.quoted(token)}{after}\n"
        assert len(err.encode()) <= 256

    def test_long_file_path_is_cut(self, tmp_path, capsys, monkeypatch):
        # A path too long to open is named cut short, on stderr and in the
        # batch row's error cell alike.
        monkeypatch.chdir(tmp_path)
        path = "p" * 5000
        code, _, err = run(["analyze", f"perm:{path}"], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.endswith(f": {errors.quoted(path)}\n")
        assert len(err.encode()) <= 256
        (tmp_path / "cat.manifest").write_text(f"s3\tsym:3\nlong\tperm:{path}\n")
        code, _, _ = run(["batch", "cat.manifest", "--out", "rows.csv"], capsys)
        assert code == 1
        header, _, row = list(csv.reader((tmp_path / "rows.csv").read_text().splitlines()[1:]))
        cell = row[header.index("error")]
        assert cell.endswith(err[len("error: ") : -1]) and len(cell.encode()) <= 256

    @pytest.mark.parametrize(
        "name, body, load, error, args",
        [
            (
                "cat.manifest",
                b"a\tsym:3\n# caf\xe9\n",
                load_manifest,
                errors.ManifestError,
                ["batch", "{}", "--out", "rows.csv"],
            ),
            (
                "g.pgens",
                b"degree 3\n# caf\xe9\n2 1 3\n",
                groups.group_from_pgens_file,
                errors.ParseError,
                ["analyze", "perm:{}"],
            ),
            (
                "g.ctab",
                b"1\n# caf\xe9\n0\n",
                groups.group_from_ctab_file,
                errors.ParseError,
                ["analyze", "table:{}"],
            ),
        ],
        ids=["manifest", "pgens", "ctab"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys, monkeypatch, name, body, load, error, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(body)
        with pytest.raises(error, match="line 2: non-ASCII byte 0xe9"):
            load(name)
        code, _, err = run([arg.format(name) for arg in args], capsys)
        assert code == 2
        assert err.startswith("error: ") and "line 2: non-ASCII byte 0xe9" in err
        assert not (tmp_path / "rows.csv").exists()
