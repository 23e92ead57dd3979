"""The library surface that the benchmark harness under `bench/` calls.

`bench/child.py` builds `cli.ReportRow` by keyword and calls each layer's
public functions in turn; these tests make the same calls, so a change that
breaks the harness fails here instead of only in a benchmark run.
"""

from tppb import bounds, chars, cli, groups, lattice

HEADER = (
    "# tppb-csv-v1\n"
    "name,order,is_abelian,subgroup_count,class_count,d3,t,b,h,"
    "t_le_d3,h_le_d3,beta_g,runtime_ms,error\n"
)


def test_keyword_rows_write_expected_bytes(tmp_path):
    rows = [
        cli.ReportRow(
            name="s3",
            order=6,
            is_abelian=False,
            subgroup_count=6,
            class_count=3,
            d3=10,
            t=8,
            b_or_blank=8,
            h=8,
            t_le_d3=True,
            h_le_d3=True,
            beta_g_or_blank=8,
        ),
        cli.ReportRow(name="bad", error="OrderLimitExceeded: too big"),
    ]
    out = tmp_path / "rows.csv"
    cli.write_report_csv(out, rows)
    assert out.read_text() == HEADER + (
        "s3,6,false,6,3,10,8,8,8,true,true,8,,\n"
        "bad,,,,,,,,,,,,,OrderLimitExceeded: too big\n"
    )


def test_layer_calls_match_batch(tmp_path):
    manifest = tmp_path / "cat.manifest"
    manifest.write_text("order=6\ns3\tsym:3\n")
    (name, spec), = cli.load_manifest(manifest).entries
    spec = cli.parse_group_spec(cli.render_group_spec(spec))

    G = cli.realize_group_spec(spec, str(tmp_path), None)
    lat = lattice.enumerate_subgroups(G)
    cores = lattice.normal_cores(G, lat)
    degrees = chars.character_degrees(G)
    t = bounds.compute_t(G, lat)
    hb = bounds.compute_h(G, lat, cores)
    res = bounds.search_beta_g(G, lat, cores=cores)
    probe = bounds.search_beta_g(G, lat, budget=500, cores=cores)
    stats = groups.group_stats(G)
    d3 = chars.d_sum_int(degrees, 3)
    flags = bounds.exclusion_flags(t, hb.h, res.value, d3)

    assert (t, hb.b, hb.h, len(hb.candidates), d3) == (8, 8, 8, 1, 10)
    assert (res.value, res.exact) == (probe.value, probe.exact) == (8, True)
    assert (flags.t_le_d3, flags.h_le_d3) == (True, True)
    assert chars.dixon_prime(G) == 13 and stats.is_abelian is False

    row = cli.ReportRow(
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
        beta_g_or_blank=res.value,
    )
    traced = tmp_path / "traced.csv"
    cli.write_report_csv(traced, [row])
    batch = tmp_path / "batch.csv"
    assert cli.main(["batch", str(manifest), "--out", str(batch), "--exact-beta"]) == 0
    assert traced.read_bytes() == batch.read_bytes()
