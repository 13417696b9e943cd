"""CLI surface tests (in-process main() — the session fixture owns Ray)."""

import json

import pytest

from rayxtract.__main__ import main


@pytest.fixture(scope="module")
def cli_out(small_corpus, tmp_path_factory, capsys_factory=None):
    pages_dir, _ = small_corpus
    out = str(tmp_path_factory.mktemp("cli") / "out")
    return pages_dir, out


def test_cli_extract_and_status(cli_out, capsys):
    pages_dir, out = cli_out
    assert main(["extract", "--pages", pages_dir, "--out", out]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["rows"] == 1000

    assert main(["status", "--out", out, "--limit", "5"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 5
    ts = [l["warc_ts"] for l in lines]
    assert ts == sorted(ts, reverse=True)


def test_cli_reextract_and_winners(cli_out, capsys):
    pages_dir, _ = cli_out
    assert main(["winners", "--pages", pages_dir]) == 0
    w = json.loads(capsys.readouterr().out.strip())
    assert len(w["winners"]) == 50 and not w["ties"]  # idx%20==7 recrawls

    url = sorted(w["winners"])[0]
    assert main(["reextract", "--pages", pages_dir, "--url", url]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["url"] == url and rec["text"]


def test_cli_export_jsonl(cli_out, capsys, tmp_path):
    import json as _json

    pages_dir, out = cli_out
    main(["extract", "--pages", pages_dir, "--out", out])
    capsys.readouterr()
    dest = str(tmp_path / "jsonl")
    assert main(["export", "--out", out, "--dest", dest]) == 0
    n = _json.loads(capsys.readouterr().out.strip())["rows"]
    assert n == 1000
    import glob

    files = glob.glob(dest + "/*.json")
    assert files
    rows = [
        _json.loads(l)
        for f in files
        for l in open(f)
        if l.strip()
    ]
    assert len(rows) == 1000
    assert {"url", "text", "doc_type"} <= set(rows[0])


def test_cli_import_jsonl_roundtrip(cli_out, capsys, tmp_path):
    import glob
    import json as _json

    import duckdb

    pages_dir, out = cli_out
    main(["extract", "--pages", pages_dir, "--out", out])
    capsys.readouterr()
    dest = str(tmp_path / "jsonl")
    main(["export", "--out", out, "--dest", dest])
    capsys.readouterr()
    back = str(tmp_path / "parquet_back")
    assert main(["import", "--src", dest, "--dest", back]) == 0
    assert _json.loads(capsys.readouterr().out.strip())["rows"] == 1000
    # independent check: text survives the JSONL round trip byte-for-byte
    n, tot = duckdb.sql(
        f"""
        SELECT sum(CASE WHEN a.text = b.text THEN 1 ELSE 0 END), count(*)
        FROM read_parquet('{back}/*.parquet') a
        JOIN read_parquet('{out}/*/*.parquet', hive_partitioning=1) b USING (url)
        """
    ).fetchone()
    assert (n, tot) == (1000, 1000)


def test_cli_query_list_and_run(capsys, tmp_path):
    assert main(["query", "--list"]) == 0
    names = capsys.readouterr().out.strip().splitlines()
    assert "q1_pricing_summary" in names and "doc_bm25_topk" in names

    assert main(
        ["query", "lineitem_bloom_join", "--sf-dir", "/root/testdata/sf0.001"]
    ) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert rows and {"o_orderpriority", "n_lines", "rev_cents"} <= set(rows[0])

    out = str(tmp_path / "qout")
    assert main(
        ["query", "doc_bm25_topk", "--sf-dir", "/root/testdata/sf0.001",
         "--out", out]
    ) == 0
    import duckdb

    n = duckdb.sql(f"SELECT COUNT(*) FROM read_parquet('{out}/*.parquet')").fetchone()[0]
    assert n == 20


def test_cli_query_unknown_name_errors(capsys):
    with pytest.raises(SystemExit):
        main(["query", "no_such_query"])


def test_cli_cluster(cli_out, capsys, tmp_path):
    from rayxtract.pipeline import list_shards
    from rayxtract.zonemap import build_zone_maps, prune

    pages_dir, _ = cli_out
    dest = str(tmp_path / "clustered")
    assert main(
        ["cluster", "--pages", pages_dir, "--dest", dest, "--n-ranges", "8"]
    ) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["rows"] == 1050  # 1000 urls + 50 recrawls
    zones = build_zone_maps(list_shards(dest)).sort_values("min_url")
    assert (
        zones["max_url"].iloc[:-1].to_numpy()
        < zones["min_url"].iloc[1:].to_numpy()
    ).all()
    # a point probe on the clustered layout opens exactly one shard
    some_url = zones["min_url"].iloc[0]
    assert len(prune(zones, url=some_url)) == 1


def test_cli_query_stats_flag(capsys):
    # a Dataset result prints Ray's per-stage stats (its "Operator" lines);
    # a driver-side (pandas) result prints a notice instead
    for name, n_rows, err in (
        ("doc_token_counts", 2, "Operator"),
        ("emb_pca_agreement", 1, "stats unavailable: driver-side query result"),
    ):
        assert main(
            ["query", name, "--sf-dir", "/root/testdata/sf0.001",
             "--limit", "2", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        rows = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert len(rows) == n_rows
        assert err in captured.err
