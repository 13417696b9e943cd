"""CLI for the engine's ops surface — the batch-job analogue of the
reference's HTTP endpoints (reference: main.py:178-418):

    python -m rayxtract extract   --pages DIR --out DIR [--no-resume]
    python -m rayxtract status    --out DIR [--limit N]        # queue status
    python -m rayxtract reextract --pages DIR --url URL        # debug probe
    python -m rayxtract sweep     --out DIR --max-age-hours H  # retention
    python -m rayxtract winners   --pages DIR                  # recrawl map

Owns its Ray session (library code never calls ray.init; the driver
contract in __ray_entry__.py stays session-free)."""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up() -> None:
    import os

    import ray

    if not ray.is_initialized():
        # honor RAY_ADDRESS so `ray job submit` attaches this CLI to the
        # running cluster (hardcoding "local" would silently start a
        # fresh single-node Ray INSIDE the job container instead of
        # using the cluster); standalone invocations without the env
        # var still get a local session
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from . import configure_context

    configure_context()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="rayxtract")
    sub = p.add_subparsers(dest="cmd", required=True)

    px = sub.add_parser("extract", help="run (or resume) the flagship pipeline")
    px.add_argument("--pages", required=True)
    px.add_argument("--out", required=True)
    px.add_argument("--no-resume", action="store_true")
    px.add_argument("--batch-size", type=int, default=128)
    px.add_argument("--heavy-bytes", type=int, default=4 * 1024 * 1024)
    px.add_argument(
        "--delta", action="store_true",
        help="incremental run against an existing out dir: process only "
             "NEW input shards (plus any completed partitions whose urls "
             "a new shard recrawls — keep-latest winner drift); combined "
             "output is identical to a from-scratch build",
    )

    pb = sub.add_parser(
        "build",
        help="curated-training-set build: extraction + langid + quality "
             "gate, manifested + resumable like extract",
    )
    pb.add_argument("--pages", required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--no-resume", action="store_true")
    pb.add_argument(
        "--delta", action="store_true",
        help="incremental build: see `extract --delta`",
    )

    ps = sub.add_parser("status", help="newest-first crawl listing")
    ps.add_argument("--out", required=True)
    ps.add_argument("--limit", type=int, default=50)

    pr = sub.add_parser("reextract", help="re-extract one url from raw input")
    pr.add_argument("--pages", required=True)
    pr.add_argument("--url", required=True)

    pw = sub.add_parser("sweep", help="retention sweep over output partitions")
    pw.add_argument("--out", required=True)
    pw.add_argument("--max-age-hours", type=float, required=True)

    pv = sub.add_parser("winners", help="recrawl winner map (dup urls only)")
    pv.add_argument("--pages", required=True)

    pe = sub.add_parser("export", help="export output parquet to JSONL shards")
    pe.add_argument("--out", required=True)
    pe.add_argument("--dest", required=True)

    pi = sub.add_parser("import", help="convert JSONL shards to parquet")
    pi.add_argument("--src", required=True)
    pi.add_argument("--dest", required=True)

    pc = sub.add_parser(
        "cluster",
        help="rewrite a corpus range-clustered by url (lakehouse "
             "OPTIMIZE ... CLUSTER BY): makes zone-map point probes "
             "one-shard reads",
    )
    pc.add_argument("--pages", required=True, help="input corpus dir")
    pc.add_argument("--dest", required=True, help="fresh output dir")
    pc.add_argument(
        "--n-ranges", type=int, default=None,
        help="range count (default: size-derived, ~64 MiB per range)",
    )

    pn = sub.add_parser(
        "neardup",
        help="near-duplicate prune job: MinHash-LSH + exact n-gram verify "
             "+ connected components over an extracted corpus; writes the "
             "filtered corpus (min-id representative kept per cluster)",
    )
    pn.add_argument("--corpus", required=True, help="extracted corpus dir")
    pn.add_argument("--dest", required=True, help="fresh output dir")
    pn.add_argument(
        "--verify-threshold", type=float, default=0.5,
        help="exact word-3-gram Jaccard floor for a verified pair",
    )

    pq = sub.add_parser(
        "query",
        help="run a registered analytics query (see `query --list`) over an "
             "sf-dir of parquet tables; write parquet or print rows",
    )
    pq.add_argument("name", nargs="?", help="query name from the registry")
    pq.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    pq.add_argument("--out", help="write result parquet here instead of printing")
    pq.add_argument("--limit", type=int, default=20, help="rows to print without --out")
    pq.add_argument("--list", action="store_true", help="list registered query names")
    pq.add_argument(
        "--stats",
        action="store_true",
        help="after running, print Ray Data per-stage execution stats to "
             "stderr (wall time, blocks, rows per operator — the tuning "
             "feedback loop for batch/concurrency sizing)",
    )

    args = p.parse_args(argv)
    if args.cmd == "query":
        # both the listing and the name validation run BEFORE Ray boots —
        # a typo'd name should cost an argparse error, not a cluster start
        from .queries import QUERIES

        if args.list:
            for name in sorted(QUERIES):
                print(name)
            return 0
        if not args.name or args.name not in QUERIES:
            known = ", ".join(sorted(QUERIES)[:8])
            p.error(f"unknown query {args.name!r} (try --list; e.g. {known}, …)")
    if getattr(args, "delta", False):
        # --delta is resume with delta reconciliation (which resume always
        # applies when the input list changed); the flag exists to make
        # intent explicit and to catch the contradictory combination
        if args.no_resume:
            p.error("--delta requires resume (drop --no-resume)")
        import os as _os

        if not _os.path.isdir(args.out):
            p.error(
                f"--delta expects an existing out dir with manifests: {args.out}"
            )
    _ray_up()

    if args.cmd == "extract":
        from .ops import ExtractConfig
        from .pipeline import run_extraction

        report = run_extraction(
            args.pages,
            args.out,
            ExtractConfig(
                batch_size=args.batch_size,
                heavy_bytes=args.heavy_bytes,
            ),
            resume=not args.no_resume,
        )
        print(json.dumps(report))
    elif args.cmd == "build":
        from .pipeline import run_curation_build

        report = run_curation_build(
            args.pages, args.out, resume=not args.no_resume
        )
        print(json.dumps(report))
    elif args.cmd == "status":
        from .tools import status_report

        for row in status_report(args.out, limit=args.limit).take_all():
            row["warc_ts"] = str(row["warc_ts"])
            print(json.dumps(row))
    elif args.cmd == "reextract":
        from .tools import reextract_url

        rec = reextract_url(args.pages, args.url)
        rec["warc_ts"] = str(rec["warc_ts"])
        rec.pop("spans", None)
        print(json.dumps(rec, ensure_ascii=False))
    elif args.cmd == "sweep":
        from .tools import retention_sweep

        print(json.dumps({"swept": retention_sweep(args.out, args.max_age_hours)}))
    elif args.cmd == "winners":
        from .pipeline import compute_recrawl_winners

        winners, ties = compute_recrawl_winners(args.pages)
        print(json.dumps({"winners": winners, "ties": ties}))
    elif args.cmd == "export":
        from .tools import export_jsonl

        print(json.dumps({"rows": export_jsonl(args.out, args.dest)}))
    elif args.cmd == "cluster":
        from .tools import cluster_by_url

        print(json.dumps(cluster_by_url(args.pages, args.dest, args.n_ranges)))
    elif args.cmd == "neardup":
        from .tools import neardup_prune

        print(
            json.dumps(
                neardup_prune(
                    args.corpus, args.dest,
                    jaccard_verify=args.verify_threshold,
                )
            )
        )
    elif args.cmd == "import":
        from .tools import import_jsonl

        print(json.dumps({"rows": import_jsonl(args.src, args.dest)}))
    elif args.cmd == "query":
        import ray.data

        from .queries import QUERIES

        result = QUERIES[args.name](args.sf_dir)
        if args.out:
            if not isinstance(result, ray.data.Dataset):
                result = ray.data.from_pandas(result)
            result.write_parquet(args.out)
            print(json.dumps({"query": args.name, "out": args.out}))
        else:
            if isinstance(result, ray.data.Dataset):
                # keep the EXECUTED handle: .stats() reads the executed
                # plan, and a fresh .limit() chain would report nothing
                result = result.limit(args.limit)
                df = result.to_pandas()
            else:
                df = result.head(args.limit)
            for row in json.loads(df.to_json(orient="records")):
                print(json.dumps(row, ensure_ascii=False))
        if args.stats:
            if isinstance(result, ray.data.Dataset):
                print(result.stats(), file=sys.stderr)
            else:
                print("stats unavailable: driver-side query result", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
