#!/usr/bin/env python3
"""rayxtract benchmark: closed-loop workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Workloads, metrics
and the reasons for their sizes are described in ``perfbench/README.md``.

Each set-up runs in a fresh process with a fresh Ray session of NUM_CPUS
CPUs: SETUP_REPS processes set up, the last one also measures, and
``setup_s`` is their median. Inputs are generated before the first of them
and cached by seed, so they are not part of ``setup_s``. One client submits
one op at a time for ``--seconds`` seconds; each op's output is checked
after its timing ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("flagship", "multicrawl", "resume", "query_sweep")
NUM_CPUS = 2
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # the whole run, every process included
OP_TIMEOUT_S = 60.0
OBJECT_STORE_BYTES = 512 << 20
# Ray's socket paths must fit in 107 bytes, so its session directory goes
# inside the checkout only when the checkout path is short enough.
MAX_RAY_TMP_LEN = 40

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "docs_per_s": "docs/s",
    "rows_in_per_s": "rows/s",
    "driver_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from workloads import QUERY_GROUPS, SWEEP

    units = {
        "pipeline.extraction_dataset.s": "s",
        "pipeline.compute_recrawl_winners.s": "s",
        "pipeline.dup_urls": "count",
        "pipeline.resolve_tie_rows.s": "s",
        "pipeline.ties": "count",
        "pipeline.main_pass.s": "s",
        "pipeline.run_extraction.self_s": "s",
        "pipeline.rows_kept_ratio": "ratio",
        "pipeline.readback_useful_ratio": "ratio",
        "ray_data.read.cpu_s": "s",
        "ray_data.read.wall_s": "s",
        "ray_data.map_write.cpu_s": "s",
        "ray_data.map_write.wall_s": "s",
        "ray_data.map_write.udf_s": "s",
        "ray_data.cpu_busy_ratio": "ratio",
        "manifest.shard_fingerprint.calls": "count",
        "manifest.shard_fingerprint.s": "s",
        "manifest.completed_partitions_for.s": "s",
        "manifest.clean_incomplete.s": "s",
        "manifest.partitions_wiped": "count",
        "manifest.write_manifest.calls": "count",
        "manifest.write_manifest.s": "s",
        "ops.extract_batch.mb_per_s": "MB/s",
        "dom.extract_main_content.mb_per_s": "MB/s",
        "dom.extract_main_content.docs_per_s": "docs/s",
        "layout.parse_pdfl.mb_per_s": "MB/s",
        "table.parse_xlsl.mb_per_s": "MB/s",
        "docl.parse_docl.mb_per_s": "MB/s",
    }
    units.update({f"queries.{q}.s": "s" for q in SWEEP})
    units.update({f"queries.{g}.s": "s" for g in QUERY_GROUPS})
    units.update({
        "queries.pages_hits.cold_s": "s",
        "scale.resolve.calls": "count",
        "scale.resolve.buckets_max": "count",
        "trace.overhead_s": "s",
        "wrong_rows": "count",
        "failed_ops": "ratio",
    })
    return units


def _layout(workload: str, size: str) -> dict[str, str]:
    cache = os.path.join(HERE, ".cache")
    return {
        "cache": cache,
        "program_cache": os.path.join(cache, f"program-{size}"),
        "run_dir": os.path.join(cache, "run", workload),
        "tmp": os.path.join(cache, "tmp"),
        "traces": os.path.join(cache, "traces"),
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Child process: one set-up, and for the last one, the measured ops.


def _run_bounded(fn, timeout: float):
    """Run ``fn`` on a thread; returns (status, value, seconds) with status
    "ok", "error" or "timeout". A timed-out thread is left running: the
    caller stops submitting work and ends the process."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["value"] = fn()
            box["status"] = "ok"
        except Exception:
            box["status"] = "error"
            box["value"] = traceback.format_exc()
        box["t"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    t0 = time.perf_counter()
    th.start()
    th.join(max(timeout, 0.1))
    if th.is_alive():
        return "timeout", None, time.perf_counter() - t0
    return box["status"], box.get("value"), box["t"]


def _layer_facts(rec, w, op: int, sid: int, facts: dict, t: float) -> dict:
    import spans as tr
    from workloads import QUERY_GROUPS, QuerySweep

    stats = tr.parse_stats(w.stats_text())
    out = {
        "pipeline.extraction_dataset.s": rec.total(op, "pipeline.extraction_dataset"),
        "pipeline.resolve_tie_rows.s": rec.total(op, "pipeline.resolve_tie_rows"),
        "pipeline.ties": rec.op_count(op, "pipeline.ties"),
        "pipeline.main_pass.s": rec.total(op, "pipeline.main_pass"),
        "ray_data.read.cpu_s": stats["read"]["cpu_s"],
        "ray_data.read.wall_s": stats["read"]["wall_s"],
        "ray_data.map_write.cpu_s": stats["map_write"]["cpu_s"],
        "ray_data.map_write.wall_s": stats["map_write"]["wall_s"],
        "ray_data.map_write.udf_s": stats["map_write"]["udf_s"],
        "ray_data.cpu_busy_ratio": (
            stats["read"]["cpu_s"] + stats["map_write"]["cpu_s"]
        ) / (t * NUM_CPUS),
        "scale.resolve.calls": rec.op_count(op, "scale.resolve.calls"),
        "scale.resolve.buckets_max": rec.op_count(op, "scale.resolve.buckets_max"),
    }
    for name in ("shard_fingerprint", "write_manifest"):
        out[f"manifest.{name}.calls"] = rec.op_count(op, f"manifest.{name}.calls")
        out[f"manifest.{name}.s"] = rec.total(op, f"manifest.{name}")
    for name in ("completed_partitions_for", "clean_incomplete"):
        out[f"manifest.{name}.s"] = rec.total(op, f"manifest.{name}")
    out["manifest.partitions_wiped"] = rec.op_count(op, "manifest.partitions_wiped")
    if isinstance(w, QuerySweep):
        times = facts["times"]
        out.update({f"queries.{q}.s": v for q, v in times.items()})
        out.update({
            f"queries.{g}.s": sum(times[q] for q in qs)
            for g, qs in QUERY_GROUPS.items()
        })
    else:
        # the op span is exactly the run_extraction call
        out["pipeline.run_extraction.self_s"] = rec.self_time(sid)
        out["pipeline.rows_kept_ratio"] = facts["rows_out"] / max(facts["rows_in"], 1)
        out["pipeline.readback_useful_ratio"] = (
            facts["partitions_written"] / max(facts["partitions_read_back"], 1)
        )
    return out


def _probes(w) -> dict:
    """Direct calls, after the ops: the recrawl winner pass and the kernels'
    one-core throughput over the workload's own payloads."""
    import pyarrow.parquet as pq

    import spans as tr
    from rayxtract.pipeline import compute_recrawl_winners

    pages = w.probe_pages()
    t0 = time.perf_counter()
    winners, ties = compute_recrawl_winners(pages)
    out = {
        "pipeline.compute_recrawl_winners.s": time.perf_counter() - t0,
        "pipeline.dup_urls": len(winners) + len(ties),
    }
    out.update(tr.kernel_throughput(pq.read_table(pages)))
    return out


def _ray_init(lay: dict) -> str:
    """Start this process's Ray session; returns its session directory."""
    import ray
    from ray.data import DataContext

    ray_tmp = os.path.join(lay["tmp"], "ray")
    kwargs = {"_temp_dir": ray_tmp} if len(ray_tmp) <= MAX_RAY_TMP_LEN else {}
    ctx = ray.init(
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    return ctx.address_info["session_dir"]


def child(args) -> None:
    t_proc = args.spawned_at
    lay = _layout(args.workload, args.size)
    res: dict = {"ok": False, "ops": []}
    timed_out = False
    rec = None
    try:
        import ray

        import inputs
        import workloads

        parts = res["setup_parts"] = {"imports": time.time() - t_proc}
        paths = inputs.ensure_inputs(
            args.workload, args.seed, inputs.SIZES[args.size], lay["cache"], lay["program_cache"]
        )
        workloads.wipe_program_state(lay["program_cache"], lay["run_dir"])
        res["ray_session"] = _ray_init(lay)
        w = workloads.make(args.workload, paths, lay["run_dir"], args.seed)
        parts["ray_init"] = time.time() - t_proc
        status, value, _ = _run_bounded(w.warmup, args.budget - (time.time() - t_proc))
        if status != "ok":
            timed_out = status == "timeout"
            raise RuntimeError(f"warm-up {status}: {value}")
        res["setup_s"] = time.time() - t_proc
        res["setup_wrong"] = w.check_setup()
        if args.child == "main":
            rec = _measure(args, w, res, t_proc)
            timed_out = any(o["status"] == "timeout" for o in res["ops"])
        res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["ok"] = True
    except Exception:
        res["error"] = traceback.format_exc()
    with open(args.result, "w") as f:
        json.dump(res, f)
    if rec is not None:
        os.makedirs(lay["traces"], exist_ok=True)
        rec.dump(
            os.path.join(lay["traces"], f"{args.workload}-s{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "ops": res["ops"]},
        )
    sys.stdout.flush()
    if not timed_out:
        import ray

        ray.shutdown()
    # a hung op's thread cannot be joined; the parent reaps what is left
    os._exit(0)


def _measure(args, w, res: dict, t_proc: float):
    import spans as tr

    rec = tr.Recorder() if args.trace else None
    hard_end = t_proc + args.budget
    end = time.monotonic() + args.seconds
    per_layer: list[dict] = []
    last_t = 0.0
    i = 0
    while True:
        traced = rec is not None and i % 2 == 1
        prep = w.before_op(i)
        if traced:
            tr.install_program_wrappers(rec)
            holder: dict = {}

            def body(prep=prep, holder=holder, i=i):
                with rec.op_scope(i, f"op.{w.name}") as sid:
                    holder["sid"] = sid
                    return w.op(prep, rec)
        else:
            def body(prep=prep):
                return w.op(prep)
        timeout = min(OP_TIMEOUT_S, hard_end - time.time() - 5.0)
        status, value, t = _run_bounded(body, timeout)
        if traced:
            rec.unwrap_all()
        op = {"i": i, "status": status, "t": t, "traced": traced}
        if status == "ok":
            try:
                facts = dict(value)
                facts.update(w.after_op(prep, facts))
                op.update(facts)
                if traced:
                    per_layer.append(_layer_facts(rec, w, i, holder["sid"], facts, t))
            except Exception:
                op.update(status="error", error=traceback.format_exc())
        else:
            op["error"] = value
        res["ops"].append(op)
        i += 1
        last_t = t
        if status == "timeout":
            break
        now = time.monotonic()
        have_both = rec is None or i >= 2
        if now >= end and have_both:
            break
        if time.time() + 1.5 * last_t + 10.0 > hard_end:
            break
    if rec is not None and not any(o["status"] == "timeout" for o in res["ops"]):
        layers = {k: _median(d[k] for d in per_layer) for k in (per_layer[0] if per_layer else {})}
        layers.update(_probes(w))
        cold = getattr(w, "cold_s", {})
        layers["queries.pages_hits.cold_s"] = cold.get("pages_hits", 0.0)
        plain = [o["t"] for o in res["ops"] if o["status"] == "ok" and not o["traced"]]
        traced_t = [o["t"] for o in res["ops"] if o["status"] == "ok" and o["traced"]]
        if plain and traced_t:
            layers["trace.overhead_s"] = _median(traced_t) - _median(plain)
        res["layers"] = layers
    return rec


# ---------------------------------------------------------------------------
# Parent process: inputs, the set-up processes, and the result line.


def _child_env(root: str, lay: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    env["RAYXTRACT_CACHE"] = lay["program_cache"]
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    if len(os.path.join(lay["tmp"], "ray")) <= MAX_RAY_TMP_LEN:
        env["TMPDIR"] = lay["tmp"]
    return env


def _descendants() -> list[int]:
    """Pids below this process, from /proc."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                parent_of[int(entry)] = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
    found, frontier = [], [os.getpid()]
    while frontier:
        kids = [p for p, pp in parent_of.items() if pp in frontier]
        found += kids
        frontier = kids
    return found


def _reap(pid: int) -> None:
    """Kill whatever the child left behind, its process group and any orphan
    re-parented to this process (a child subreaper), and wait for them."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.time() + 20.0
    while time.time() < deadline:
        for p in _descendants():
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return  # no child left
        time.sleep(0.05)


def _spawn(role: str, args, env: dict, lay: dict, budget: float) -> dict:
    result = os.path.join(lay["cache"], f"result-{args.workload}-{role}-{os.getpid()}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", role, "--result", result, "--budget", f"{budget:.1f}",
        "--size", args.size, "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=budget + 5.0)
    except subprocess.TimeoutExpired:
        pass
    _reap(proc.pid)
    proc.wait()
    try:
        with open(result) as f:
            res = json.load(f)
        os.remove(result)
    except (OSError, json.JSONDecodeError):
        res = {"ok": False, "ops": [], "error": f"{role} process ended without a result"}
    if res.get("ray_session"):
        # its logs would pile up run after run
        shutil.rmtree(res["ray_session"], ignore_errors=True)
    return res


def _become_subreaper() -> None:
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # process groups still cover the common case


def parent(args) -> None:
    t_start = time.time()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "rayxtract", "pipeline.py")):
        sys.exit(
            "perfbench: no rayxtract/ package in the current directory; "
            "run from the repository root"
        )
    lay = _layout(args.workload, args.size)
    env = _child_env(root, lay)
    os.environ.update(env)
    sys.path.insert(0, root)
    os.makedirs(lay["tmp"], exist_ok=True)
    _become_subreaper()

    import inputs

    inputs.ensure_inputs(
        args.workload, args.seed, inputs.SIZES[args.size], lay["cache"], lay["program_cache"]
    )
    runs = []
    for rep in range(SETUP_REPS):
        role = "main" if rep == SETUP_REPS - 1 else "setup"
        budget = RUN_LIMIT_S - (time.time() - t_start)
        if role == "setup":
            # leave the measuring process at least its run and a set-up
            budget = min(budget, (budget - args.seconds) / (SETUP_REPS - rep))
        runs.append(_spawn(role, args, env, lay, max(budget, 1.0)))
    shutil.rmtree(lay["run_dir"], ignore_errors=True)
    print(json.dumps(_result(args, runs, time.time() - t_start)))


def _result(args, runs: list[dict], elapsed: float) -> dict:
    main = runs[-1]
    ops = main.get("ops", [])
    plain = [o for o in ops if o["status"] == "ok" and not o["traced"]]
    failed = sum(o["status"] != "ok" for o in ops)
    attempted = len(ops)
    if not main.get("ok") or not attempted:
        attempted, failed = max(attempted, 1), max(failed, 1)
    wrong = sum(o.get("wrong_rows", 0) for o in ops) + sum(
        r.get("setup_wrong", 0) for r in runs
    )
    for r in runs:
        if r.get("error"):
            print(r["error"], file=sys.stderr)
    for o in ops:
        if o.get("error"):
            print(o["error"], file=sys.stderr)
    print(
        f"perfbench {args.workload}: set-ups "
        + " ".join(
            f"{r.get('setup_s', float('nan')):.2f}"
            f"({'/'.join(f'{v:.1f}' for v in r.get('setup_parts', {}).values())})"
            for r in runs
        )
        + " s; ops " + " ".join(f"{o['t']:.3f}{'*' if o['traced'] else ''}" for o in ops)
        + f" s; wrong_rows {wrong}; run {elapsed:.1f} s",
        file=sys.stderr,
    )
    correct = all(r.get("ok") for r in runs) and failed == 0 and wrong == 0
    if args.trace:
        units = per_layer_units()
        layers = main.get("layers", {})
        layers["wrong_rows"] = wrong
        layers["failed_ops"] = failed / attempted
        values = {k: float(layers.get(k, 0.0)) for k in units}
    else:
        units = END_TO_END
        times = [o["t"] for o in plain] or [o["t"] for o in ops] or [elapsed]
        values = {
            "setup_s": _median(r.get("setup_s", elapsed) for r in runs),
            "job_s": _median(times),
            "docs_per_s": _median(o["rows_out"] / o["t"] for o in plain),
            "rows_in_per_s": _median(o["rows_in"] / o["t"] for o in plain),
            "driver_rss_mb": float(main.get("rss_mb", 0.0)),
        }
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # "smoke": the same workloads over small inputs (perfbench/smoke.py)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--child", choices=("setup", "main"), help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, default=RUN_LIMIT_S, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args)
    else:
        parent(args)


if __name__ == "__main__":
    main()
