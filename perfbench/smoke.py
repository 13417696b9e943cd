#!/usr/bin/env python3
"""Smoke check of every workload over small inputs.

Run from the repository root:

    python3 perfbench/smoke.py [workload ...]

For each workload, one untraced and one traced run of ``run.py --size smoke``
must exit 0 and print a result line with every metric name and unit, no
failed op, and ``correct`` true (for the traced run also ``wrong_rows`` 0).
Exits 1 on the first workload that does not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check(workload: str, trace: int) -> list[str]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "2", "--trace", str(trace), "--size", "smoke",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no result line"]
    out = json.loads(lines[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    expected = run.per_layer_units() if trace else run.END_TO_END
    got = {k: v.get("unit") for k, v in out.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong_unit = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics: missing {missing}, extra {extra}, wrong unit {wrong_unit}")
    if not out.get("correct"):
        problems.append("correct is false")
    if out.get("attempted", 0) < 1 or out.get("failed") != 0:
        problems.append(f"attempted {out.get('attempted')}, failed {out.get('failed')}")
    if trace and out["metrics"].get("wrong_rows", {}).get("value") != 0:
        problems.append(f"wrong_rows {out['metrics'].get('wrong_rows')}")
    return problems


def main() -> None:
    names = sys.argv[1:] or list(run.WORKLOADS)
    ok = True
    for workload in names:
        for trace in (0, 1):
            problems = check(workload, trace)
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
