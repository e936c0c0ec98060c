"""One round of a workload, in a fresh process started by run.py.

Usage: python -m perfbench.worker WORKLOAD SEED RESULT.json [--trace]
       [--check] [--setup-only] [--spans SPANS.tsv]

Set-up (imports, input generation) ends at the first timed task; its
monotonic clock reading is reported so that run.py can time set-up from
its own launch of this process.  Tasks run one at a time in a fixed
order, each timed alone and followed by its calibration (calib.py):
chunks for a share of its time, or a bare interpreter launch after a
CLI call.  The host factor read there is reported with the time.  Peak
memory is read before any check code
runs.  With --check every output is checked; every round also reports a
digest per output so that run.py can compare rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from perfbench import calib, tracing
from perfbench.common import plain

ROOT = Path(__file__).resolve().parent.parent


def _merge_children(workdir: Path, n_tasks: int, spans_path: str | None):
    """Sum the traced CLI children's summaries; append their spans to one file."""
    summary = tracing.empty_summary()
    imports, hits, misses, base = [], 0, 0, 0
    out = open(spans_path, "w", encoding="utf-8") if spans_path else None
    try:
        for slot in range(n_tasks):
            path = workdir / f"child-{slot}.json"
            if not path.exists():
                continue
            child = json.loads(path.read_text(encoding="utf-8"))
            tracing.merge(summary, child["summary"])
            imports.append(child["import_s"])
            h, m = child["cache"].get("arith.factor", (0, 0))
            hits += h
            misses += m
            lines = Path(str(path) + ".spans").read_text(encoding="utf-8").splitlines()
            if out:
                for line in lines:
                    name, start, end, parent, _ = line.split("\t")
                    parent = int(parent)
                    out.write(f"{name}\t{start}\t{end}\t{parent + base if parent >= 0 else -1}\t{slot}\n")
            base += len(lines)
    finally:
        if out:
            out.close()
    return summary, imports, {"arith.factor": (hits, misses)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("result")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(f"perfbench.workloads.{args.workload.replace('-', '_')}")
    is_cli = args.workload == "cli-oneshot"
    workdir = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    try:
        if is_cli:
            workdir.mkdir(parents=True)
        ctx = module.Context(ROOT, workdir, args.trace) if is_cli else None
        tasks = module.build(args.seed, ctx)
        rec = None
        if args.trace and not is_cli:
            rec = tracing.Recorder()
            rec.install()
            cache0 = rec.cache_counts()
        t_first = time.monotonic()
        if args.setup_only:
            Path(args.result).write_text(json.dumps({"t_first": t_first}), encoding="utf-8")
            return 0

        times, outputs, errors, factors = [], [], {}, []
        clock = time.perf_counter
        for i, task in enumerate(tasks):
            if rec:
                rec.current_task = i
            t0 = clock()
            try:
                out = task.run()
            except Exception as exc:  # a task that raises is a failed task, named below
                out = None
                errors[i] = f"raised {type(exc).__name__}: {exc}"
            dt = clock() - t0
            times.append(dt)
            outputs.append(out)
            factors.append(ctx.calibrate() if is_cli else calib.chunk_factor(dt))
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024

        result = {"t_first": t_first, "times": times, "factors": factors,
                  "names": [t.name for t in tasks],
                  "rss_mb": rss_mb, "known_faults": [i for i, t in enumerate(tasks) if t.known_fault]}
        if args.trace:
            if is_cli:
                summary, imports, cache = _merge_children(workdir, len(tasks), args.spans)
                result["import_s"] = imports
                result["cache"] = {k: list(v) for k, v in cache.items()}
            else:
                if args.spans:
                    rec.write(args.spans)
                summary = rec.summary()
                cache1 = rec.cache_counts()
                result["cache"] = {k: [cache1[k][0] - cache0[k][0], cache1[k][1] - cache0[k][1]]
                                   for k in cache1}
            result["summary"] = summary

        result["digests"] = [
            hashlib.sha256(repr(plain(o)).encode()).hexdigest()[:16] for o in outputs
        ]
        if args.check:
            failures = {}
            for i, (task, out) in enumerate(zip(tasks, outputs)):
                if i in errors:
                    failures[i] = errors[i]
                    continue
                try:
                    msg = task.check(out)
                except Exception as exc:  # a check that cannot read the output fails the task
                    msg = f"check raised {type(exc).__name__}: {exc}"
                if msg:
                    failures[i] = msg
            result["failures"] = failures
        else:
            result["errors"] = errors
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
