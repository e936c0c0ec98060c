"""cycwitt benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-oneshot, witt-algebra, matrix-bridge, finite-rigs (see
README.md).  A run is a series of rounds.  Each round is a fresh
process (perfbench/worker.py) that builds the seeded task list and runs
it once, whole, in a fixed order; rounds start while the next one is
expected to end within S seconds, and at least two run.  Memo caches
therefore start cold in every round, and no round is ever cut short.
The first round checks every output; later rounds must reproduce its
output digests exactly.

Every task is followed by its calibration (calib.py), and each time is
divided by the host factor read right after it, so times read as
seconds on the reference host at its usual speed; each set-up time is
divided by the factor of a bare interpreter launch made just before it.
--trace 0 prints the end-to-end metrics; each task's latency is the
median of its normalised readings over the rounds.  --trace 1 alternates
untraced and traced rounds and prints the per-module metrics (raw
seconds) of the traced round with the median task time, plus the
tracing overhead.  The last line of stdout is the result object;
progress and failures go to stderr.  Spans and per-round results are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import calib  # noqa: E402

OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("cli-oneshot", "witt-algebra", "matrix-bridge", "finite-rigs")
MIN_ROUNDS = 2  # every task's median reading is taken over at least two rounds
SETUP_SAMPLES = 5  # set-up is timed in at least this many fresh processes
PROBES = 5  # bare-interpreter and import probes in a traced run
ROUND_TIMEOUT = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env():
    return dict(os.environ, PYTHONHASHSEED="0")


def _launch(workload, seed, tag, *flags):
    """Run one worker process; return its result with set-up and wall time added."""
    result = OUT / f"round-{workload}-{seed}-{tag}.json"
    setup_factor = calib.launch_factor(env=_env(), cwd=ROOT)
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", workload, str(seed), str(result), *flags],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT,
    )
    wall = time.monotonic() - t0
    if p.returncode != 0 or not result.exists():
        raise BenchError(f"worker for {workload} failed (exit {p.returncode}):\n{p.stderr[-3000:]}")
    res = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    res["setup_s"] = res["t_first"] - t0
    res["setup_factor"] = setup_factor
    res["wall_s"] = wall
    return res


def _fresh_python(code):
    """Run code in a fresh interpreter with src/ on the path: (wall seconds, stdout)."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", code], env=dict(_env(), PYTHONPATH=str(ROOT / "src")),
                       cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, p.stdout


def _judge(rounds):
    """(correct, attempted, failed) over all rounds; rounds[0] was checked."""
    ref = rounds[0]
    names = ref["names"]
    known = set(ref["known_faults"])
    base = {int(i): msg for i, msg in ref["failures"].items()}
    correct = True
    for i, msg in sorted(base.items()):
        tag = "known fault" if i in known else "WRONG"
        print(f"[{tag}] {names[i]}: {msg}", file=sys.stderr)
        correct &= i in known
    failed = 0
    for r in rounds:
        bad = set(base)
        if r is not ref:
            errors = {int(i) for i in r.get("errors", {})}
            diff = {i for i, (d, d0) in enumerate(zip(r["digests"], ref["digests"])) if d != d0}
            for i in sorted((diff | errors) - bad - known):
                print(f"[WRONG] {names[i]}: output differs from the checked round",
                      file=sys.stderr)
                correct = False
            bad |= diff | errors
        failed += len(bad)
    return correct, len(names) * len(rounds), failed


def _normalised(r):
    """A round's task times, each divided by the host factor read right after it."""
    return [t / f for t, f in zip(r["times"], r["factors"])]


def _task_times(rounds):
    """Each task's latency: the median of its normalised readings over the rounds.

    The host's speed drifts in phases that outlast a round, so a raw
    reading depends on when it was taken.  Dividing it by the host
    factor read right after the task removes most of that; the median
    over the rounds removes what is left of single slow moments.
    """
    return [statistics.median(ts) for ts in zip(*(_normalised(r) for r in rounds))]


def _setup_samples(workload, seed, rounds):
    """Set-up times, each divided by the factor of the bare launch made just before it."""
    samples = [r["setup_s"] / r["setup_factor"] for r in rounds]
    k = 0
    while len(samples) < SETUP_SAMPLES:
        r = _launch(workload, seed, f"setup{k}", "--setup-only")
        samples.append(r["setup_s"] / r["setup_factor"])
        k += 1
    return samples


def _untraced(workload, seed, seconds):
    deadline = time.monotonic() + seconds
    rounds = []
    while True:
        rounds.append(_launch(workload, seed, len(rounds), *(["--check"] if not rounds else [])))
        longest = max(r["wall_s"] for r in rounds)
        print(f"round {len(rounds)}: {sum(rounds[-1]['times']):.3f} s of tasks, "
              f"set-up {rounds[-1]['setup_s']:.3f} s", file=sys.stderr)
        if len(rounds) >= MIN_ROUNDS and time.monotonic() + longest > deadline:
            break
    est = _task_times(rounds)
    metrics = {
        "setup_s": (statistics.median(_setup_samples(workload, seed, rounds)), "s"),
        "tasks_per_s": (len(est) / sum(est), "1/s"),
        "task_p50_ms": (statistics.median(est) * 1000, "ms"),
        "task_p90_ms": (statistics.quantiles(est, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    return rounds, metrics


def _traced(workload, seed, seconds):
    from perfbench import tracing

    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        plain.append(_launch(workload, seed, f"u{len(plain)}", *(["--check"] if not plain else [])))
        spans = OUT / f"spans-{workload}-{seed}-{len(traced)}.tsv"
        traced.append(_launch(workload, seed, f"t{len(traced)}", "--trace", "--spans", str(spans)))
        traced[-1]["spans"] = spans
        longest = max(a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced))
        if time.monotonic() + longest > deadline:
            break
    order = sorted(range(len(traced)), key=lambda k: sum(traced[k]["times"]))
    pick = traced[order[(len(order) - 1) // 2]]
    for r in traced:
        if r is not pick:
            r["spans"].unlink(missing_ok=True)
    pick["spans"].replace(OUT / f"spans-{workload}-{seed}.tsv")

    summary = pick["summary"]
    task_s = sum(pick["times"])
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (summary["calls"][name], "count")
        metrics[f"{name}.self_s"] = (summary["self_s"][name], "s")
    hits, misses = pick.get("cache", {}).get("arith.factor", (0, 0))
    metrics["arith.factor.cache_hits"] = (hits, "count")
    metrics["arith.factor.cache_misses"] = (misses, "count")
    metrics["other.self_s"] = (task_s - summary["covered_s"], "s")
    metrics["trace.task_s"] = (task_s, "s")
    untraced_s = statistics.median(sum(_normalised(r)) for r in plain)
    traced_s = statistics.median(sum(_normalised(r)) for r in traced)
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    if workload == "cli-oneshot":
        imports = pick["import_s"]
    else:
        code = "import time; t = time.perf_counter(); import cycwitt.cli; print(time.perf_counter() - t)"
        imports = [float(_fresh_python(code)[1]) for _ in range(PROBES)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.interpreter_s"] = (
        statistics.median(_fresh_python("pass")[0] for _ in range(PROBES)), "s")
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cycwitt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cycwitt" / "cli.py").is_file():
        print(f"error: no cycwitt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        # compile the sources once, so no round pays for writing bytecode
        module = f"perfbench.workloads.{args.workload.replace('-', '_')}"
        _fresh_python(f"import cycwitt.cli, perfbench.worker, {module}")
        run = _traced if args.trace else _untraced
        rounds, metrics = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct, attempted, failed = _judge(rounds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    saved = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "names": rounds[0]["names"],
             "rounds": [{k: v for k, v in r.items()
                        if k in ("times", "factors", "setup_s", "setup_factor", "rss_mb", "wall_s")}
                        for r in rounds],
             "result": result}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
