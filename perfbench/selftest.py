"""Self-test of the benchmark's own code (not of cycwitt).

Usage: python3 perfbench/selftest.py

Checks the independent reference computations on known values, the
text-form parsers on sample outputs, the span accounting (self times
plus uncovered time equal the task time), the calibration, and that the
benchmark refuses to run, printing no result, where there are no cycwitt
sources.
Takes a few seconds.  The file name keeps it out of pytest's default
collection, so the repository's own test suite is unchanged.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import calib, oracle, tracing  # noqa: E402
from perfbench.workloads import cli_oneshot  # noqa: E402


def check_oracle():
    assert oracle.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert [oracle.ramanujan(12, m) for m in range(1, 13)] == [0, 2, 0, -2, 0, -4, 0, -2, 0, 2, 0, 4]
    assert oracle.cyclotomic(12) == [1, 0, -1, 0, 1]
    assert oracle.cyclotomic(1) == [-1, 1]
    assert oracle.det([[2, 1], [1, 3]]) == 5
    assert oracle.det_one_minus([[0, -1], [1, 1]], 1) == 1  # 1 - x + x^2 at x = 1
    assert oracle.growth_certificate([[0, -1], [1, 1]]) is None  # order 6
    assert oracle.growth_certificate([[0, -1], [1, 3]]) == 1  # trace 3 > 2
    # lambda_t(phi(4)) = 1 - t*phi(4) + t^2: characters at m = 1, 2, 4
    assert oracle.series_characters(4, 1, 2) == [1, 0, 1]
    assert oracle.series_characters(4, 2, 2) == [1, 2, 1]
    assert oracle.in_echelon_lattice([2, 4], [[1, 0], [0, 2]])
    assert not oracle.in_echelon_lattice([2, 3], [[1, 0], [0, 2]])
    # phi(1) has characters t_1 = t_2 = 1, while phi(2) has t_1 = -1
    assert oracle.is_element([(1, 1)], [1, 2], {1: 1, 2: 1})
    assert not oracle.is_element([(2, 1)], [1, 2], {1: 1, 2: 1})
    assert oracle.primes([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1) == [[0]]


def check_parsers():
    assert cli_oneshot.parse_witt("2*phi(8) - phi(4) + 3") == [[1, 3], [4, -1], [8, 2]]
    assert cli_oneshot.parse_witt("-phi(2)") == [[2, -1]]
    assert cli_oneshot.parse_witt("0") == []
    text = "1 - t*phi(30) + t^2*(phi(15) + 3*phi(5) + 2*phi(1)) - t^3*7"
    assert cli_oneshot.parse_series(text, 3) == [
        [[1, 1]], [[30, -1]], [[1, 2], [5, 3], [15, 1]], [[1, -7]]]
    assert cli_oneshot.parse_poly("1 - x + 3*x^3") == [1, -1, 0, 3]


def check_span_accounting():
    from cycwitt import lambda_ops

    rec = tracing.Recorder()
    rec.install()
    rec.current_task = 0
    t0 = time.perf_counter()
    lambda_ops.gamma_filtration(12, 3)
    task_s = time.perf_counter() - t0
    s = rec.summary()
    total_self = sum(s["self_s"].values())
    assert s["calls"]["lambda_ops.gamma_filtration"] == 1
    assert s["calls"]["witt.mul"] > 0 and s["calls"]["linalg.hnf"] > 0
    # top-level spans cover what the self times add up to, within rounding
    assert abs(total_self - s["covered_s"]) < 1e-9
    assert s["covered_s"] <= task_s


def check_calibration():
    import gc

    calib.chunk()
    gc.disable()
    try:
        before = gc.get_count()
        calib.chunk()
        # a chunk allocates nothing the collector tracks, so it collects no task's objects
        assert gc.get_count() == before, (before, gc.get_count())
    finally:
        gc.enable()
    assert 0 < calib.chunk_factor(0.0) < 100
    assert 0 < calib.launch_factor() < 100


def check_refuses_without_sources():
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "witt-algebra",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout)


def main() -> int:
    for check in (check_oracle, check_parsers, check_span_accounting, check_calibration,
                  check_refuses_without_sources):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
