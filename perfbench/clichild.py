"""Traced stand-in for `python -m cycwitt.cli ARGS` in the cli-oneshot workload.

Usage: python perfbench/clichild.py OUT.json ARGS...

Times `import cycwitt.cli` in this fresh interpreter, installs the span
wrappers, runs cli.main(ARGS) and writes the import time, the span
summary, the factor cache counts and the spans themselves next to
OUT.json.  Output and exit status are those of the real CLI.
"""

import sys
import time

t0 = time.perf_counter()
import cycwitt.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import json  # noqa: E402

import tracing  # noqa: E402  (this script's directory is first on sys.path)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    rec.install()
    rec.current_task = 0
    try:
        return sys.modules["cycwitt.cli"].main(argv)
    finally:
        rec.write(out_path + ".spans")
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "summary": rec.summary(),
                       "cache": rec.cache_counts()}, f)


if __name__ == "__main__":
    sys.exit(main())
