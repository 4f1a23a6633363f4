"""Child entry point of the benchmark: import ``repro.cli``, then run it.

    python3 perfbench/launch.py MARKS [--layers] [-- REPRO-ADC-ARGS...]

Writes one JSON object to MARKS holding the CLOCK_MONOTONIC instant right
after ``import repro.cli`` (the parent, which recorded the instant before
exec, turns it into set-up time), the instants around ``repro.cli.main``,
its exit code, and the Python and numpy versions.  ``--layers`` installs the
per-layer tracer (``layers.py``) before the command runs and adds its stats.
Without a command the child stops after the import: a set-up probe.
"""

import time

import repro.cli

IMPORTED = time.monotonic()

import json  # noqa: E402  (after the mark: not part of the program's set-up)
import platform  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402


def main() -> int:
    marks_path, *rest = sys.argv[1:]
    traced = rest[:1] == ["--layers"]
    if traced:
        rest = rest[1:]
    argv = rest[1:] if rest[:1] == ["--"] else rest
    marks = {
        "imported": IMPORTED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exit_code": 0,
    }
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    if argv:
        marks["main_start"] = time.monotonic()
        marks["exit_code"] = repro.cli.main(argv)
        marks["main_end"] = time.monotonic()
    if tracer is not None:
        marks["layers"] = tracer.snapshot()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return marks["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
