"""Run one ``repro`` CLI command the way a user does, with the benchmark's
clocks attached.

    python3 perfbench/launch.py [--trace FILE] --stats FILE -- report ...

The command runs in this fresh interpreter through ``repro.cli.main.main``.
``--stats`` receives, at exit, the launcher's start, import and finish times
(``time.monotonic``), the completion time of every cell the command ran, the
process's peak RSS (``VmHWM``).  ``--trace`` additionally
wraps the layer functions (see ``tracer.py``) and writes every span to FILE.
A long-running command (``report --serve``) stops cleanly on SIGTERM and
writes both files on its way out.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
from tracer import OpClock, Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="JSON file written at exit")
    parser.add_argument("--trace", default=None, help="write every span to this file")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the repro arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    common.use_checkout_src()
    from repro.cli.main import main as repro_main

    imported = time.monotonic()
    clock = OpClock()
    clock.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    code = repro_main(command)
    done = time.monotonic()
    stats = {
        "start": START,
        "imported": imported,
        "done": done,
        "ops": clock.done,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
