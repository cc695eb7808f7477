"""One ``biharwave`` CLI invocation, run as a child process by the cli workload.

    python3 perfbench/cli_child.py STATS.json [--trace] -- SUBCOMMAND ARGS...

Runs ``biharwave.cli.main`` on the given arguments in a fresh interpreter
and writes STATS.json: the exit code, the time ``import biharwave.cli``
took (the benchmark's set-up sample for the cli workload), a sample of the
host-speed reference taken after the command (see hostref.py), and (with
--trace) the layer spans of the command.  The exit code of the child is the
CLI's.
"""

import sys
import time

_T0 = time.perf_counter()


def main(argv) -> int:
    import os

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    stats_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    cli_argv = rest[rest.index("--") + 1:]

    import json

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostref
    from tracer import Tracer, install

    tracer = Tracer()
    import_span = tracer.enter("cli.import")
    import biharwave
    import biharwave.cli

    tracer.leave(import_span)
    import_s = tracer.spans[import_span].end - tracer.spans[import_span].start
    if trace:
        install(tracer, biharwave)
    try:
        code = biharwave.cli.main(cli_argv)
    finally:
        end = time.perf_counter()
        host_s = hostref.sample()
        spans = [
            [s.name, s.start - _T0, s.end - _T0, s.parent, s.counts]
            for s in tracer.spans
        ] if trace else []
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "wall_s": end - _T0, "host_s": host_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
