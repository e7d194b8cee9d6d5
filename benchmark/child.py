"""One invocation of the tpsdvqa CLI in a fresh process, measured from inside.

Usage: child.py LAUNCHED RESULT_JSON TRACE -- CLI_ARG...

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers
interpreter start-up plus the imports of ``tpsdvqa.cli`` with numpy and
scipy. The CLI's records go to this process's stdout, which the parent
points at a file. With TRACE=1 the layer wrappers of ``tracing.py`` are
installed after the imports; otherwise nothing is patched.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    launched, result_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py LAUNCHED RESULT_JSON TRACE -- CLI_ARG...")
    argv = sys.argv[5:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import tpsdvqa.cli as cli

    setup_s = time.monotonic() - launched
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"setup_s": setup_s}
    if argv:
        started, cpu_started = time.perf_counter(), time.process_time()
        result["exit_code"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - started
        result["cpu_s"] = time.process_time() - cpu_started
        sys.stdout.flush()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
