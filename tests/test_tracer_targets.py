"""The benchmark's tracer must find every function it wraps in the program.

A traced benchmark run lists a wrapped name that no longer exists under
``absent`` and reads its layer metrics as 0, so a refactor that renames or
removes one of those functions would silently blank a layer.
"""

import os
import sys
import tracemalloc

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import tpsdvqa.cli  # noqa: E402,F401
from tracing import Tracer  # noqa: E402

# wrapped by the benchmark's video_io.to_float layer, deleted from the library
# with the 3D route
KNOWN_STALE = {"tpsdvqa.video_io:LumaTensor.as_array"}


def test_every_traced_name_exists():
    was_tracing = tracemalloc.is_tracing()
    tracer = Tracer()
    try:
        tracer.install()
        assert set(tracer.absent) <= KNOWN_STALE
    finally:
        tracer.uninstall()
        if not was_tracing:
            tracemalloc.stop()
