"""Benchmark of the tpsdvqa CLI: end-to-end figures, or per-layer figures with --trace 1.

    python3 benchmark/run.py --workload score-720p --seed 1 --seconds 30 --trace 0

The fixture set of the workload and seed is made first (or taken from the
cache) together with its independent reference, in a separate process and
outside every timed run. Then each repetition runs the CLI, as a user would
type it, in a fresh process (``child.py``), for as many whole repetitions as
fit in ``--seconds``. With ``--trace 0`` three import-only launches precede
each repetition and give the set-up samples. Every repetition's records are
checked against the reference and the method's properties (``checks.py``),
and their non-timing lines must be byte-identical from repetition to
repetition.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
``frame_pairs_per_s`` (frame pairs scored per second of the CLI call),
``peak_rss_mb`` (peak resident memory of that process), each the median
over the repetitions, and ``setup_s`` (launch until ``tpsdvqa.cli`` and
numpy/scipy are imported), the median over the import-only launches. With
``--trace 1`` repetitions alternate untraced and traced (``tracing.py``);
the line holds the per-layer metrics, medians over the traced repetitions,
and ``trace.overhead_s``, the traced minus the untraced median wall time.
Details land in ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
from fixtures import WORKLOADS
from reference import tensor_bounds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")
# import-only launches before each repetition; they alone give setup_s
PROBES_PER_REP = 3
# about four times the slowest repetition measured (16 s), and short enough
# that a run with one hung repetition still ends within three minutes
CHILD_TIMEOUT_S = 60
# One thread in every library pool, so that no idle BLAS thread spins on the
# second core of a small shared machine; the program's own config is untouched.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def cli_argv(meta: dict, set_dir: str) -> list[str]:
    """The CLI arguments a user would type for this fixture set."""
    if meta["command"] == "evaluate":
        return ["evaluate", "--manifest", os.path.join(set_dir, meta["manifest"]), *meta["flags"]]
    pair = meta["pairs"][0]
    return ["score", "--ref", os.path.join(set_dir, pair["ref"]),
            "--dist", os.path.join(set_dir, pair["dist"]),
            "--width", str(meta["width"]), "--height", str(meta["height"]), *meta["flags"]]


def frame_pairs(meta: dict) -> int:
    """Reference/distorted frame pairs one CLI call scores."""
    used = tensor_bounds(meta["frames"], meta["tensor_frames"])[-1][1] + 1
    return used * len(meta["pairs"])


def launch(argv: list[str], trace: bool, tag: str) -> dict:
    """Run child.py once; return its measurements and the CLI's stdout.

    A launch that fails or times out returns ``exit_code`` other than 0 and
    no measurements.
    """
    result_path = os.path.join(OUT_DIR, f"{tag}.result.json")
    records_path = os.path.join(OUT_DIR, f"{tag}.records.jsonl")
    with open(records_path, "w", encoding="utf-8") as out, \
            open(os.path.join(OUT_DIR, f"{tag}.stderr.txt"), "w", encoding="utf-8") as err:
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, repr(launched), result_path, "1" if trace else "0",
                 "--", *argv],
                stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "records": ""}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"exit_code": proc.returncode, "records": ""}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.setdefault("exit_code", 0)  # an import-only launch has no CLI exit code
    with open(records_path, encoding="utf-8") as fh:
        result["records"] = fh.read()
    return result


def prepare(workload: str, seed: int) -> tuple[str, dict, dict]:
    """Make or reuse the fixture set in its own process; load its description and reference."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "fixtures.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"fixture set-up failed for {workload} seed {seed}")
    set_dir = proc.stdout.strip().splitlines()[-1]
    with open(os.path.join(set_dir, "fixture.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(set_dir, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return set_dir, meta, ref


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    set_dir, meta, ref = prepare(workload, seed)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    argv = cli_argv(meta, set_dir)
    check = checks.check_score if meta["command"] == "score" else checks.check_evaluate
    ops = len(ref["pairs"][0]["deficits"]) if meta["command"] == "score" else len(meta["pairs"])
    pairs = frame_pairs(meta)

    setups: list[float] = []
    probes = 0
    reps: list[dict] = []
    first_lines: list[str] | None = None
    problems: list[str] = []
    failed = 0
    started = time.monotonic()
    while True:
        for _ in range(0 if trace else PROBES_PER_REP):
            probe = launch([], False, f"probe{probes}")
            probes += 1
            if probe.get("exit_code") == 0:
                setups.append(probe["setup_s"])
            else:
                problems.append(f"probe {probes - 1}: import-only launch exited "
                                f"{probe.get('exit_code')} (None: timed out)")
        traced = trace and len(reps) % 2 == 1
        rep = launch(argv, traced, f"rep{len(reps)}")
        rep["traced"] = traced
        reps.append(rep)
        bad: set[int] = set(range(ops))
        if rep.get("exit_code") == 0:
            lines, records = checks.split_records(rep["records"])
            if first_lines is None:
                first_lines = lines
            if lines != first_lines:
                problems.append(f"rep {len(reps) - 1}: non-timing records differ from rep 0")
            else:
                bad, found = check(records, meta, ref)
                problems += [f"rep {len(reps) - 1}: {p}" for p in found]
        else:
            problems.append(f"rep {len(reps) - 1}: CLI process exited {rep.get('exit_code')} "
                            "(None: timed out)")
        failed += len(bad)
        elapsed = time.monotonic() - started
        whole_round = not trace or len(reps) % 2 == 0
        if whole_round and elapsed + elapsed / len(reps) * (2 if trace else 1) > seconds:
            break

    good = [r for r in reps if r.get("exit_code") == 0]
    plain = [r for r in good if not r["traced"]]
    if trace:
        traced = [r for r in good if r["traced"]]
        layers = [tracing.layer_metrics(r["spans"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        if traced and plain:
            metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                           - statistics.median(r["wall_s"] for r in plain))
        if traced:
            with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(tracing.chrome_trace(traced[-1]["spans"]), fh)
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(json.dumps({"absent": absent}))
        units = {**tracing.LAYER_UNITS, "trace.overhead_s": "s"}
    else:
        metrics = {
            "frame_pairs_per_s": statistics.median(pairs / r["wall_s"] for r in plain) if plain else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
        units = {"frame_pairs_per_s": "pairs/s", "peak_rss_mb": "MB", "setup_s": "s"}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": argv, "frame_pairs_per_rep": pairs, "ops_per_rep": ops,
        "setup_samples": setups, "problems": problems,
        "reps": [{k: v for k, v in r.items() if k not in ("records", "spans")} for r in reps],
    }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    line = {
        "correct": not problems,
        "attempted": ops * len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    return line, len(reps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "tpsdvqa")):
        print(f"error: no tpsdvqa sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    line, reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{reps} repetition(s), {line['failed']}/{line['attempted']} operations failed",
          file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
