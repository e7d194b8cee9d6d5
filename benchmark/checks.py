"""Checks of the CLI's records against the independent route and the method's properties.

Nothing is compared with a stored copy of earlier output. Each check
returns the indices of the operations (tensors for ``score``, manifest
entries for ``evaluate``) whose output is wrong, with one message per
problem; a problem in a summary record fails every operation of the run.
"""

from __future__ import annotations

import json

from reference import tensor_bounds

# A score near 1 is the mean of ~1e6 map values; pairwise summation bounds
# that mean's rounding error by about eps * log2(2.07e6 bins) = 2.3e-15.
# The routes agreed to within 3.3e-16 on every fixture measured.
SCORE_TOL = 4e-15
# PSNR: the squared error is a sum of integers, exact in both routes.
PSNR_RTOL = 1e-12
# Correlations recomputed by scipy.stats from the emitted records.
CORR_TOL = 1e-9


def split_records(text: str) -> tuple[list[str], list[dict]]:
    """Non-timing lines (for the byte-identity check) and all parsed records."""
    lines = [line for line in text.splitlines() if line]
    records = [json.loads(line) for line in lines]
    stable = [line for line, rec in zip(lines, records) if rec.get("record") != "timing"]
    return stable, records


def _score_ok(score, deficit: float) -> bool:
    return (
        isinstance(score, float)
        and -1.0 <= score < 1.0
        and abs(score - (1.0 - deficit)) <= SCORE_TOL
    )


def check_score(records: list[dict], meta: dict, ref: dict) -> tuple[set[int], list[str]]:
    """Tensor records and the summary of one ``tpsdvqa score`` run."""
    deficits = ref["pairs"][0]["deficits"]
    bounds = tensor_bounds(meta["frames"], meta["tensor_frames"])
    every = set(range(len(bounds)))
    tensors = [r for r in records if r.get("record") == "tensor"]
    summaries = [r for r in records if r.get("record") == "summary"]
    failed: set[int] = set()
    problems: list[str] = []
    if len(tensors) != len(bounds) or len(summaries) != 1:
        return every, [f"{len(tensors)} tensor and {len(summaries)} summary records, "
                       f"expected {len(bounds)} and 1"]
    for i, (rec, (lo, hi), d) in enumerate(zip(tensors, bounds, deficits)):
        want = {"index": i, "frame_start": lo, "frame_end": hi, "depth": hi - lo + 1}
        got = {k: rec.get(k) for k in want}
        if got != want:
            failed.add(i)
            problems.append(f"tensor {i}: {got} != {want}")
        if not _score_ok(rec.get("score"), d):
            failed.add(i)
            problems.append(f"tensor {i}: score {rec.get('score')!r} vs reference {1.0 - d!r}")
    s = summaries[0]
    want = {"tensor_count": len(bounds), "frames_total": meta["frames"],
            "frames_used": bounds[-1][1] + 1, "width": meta["width"], "height": meta["height"]}
    got = {k: s.get(k) for k in want}
    if got != want:
        problems.append(f"summary: {got} != {want}")
        failed = every
    mean_deficit = sum(deficits) / len(deficits)
    if not _score_ok(s.get("video_score"), mean_deficit):
        problems.append(f"summary: video_score {s.get('video_score')!r} "
                        f"vs reference {1.0 - mean_deficit!r}")
        failed = every
    return failed, problems


def _correlations(stats, rows: list[tuple[float, float]]) -> tuple[float | None, float | None]:
    xs = [x for x, _ in rows]
    ys = [y for _, y in rows]
    if len(rows) < 2 or len(set(xs)) < 2 or len(set(ys)) < 2:
        return None, None
    return float(stats.pearsonr(xs, ys)[0]), float(stats.spearmanr(xs, ys)[0])


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= CORR_TOL


def _check_report(stats, block: dict, rows: list[tuple[str, float, float]], label: str) -> list[str]:
    problems = []
    pcc, scc = _correlations(stats, [(x, y) for _, x, y in rows])
    if not (_close(block.get("pcc"), pcc) and _close(block.get("scc"), scc)):
        problems.append(f"{label}: pcc/scc {block.get('pcc')}/{block.get('scc')} vs scipy {pcc}/{scc}")
    tags = sorted({tag for tag, _, _ in rows})
    if sorted(block.get("per_tag", {})) != tags:
        return problems + [f"{label}: tags {sorted(block.get('per_tag', {}))} != {tags}"]
    for tag in tags:
        group = [(x, y) for t, x, y in rows if t == tag]
        pcc, scc = _correlations(stats, group)
        got = block["per_tag"][tag]
        if not (_close(got.get("pcc"), pcc) and _close(got.get("scc"), scc) and got.get("n") == len(group)):
            problems.append(f"{label} {tag}: {got} vs scipy {pcc}/{scc} n={len(group)}")
    return problems


def check_evaluate(records: list[dict], meta: dict, ref: dict) -> tuple[set[int], list[str]]:
    """Entry records and the summary of one ``tpsdvqa evaluate`` run."""
    from scipy import stats

    pairs = meta["pairs"]
    every = set(range(len(pairs)))
    entries = [r for r in records if r.get("record") == "entry"]
    summaries = [r for r in records if r.get("record") == "summary"]
    if len(entries) != len(pairs) or len(summaries) != 1:
        return every, [f"{len(entries)} entry and {len(summaries)} summary records, "
                       f"expected {len(pairs)} and 1"]
    failed: set[int] = set()
    problems: list[str] = []
    for i, (rec, pair, fig) in enumerate(zip(entries, pairs, ref["pairs"])):
        if rec.get("index") != i or rec.get("tag") != pair["family"] or rec.get("dmos") != pair["dmos"]:
            failed.add(i)
            problems.append(f"entry {i}: index/tag/dmos {rec.get('index')}/{rec.get('tag')}/"
                            f"{rec.get('dmos')} != {i}/{pair['family']}/{pair['dmos']}")
        if rec.get("error") is not None:
            failed.add(i)
            problems.append(f"entry {i}: {rec.get('error')}: {rec.get('error_message')}")
            continue
        if not _score_ok(rec.get("score"), fig["deficits"][0]):
            failed.add(i)
            problems.append(f"entry {i}: score {rec.get('score')!r} vs reference "
                            f"{1.0 - fig['deficits'][0]!r}")
        psnr = rec.get("psnr_db")
        if not isinstance(psnr, float) or abs(psnr - fig["psnr_db"]) > PSNR_RTOL * abs(fig["psnr_db"]):
            failed.add(i)
            problems.append(f"entry {i}: psnr_db {psnr!r} vs reference {fig['psnr_db']!r}")
    if failed:
        return failed, problems

    groups: dict[tuple[int, str], list[tuple[float, float, int]]] = {}
    for i, (rec, pair) in enumerate(zip(entries, pairs)):
        groups.setdefault((pair["reference_index"], pair["family"]), []).append(
            (pair["level"], rec["score"], i))
    for (r, family), rows in sorted(groups.items()):
        scores = [score for _, score, _ in sorted(rows)]
        if any(a <= b for a, b in zip(scores, scores[1:])):
            failed.update(i for _, _, i in rows)
            problems.append(f"reference {r} {family}: scores {scores} do not fall as the level rises")

    s = summaries[0]
    summary_problems = []
    if s.get("n") != len(pairs) or s.get("entries") != len(pairs):
        summary_problems.append(f"summary: n/entries {s.get('n')}/{s.get('entries')} != {len(pairs)}")
    for key, column in (("metric", "score"), ("psnr_baseline", "psnr_db")):
        rows = [(rec["tag"], rec[column], rec["dmos"]) for rec in entries]
        summary_problems += _check_report(stats, s.get(key, {}), rows, key)
    if summary_problems:
        failed = every
    return failed, problems + summary_problems
