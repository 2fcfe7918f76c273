"""Run alternating parent/change pairs of the benchmark and judge a claimed gain.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload train-fuzzy-kan --seeds 1-10 --metric samples_per_s --raw pairs.jsonl
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload train-max-mlp --seeds 1-4 --raw pairs.jsonl    # claims no gain

Each checkout runs its own ``perfbench/run.py`` untraced, from its own root,
so a parent checkout made with ``git worktree`` or ``git archive`` measures
the parent's code with the parent's benchmark.  Pair i runs the parent first
when i is even and the change first when i is odd.  The side that runs first
tends to win its pair by 2-5%, so ``--seeds`` must list an even number of
seeds, which lets each side run first equally often; an odd count is a usage
error.  Every output line of every run is kept in ``--raw`` as one JSON object.

The report lists each pair, then each side's median and quartiles for every
end-to-end metric in the change's ``BENCHMARK.json``, whether the change's
median stays within that metric's bound, and the total failed/attempted.
A metric whose parent runs spread wider than its bound (interquartile range
over |median|) is ``unresolved`` rather than ``ok``, unless every change run
beats every parent run; the verdict line names it, and the exit status does
not depend on it.  A metric that any run of either side reports as null
(perfbench writes null for a non-finite value) counts as worse than its
bound, and the verdict line names it too.
Before the table, one line per side gives the median raw (unscaled) figure
and the median ``speed_scale`` from the runs' details lines, for information
only: a scale that moves between the sides moves the scaled figures with it,
and the verdict does not use these two.  The raw figure is ``--metric``'s when
every details line has one for it (``samples_per_s``, ``batch_ms_p50``,
``batch_ms_tail`` and ``setup_s`` have), and ``samples_per_s`` otherwise.
When the raw and the scaled medians of that figure rank the two sides in
opposite directions, the verdict line ends with "; raw and scaled <figure>
disagree"; the exit status does not depend on it.
The verdict applies the benchmark rule to ``--metric``: the change wins at
least 9 of 10 pairs (ties count for neither side), the medians differ by
more than the parent's interquartile range, no larger share of operations
fails than at the parent, and no end-to-end metric is worse than its
bound.  Fewer than 10 pairs give no verdict ("too few pairs for a
verdict").  The exit status is 0 when the claim holds and 1 when it does
not.  Without ``--metric`` the change claims no gain, and only the last two
rules apply, on any even number of pairs: the verdict is ``NO REGRESSION``
(exit 0) or ``REGRESSION`` (exit 1).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """'1-10', '11,12' or '1-3,7' -> the listed seeds, in order; ValueError for a range that ends below its start."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first, last = int(lo), int(hi or lo)
        if last < first:
            raise ValueError(f"seed range {part!r} ends below its start")
        seeds.extend(range(first, last + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[list[str], dict]:
    """One untraced benchmark run; returns its output lines, which end with the details and the result line, and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def value(result: dict, name: str) -> float:
    """The metric's value; NaN where the run wrote null, as perfbench does for a non-finite value."""
    v = result["metrics"][name]["value"]
    return math.nan if v is None else v


def raw_name(details: dict, metric: str | None) -> str:
    """``metric`` when every run's details line has a raw figure for it, else ``samples_per_s``."""
    rows = [d for side in details.values() for d in side]
    return metric if metric is not None and all(metric in d["raw"] for d in rows) else "samples_per_s"


def raw_figures(details: dict, name: str) -> list[str]:
    """Each side's median raw ``name`` and median speed scale, from its runs' details lines; for information only."""
    lines = []
    for side, rows in details.items():
        raw = statistics.median(d["raw"][name] for d in rows)
        scale = statistics.median(d["speed_scale"]["median"] for d in rows)
        lines.append(f"{side}: raw {name} median {raw:.4g}, speed_scale median {scale:.4g} (information only)")
    return lines


def raw_and_scaled_disagree(details: dict, results: dict, name: str) -> bool:
    """Do the median raw and the median scaled ``name`` rank the change against the parent in opposite directions?"""
    raw = {side: statistics.median(d["raw"][name] for d in rows) for side, rows in details.items()}
    scaled = {side: statistics.median(value(r, name) for r in rows) for side, rows in results.items()}
    return (raw["change"] - raw["parent"]) * (scaled["change"] - scaled["parent"]) < 0


def better(a: float, b: float, direction: str) -> bool:
    """Is a strictly better than b?"""
    return a > b if direction == "higher" else a < b


def report(results: dict, metrics: dict, claim: str | None = None) -> tuple[list[str], bool]:
    """Judge the claimed gain in ``claim``, or no regression, on paired results; no benchmark runs.

    ``results`` maps "parent" and "change" to their result dicts, pair i of
    each side at index i; ``metrics`` maps each end-to-end metric's name to its
    BENCHMARK.json entry.  Returns the report lines and whether the verdict
    passes: no larger failed share and no end-to-end metric worse than its
    bound, and for a claim also at least MIN_PAIRS pairs, the change winning
    WIN_SHARE of them, and a median gap wider than the parent's IQR.
    """
    lines = [f"{'metric':16s} {'unit':5s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'ratio':>7s}  bound"]
    worse_metrics, unresolved, nulls = [], [], []
    for name, spec in metrics.items():
        values = {s: [value(r, name) for r in results[s]] for s in results}
        null = any(math.isnan(v) for side in values.values() for v in side)
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(values["parent"]), quartiles(values["change"])
        worse = (pm - cm if spec["better"] == "higher" else cm - pm) / abs(pm) if pm else 0.0
        spread = (pq3 - pq1) / abs(pm) if pm else 0.0
        every_change_run_wins = all(better(c, p, spec["better"]) for c in values["change"] for p in values["parent"])
        if null or worse > spec["bound"]:
            worse_metrics.append(name)
            status = "WORSE"
            if null:
                nulls.append(name)
                status += ", null in a run"
        elif spread > spec["bound"] and not every_change_run_wins:
            unresolved.append(name)
            status = "unresolved"
        else:
            status = "ok"
        lines.append(f"{name:16s} {spec['unit']:5s} {pm:12.4g} [{pq1:8.4g}, {pq3:8.4g}] {cm:12.4g} [{cq1:8.4g}, {cq3:8.4g}] "
                     f"{cm / pm if pm else float('nan'):7.3f}  {status} (bound {spec['bound']:g})")
    failed_share = {}
    for side, rows in results.items():
        failed, attempted = sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows)
        failed_share[side] = failed / attempted if attempted else 1.0
        lines.append(f"{side}: failed {failed} of {attempted} attempted")

    more_failures = failed_share["change"] > failed_share["parent"]
    lines.append("")
    gain = True
    if claim is not None:
        direction = metrics[claim]["better"]
        pairs = list(zip(results["parent"], results["change"]))
        wins = sum(better(value(c, claim), value(p, claim), direction) for p, c in pairs)
        pq1, pm, pq3 = quartiles([value(r, claim) for r in results["parent"]])
        _, cm, _ = quartiles([value(r, claim) for r in results["change"]])
        gap = cm - pm if direction == "higher" else pm - cm
        lines.append(f"{claim}: change wins {wins} of {len(pairs)} pairs; median gap {gap:.4g} against parent IQR {pq3 - pq1:.4g}")
        if len(pairs) < MIN_PAIRS:
            lines.append(f"too few pairs for a verdict: {len(pairs)}, at least {MIN_PAIRS} needed")
        gain = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > pq3 - pq1
    if more_failures:
        lines.append("a larger share of operations failed than at the parent")
    if worse_metrics:
        lines.append(f"worse than its bound: {', '.join(worse_metrics)}")
    ok = gain and not more_failures and not worse_metrics
    passed, failed = ("NO REGRESSION", "REGRESSION") if claim is None else ("CLAIM MET", "CLAIM NOT MET")
    verdict = passed if ok else failed
    if nulls:
        verdict += f"; null: {', '.join(nulls)}"
    if unresolved:
        verdict += f"; unresolved: {', '.join(unresolved)}"
    return lines + [verdict], ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 11,12")
    parser.add_argument("--metric", help="the end-to-end metric the change claims (omit to claim no gain)")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--raw", type=Path, required=True, help="JSON-lines file for every raw output line")
    args = parser.parse_args(argv)
    if len(args.seeds) % 2:
        parser.error(f"--seeds must list an even number of seeds, so each side runs first equally often; got {len(args.seeds)}")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.metric is not None and args.metric not in metrics:
        parser.error(f"--metric must be one of {', '.join(metrics)}")
    shown = args.metric or next(iter(metrics))  # the metric each pair's line compares
    direction = metrics[shown]["better"]
    seconds = args.seconds or bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    details = {"parent": [], "change": []}

    with args.raw.open("a") as raw:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                lines, result = run_once(sides[side], args.workload, seed, seconds)
                results[side].append(result)
                details[side].append(json.loads(lines[-2]))
                for line in lines:
                    record = {"pair": i, "seed": seed, "side": side, "first": order[0], "line": line}
                    raw.write(json.dumps(record) + "\n")
                raw.flush()
            p = value(results["parent"][-1], shown)
            c = value(results["change"][-1], shown)
            winner = "change wins" if better(c, p, direction) else "parent wins" if better(p, c, direction) else "tie"
            ratio = c / p if p else float("nan")
            print(f"pair {i + 1:2d}  seed {seed:3d}  {order[0]} first  {shown}  "
                  f"parent {p:10.4g}  change {c:10.4g}  ({ratio:.3f}x)  {winner}", flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs of {seconds:g} s runs")
    name = raw_name(details, args.metric)
    print("\n".join(raw_figures(details, name)))
    lines, met = report(results, metrics, args.metric)
    if raw_and_scaled_disagree(details, results, name):
        lines[-1] += f"; raw and scaled {name} disagree"
    print("\n".join(lines))
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
