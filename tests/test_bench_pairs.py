"""The verdict of tools/bench_pairs.py on canned results; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "samples_per_s": {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
}


def result(samples_per_s, peak_rss_mb=100.0, failed=0):
    return {
        "failed": failed,
        "attempted": 1000,
        "metrics": {"samples_per_s": {"value": samples_per_s}, "peak_rss_mb": {"value": peak_rss_mb}},
    }


def pairs(count, change_rss=100.0):
    return {
        "parent": [result(500.0 + i) for i in range(count)],
        "change": [result(600.0 + i, change_rss) for i in range(count)],
    }


def test_clear_gain_over_ten_pairs_is_met():
    lines, met = bench_pairs.report(pairs(10), METRICS, "samples_per_s")
    assert met
    assert lines[-1] == "CLAIM MET"


def test_too_few_pairs_give_no_verdict():
    for count in (1, 5, 9):
        lines, met = bench_pairs.report(pairs(count), METRICS, "samples_per_s")
        assert not met
        assert any(line.startswith("too few pairs for a verdict") for line in lines)
        assert lines[-1] == "CLAIM NOT MET"


def test_metric_worse_than_its_bound_fails_the_verdict():
    lines, met = bench_pairs.report(pairs(10, change_rss=120.0), METRICS, "samples_per_s")
    assert not met
    assert any(line.startswith("peak_rss_mb") and "WORSE" in line for line in lines)
    assert "worse than its bound: peak_rss_mb" in lines
    assert lines[-1] == "CLAIM NOT MET"


def test_metric_within_its_bound_does_not_fail_the_verdict():
    _, met = bench_pairs.report(pairs(10, change_rss=105.0), METRICS, "samples_per_s")
    assert met


def test_larger_failed_share_fails_the_verdict():
    results = pairs(10)
    results["change"][3] = result(603.0, failed=1)
    lines, met = bench_pairs.report(results, METRICS, "samples_per_s")
    assert not met
    assert "a larger share of operations failed than at the parent" in lines


def test_eight_wins_of_ten_is_not_met():
    results = pairs(10)
    results["change"][0] = result(400.0)
    results["change"][1] = result(400.0)
    _, met = bench_pairs.report(results, METRICS, "samples_per_s")
    assert not met


def test_no_claim_passes_on_few_pairs_without_a_gain():
    results = {"parent": [result(500.0 + i) for i in range(3)], "change": [result(499.0 + i) for i in range(3)]}
    lines, ok = bench_pairs.report(results, METRICS)
    assert ok
    assert lines[-1] == "NO REGRESSION"
    assert not any(line.startswith("too few pairs") for line in lines)


def test_no_claim_fails_on_a_metric_worse_than_its_bound():
    lines, ok = bench_pairs.report(pairs(3, change_rss=120.0), METRICS)
    assert not ok
    assert "worse than its bound: peak_rss_mb" in lines
    assert lines[-1] == "REGRESSION"


def test_no_claim_fails_on_a_larger_failed_share():
    results = pairs(3)
    results["change"][1] = result(601.0, failed=1)
    lines, ok = bench_pairs.report(results, METRICS)
    assert not ok
    assert "a larger share of operations failed than at the parent" in lines
    assert lines[-1] == "REGRESSION"


def test_no_claim_slower_within_its_bound_passes():
    results = {"parent": [result(500.0 + i) for i in range(3)], "change": [result(400.0 + i) for i in range(3)]}
    _, ok = bench_pairs.report(results, METRICS)
    assert ok  # 20% slower, inside samples_per_s's 25% bound


def test_parent_spread_wider_than_the_bound_is_unresolved():
    results = pairs(3)
    for run, rss in zip(results["parent"], (80.0, 100.0, 120.0)):  # IQR 20 over median 100: wider than 0.1
        run["metrics"]["peak_rss_mb"]["value"] = rss
    lines, ok = bench_pairs.report(results, METRICS)
    assert ok  # the exit status does not depend on it
    assert any(line.startswith("peak_rss_mb") and "unresolved (bound 0.1)" in line for line in lines)
    assert any(line.startswith("samples_per_s") and "ok (bound 0.25)" in line for line in lines)
    assert lines[-1] == "NO REGRESSION; unresolved: peak_rss_mb"


def test_wide_parent_spread_is_resolved_when_every_change_run_wins():
    results = pairs(3, change_rss=79.0)
    for run, rss in zip(results["parent"], (80.0, 100.0, 120.0)):
        run["metrics"]["peak_rss_mb"]["value"] = rss
    lines, ok = bench_pairs.report(results, METRICS)
    assert ok
    assert any(line.startswith("peak_rss_mb") and "ok (bound 0.1)" in line for line in lines)
    assert lines[-1] == "NO REGRESSION"


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("claim", [None, "samples_per_s"])
def test_null_metric_counts_as_worse(side, claim):
    name = claim or "peak_rss_mb"
    results = pairs(10)
    results[side][4]["metrics"][name]["value"] = None  # a non-finite value, as perfbench writes it
    lines, ok = bench_pairs.report(results, METRICS, claim)
    assert not ok
    assert any(line.startswith(name) and "WORSE, null in a run" in line for line in lines)
    assert f"worse than its bound: {name}" in lines
    assert lines[-1] == ("REGRESSION" if claim is None else "CLAIM NOT MET") + f"; null: {name}"


def test_descending_seed_range_is_a_usage_error(tmp_path, capsys):
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    with pytest.raises(ValueError, match="'3-1'"):
        bench_pairs.parse_seeds("3-1")
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "train-fuzzy-kan",
            "--seeds", "3-1", "--raw", str(tmp_path / "pairs.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "pairs.jsonl").exists()


def test_odd_number_of_seeds_is_a_usage_error(tmp_path, capsys):
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "train-fuzzy-kan",
            "--seeds", "1-3", "--raw", str(tmp_path / "pairs.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seeds must list an even number of seeds" in err and err.rstrip().endswith("got 3")
    assert not (tmp_path / "pairs.jsonl").exists()


P50 = {"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}


def run_canned(tmp_path, monkeypatch, runs, capsys, metric=None, status=0):
    """``main`` on two pairs whose runs give ``runs[side]``'s (raw samples/s, speed scale) in turn; its stdout lines.

    A raw samples/s of r gives a raw batch_ms_p50 of 1000 / r; the scaled figures are r * scale and 1000 / (r * scale).
    """
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    end_to_end = [*METRICS.values(), P50]
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": end_to_end}))
    runs = {side: iter(figures) for side, figures in runs.items()}

    def canned(checkout, workload, seed, seconds):
        side = "parent" if checkout.name == "parent" else "change"
        raw, scale = next(runs[side])
        details = {"raw": {"samples_per_s": raw, "batch_ms_p50": 1000.0 / raw}, "speed_scale": {"median": scale}}
        line = result(raw * scale)
        line["metrics"]["batch_ms_p50"] = {"value": 1000.0 / (raw * scale)}
        return [json.dumps(details), json.dumps(line)], line

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "train-max-mlp",
            "--seeds", "1-2", "--raw", str(tmp_path / "pairs.jsonl")] + ([] if metric is None else ["--metric", metric])
    assert bench_pairs.main(argv) == status
    return capsys.readouterr().out.splitlines()


# the change runs at the parent's raw speed while the speed probe reads it 10% faster
# (a higher scale), so only its scaled figures move: the raw lines show where it came from
PROBE_SWING = {"parent": [(500.0, 1.0), (510.0, 1.02)], "change": [(505.0, 1.1), (495.0, 1.12)]}


def test_raw_figures_are_shown_and_leave_the_verdict_alone(tmp_path, monkeypatch, capsys):
    out = run_canned(tmp_path, monkeypatch, PROBE_SWING, capsys)
    assert "parent: raw samples_per_s median 505, speed_scale median 1.01 (information only)" in out
    assert "change: raw samples_per_s median 500, speed_scale median 1.11 (information only)" in out
    assert out[-1] == "NO REGRESSION; raw and scaled samples_per_s disagree"  # raw 505 > 500, scaled 510 < 555


def test_raw_and_scaled_that_agree_add_nothing_to_the_verdict(tmp_path, monkeypatch, capsys):
    # the change is slower raw and scaled alike (scaled 510 against 492.5), within the bound
    runs = {"parent": [(500.0, 1.0), (510.0, 1.02)], "change": [(495.0, 1.0), (490.0, 1.0)]}
    assert run_canned(tmp_path, monkeypatch, runs, capsys)[-1] == "NO REGRESSION"


def test_raw_figures_follow_the_claimed_metric(tmp_path, monkeypatch, capsys):
    # two pairs are too few for a claim, so the verdict fails; the raw lines and the note name batch_ms_p50
    out = run_canned(tmp_path, monkeypatch, PROBE_SWING, capsys, metric="batch_ms_p50", status=1)
    parent_p50, change_p50 = 1000.0 / 505.0, 1000.0 / 500.0  # the medians of 1000 / raw
    assert f"parent: raw batch_ms_p50 median {parent_p50:.4g}, speed_scale median 1.01 (information only)" in out
    assert f"change: raw batch_ms_p50 median {change_p50:.4g}, speed_scale median 1.11 (information only)" in out
    assert out[-1] == "CLAIM NOT MET; raw and scaled batch_ms_p50 disagree"


def test_metric_without_a_raw_figure_shows_samples_per_s(tmp_path, monkeypatch, capsys):
    out = run_canned(tmp_path, monkeypatch, PROBE_SWING, capsys, metric="peak_rss_mb", status=1)
    assert "parent: raw samples_per_s median 505, speed_scale median 1.01 (information only)" in out
    assert out[-1] == "CLAIM NOT MET; raw and scaled samples_per_s disagree"
