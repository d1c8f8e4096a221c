"""The benchmark's own tests: tiny workloads end to end, and the gates.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seconds", "0",
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc, proc.stdout.strip().splitlines()


def test_every_tiny_workload_runs_and_passes(tmp_path):
    proc, lines = bench("--tiny", "--trace", "0", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = json.loads(lines[-1])
    assert verdict["correct"] and verdict["failed"] == 0
    assert verdict["attempted"] == 4 * run.MIN_RUNS
    for name in run.workloads.WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            value = verdict["metrics"][f"{name}/{metric}"]
            assert value["unit"] == unit and value["value"] > 0
    assert "slo_violating_cells 0 [count]" in proc.stdout
    results = json.loads((tmp_path / "fig4-grid-seed0-trace0-tiny.json")
                         .read_text())
    assert results["provenance"]["nproc"] >= 1
    assert len(results["digests"]) == 1


@pytest.mark.parametrize("workload", ["sched-backlog-1k", "fig4-grid"])
def test_traced_pass_reports_every_layer(tmp_path, workload):
    proc, lines = bench("--tiny", "--trace", "1", "--workload", workload,
                        "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = json.loads(lines[-1])
    # Untraced and traced runs alternate; one digest across all of them.
    assert verdict["correct"] and verdict["attempted"] == 4
    metrics = verdict["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["sim.ticks"]["value"] > 0
    assert metrics["sim.build_s"]["value"] > 0
    layer = "sched.place_calls" if workload == "sched-backlog-1k" \
        else "core.steps"
    assert metrics[layer]["value"] > 0
    assert "self time by span" in proc.stdout
    assert list(tmp_path.glob("*.spans.json.gz"))


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "fleet-day-1k", cwd=tmp_path,
                        script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_a_corrupted_run_counts_as_failed(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE.parent / "src" / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / "fleet" / "simulator.py"
    source = target.read_text()
    line = '"fleet_emu": self.telemetry.mean_fleet_emu(skip_s=skip_s),'
    assert line in source
    target.write_text(source.replace(line, '"fleet_emu": float("nan"),'))
    proc, lines = bench("--tiny", "--trace", "0", "--workload",
                        "fleet-day-1k", cwd=tmp_path,
                        script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 1
    verdict = json.loads(lines[-1])
    assert not verdict["correct"]
    assert verdict["failed"] == verdict["attempted"] == run.MIN_RUNS
    assert "fleet.fleet_emu is not finite" in proc.stdout


def good_summary():
    """A well-formed summary with a schedule and a Figure 4 sweep."""
    return {
        "scenario": "s", "kind": "schedule", "seed": 7,
        "fleet": {"fleet_emu": 0.8, "clusters": {"web": {
            "mean_emu": 0.7, "root_slo_ms": 16.5,
            "worst_window_slo": 0.9}}},
        "schedule": {"jobs": 10, "completed": 6, "rejected": 1,
                     "evictions": 3, "goodput_core_h": 5.0,
                     "credited_core_h": 6.0, "harvested_core_h": 6.0},
        "sweeps": {"websearch": {"loads": [0.5], "baseline_slo": [0.3],
                                 "worst_window_slo": {"brain": [0.8]}}},
    }


def test_check_accepts_a_good_summary():
    assert check.problems(good_summary(), "schedule") == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda s: s["fleet"].update(fleet_emu=math.nan), "not finite"),
    (lambda s: s["schedule"].update(completed=10), "completed"),
    (lambda s: s["schedule"].update(goodput_core_h=6.5), "goodput"),
    (lambda s: s["schedule"].update(credited_core_h=7.0), "credited"),
    (lambda s: s["fleet"]["clusters"]["web"].update(mean_emu=2.5),
     "outside [0, 2]"),
    (lambda s: s["sweeps"]["websearch"]["baseline_slo"].__setitem__(0, -1),
     "negative"),
])
def test_check_fails_a_corrupted_summary(corrupt, expected):
    summary = good_summary()
    corrupt(summary)
    found = check.problems(summary, "schedule")
    assert any(expected in problem for problem in found), found


def test_check_fails_a_violating_figure4_cell():
    summary = good_summary()
    summary["kind"] = "sweep"
    summary["sweeps"]["websearch"]["worst_window_slo"]["brain"] = [1.02]
    assert check.violating_cells(summary) == 1
    assert check.problems(summary, "sweep")


def test_digest_is_key_order_independent_and_value_sensitive():
    a = good_summary()
    b = json.loads(json.dumps(a, sort_keys=True))
    assert check.digest(a) == check.digest(b)
    b["fleet"]["fleet_emu"] = 0.8000000000000002
    assert check.digest(a) != check.digest(b)


def test_self_time_subtracts_direct_children():
    span_list = [("run", 0.0, 10.0, -1, 0.0), ("build", 1.0, 4.0, 0, 0.0),
                 ("profile", 2.0, 3.0, 1, 0.0), ("tick", 5.0, 6.0, 0, 3.0)]
    assert spans.self_times(span_list) == {
        "run": 6.0, "build": 2.0, "profile": 1.0, "tick": 1.0}
    assert spans.totals(span_list, "tick") == (1, 1.0, 3.0)


def test_tracer_records_nesting():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, _, _, outer_parent, _), (inner, _, _, inner_parent, _) = \
        tracer.spans
    assert (outer, outer_parent, inner, inner_parent) == \
        ("outer", -1, "inner", 0)


def test_tracer_notes_a_missing_boundary():
    class Program:
        pass

    tracer = spans.Tracer()
    tracer.wrap(Program, "renamed_away", "layer")
    assert tracer.missing == ["Program.renamed_away"]


def test_tick_tail_leaves_ten_ticks_beyond():
    value, pct = child.tick_tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert child.tick_tail([3.0, 1.0]) == (3.0, 100.0)


def test_scaling_to_the_reference_pace():
    record = {"raw_metrics": {"run_s": 4.0, "setup_s": 0.5,
                              "leaf_ticks_per_s": 1000.0,
                              "peak_rss_mb": 90.0}}
    # A host twice as slow as the reference halves the times.
    run.scale(record, 2 * run.pace_module.REFERENCE_S)
    assert record["metrics"] == {"run_s": 2.0, "setup_s": 0.25,
                                 "leaf_ticks_per_s": 2000.0,
                                 "peak_rss_mb": 90.0}
    assert run.pace_module.pace_s() > 0


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == \
        list(run.workloads.WORKLOADS)
    for entry in doc["workloads"]:
        workload = run.workloads.WORKLOADS[entry["name"]]
        assert (f"default seed {workload.default_seed}, held-out seed "
                f"{workload.held_out_seed}") in entry["why"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.PER_LAYER
