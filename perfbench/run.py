"""The repository benchmark: cold runs of fixed workloads, checked.

Run from the repository root::

    python3 perfbench/run.py          # every workload, both passes
    python3 perfbench/run.py --workload fleet-day-1k --seed 7 \\
        --seconds 30 --trace 0

Each measured run is a fresh interpreter (``child.py``) with every
``REPRO_*`` variable cleared and ``REPRO_JOBS=1`` set, running one
workload in-process; runs follow one another, never overlap.  Runs
repeat until ``--seconds`` is spent (at least :data:`MIN_RUNS`), and
every metric is the median over runs.  The host's pace is measured on a
fixed reference workload around every run (``pace.py``), and the
end-to-end timings are scaled to the reference pace, so that a slow
minute on a shared host does not read as a slower program; the raw
timings are printed beside them.  Every run's output is checked
(``check.py``) and its summary digest must equal every other run's of
the same workload and seed; a run that raises or fails the check counts
as failed and is never retried.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced runs with traced ones (``REPRO_PROFILE=1`` plus spans around
every layer boundary) and prints the per-layer metrics, the tracing
overhead and the layer-sum reconciliation; without ``--trace`` each
workload gets both passes.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value", "unit"}}``; keyed ``<workload>/<name>`` unless a
single pass of a single workload ran).

Results (per-run records, provenance, span dumps) go only to
``--out-dir`` (default ``.perfbench-out/`` at the repository root).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace as pace_module  # noqa: E402
import workloads  # noqa: E402

#: Fewest untraced runs a measurement takes, however long they are.
MIN_RUNS = 3
#: Fewest traced (and untraced) runs of a ``--trace 1`` measurement.
MIN_TRACED_RUNS = 2
#: No run starts that would, at the median pace, end after this; with
#: :data:`RUN_TIMEOUT_S` it keeps an invocation well under 180 s.
HARD_LIMIT_S = 100.0
#: Kill a run that takes longer than this.
RUN_TIMEOUT_S = 60.0

#: End-to-end metrics: name -> unit.
END_TO_END = {"run_s": "s", "setup_s": "s", "leaf_ticks_per_s":
              "leaf-ticks/s", "peak_rss_mb": "MiB"}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "repro.import_s": "s", "scenarios.compile_s": "s",
    "sim.dram_profile_s": "s", "sim.dram_profile_calls": "count",
    "sim.dram_profile_hit_ratio": "fraction", "fleet.slo_targets_s": "s",
    "sim.build_s": "s", "sim.build_us_per_leaf": "us", "sim.ipc_s": "s",
    "sim.first_tick_ms": "ms", "sim.ticks": "count",
    "sim.tick_ms_p50": "ms", "sim.tick_ms_tail": "ms",
    "sim.us_per_leaf_tick": "us", "sim.physics_s": "s",
    "sim.controllers_s": "s", "sim.telemetry_s": "s", "sim.chaos_s": "s",
    "core.top_level_s": "s", "core.core_memory_s": "s",
    "core.power_s": "s", "core.network_s": "s", "core.steps": "count",
    "sched.run_schedule_s": "s", "sched.place_s": "s",
    "sched.place_calls": "count", "sched.evictions": "count",
    "sched.completed_share": "fraction", "sched.goodput_share": "fraction",
    "fleet.slack_s": "s", "fleet.rollup_s": "s", "fleet.summary_s": "s",
    "metrics.summary_s": "s", "obs.trace_overhead_share": "fraction",
    "obs.unattributed_share": "fraction",
}

#: Per-layer metrics that read zero where their layer does no work:
#: metric prefix -> (metric that is zero then, reason printed beside).
LAYER_WORK = {
    "core.": ("core.steps", "core/ controllers step only on the scalar "
              "engine (fig4-grid); mega runs the vectorized controller"),
    "sched.": ("sched.place_calls", "only schedule workloads place jobs"),
    "fleet.": ("fleet.rollup_s", "only fleet workloads roll up clusters"),
    "fleet.slack_s": ("sched.place_calls", "only schedule workloads "
                      "reduce slack"),
    "sim.ipc_s": ("fleet.rollup_s", "the ipc residual exists only on the "
                  "fleet path"),
}


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": None,
            "git_dirty": None, "cpu_model": None}
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        try:
            info["git_sha"] = git("rev-parse", "HEAD") or None
            info["git_dirty"] = bool(git("status", "--porcelain",
                                         "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def child_env(traced: bool) -> Dict[str, str]:
    """The run's environment: no inherited ``REPRO_*`` or ``PYTHONPATH``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env.update(REPRO_JOBS="1", PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if traced:
        env["REPRO_PROFILE"] = "1"
    return env


def cold_run(name: str, seed: int, traced: bool, tiny: bool,
             out_dir: Path, index: int) -> dict:
    """Start one run; return its record with the parent-side timings."""
    stem = f"{name}-seed{seed}-run{index}"
    record_path = out_dir / f"{stem}.json"
    if record_path.exists():
        record_path.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--src", str(ROOT / "src"), "--out", str(record_path)]
    if traced:
        cmd += ["--spans", str(out_dir / f"{stem}.spans.json.gz")]
    if tiny:
        cmd.append("--tiny")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(traced),
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stderr, code = f"timed out after {exc.timeout} s", None
    wall_s = time.monotonic() - t_spawn
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"error": f"no run record (exit code {code}): "
                           f"{stderr[-2000:]}"}
    record.update(traced=traced, wall_s=wall_s, exit_code=code)
    record["failed"] = bool(code != 0 or record.get("error")
                            or record.get("problems"))
    if not record["failed"]:
        run_s = record["t_validated"] - t_spawn
        record["python_start_s"] = record["t_main"] - t_spawn
        tick_s = record["t_last_tick"] - record["t_first_tick"]
        record["raw_metrics"] = {
            "run_s": run_s,
            "setup_s": record["t_first_tick"] - t_spawn,
            "leaf_ticks_per_s": record["leaf_ticks"] / tick_s,
            "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
        }
        if traced:
            record["layers"]["obs.unattributed_share"] = (
                run_s - record["python_start_s"]
                - record["top_level_s"]) / run_s
    return record


def scale(record: dict, pace: float) -> None:
    """Set ``record["metrics"]``: its raw metrics at the reference pace.

    Times are multiplied, rates divided, by ``REFERENCE_S / pace``;
    memory is not scaled.
    """
    factor = pace_module.REFERENCE_S / pace
    raw = record["raw_metrics"]
    record["pace_s"] = pace
    record["metrics"] = {
        "run_s": raw["run_s"] * factor,
        "setup_s": raw["setup_s"] * factor,
        "leaf_ticks_per_s": raw["leaf_ticks_per_s"] / factor,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool, out_dir: Path) -> List[dict]:
    """Cold runs of one workload until ``seconds`` is spent.

    The host's pace is measured before the first run and after every
    run; each run is scaled by the mean of the paces around it.
    """
    runs: List[dict] = []
    start = time.monotonic()
    before = pace_module.pace_s()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(cold_run(name, seed, traced, tiny, out_dir, len(runs)))
        after = pace_module.pace_s()
        if not runs[-1]["failed"]:
            scale(runs[-1], (before + after) / 2)
        before = after
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in runs if not r["traced"])
        enough = (untraced >= MIN_TRACED_RUNS
                  and len(runs) - untraced >= MIN_TRACED_RUNS) if trace \
            else untraced >= MIN_RUNS
        next_s = elapsed / len(runs)
        if (enough and elapsed + next_s > seconds) \
                or elapsed + next_s > HARD_LIMIT_S:
            return runs


def median_of(runs: List[dict], *path: str) -> Optional[float]:
    """Median over ``runs`` of ``run[path[0]][path[1]]...``."""
    values = []
    for record in runs:
        for key in path:
            record = record[key]
        values.append(record)
    return statistics.median(values) if values else None


def summarize(name: str, seed: int, trace: bool, runs: List[dict]) -> dict:
    """Verdict and metrics of one workload's runs."""
    ok = [r for r in runs if not r["failed"]]
    digests = sorted({r["digest"] for r in ok})
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics: Dict[str, dict] = {}
    if trace and plain and traced:
        for key, unit in PER_LAYER.items():
            if key == "obs.trace_overhead_share":
                base = median_of(plain, "metrics", "run_s")
                value = (median_of(traced, "metrics", "run_s") - base) / base
            else:
                value = median_of(traced, "layers", key)
            metrics[key] = {"value": value, "unit": unit}
    elif not trace and plain:
        for key, unit in END_TO_END.items():
            metrics[key] = {"value": median_of(plain, "metrics", key),
                            "unit": unit}
    complete = bool(metrics) and len(digests) == 1
    return {"workload": name, "seed": seed, "trace": trace,
            "correct": complete and len(ok) == len(runs),
            "attempted": len(runs), "failed": len(runs) - len(ok),
            "digests": digests, "metrics": metrics,
            "slo_violating_cells": max(
                (r["slo_violating_cells"] for r in ok), default=None)}


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.4g}, q3 {q3:.4g}]"


def report(block: dict, runs: List[dict]) -> str:
    """The human-readable block of one workload."""
    name, ok = block["workload"], [r for r in runs if not r["failed"]]
    lines = [f"== {name} (seed {block['seed']}, "
             f"{'traced pass' if block['trace'] else 'untraced'}): "
             f"{block['attempted']} runs, {block['failed']} failed, "
             f"failed_share {block['failed'] / block['attempted']:.3f}"]
    for run in runs:
        if run["failed"]:
            detail = run.get("error") or "; ".join(run.get("problems", []))
            lines.append(f"   FAILED run: {detail.strip()[-1500:]}")
    if len(block["digests"]) > 1:
        lines.append(f"   FAILED: runs disagree on the summary digest: "
                     f"{block['digests']}")
    elif block["digests"]:
        lines.append(f"   summary sha256 {block['digests'][0]}")
    if block["slo_violating_cells"] is not None and name == "fig4-grid":
        lines.append(f"   slo_violating_cells {block['slo_violating_cells']}"
                     f" [count] (paper Figure 4: 0)")
    if not block["metrics"]:
        lines.append("   no metrics: no passing run (of each kind)")
        return "\n".join(lines)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not block["trace"]:
        paces = [r["pace_s"] for r in plain]
        lines.append(f"   host pace {statistics.median(paces):.4f} s per "
                     f"reference repetition (scaled to "
                     f"{pace_module.REFERENCE_S} s) {quartiles(paces)}")
        for key, unit in END_TO_END.items():
            samples = [r["metrics"][key] for r in plain]
            raw = median_of(plain, "raw_metrics", key)
            lines.append(f"   {key:<18} {block['metrics'][key]['value']:>14.6g}"
                         f" {unit:<13} median of {len(samples)} "
                         f"{quartiles(samples)}, raw {raw:.6g}")
        return "\n".join(lines)
    layers = block["metrics"]
    unwrapped = sorted({name for r in traced for name in r["unwrapped"]})
    if unwrapped:
        lines.append(f"   NOTE boundaries not found in the program (their "
                     f"metrics read 0): {', '.join(unwrapped)}")
    for key, unit in PER_LAYER.items():
        value = layers[key]["value"]
        note = ""
        for prefix, (witness, why) in LAYER_WORK.items():
            if key.startswith(prefix) and not layers[witness]["value"]:
                note = f"  (absent: {why})"
        if key == "sim.tick_ms_tail":
            pct = median_of(traced, "layers", "sim.tick_tail_percentile")
            note = (f"  (p{pct:.2f} of {layers['sim.ticks']['value']:.0f} "
                    f"ticks)")
        lines.append(f"   {key:<28} {value:>14.6g} {unit:<9}{note}")
    lines += reconciliation(traced, plain, layers)
    return "\n".join(lines)


def reconciliation(traced: List[dict], plain: List[dict],
                   layers: dict) -> List[str]:
    """Layer self times summed against the measured run (traced medians)."""
    run_s = median_of(traced, "raw_metrics", "run_s")
    self_s: Dict[str, List[float]] = {}
    for run in traced:
        for name, seconds in run["self_s"].items():
            self_s.setdefault(name, []).append(seconds)
    rows = sorted(((statistics.median(v), k) for k, v in self_s.items()),
                  reverse=True)
    rows.append((median_of(traced, "python_start_s"), "(interpreter start)"))
    total = sum(seconds for seconds, _ in rows)
    lines = [f"   -- self time by span (median of {len(traced)} traced "
             f"runs) --"]
    lines += [f"   {name:<28} {seconds:>10.4f} s {seconds / run_s:>7.1%}"
              for seconds, name in rows]
    lines.append(f"   {'sum':<28} {total:>10.4f} s against measured run_s "
                 f"{run_s:.4f} s: gap {run_s - total:+.4f} s "
                 f"({(run_s - total) / run_s:+.1%}, harness imports and "
                 f"glue outside any span)")
    ipc, build = layers["sim.ipc_s"]["value"], layers["sim.build_s"]["value"]
    if ipc:
        lines.append(f"   FLAG sim.ipc_s {ipc:.4f} s vs sim.build_s "
                     f"{build:.4f} s: at REPRO_JOBS=1 there is no IPC, so "
                     f"the profiler's ipc residual holds construction and "
                     f"result packing ({ipc - build:+.4f} s beyond build)")
    lines.append(f"   tracing overhead: traced run_s "
                 f"{median_of(traced, 'metrics', 'run_s'):.4f} s vs untraced "
                 f"{median_of(plain, 'metrics', 'run_s'):.4f} s over "
                 f"{len(plain)} runs (both at the reference pace)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass, 1: traced pass "
                             "(default: both)")
    parser.add_argument("--tiny", action="store_true",
                        help="few-second workload sizes (self-test)")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench-out"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Bytecode is compiled once, before timing: users do not pay that
    # on every invocation.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "repro"), str(HERE)],
                   cwd=ROOT, capture_output=True, timeout=RUN_TIMEOUT_S)

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    info = provenance()
    print(f"host: {info['nproc']} CPUs, {info['cpu_model']}; Python "
          f"{info['python']}, NumPy {info['numpy']}; git "
          f"{info['git_sha']} dirty={info['git_dirty']}")
    passes = (False, True) if args.trace is None else (bool(args.trace),)
    blocks = []
    for name in names:
        seed = (args.seed if args.seed is not None
                else workloads.WORKLOADS[name].default_seed)
        for trace in passes:
            runs = measure(name, seed, args.seconds, trace, args.tiny,
                           out_dir)
            block = summarize(name, seed, trace, runs)
            print(report(block, runs), flush=True)
            block["params"] = workloads.params(name, args.tiny)
            block["runs"] = runs
            blocks.append(block)
            path = out_dir / (f"{name}-seed{seed}-trace{int(trace)}"
                              f"{'-tiny' if args.tiny else ''}.json")
            path.write_text(json.dumps({"provenance": info, **block},
                                       indent=1) + "\n", encoding="utf-8")

    if len(blocks) == 1:
        metrics = blocks[0]["metrics"]
    else:
        metrics = {f"{b['workload']}/{k}": v for b in blocks
                   for k, v in b["metrics"].items()}
    verdict = {"correct": all(b["correct"] for b in blocks),
               "attempted": sum(b["attempted"] for b in blocks),
               "failed": sum(b["failed"] for b in blocks),
               "metrics": metrics}
    print(json.dumps(verdict))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
