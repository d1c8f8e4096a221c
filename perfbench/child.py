"""One cold run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run and reads the JSON
record it writes to ``--out``.  The run imports the program, builds the
workload's scenario, compiles and runs it in-process
(``processes=1``), summarizes it with ``ScenarioResult.to_dict()`` and
checks the summary (:mod:`check`).  Every timestamp in the record is
``time.monotonic()``, the system-wide clock the parent also reads, so
the parent can measure from the moment it started the interpreter.

With ``--trace 1`` the calls into each layer's public functions are
wrapped in spans (:mod:`spans`) and the record carries the per-layer
numbers; the spans themselves go to ``--spans``.  Untraced runs wrap
nothing but the engine tick (:class:`spans.TickClock`).

Usage (normally via ``run.py``)::

    python3 perfbench/child.py --workload fleet-day-1k --seed 7 \\
        --trace 0 --src src --out result.json
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Program modules imported (and timed) before the workload is built,
#: so traced and untraced runs import the same code at the same point.
PROGRAM_MODULES = (
    "repro", "repro.scenarios", "repro.sim.engine", "repro.sim.megabatch",
    "repro.sim.runner", "repro.fleet.simulator", "repro.fleet.aggregate",
    "repro.sched.scheduler", "repro.sched.policies", "repro.core",
    "repro.experiments.common", "repro.obs.profile",
)

#: Spans whose total time is a per-layer metric (``<name>_s``).
TIMED_SPANS = (
    "repro.import", "scenarios.compile", "sim.dram_profile",
    "fleet.slo_targets", "sim.build", "core.top_level", "core.core_memory",
    "core.power", "core.network", "sched.run_schedule", "sched.place",
    "fleet.slack", "fleet.rollup", "fleet.summary", "metrics.summary",
)


def instrument(tracer: spans.Tracer, modules: dict) -> list:
    """Wrap every layer boundary the per-layer metrics time.

    Returns the list the scalar engines built during the run are
    appended to (their tick-phase profilers are merged afterwards).
    """
    m = modules
    default_spec = m["repro"].default_machine_spec
    seen_models = set()
    built_scalar: list = []

    def dram_hit(args, _result):
        key = (args[0], args[1] if len(args) > 1 and args[1] is not None
               else default_spec())
        hit = key in seen_models
        seen_models.add(key)
        return 1.0 if hit else 0.0

    def fleet_leaves(args, _result):
        return float(sum(plan.leaves for plan in args[1]))

    def scalar_built(args, _result):
        built_scalar.append(args[0])
        return 1.0

    def leaves_ticked(args, _result):
        return float(getattr(args[0], "n", 1))

    tracer.wrap(m["repro.sim.runner"], "memoized_dram_model",
                "sim.dram_profile", units=dram_hit)
    tracer.wrap(m["repro.fleet.simulator"], "cluster_slo_targets",
                "fleet.slo_targets")
    tracer.wrap(m["repro.sim.megabatch"], "run_mega_fleet", "sim.run")
    tracer.wrap(m["repro.sim.megabatch"].MegaFleetSim, "__init__",
                "sim.build", units=fleet_leaves)
    tracer.wrap(m["repro.sim.engine"].ColocationSim, "__init__",
                "sim.build", units=scalar_built)
    tracer.wrap(m["repro.sim.engine"].ColocationSim, "run", "sim.run")
    for cls in (m["repro.sim.megabatch"].MegaClusterSim,
                m["repro.sim.engine"].ColocationSim):
        tracer.wrap(cls, "tick", "sim.tick", units=leaves_ticked)
    core = m["repro.core"]
    for cls, name in ((core.TopLevelController, "core.top_level"),
                      (core.CoreMemoryController, "core.core_memory"),
                      (core.PowerController, "core.power"),
                      (core.NetworkController, "core.network")):
        tracer.wrap(cls, "step", name)
    for fn in ("assemble_cluster", "rollup_cluster", "build_fleet_telemetry"):
        tracer.wrap(m["repro.fleet.aggregate"], fn, "fleet.rollup")
    tracer.wrap(m["repro.fleet.aggregate"], "reduce_leaf_epochs",
                "fleet.slack")
    tracer.wrap(m["repro.fleet.simulator"].FleetResult, "summary",
                "fleet.summary")
    tracer.wrap(m["repro.sched.scheduler"], "run_schedule",
                "sched.run_schedule")
    policies = m["repro.sched.policies"]
    for cls in vars(policies).values():
        if (isinstance(cls, type) and issubclass(cls, policies.Policy)
                and "place" in vars(cls)):
            tracer.wrap(cls, "place", "sched.place")
    return built_scalar


def tick_tail(durations: list) -> tuple:
    """(value, percentile) of the highest percentile >= 10 ticks exceed.

    Nearest rank: the value with exactly ten ticks above it; with ten
    ticks or fewer, the slowest tick (percentile 100).
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(span_list: list, profile: dict, summary: dict) -> dict:
    """The per-layer numbers of one traced run (see ``BENCHMARK.json``)."""
    out = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = spans.totals(span_list, name)[1]
    calls, _, hits = spans.totals(span_list, "sim.dram_profile")
    out["sim.dram_profile_calls"] = calls
    out["sim.dram_profile_hit_ratio"] = hits / calls if calls else 0.0
    _, build_s, leaves = spans.totals(span_list, "sim.build")
    out["sim.build_us_per_leaf"] = 1e6 * build_s / leaves if leaves else 0.0
    ticks = [(end - start, units) for name, start, end, _, units
             in span_list if name == "sim.tick"]
    durations = [d for d, _ in ticks]
    leaf_ticks = sum(units for _, units in ticks)
    out["sim.ticks"] = len(ticks)
    out["sim.first_tick_ms"] = 1e3 * durations[0] if ticks else 0.0
    out["sim.tick_ms_p50"] = 1e3 * statistics.median(durations) if ticks \
        else 0.0
    tail, tail_pct = tick_tail(durations)
    out["sim.tick_ms_tail"] = 1e3 * tail
    out["sim.tick_tail_percentile"] = tail_pct
    out["sim.us_per_leaf_tick"] = (1e6 * sum(durations) / leaf_ticks
                                   if leaf_ticks else 0.0)
    for phase in ("physics", "controllers", "telemetry", "chaos", "ipc"):
        out[f"sim.{phase}_s"] = float(profile.get(phase, 0.0))
    out["core.steps"] = sum(spans.totals(span_list, name)[0] for name in (
        "core.top_level", "core.core_memory", "core.power", "core.network"))
    out["sched.place_calls"] = spans.totals(span_list, "sched.place")[0]
    schedule = summary.get("schedule")
    if schedule:
        out["sched.evictions"] = schedule["evictions"]
        out["sched.completed_share"] = (schedule["completed"]
                                        / schedule["jobs"])
        out["sched.goodput_share"] = (schedule["goodput_core_h"]
                                      / schedule["harvested_core_h"])
    else:
        out["sched.evictions"] = 0
        out["sched.completed_share"] = 0.0
        out["sched.goodput_share"] = 0.0
    return out


def merged_profile(result, built_scalar: list, modules: dict) -> dict:
    """The run's tick-phase profile (fleet result, or the scalar sims)."""
    if result.profile:
        return dict(result.profile)
    merge = modules["repro.obs.profile"].merge_profiles
    return merge(sim._obs_prof.as_dict() for sim in built_scalar
                 if sim._obs_prof is not None)


def run(args) -> dict:
    """Do the run; return its record (timestamps, digest, problems)."""
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer()
    ticks = spans.TickClock()
    record = {"workload": args.workload, "seed": args.seed,
              "traced": bool(args.trace), "tiny": bool(args.tiny),
              "t_main": T_MAIN}
    with tracer.span("repro.import"):
        modules = {name: importlib.import_module(name)
                   for name in PROGRAM_MODULES}
    src = os.path.realpath(args.src)
    imported = os.path.realpath(modules["repro"].__file__)
    if not imported.startswith(src + os.sep):
        raise RuntimeError(f"imported repro from {imported}, not from "
                           f"{src}")
    built_scalar = instrument(tracer, modules) if args.trace else []
    ticks.install(modules["repro.sim.megabatch"].MegaClusterSim)
    ticks.install(modules["repro.sim.engine"].ColocationSim)
    with tracer.span("workload.spec"):
        spec = workloads.build_spec(args.workload, args.seed, args.tiny)
    with tracer.span("scenarios.compile"):
        compiled = modules["repro.scenarios"].compile_scenario(spec)
    with tracer.span("scenarios.run"):
        result = compiled.run(processes=1)
    with tracer.span("metrics.summary"):
        summary = result.to_dict()
    with tracer.span("bench.check"):
        problems = check.problems(summary, workload.kind)
        if ticks.first_start is None:
            problems.append("no engine tick ran")
        digest = check.digest(summary)
    record.update(
        t_validated=spans.clock(),
        t_first_tick=ticks.first_start, t_last_tick=ticks.last_end,
        leaf_ticks=ticks.leaf_ticks, digest=digest, problems=problems,
        slo_violating_cells=check.violating_cells(summary),
        top_level_s=sum(end - start for _, start, end, parent, _
                        in tracer.spans if parent < 0),
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if args.trace:
        profile = merged_profile(result, built_scalar, modules)
        record["layers"] = layer_metrics(tracer.spans, profile, summary)
        record["self_s"] = spans.self_times(tracer.spans)
        record["unwrapped"] = tracer.missing
        if args.spans:
            with gzip.open(args.spans, "wt", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "units"],
                           "spans": tracer.spans}, handle)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--src", required=True,
                        help="the program's source root (holds repro/)")
    parser.add_argument("--out", required=True, help="record JSON path")
    parser.add_argument("--spans", help="gzipped span dump (traced runs)")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except Exception:  # the record reports it; the parent counts it failed
        record = {"workload": args.workload, "seed": args.seed,
                  "error": traceback.format_exc()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
