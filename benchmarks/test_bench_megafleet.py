"""Mega-engine gate: the 1-core sharding regression, erased.

``BENCH_PR4.json`` recorded the sharded fleet plan running 0.76x —
*slower* than sequential — on a single-CPU host: with no cores to fan
out across, the per-shard Python tick loops (actuator gathers, monitor
deques, controller objects) are pure overhead.  The mega engine
(``repro.sim.megabatch``) removes those loops instead of hiding them
behind processes: the whole fleet advances as one heterogeneous
``(T, N_fleet)`` array program, with per-cluster hardware capacities
as broadcast columns and every managed cluster's Heracles controllers
stepping as one grouped array program.

This gate runs the registered 1000-leaf ``mixed-fleet-1k`` scenario
(time-compressed for CI; ``REPRO_BENCH_MEGAFLEET_COMPRESSION=1``
restores the full 12-hour day) under two plans:

* **sequential sharded** — today's default plan (~64-leaf shards) at
  ``processes=1``: the path the PR-4 regression measured;
* **mega** — the same scenario with ``engine="mega"``.

and enforces the engine's two contractual properties:

* **equivalence**: bit-identical per-cluster histories, per-shard
  worst-tail roll-ups, and fleet summaries — the engine changes
  wall-clock, never numbers;
* **speedup**: the mega plan completes at least ``MIN_SPEEDUP`` (5x)
  faster.  The gate is unconditional: the mega engine's advantage is
  algorithmic, not parallelism, so it owes the speedup even (indeed
  especially) on a single-CPU host.

Measurements land in ``.bench-out/BENCH_PR6.json`` (gitignored;
``REPRO_BENCH_MEGAFLEET_OUT`` names another path, e.g. to refresh the
committed snapshot); ``tools/bench_report.py`` folds them into the CI
perf-trajectory artifact.
"""

import dataclasses
import json
import os
import time

import numpy as np
from conftest import bench_out_path, regenerate

from repro.scenarios import compile_scenario
from repro.scenarios.library import mixed_fleet_1k_scenario

COMPRESSION = float(os.environ.get("REPRO_BENCH_MEGAFLEET_COMPRESSION",
                                   "72"))
MIN_SPEEDUP = 5.0
OUT_ENV = "REPRO_BENCH_MEGAFLEET_OUT"
DEFAULT_OUT = "BENCH_PR6.json"
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def _scenario(engine: str):
    spec = mixed_fleet_1k_scenario(time_compression=COMPRESSION)
    if engine != spec.fleet.engine:
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, engine=engine))
    return spec


def _run_fleet(engine: str):
    """One execution plan of the 1000-leaf fleet, strictly in-process."""
    spec = _scenario(engine)
    return compile_scenario(spec).run(processes=1)


def test_bench_megafleet_speedup_and_equivalence(benchmark):
    spec = _scenario("mega")
    total_leaves = spec.fleet.total_leaves()

    # The regression's reference plan first: today's sharded default at
    # one process.  (Running it first also charges the one-off DRAM
    # model profiling to the comparator — both engines share the
    # per-process memoized models, as the shard workers do.)
    seq_start = time.perf_counter()
    sequential = _run_fleet("sharded")
    seq_wall = time.perf_counter() - seq_start

    # The mega plan (the benchmark timer records this run).
    mega_start = time.perf_counter()
    mega = regenerate(benchmark, _run_fleet, "mega")
    mega_wall = time.perf_counter() - mega_start

    speedup = seq_wall / mega_wall
    shard_count = sum(len(o.shards) for o in sequential.fleet.clusters)
    warmup = spec.warmup_s

    print()
    print(f"{total_leaves}-leaf fleet, {spec.duration_s / 60:.0f} simulated "
          f"minutes (compression {COMPRESSION:.0f}x):")
    print(f"  sequential sharded ({shard_count} shards, 1 process): "
          f"{seq_wall:.2f}s wall")
    print(f"  mega (one array program): {mega_wall:.2f}s wall "
          f"-> {speedup:.2f}x")

    # -- equivalence: the engine must never change a number -------------
    for seq_outcome in sequential.fleet.clusters:
        mega_outcome = mega.fleet.cluster(seq_outcome.name)
        assert mega_outcome.root_slo_ms == seq_outcome.root_slo_ms
        for name in CLUSTER_FIELDS:
            a = seq_outcome.history.column(name)
            b = mega_outcome.history.column(name)
            assert np.array_equal(a, b), (
                f"cluster {seq_outcome.name!r} column {name!r} diverged "
                f"between engines")
        # The worst leaf tail rolls up exactly whatever the partition:
        # many shards on the reference, one whole-cluster shard on mega.
        seq_worst = max(s.summary["worst_tail_ms"]
                        for s in seq_outcome.shards)
        mega_worst = max(s.summary["worst_tail_ms"]
                         for s in mega_outcome.shards)
        assert mega_worst == seq_worst, (
            f"cluster {seq_outcome.name!r}: per-shard worst-tail metrics "
            f"diverged between engines")
    seq_summary = sequential.fleet.summary(skip_s=warmup)
    mega_summary = mega.fleet.summary(skip_s=warmup)
    assert seq_summary == mega_summary, "fleet summaries diverged"
    print(f"  fleet EMU {mega_summary['fleet_emu']:.1%} (min "
          f"{mega_summary['min_fleet_emu']:.1%}), load-weighted root "
          f"latency {mega_summary['weighted_root_latency_ms']:.1f} ms "
          f"[bit-identical across engines]")

    report = {
        "benchmark": "test_bench_megafleet",
        "leaves": total_leaves,
        "clusters": len(spec.fleet.clusters),
        "shards_sequential": shard_count,
        "time_compression": COMPRESSION,
        "duration_s": spec.duration_s,
        "cpus": os.cpu_count() or 1,
        "wall_s_sequential": round(seq_wall, 2),
        "wall_s_mega": round(mega_wall, 2),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    out_path = bench_out_path(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report: {out_path}")

    # -- speedup: unconditional — this is the regression being erased ---
    assert speedup >= MIN_SPEEDUP, (
        f"mega engine only {speedup:.2f}x faster than the sequential "
        f"sharded path (need >= {MIN_SPEEDUP:.0f}x; BENCH_PR4 recorded "
        f"the sharded plan at 0.76x on one CPU)")
