"""The benchmark's workloads: registered scenarios, resized.

Every workload starts from a factory in :mod:`repro.scenarios.library`
(the same factories ``python -m repro.cli scenario --list`` shows),
called with the knobs it documents (``time_compression``,
``leaves_scale``, ``seed``), and is then reshaped with
``dataclasses.replace`` only: the fleet engine, cluster sizes and
seeds, the sweep axes.  Nothing under ``src/`` changes.

``tiny=True`` gives a few-second version of each workload with the same
shape, for the benchmark's own tests.

This module imports ``repro`` only inside :func:`build_spec`, so the
harness can name and describe workloads without paying for the import.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, NamedTuple


class Workload(NamedTuple):
    """A named workload; ``BENCHMARK.json`` says why it is in the set."""

    name: str
    #: The run's expected ``ScenarioResult.kind``.
    kind: str
    default_seed: int
    #: A seed never used while tuning; a claimed gain must hold on it.
    held_out_seed: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fleet-day-1k", "fleet", 7, 11),
    Workload("chaos-wide-10k", "fleet", 7, 13),
    Workload("sched-backlog-1k", "schedule", 7, 17),
    Workload("fig4-grid", "sweep", 0, 5),
)}

#: Per-workload run parameters: (full size, tiny size).
PARAMS = {
    "fleet-day-1k": (dict(time_compression=24.0, leaves_scale=1.0),
                     dict(time_compression=720.0, leaves_scale=0.02)),
    "chaos-wide-10k": (dict(time_compression=288.0, width=10),
                       dict(time_compression=1440.0, width=1,
                            leaves_scale=0.02)),
    "sched-backlog-1k": (dict(time_compression=72.0, leaves_scale=1.0),
                         dict(time_compression=720.0, leaves_scale=0.03)),
    "fig4-grid": (dict(lc_tasks=None, be_tasks=None, loads=(0.25, 0.75),
                       duration_s=400.0, warmup_s=150.0),
                  dict(lc_tasks=("websearch",),
                       be_tasks=("brain", "stream-DRAM"), loads=(0.5,),
                       duration_s=120.0, warmup_s=60.0)),
}


def params(name: str, tiny: bool = False) -> dict:
    """The parameters a run of ``name`` uses (recorded in its result)."""
    full, small = PARAMS[name]
    return dict(small if tiny else full)


def _mega(spec, fleet_field: str = "fleet"):
    """``spec`` with its fleet (or schedule fleet) on the mega engine."""
    if fleet_field == "fleet":
        return dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, engine="mega"))
    schedule = spec.schedule
    return dataclasses.replace(spec, schedule=dataclasses.replace(
        schedule, fleet=dataclasses.replace(schedule.fleet, engine="mega")))


def _widen(spec, width: int, seed: int):
    """Every fleet cluster ``width`` times larger, seeds spread apart.

    Leaf ``i`` of a cluster with base seed ``s`` draws tail noise from
    ``s * 1000 + i``, so a cluster of ``L`` leaves spans
    ``ceil(L / 1000)`` base seeds; the clusters get consecutive,
    non-overlapping base-seed ranges starting at ``seed``.
    """
    clusters, base = [], seed
    for cluster in spec.fleet.clusters:
        leaves = cluster.leaves * width
        clusters.append(dataclasses.replace(cluster, leaves=leaves,
                                            seed=base))
        base += -(-leaves // 1000)
    return dataclasses.replace(spec, fleet=dataclasses.replace(
        spec.fleet, clusters=tuple(clusters)))


def build_spec(name: str, seed: int, tiny: bool = False):
    """The validated :class:`~repro.scenarios.ScenarioSpec` of a run."""
    from repro.scenarios import library

    p = params(name, tiny)
    if name == "fleet-day-1k":
        spec = _mega(library.mixed_fleet_1k_scenario(
            time_compression=p["time_compression"],
            leaves_scale=p["leaves_scale"], seed=seed))
    elif name == "chaos-wide-10k":
        spec = _widen(_mega(library.chaos_1k_scenario(
            time_compression=p["time_compression"],
            leaves_scale=p.get("leaves_scale", 1.0), seed=seed)),
            p["width"], seed)
    elif name == "sched-backlog-1k":
        spec = _mega(library.batch_backlog_1k_scenario(
            time_compression=p["time_compression"],
            leaves_scale=p["leaves_scale"], seed=seed), "schedule")
    elif name == "fig4-grid":
        spec = library.fig4_scenario(
            lc_tasks=p["lc_tasks"],
            be_tasks=p["be_tasks"] or library.FIG4_BE_TASKS,
            loads=p["loads"], duration_s=p["duration_s"],
            warmup_s=p["warmup_s"], seed=seed)
    else:
        raise KeyError(f"unknown workload {name!r}; choose one of "
                       f"{', '.join(WORKLOADS)}")
    spec.validate()
    return spec
