"""The output check every benchmark run must pass, and its digest.

:func:`problems` reads the machine-readable run summary
(``ScenarioResult.to_dict()``) and lists every way it is wrong; a run
with any problem counts as failed.  The checks hold for every seed:

* every number is finite;
* every EMU lies in [0, 2] and every SLO fraction is >= 0;
* a schedule conserves work: completed + rejected <= jobs, and
  goodput <= credited <= harvested core-hours;
* a Figure 4 sweep has no grid cell whose worst 60 s window exceeds
  the SLO (the paper's Figure 4 has none).

:func:`digest` hashes the canonical summary, so two runs, or a parent
and a change, can be compared for bit-identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterator, List, Tuple

#: Relative slack for work-conservation comparisons: the three
#: core-hour totals are accumulated separately, so equal quantities can
#: differ in the last bits.
CONSERVATION_RTOL = 1e-9


def digest(summary: dict) -> str:
    """sha256 of the summary as canonical JSON (sorted keys)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _numbers(node, path: str = "") -> Iterator[Tuple[str, object]]:
    """(path, value) of every number in a nested dict/list document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def _keys(path: str) -> List[str]:
    """The keys along a path: ``a.b[3]`` -> ``["a", "b"]``."""
    return [part.split("[", 1)[0] for part in path.split(".")]


def violating_cells(summary: dict) -> int:
    """Sweep cells whose worst 60 s window exceeds the SLO (> 1.0)."""
    return sum(1 for grid in summary.get("sweeps", {}).values()
               for cells in grid["worst_window_slo"].values()
               for value in cells if value > 1.0)


def problems(summary: dict, kind: str) -> List[str]:
    """Everything wrong with a run summary of the expected ``kind``."""
    found: List[str] = []
    if summary.get("kind") != kind:
        found.append(f"kind is {summary.get('kind')!r}, expected {kind!r}")
    for path, value in _numbers(summary):
        keys = _keys(path)
        if not math.isfinite(value):
            found.append(f"{path} is not finite ({value!r})")
        elif "emu" in keys[-1] and not 0.0 <= value <= 2.0:
            found.append(f"{path} = {value!r} is outside [0, 2]")
        elif any("slo" in key for key in keys) and value < 0.0:
            found.append(f"{path} = {value!r} is negative")
    if kind == "schedule":
        found += _schedule_problems(summary.get("schedule"))
    if kind == "sweep":
        cells = violating_cells(summary)
        if cells:
            found.append(f"{cells} Figure 4 cell(s) exceed the SLO in "
                         f"their worst 60 s window")
    return found


def _schedule_problems(schedule) -> List[str]:
    if not isinstance(schedule, dict):
        return ["schedule section missing"]
    found = []
    if schedule["completed"] + schedule["rejected"] > schedule["jobs"]:
        found.append(f"completed {schedule['completed']} + rejected "
                     f"{schedule['rejected']} > jobs {schedule['jobs']}")
    chain = [("goodput", schedule["goodput_core_h"]),
             ("credited", schedule["credited_core_h"]),
             ("harvested", schedule["harvested_core_h"])]
    for (low_name, low), (high_name, high) in zip(chain, chain[1:]):
        if low > high * (1.0 + CONSERVATION_RTOL):
            found.append(f"{low_name} {low!r} core-h > {high_name} "
                         f"{high!r} core-h")
    return found
