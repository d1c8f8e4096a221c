"""Reference oracle for the array-native scheduler (test-only).

A per-record replay of :func:`repro.sched.run_schedule` and its three
placement policies: every job is a :class:`~repro.sched.jobs.JobRecord`
visited one by one each epoch, every placement a ``{leaf: cores}`` dict
per job, and every credit a scalar Python float accumulated leaf by
leaf in ascending order, each leaf's occupants in queue order.  The
array-native scheduler must reproduce this loop's outputs bit for bit:
summary, per-job records, every accounting column and the canonical
decision trace (``tests/test_sched_properties.py`` pins it).
"""

from typing import Dict, List

import numpy as np

from repro.metrics.columns import BatchColumnStore
from repro.obs.trace import concat_payloads, make_sink
from repro.sched.jobs import JobRecord, JobState, expand_jobs
from repro.sched.scheduler import ScheduleOutcome

_COMPLETION_EPS = 1e-9


def greedy(rate, cap, latched, records):
    """Slack-greedy: a fill cursor over leaves by descending rate."""
    usable = (rate > 0) & ~latched
    free = np.where(usable, cap, 0).astype(int)
    order = [int(i) for i in np.argsort(-rate, kind="stable")
             if usable[i] and free[i] > 0]
    pos = 0
    placement = []
    for record in records:
        out: Dict[int, int] = {}
        want = record.job.max_cores
        while want > 0 and pos < len(order):
            leaf = order[pos]
            grab = int(min(free[leaf], want))
            if grab > 0:
                free[leaf] -= grab
                want -= grab
                out[leaf] = out.get(leaf, 0) + grab
            if free[leaf] == 0:
                pos += 1
        placement.append(out)
    return placement


def round_robin(epoch, cap, records):
    """Round-robin: one slot at a time around the granted-leaf ring."""
    free = np.maximum(cap, 0).astype(int)
    leaves = [int(i) for i in range(len(cap)) if free[i] > 0]
    if not leaves:
        return [{} for _ in records]
    placement = []
    cursor = epoch % len(leaves)
    for record in records:
        out: Dict[int, int] = {}
        taken = 0
        progressed = True
        while taken < record.job.max_cores and progressed:
            progressed = False
            for step in range(len(leaves)):
                if taken >= record.job.max_cores:
                    break
                leaf = leaves[(cursor + step) % len(leaves)]
                if free[leaf] > 0:
                    free[leaf] -= 1
                    out[leaf] = out.get(leaf, 0) + 1
                    taken += 1
                    progressed = True
        cursor = (cursor + 1) % len(leaves)
        placement.append(out)
    return placement


def static(cap, records):
    """Static: each job on its pinned leaf, capped by the grant."""
    free = np.maximum(cap, 0).astype(int)
    placement = []
    for record in records:
        out: Dict[int, int] = {}
        leaf = record.pinned_leaf
        if free[leaf] > 0:
            grab = int(min(free[leaf], record.job.max_cores))
            free[leaf] -= grab
            out[leaf] = grab
        placement.append(out)
    return placement


def place(policy, epoch, rate, cap, latched, records):
    """One epoch's dict placement under a named policy."""
    if policy == "slack-greedy":
        return greedy(rate, cap, latched, records)
    if policy == "round-robin":
        return round_robin(epoch, cap, records)
    if policy == "static":
        return static(cap, records)
    raise ValueError(f"no reference for policy {policy!r}")


def as_dicts(placement, ctx) -> List[Dict[int, int]]:
    """A :class:`~repro.sched.policies.Placement` as the loop's form:
    one ``{leaf: cores}`` dict per job of ``ctx``'s queue."""
    out: List[Dict[int, int]] = [{} for _ in ctx.max_cores]
    for job, leaf, cores in zip(*(field.tolist() for field in placement)):
        out[job][leaf] = out[job].get(leaf, 0) + cores
    return out


def reference_schedule(slack, jobs, policy="slack-greedy",
                       queue_limit=0) -> ScheduleOutcome:
    """The per-record scheduling loop (see module docstring)."""
    records = expand_jobs(jobs)
    epochs = slack.epochs
    epoch_s = float(slack.epoch_len_s[0]) if epochs else 0.0
    outcome = ScheduleOutcome(policy=policy, epoch_s=epoch_s,
                              jobs=records, store=None)
    outcome.harvested_core_s = float(slack.harvest_core_s.sum())
    sink = make_sink()
    job_index = {id(record): j for j, record in enumerate(records)}
    if not records or not epochs:
        outcome.wasted_core_s = outcome.harvested_core_s
        if sink is not None:
            outcome.trace = concat_payloads([sink.payload()])
        return outcome

    store = BatchColumnStore(
        [("t_s", np.float64), ("assigned_cores", np.float64),
         ("credit_core_s", np.float64), ("queued_jobs", np.int64),
         ("running_jobs", np.int64), ("placed_cores", np.int64),
         ("harvest_core_s", np.float64), ("credited_core_s", np.float64),
         ("wasted_core_s", np.float64), ("evictions", np.int64)],
        n=len(records),
        shared=("t_s", "queued_jobs", "running_jobs", "placed_cores",
                "harvest_core_s", "credited_core_s", "wasted_core_s",
                "evictions"))
    outcome.store = store

    zero = np.zeros(slack.leaves)
    admitted = 0
    pending = list(records)
    assigned: Dict[int, Dict[int, int]] = {}
    for e in range(epochs):
        t = float(slack.epoch_t_s[e])
        length = float(slack.epoch_len_s[e])

        still_pending = []
        for record in pending:
            if record.job.arrival_s <= t:
                waiting = sum(1 for r in records if r.runnable) \
                    if queue_limit else 0
                if queue_limit and waiting >= queue_limit:
                    record.state = JobState.REJECTED
                    outcome.rejected += 1
                else:
                    record.state = JobState.QUEUED
                    record.pinned_leaf = admitted % slack.leaves
                    admitted += 1
            else:
                still_pending.append(record)
        pending = still_pending

        runnable = [r for r in records if r.runnable]
        if e > 0:
            grant_prev = slack.grant_cores[e - 1]
            rate_prev = slack.harvest_core_s[e - 1] \
                / (np.maximum(grant_prev, 1.0)
                   * float(slack.epoch_len_s[e - 1]))
            placement = place(policy, e, rate_prev, grant_prev,
                              slack.latched[e - 1], runnable)
        else:
            placement = place(policy, 0, zero, zero, zero.astype(bool),
                              runnable)
        for record, slots in zip(runnable, placement):
            assigned[id(record)] = dict(slots)
            if sink is not None:
                for leaf, cores in sorted(slots.items()):
                    if cores > 0:
                        sink.emit(t, int(leaf), "sched", "place",
                                  a=float(cores),
                                  b=float(job_index[id(record)]))

        by_leaf: Dict[int, List[JobRecord]] = {}
        for record in runnable:
            for leaf, cores in assigned[id(record)].items():
                if cores > 0:
                    by_leaf.setdefault(leaf, []).append(record)
        harvest_e = slack.harvest_core_s[e]
        latched_e = slack.latched[e]
        grant_e = slack.grant_cores[e]
        credit_per_job = {id(r): 0.0 for r in runnable}
        credited = 0.0
        evictions = 0
        for leaf, occupants in sorted(by_leaf.items()):
            placed = sum(assigned[id(r)][leaf] for r in occupants)
            if latched_e[leaf]:
                for record in occupants:
                    record.evictions += 1
                    if sink is not None:
                        sink.emit(t, int(leaf), "sched", "evict",
                                  a=float(assigned[id(record)][leaf]),
                                  b=float(job_index[id(record)]))
                evictions += len(occupants)
                continue
            unit = float(harvest_e[leaf]) / max(placed, float(grant_e[leaf]),
                                                1.0)
            for record in occupants:
                earn = min(assigned[id(record)][leaf] * unit,
                           record.remaining_core_s
                           - credit_per_job[id(record)])
                earn = max(0.0, earn)
                credit_per_job[id(record)] += earn
                credited += earn

        for record in runnable:
            record.progress_core_s += credit_per_job[id(record)]
            if record.remaining_core_s <= _COMPLETION_EPS:
                record.state = JobState.COMPLETED
                record.completed_at_s = t + length
        harvested = float(harvest_e.sum())
        outcome.credited_core_s += credited
        outcome.wasted_core_s += harvested - credited
        outcome.evictions += evictions

        def held(record):
            return sum(assigned.get(id(record), {}).values())

        store.append_tick({
            "t_s": t,
            "assigned_cores": np.array([held(r) for r in records],
                                       dtype=float),
            "credit_core_s": np.array([credit_per_job.get(id(r), 0.0)
                                       for r in records]),
            "queued_jobs": sum(1 for r in records if r.runnable),
            "running_jobs": sum(1 for r in runnable if held(r) > 0),
            "placed_cores": int(sum(held(r) for r in runnable)),
            "harvest_core_s": harvested,
            "credited_core_s": credited,
            "wasted_core_s": harvested - credited,
            "evictions": evictions,
        })
        assigned.clear()

    outcome.goodput_core_s = sum(r.job.demand_core_s for r in records
                                 if r.state == JobState.COMPLETED)
    if sink is not None:
        outcome.trace = concat_payloads([sink.payload()])
    return outcome
