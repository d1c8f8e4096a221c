"""The decision-epoch scheduling engine ("Borg-lite").

:func:`run_schedule` replays a fleet run's per-leaf slack signals
(:class:`~repro.fleet.aggregate.FleetSlackView`) epoch by epoch and
manages a queue of typed :class:`~repro.sched.jobs.BeJob` work:
admission control, policy-driven placement, SLO-latch eviction, and
per-job completion/goodput accounting.

Decision loop (one iteration per epoch ``e``)::

    signals  <- slack view of epoch e-1        (reactive, like Borg:
                                                decisions see only
                                                observed telemetry)
    admit    <- arrivals with arrival_s <= t_e (queue_limit bounces)
    place    <- policy(signals, queue)         (caps: Heracles grant)
    credit   <- epoch e's actual harvest, split over placed slots
    evict    <- leaves that latched the SLO in epoch e forfeit the
                epoch's credit (jobs on them count an eviction)
    complete <- jobs whose credited progress covers their demand

Scheduling is a *metering* layer: leaf-local isolation (how many
cores BE may hold, when BE must be disabled) remains entirely
Heracles' job, exactly as in the paper's deployment where Heracles
runs under an unmodified cluster scheduler.  Placement therefore
decides which jobs the harvested headroom is credited to — and how
much of it is wasted for want of placed work — never the physics of
the leaves themselves.  That separation is what makes a scheduled run
with an empty queue *bit-identical* to the plain fleet run (the PR-5
differential gate), and every decision a pure function of the slack
view, so results are reproducible across shard counts and worker
pools.

Jobs live on an axis: demand, parallelism limit, arrival, state,
progress, completion time, evictions and pinned leaf are ``(J,)``
arrays in queue order, and a policy returns a
:class:`~repro.sched.policies.Placement` of sparse ``(job, leaf,
cores)`` arrays, so one epoch is a fixed number of NumPy operations
whatever the queue length.  The
per-job :class:`~repro.sched.jobs.JobRecord` list is built once, at
the end.  Crediting keeps the float order of a per-record loop that
visits leaves in ascending order and each leaf's occupants in queue
order, so every output is bit-identical to that loop (the oracle
``tests/sched_reference.py`` keeps).

Accounting lands in a jobs-on-the-member-axis
:class:`~repro.metrics.columns.BatchColumnStore`: per-epoch assigned
slots and credited core-seconds per job, plus shared fleet-level
columns (queue length, placed slots, harvested/credited/wasted
core-seconds, evictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..fleet.aggregate import FleetSlackView
from ..metrics.columns import BatchColumnStore
from ..obs.trace import concat_payloads, make_sink
from .jobs import BeJob, JobRecord, JobState, expand_jobs
from .policies import Placement, PlacementContext, Policy, make_policy

#: Numerical slop when deciding a job's demand is fully retired.
_COMPLETION_EPS = 1e-9

#: Job-state codes on the job axis: ``_STATES[code]`` is the state.
_STATES = (JobState.PENDING, JobState.QUEUED, JobState.COMPLETED,
           JobState.REJECTED)
_PENDING, _QUEUED, _COMPLETED, _REJECTED = range(len(_STATES))


@dataclass
class ScheduleOutcome:
    """Everything one scheduling run produced.

    ``jobs`` holds the per-job records in queue (accounting) order —
    the same order as the job axis of ``store``.  ``store`` is the
    epoch-by-epoch accounting column store (``None`` when the job list
    was empty: nothing to account).  The scalar totals are the
    headline numbers the benchmark gates.

    ``trace`` is the run's decision-trace payload (``place``/``evict``
    events: ``member`` = fleet-global leaf, ``a`` = slot cores, ``b`` =
    job index on the ``jobs`` axis), populated only under
    ``REPRO_TRACE`` — the scheduler is a pure function of the slack
    view, so the trace is identical across shard plans and pools.
    """

    policy: str
    epoch_s: float
    jobs: List[JobRecord]
    store: Optional[BatchColumnStore]
    trace: Optional[Dict[str, np.ndarray]] = None
    goodput_core_s: float = 0.0
    credited_core_s: float = 0.0
    harvested_core_s: float = 0.0
    wasted_core_s: float = 0.0
    evictions: int = 0
    rejected: int = 0

    @property
    def completed(self) -> int:
        """Number of jobs that retired their full demand."""
        return sum(1 for r in self.jobs if r.state == JobState.COMPLETED)

    @property
    def goodput_core_h(self) -> float:
        """Completed-job demand in core-hours (the TCO currency)."""
        return self.goodput_core_s / 3600.0

    def job(self, name: str) -> JobRecord:
        """Look up one job's record by name."""
        for record in self.jobs:
            if record.job.name == name:
                return record
        raise KeyError(f"no job named {name!r} in this schedule")

    def summary(self) -> Dict[str, float]:
        """Deterministic plain-float summary (the comparison contract)."""
        return {
            "policy": self.policy,
            "jobs": len(self.jobs),
            "completed": self.completed,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "goodput_core_h": self.goodput_core_s / 3600.0,
            "credited_core_h": self.credited_core_s / 3600.0,
            "harvested_core_h": self.harvested_core_s / 3600.0,
            "wasted_core_h": self.wasted_core_s / 3600.0,
        }


def _check_placement(placement, ctx, policy_name, records, runnable):
    """Enforce the placement invariants whatever the policy did.

    Every pair must name a queued job and a fleet leaf, at most once,
    with non-negative cores; slots per leaf must stay within the
    Heracles grant and slots per job within its parallelism limit — a
    buggy policy fails loudly here instead of silently over-crediting.
    """
    if not isinstance(placement, Placement):
        raise TypeError(f"policy {policy_name!r} returned "
                        f"{type(placement).__name__}, not a Placement")
    job, leaf, cores = placement
    for name, column in zip(Placement._fields, placement):
        if not (isinstance(column, np.ndarray) and column.ndim == 1
                and column.dtype.kind in "iu" and len(column) == len(job)):
            raise ValueError(f"policy {policy_name!r}: Placement.{name} "
                             f"must be a 1-D integer array as long as "
                             f"Placement.job")
    jobs, leaves = len(ctx.max_cores), ctx.leaves
    outside = (job < 0) | (job >= jobs) | (leaf < 0) | (leaf >= leaves)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"policy {policy_name!r} placed job {job[i]} on "
                         f"leaf {leaf[i]}, outside the {jobs}-job queue "
                         f"or the {leaves}-leaf fleet")
    if (cores < 0).any():
        i = int(np.argmax(cores < 0))
        raise ValueError(f"policy {policy_name!r} assigned negative "
                         f"cores to leaf {leaf[i]}")
    pairs = np.sort(job * leaves + leaf)
    repeated = pairs[1:] == pairs[:-1]
    if repeated.any():
        j, i = divmod(int(pairs[1:][repeated][0]), leaves)
        raise ValueError(f"policy {policy_name!r} placed job "
                         f"{records[runnable[j]].job.name!r} on leaf {i} "
                         f"more than once")
    per_job = np.bincount(job, weights=cores, minlength=jobs)
    over = per_job > ctx.max_cores
    if over.any():
        j = int(np.argmax(over))
        raise ValueError(
            f"policy {policy_name!r} gave job "
            f"{records[runnable[j]].job.name!r} {int(per_job[j])} slots, "
            f"over its max_cores={int(ctx.max_cores[j])}")
    per_leaf = np.bincount(leaf, weights=cores, minlength=leaves)
    over = per_leaf > ctx.cap
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(
            f"policy {policy_name!r} packed {int(per_leaf[i])} slots onto "
            f"leaf {i}, over its grant of {int(ctx.cap[i])}")


def _credit(cores, unit, job, remaining):
    """Each placed pair's credited core-seconds, and each job's total.

    The pairs arrive sorted by (leaf, queue order).  A job's earn on a
    leaf is capped by what it still needs after its lower-numbered
    leaves, so the pairs are credited rank by rank — rank ``r`` holds
    every job's ``r``-th leaf, and no job appears twice in one rank —
    which keeps each job's running credit in ascending leaf order.
    """
    count = len(job)
    earn = np.zeros(count)
    credit = np.zeros(len(remaining))
    if not count:
        return earn, credit
    by_job = np.argsort(job, kind="stable")
    sorted_job = job[by_job]
    rank = np.empty(count, dtype=np.int64)
    rank[by_job] = np.arange(count) - np.searchsorted(sorted_job,
                                                      sorted_job)
    gain = cores * unit
    for r in range(int(rank.max()) + 1):
        at = np.flatnonzero(rank == r)
        j = job[at]
        left = remaining[j] - credit[j]
        # max(0, min(gain, left)) with Python's argument precedence,
        # so a NaN harvest credits nothing, as the scalar loop did.
        take = np.where(left < gain[at], left, gain[at])
        take = np.where(take > 0.0, take, 0.0)
        earn[at] = take
        credit[j] += take
    return earn, credit


def run_schedule(slack: FleetSlackView, jobs: Sequence[BeJob],
                 policy: Union[str, Policy] = "slack-greedy",
                 queue_limit: int = 0) -> ScheduleOutcome:
    """Schedule a job list over a fleet run's slack view.

    Args:
        slack: the per-epoch per-leaf slack signals of a fleet run
            (``ShardedFleetSim.run(..., slack_epoch_s=...)``).
        jobs: the typed BE jobs to place (unique names).
        policy: a :data:`~repro.sched.policies.POLICIES` name or a
            :class:`Policy` instance.
        queue_limit: admission control — arrivals that would push the
            number of waiting-or-running jobs past this bound are
            rejected (0 = unlimited).

    Returns:
        The populated :class:`ScheduleOutcome`.  Replaying different
        policies over the *same* slack view is how policies are
        compared: the fleet is simulated once, the scheduler is pure
        accounting over its signals.
    """
    if queue_limit < 0:
        raise ValueError("queue_limit must be >= 0 (0 = unlimited)")
    chosen = make_policy(policy)
    records = expand_jobs(jobs)
    epochs = slack.epochs
    epoch_s = float(slack.epoch_len_s[0]) if epochs else 0.0
    outcome = ScheduleOutcome(policy=chosen.name, epoch_s=epoch_s,
                              jobs=records, store=None)
    outcome.harvested_core_s = float(slack.harvest_core_s.sum())
    sink = make_sink()
    if not records or not epochs:
        # Nothing to place (or nothing to place on): all harvest that
        # existed went unmetered.
        outcome.wasted_core_s = outcome.harvested_core_s
        if sink is not None:
            outcome.trace = concat_payloads([sink.payload()])
        return outcome

    n_jobs, leaves = len(records), slack.leaves
    store = BatchColumnStore(
        [("t_s", np.float64), ("assigned_cores", np.float64),
         ("credit_core_s", np.float64), ("queued_jobs", np.int64),
         ("running_jobs", np.int64), ("placed_cores", np.int64),
         ("harvest_core_s", np.float64), ("credited_core_s", np.float64),
         ("wasted_core_s", np.float64), ("evictions", np.int64)],
        n=n_jobs,
        shared=("t_s", "queued_jobs", "running_jobs", "placed_cores",
                "harvest_core_s", "credited_core_s", "wasted_core_s",
                "evictions"),
        capacity=epochs)
    outcome.store = store

    # The job axis, in queue order (expand_jobs sorted the records).
    demand = np.array([r.job.demand_core_s for r in records], dtype=float)
    max_cores = np.array([r.job.max_cores for r in records], dtype=np.int64)
    arrival = np.array([r.job.arrival_s for r in records], dtype=float)
    state = np.full(n_jobs, _PENDING, dtype=np.int8)
    progress = np.zeros(n_jobs)
    completed_at = np.full(n_jobs, np.nan)
    evictions = np.zeros(n_jobs, dtype=np.int64)
    pinned = np.full(n_jobs, -1, dtype=np.int64)

    zero = np.zeros(leaves)
    admitted = 0
    for e in range(epochs):
        t = float(slack.epoch_t_s[e])
        length = float(slack.epoch_len_s[e])

        # -- admission: arrivals whose time has come, in queue order.
        # Each admission fills one queue place, so with a limit the
        # first ``limit - queued`` arrivals get in and the rest bounce.
        due = np.flatnonzero((state == _PENDING) & (arrival <= t))
        if queue_limit:
            room = max(0, queue_limit
                       - int(np.count_nonzero(state == _QUEUED)))
            state[due[room:]] = _REJECTED
            outcome.rejected += len(due[room:])
            due = due[:room]
        state[due] = _QUEUED
        pinned[due] = (admitted + np.arange(len(due))) % leaves
        admitted += len(due)

        # -- placement: previous epoch's signals, current queue -------
        runnable = np.flatnonzero(state == _QUEUED)
        if e > 0:
            grant_prev = slack.grant_cores[e - 1]
            rate_prev = slack.harvest_core_s[e - 1] \
                / (np.maximum(grant_prev, 1.0)
                   * float(slack.epoch_len_s[e - 1]))
            latched_prev = slack.latched[e - 1]
        else:
            # No telemetry yet: every policy sees an empty fleet.
            grant_prev, rate_prev = zero, zero
            latched_prev = zero.astype(bool)
        ctx = PlacementContext(
            epoch=e, epoch_len_s=length, rate_per_core=rate_prev,
            cap=grant_prev, latched=latched_prev,
            max_cores=max_cores[runnable], pinned_leaf=pinned[runnable])
        placement = chosen.place(ctx)
        _check_placement(placement, ctx, chosen.name, records, runnable)
        # Held pairs sorted by (leaf, queue order): the order credit is
        # folded in.
        held = np.flatnonzero(placement.cores > 0)
        held = held[np.lexsort((placement.job[held], placement.leaf[held]))]
        job, leaf, cores = (column[held] for column in placement)
        if sink is not None:
            sink.emit_block(t, leaf, "sched", "place", a=cores,
                            b=runnable[job])

        # -- eviction: a leaf that hit its SLO this epoch latched, the
        # epoch's work on it is forfeited, and every occupant counts an
        # eviction.
        harvest_e = slack.harvest_core_s[e]
        grant_e = slack.grant_cores[e]
        latched = slack.latched[e][leaf]
        evicted = runnable[job[latched]]
        evictions += np.bincount(evicted, minlength=n_jobs)
        if sink is not None:
            sink.emit_block(t, leaf[latched], "sched", "evict",
                            a=cores[latched], b=evicted)

        # -- crediting: epoch e's actual harvest over placed slots ----
        placed = np.bincount(leaf, weights=cores, minlength=leaves)
        kept = ~latched
        on = leaf[kept]
        unit = harvest_e[on] / np.maximum(np.maximum(placed[on],
                                                     grant_e[on]), 1.0)
        remaining = np.maximum(demand[runnable] - progress[runnable], 0.0)
        earn, credit = _credit(cores[kept], unit, job[kept], remaining)
        # A sequential fold in (leaf, queue order), never a pairwise sum.
        credited = float(np.cumsum(earn)[-1]) if len(earn) else 0.0

        # -- completion + accounting ----------------------------------
        progress[runnable] += credit
        done = runnable[demand[runnable] - progress[runnable]
                        <= _COMPLETION_EPS]
        state[done] = _COMPLETED
        completed_at[done] = t + length
        harvested = float(harvest_e.sum())
        outcome.credited_core_s += credited
        outcome.wasted_core_s += harvested - credited
        outcome.evictions += len(evicted)
        per_job = np.bincount(job, weights=cores, minlength=len(runnable))
        assigned_row = np.zeros(n_jobs)
        assigned_row[runnable] = per_job
        credit_row = np.zeros(n_jobs)
        credit_row[runnable] = credit
        store.append_tick({
            "t_s": t,
            "assigned_cores": assigned_row,
            "credit_core_s": credit_row,
            "queued_jobs": int(np.count_nonzero(state == _QUEUED)),
            "running_jobs": int(np.count_nonzero(per_job)),
            "placed_cores": int(cores.sum()),
            "harvest_core_s": harvested,
            "credited_core_s": credited,
            "wasted_core_s": harvested - credited,
            "evictions": len(evicted),
        })

    for record, code, prog, done_s, count, pin in zip(
            records, state.tolist(), progress.tolist(),
            completed_at.tolist(), evictions.tolist(), pinned.tolist()):
        record.state = _STATES[code]
        record.progress_core_s = prog
        record.completed_at_s = done_s if code == _COMPLETED else None
        record.evictions = count
        record.pinned_leaf = pin if pin >= 0 else None
    outcome.goodput_core_s = sum(r.job.demand_core_s for r in records
                                 if r.state == JobState.COMPLETED)
    if sink is not None:
        outcome.trace = concat_payloads([sink.payload()])
    return outcome
