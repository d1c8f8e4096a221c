"""Fleet-wide best-effort job scheduler ("Borg-lite").

The paper closes with the cluster-wide payoff (§5.3, §6): Heracles
reclaims headroom on latency-critical machines, and a Borg-like
scheduler converts that headroom into throughput by launching
best-effort tasks wherever slack exists.  This package is that
scheduler for the simulated fleet: a queue of typed
:class:`~repro.sched.jobs.BeJob` work (core-seconds of demand,
parallelism limits, priorities, arrival times) placed each decision
epoch by a pluggable policy over the per-leaf Heracles slack signals
the fleet layer rolls up.

Layered use::

    from repro.fleet import ClusterPlan, ShardedFleetSim
    from repro.sched import BeJob, run_schedule

    fleet = ShardedFleetSim([ClusterPlan(...)], shard_leaves=64)
    result = fleet.run(3600.0, slack_epoch_s=60.0)
    outcome = run_schedule(result.slack,
                           [BeJob("encode-%d" % i, demand_core_s=4000.0)
                            for i in range(32)],
                           policy="slack-greedy")
    print(outcome.summary())

Declaratively, the same runs are ``schedule:``-shaped scenario specs
(see ``docs/scenarios.md``) runnable as
``python -m repro.cli sched <name-or-file>``, which also prints the
policy-vs-static comparison and the §5.3 TCO roll-up.
"""

from .jobs import BeJob, JobRecord, JobState, expand_jobs
from .policies import (POLICIES, Placement, PlacementContext, Policy,
                       RoundRobinPolicy, SlackGreedyPolicy, StaticPolicy,
                       make_policy)
from .report import (compare_policies, credited_core_seconds,
                     fleet_core_seconds, lc_utilization, render_comparison,
                     tco_summary)
from .scheduler import ScheduleOutcome, run_schedule

__all__ = [
    "POLICIES",
    "BeJob", "JobRecord", "JobState", "Placement", "PlacementContext",
    "Policy",
    "RoundRobinPolicy", "ScheduleOutcome", "SlackGreedyPolicy",
    "StaticPolicy",
    "compare_policies", "credited_core_seconds", "expand_jobs",
    "fleet_core_seconds", "lc_utilization", "make_policy",
    "render_comparison", "run_schedule", "tco_summary",
]
