"""Property-based invariants (hypothesis) for the fleet scheduler.

The PR-5 issue names three invariants; all are checked here over
randomized slack views and job queues:

* **capacity** — no leaf is ever assigned more BE core slots than its
  (previous-epoch) Heracles grant, and no job ever holds more slots
  than its parallelism limit, under *every* policy;
* **work conservation** — under ``slack-greedy``, no usable slot
  (positive predicted harvest, not latched) stays free while some
  queued job could still take one;
* **determinism** — placement and accounting are invariant to the
  order jobs are submitted in (shard-count invariance is covered by
  the real-simulation differential in ``tests/test_sched.py``; the
  scheduler itself only ever sees the slack view, which that harness
  pins bit-identical across plans).

Plus the accounting sanity the benchmark leans on: credited work never
exceeds harvested work, and goodput never exceeds credited work; and
the differential oracle: the array-native scheduler reproduces the
per-record loop of ``tests/sched_reference.py`` bit for bit.
"""

import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import FleetSlackView, LeafSlackView
from repro.obs.trace import TRACE_ENV, merge_payloads
from repro.sched import BeJob, run_schedule
from repro.sched.policies import POLICIES, Policy, make_policy
from sched_reference import as_dicts, reference_schedule

EPOCH_S = 60.0


@st.composite
def slack_views(draw, max_epochs=5, max_leaves=6):
    """A random synthetic single-cluster fleet slack view."""
    epochs = draw(st.integers(min_value=1, max_value=max_epochs))
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    harvest = draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=500.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    grant = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=36),
                 min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    latched = draw(st.lists(
        st.lists(st.booleans(), min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    view = LeafSlackView(
        cluster="prop", total_cores=36,
        epoch_t_s=np.arange(epochs) * EPOCH_S,
        epoch_len_s=np.full(epochs, EPOCH_S),
        harvest_core_s=np.asarray(harvest, dtype=float),
        grant_cores=np.asarray(grant, dtype=float),
        latched=np.asarray(latched, dtype=bool))
    return FleetSlackView([view])


@st.composite
def job_lists(draw, max_jobs=6):
    """A random queue of typed BE jobs with unique names."""
    count = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(count):
        jobs.append(BeJob(
            name=f"job-{i}",
            demand_core_s=draw(st.floats(min_value=1.0, max_value=5000.0,
                                         allow_nan=False)),
            max_cores=draw(st.integers(min_value=1, max_value=12)),
            priority=draw(st.integers(min_value=-2, max_value=2)),
            arrival_s=draw(st.floats(min_value=0.0, max_value=200.0,
                                     allow_nan=False))))
    return jobs


class SpyPolicy(Policy):
    """Wrap a policy and record every (context, placement) pair."""

    def __init__(self, inner):
        self.inner = make_policy(inner)
        self.name = self.inner.name
        self.calls = []

    def place(self, ctx):
        """Delegate, recording the decision for later assertions."""
        placement = self.inner.place(ctx)
        self.calls.append((ctx, placement))
        return placement


class TestCapacityInvariant:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=80, deadline=None)
    def test_no_leaf_over_grant_no_job_over_parallelism(self, slack, jobs,
                                                        policy):
        spy = SpyPolicy(policy)
        run_schedule(slack, jobs, policy=spy)
        for ctx, placement in spy.calls:
            per_leaf = np.zeros(ctx.leaves)
            for max_cores, slots in zip(ctx.max_cores,
                                        as_dicts(placement, ctx)):
                assert sum(slots.values()) <= max_cores
                for leaf, cores in slots.items():
                    assert cores >= 0
                    per_leaf[leaf] += cores
            # The grant itself never exceeds the machine's cores, so
            # staying under the grant is staying under capacity.
            assert (per_leaf <= ctx.cap + 1e-9).all()
            assert (per_leaf <= 36 + 1e-9).all()


class TestWorkConservation:
    @given(slack_views(), job_lists())
    @settings(max_examples=80, deadline=None)
    def test_greedy_leaves_no_usable_slot_idle(self, slack, jobs):
        spy = SpyPolicy("slack-greedy")
        run_schedule(slack, jobs, policy=spy)
        for ctx, placement in spy.calls:
            usable = (ctx.rate_per_core > 0) & ~ctx.latched
            free = np.where(usable, ctx.cap, 0).astype(float)
            slots_per_job = as_dicts(placement, ctx)
            for slots in slots_per_job:
                for leaf, cores in slots.items():
                    free[leaf] -= cores
            unsatisfied = [max_cores for max_cores, slots
                           in zip(ctx.max_cores, slots_per_job)
                           if sum(slots.values()) < max_cores]
            if unsatisfied:
                assert free.sum() == 0, (
                    "queued jobs below their parallelism limit while "
                    "usable slots stayed free")


class TestDeterminism:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_submission_order_is_irrelevant(self, slack, jobs, policy, rng):
        shuffled = list(jobs)
        rng.shuffle(shuffled)
        a = run_schedule(slack, jobs, policy=policy)
        b = run_schedule(slack, shuffled, policy=policy)
        assert a.summary() == b.summary()
        for ra, rb in zip(a.jobs, b.jobs):
            assert ra.job == rb.job
            assert ra.state == rb.state
            assert ra.progress_core_s == rb.progress_core_s
            assert ra.completed_at_s == rb.completed_at_s
            assert ra.evictions == rb.evictions

    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=40, deadline=None)
    def test_reruns_are_bit_identical(self, slack, jobs, policy):
        a = run_schedule(slack, jobs, policy=policy)
        b = run_schedule(slack, jobs, policy=policy)
        assert a.summary() == b.summary()
        if a.store is not None:
            for field in a.store.fields:
                assert np.array_equal(a.store.column(field),
                                      b.store.column(field))


class TestAccountingBounds:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=80, deadline=None)
    def test_goodput_credit_harvest_ordering(self, slack, jobs, policy):
        outcome = run_schedule(slack, jobs, policy=policy)
        assert outcome.goodput_core_s <= outcome.credited_core_s + 1e-6
        assert outcome.credited_core_s <= outcome.harvested_core_s + 1e-6
        assert outcome.wasted_core_s >= -1e-6
        # Same quantity accumulated per epoch vs reduced in one sum:
        # equal up to float summation order.
        np.testing.assert_allclose(
            outcome.wasted_core_s + outcome.credited_core_s,
            outcome.harvested_core_s, rtol=1e-9, atol=1e-9)

    @given(slack_views(), job_lists())
    @settings(max_examples=60, deadline=None)
    def test_progress_never_exceeds_demand(self, slack, jobs):
        outcome = run_schedule(slack, jobs)
        for record in outcome.jobs:
            assert record.progress_core_s <= \
                record.job.demand_core_s + 1e-6


@st.composite
def oracle_cases(draw):
    """Slack, jobs and a queue limit that exercise every scheduler path.

    Harvests repeat often (rate ties exercise the stable leaf ranking),
    grants sit below typical parallelism limits (jobs span leaves), and
    demands are small against one leaf-epoch's harvest (jobs complete
    mid-epoch, part-way through their leaves).
    """
    epochs = draw(st.integers(min_value=1, max_value=6))
    leaves = draw(st.integers(min_value=1, max_value=8))
    harvest = st.one_of(st.sampled_from([0.0, 30.0, 120.0]),
                        st.floats(min_value=0.0, max_value=400.0,
                                  allow_nan=False, allow_infinity=False))
    view = LeafSlackView(
        cluster="oracle", total_cores=36,
        epoch_t_s=np.arange(epochs) * EPOCH_S,
        epoch_len_s=np.full(epochs, EPOCH_S),
        harvest_core_s=np.array(draw(st.lists(
            st.lists(harvest, min_size=leaves, max_size=leaves),
            min_size=epochs, max_size=epochs)), dtype=float),
        grant_cores=np.array(draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=8),
                     min_size=leaves, max_size=leaves),
            min_size=epochs, max_size=epochs)), dtype=float),
        latched=np.array(draw(st.lists(
            st.lists(st.booleans(), min_size=leaves, max_size=leaves),
            min_size=epochs, max_size=epochs)), dtype=bool))
    count = draw(st.integers(min_value=1, max_value=12))
    jobs = [BeJob(
        name=f"job-{i}",
        demand_core_s=draw(st.floats(min_value=1.0, max_value=600.0)),
        max_cores=draw(st.integers(min_value=1, max_value=12)),
        priority=draw(st.integers(min_value=-1, max_value=1)),
        arrival_s=draw(st.one_of(st.sampled_from([0.0, 60.0, 90.0]),
                                 st.floats(min_value=0.0,
                                           max_value=300.0))))
        for i in range(count)]
    queue_limit = draw(st.sampled_from([0, 1, 2, 4]))
    return FleetSlackView([view]), jobs, queue_limit


def outputs(outcome):
    """Every output of a schedule run, floats as exact bit strings."""
    def bits(value):
        return value.hex() if isinstance(value, float) else value

    store = None if outcome.store is None else {
        name: outcome.store.column(name).tobytes()
        for name in outcome.store.fields}
    trace = {name: column.tobytes()
             for name, column in merge_payloads([outcome.trace]).items()}
    return {
        "summary": {k: bits(v) for k, v in outcome.summary().items()},
        "jobs": [(r.job.name, r.state, bits(r.progress_core_s),
                  r.completed_at_s, r.evictions, r.pinned_leaf)
                 for r in outcome.jobs],
        "store": store,
        "trace": trace,
    }


# Two leaves of grant 4 harvesting 120 core-s: an 8-wide job earns 120
# on leaf 0, then only the 30 it still needs on leaf 1, completing
# part-way through its second leaf.
_MID_EPOCH = (FleetSlackView([LeafSlackView(
    cluster="oracle", total_cores=36, epoch_t_s=np.arange(3) * EPOCH_S,
    epoch_len_s=np.full(3, EPOCH_S),
    harvest_core_s=np.full((3, 2), 120.0), grant_cores=np.full((3, 2), 4.0),
    latched=np.zeros((3, 2), dtype=bool))]),
    [BeJob("wide", 150.0, max_cores=8), BeJob("late", 40.0, arrival_s=70.0)],
    1)


class TestReferenceOracle:
    @given(oracle_cases(), st.sampled_from(POLICIES))
    @example(_MID_EPOCH, "slack-greedy")
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_per_record_loop_bit_for_bit(self, case, policy):
        slack, jobs, queue_limit = case
        saved = os.environ.get(TRACE_ENV)
        os.environ[TRACE_ENV] = "1"
        try:
            ours = run_schedule(slack, jobs, policy, queue_limit)
            oracle = reference_schedule(slack, jobs, policy, queue_limit)
        finally:
            if saved is None:
                del os.environ[TRACE_ENV]
            else:
                os.environ[TRACE_ENV] = saved
        assert outputs(ours) == outputs(oracle)
