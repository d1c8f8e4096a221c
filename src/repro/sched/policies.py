"""Placement policies: which leaves get which best-effort jobs.

A policy sees one :class:`PlacementContext` per decision epoch — the
previous epoch's per-leaf slack signals (per-slot harvest rate, the
Heracles BE-core grant, the SLO latch) plus the runnable queue in
priority order, as ``max_cores`` / ``pinned_leaf`` arrays — and
returns a :class:`Placement`: sparse ``(job, leaf, cores)`` int64
arrays, one entry per (job, leaf) pair holding slots this epoch, with
``job`` indexing the context's queue.  Policies are *pure*: same
context, same placement, which is what makes scheduling runs
bit-reproducible across shard counts and worker pools.

Three policies ship, mirroring the evaluation axes of the paper's
cluster study:

* ``slack-greedy`` — the Heracles-driven scheduler: pack the queue
  onto the leaves with the highest per-slot harvest rate, skipping
  leaves that latched their SLO last epoch.  Laid end to end, the
  ranked leaves' free slots and the queue's parallelism limits are two
  partitions of one line; greedy packing is their interval
  intersection, computed without a loop over jobs or leaves;
* ``round-robin`` — slack-blind spreading: cycle the leaf list,
  placing one slot at a time wherever Heracles granted cores;
* ``static`` — static provisioning, the paper's baseline: each job is
  pinned to one leaf at admission and never migrates, whatever the
  leaf's slack does.

Every policy honours the same hard constraint: a leaf is never
assigned more slots than its (previous-epoch) Heracles grant, which
itself never exceeds the machine's core count — the capacity
invariant ``tests/test_sched_properties.py`` pins and the scheduler
re-checks on every placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Registered policy names, in the order the docs list them.
POLICIES = ("slack-greedy", "round-robin", "static")


@dataclass
class PlacementContext:
    """Everything a policy may consult for one epoch's decision.

    ``rate_per_core`` (N,) is the previous epoch's harvested
    core-seconds per granted BE core slot per second — the policy's
    estimate of what one slot on each leaf will earn; ``cap`` (N,) is
    the previous epoch's Heracles BE-core grant (the slot supply);
    ``latched`` (N,) flags leaves that hit their SLO last epoch.
    ``max_cores`` (R,) and ``pinned_leaf`` (R,) describe the runnable
    queue in priority order: each job's parallelism limit and the leaf
    it was pinned to at admission.
    """

    epoch: int
    epoch_len_s: float
    rate_per_core: np.ndarray
    cap: np.ndarray
    latched: np.ndarray
    max_cores: np.ndarray
    pinned_leaf: np.ndarray

    @property
    def leaves(self) -> int:
        """Fleet leaf population."""
        return len(self.cap)


class Placement(NamedTuple):
    """One epoch's placement: sparse ``(job, leaf, cores)`` int64 arrays.

    Entry ``i`` gives queue job ``job[i]`` ``cores[i]`` BE core slots
    on leaf ``leaf[i]``.  Entry order is free; a (job, leaf) pair
    appears at most once.
    """

    job: np.ndarray
    leaf: np.ndarray
    cores: np.ndarray


def _placement(job, leaf, cores) -> Placement:
    """A :class:`Placement` with every field as an int64 array."""
    return Placement(np.asarray(job, dtype=np.int64),
                     np.asarray(leaf, dtype=np.int64),
                     np.asarray(cores, dtype=np.int64))


class Policy:
    """Interface: a named, pure placement function."""

    #: Registry name (also what scenario specs select by).
    name = "abstract"

    def place(self, ctx: PlacementContext) -> Placement:
        """Return the epoch's :class:`Placement` for ``ctx``'s queue."""
        raise NotImplementedError


class SlackGreedyPolicy(Policy):
    """Pack jobs onto the highest-harvest leaves first.

    Leaves are ranked by predicted per-slot harvest rate (descending,
    leaf index breaking ties); leaves with no predicted harvest and
    leaves that latched their SLO last epoch are excluded outright —
    the scheduler reads the latch exactly as Borg would read a
    Heracles "DISABLED" signal.  Jobs take slots in priority order, up
    to their parallelism limit, until the queue or the slot supply is
    exhausted (the work-conservation property).
    """

    name = "slack-greedy"

    def place(self, ctx: PlacementContext) -> Placement:
        """Greedy descending-rate packing (see class docstring).

        A fill cursor that never retreats hands job ``j`` exactly the
        slots in ``[M[j-1], M[j])`` of the ranked leaves' concatenated
        free slots, ``M`` being the cumulative ``max_cores``; leaf
        ``i`` holds ``[S[i-1], S[i])``.  Cutting the line at every
        ``S`` and ``M`` boundary leaves segments that each lie in one
        job and one leaf — the placement, in integers.
        """
        usable = (ctx.rate_per_core > 0) & ~ctx.latched
        free = np.where(usable, ctx.cap, 0).astype(np.int64)
        # Stable sort on negated rate: equal-rate leaves stay in leaf
        # order, so the packing is one deterministic sequence.
        order = np.argsort(-ctx.rate_per_core, kind="stable")
        order = order[free[order] > 0]
        supply = np.cumsum(free[order])
        demand = np.cumsum(np.asarray(ctx.max_cores, dtype=np.int64))
        total = min(supply[-1] if len(supply) else 0,
                    demand[-1] if len(demand) else 0)
        # The union of both lines' boundaries up to the shorter end; a
        # boundary both share leaves an empty segment, dropped.
        cuts = np.sort(np.concatenate(
            ([0], supply[supply <= total], demand[demand <= total])))
        length = np.diff(cuts)
        starts = cuts[:-1][length > 0]
        return _placement(np.searchsorted(demand, starts, side="right"),
                          order[np.searchsorted(supply, starts,
                                                side="right")],
                          length[length > 0])


class RoundRobinPolicy(Policy):
    """Spread slots across the leaf list, blind to slack.

    Cycles the leaf population (rotating the starting leaf by epoch so
    no prefix of the fleet is structurally favoured), handing each job
    one slot at a time wherever a grant exists.  Uses the same grant
    caps as every policy but ignores harvest rates and latches — the
    "spread for balance" strawman between static pinning and
    slack-driven packing.
    """

    name = "round-robin"

    def place(self, ctx: PlacementContext) -> Placement:
        """One-slot-at-a-time rotation over the granted leaves."""
        free = np.maximum(ctx.cap, 0).astype(np.int64).tolist()
        leaves = [i for i in range(ctx.leaves) if free[i] > 0]
        jobs, slots, cores = [], [], []
        if not leaves:
            return _placement(jobs, slots, cores)
        spare = sum(free)
        cursor = ctx.epoch % len(leaves)
        for j, want in enumerate(ctx.max_cores.tolist()):
            # Once the ring is full, every later job finds nothing.
            if spare == 0:
                break
            out = {}
            taken = 0
            # Keep cycling the ring — one slot per leaf per pass —
            # until the job is satisfied or a full pass finds nothing
            # free (jobs wider than the ring wrap around it).
            progressed = True
            while taken < want and progressed:
                progressed = False
                for step in range(len(leaves)):
                    if taken >= want:
                        break
                    leaf = leaves[(cursor + step) % len(leaves)]
                    if free[leaf] > 0:
                        free[leaf] -= 1
                        out[leaf] = out.get(leaf, 0) + 1
                        taken += 1
                        progressed = True
            spare -= taken
            cursor = (cursor + 1) % len(leaves)
            jobs += [j] * len(out)
            slots += out.keys()
            cores += out.values()
        return _placement(jobs, slots, cores)


class StaticPolicy(Policy):
    """Static provisioning: jobs are pinned at admission, forever.

    Each job holds slots only on its pinned leaf (assigned by the
    scheduler at admission time, round-robin over the population), up
    to that leaf's grant.  No migration, no reaction to latches — this
    is the baseline the paper's TCO argument measures Heracles-driven
    scheduling against.
    """

    name = "static"

    def place(self, ctx: PlacementContext) -> Placement:
        """Slots on the pinned leaf only, capped by its grant."""
        free = np.maximum(ctx.cap, 0).astype(np.int64).tolist()
        jobs, slots, cores = [], [], []
        for j, (leaf, want) in enumerate(zip(ctx.pinned_leaf.tolist(),
                                             ctx.max_cores.tolist())):
            if free[leaf] > 0:
                grab = min(free[leaf], want)
                free[leaf] -= grab
                jobs.append(j)
                slots.append(leaf)
                cores.append(grab)
        return _placement(jobs, slots, cores)


_POLICY_TYPES = {cls.name: cls for cls in (SlackGreedyPolicy,
                                           RoundRobinPolicy, StaticPolicy)}
assert set(_POLICY_TYPES) == set(POLICIES)


def make_policy(policy: "str | Policy") -> Policy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, Policy):
        return policy
    try:
        return _POLICY_TYPES[policy]()
    except KeyError:
        raise ValueError(f"unknown scheduling policy {policy!r}; choose "
                         f"from {', '.join(POLICIES)}") from None
