"""The scalar engine's solver memos and cost shortcuts change no number.

``SocketPowerModel.resolve`` and ``Server._occupancy`` memoize the
power bisection and the LLC water-fill on their exact inputs.  The
oracle for a long-lived (warm) instance is a fresh instance per call:
its memo is empty, so it always runs the solver.  Results are compared
bit for bit (``float.hex``), across repeated inputs, throttled
sockets, a ``power_cap`` swap, CAT repartitions and signed zeros.

Also pinned here: inputs are validated on a memo hit, memos never ride
in a pickle (and archives written before they existed still resume
bit-identically), the closed-form ``Actuators._core_split`` equals the
round-robin loop it replaced, and a finished scalar sim is freed by
reference counting alone.
"""

import dataclasses
import gc
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import HeraclesController, SimBeThroughputProbe
from repro.experiments.common import run_colocation
from repro.hardware.cache import CacheDemand, resolve_occupancy
from repro.hardware.power import (MEMO_LIMIT, CorePowerRequest,
                                  SocketPowerModel)
from repro.hardware.server import Server, TaskTickDemand
from repro.hardware.spec import default_machine_spec
from repro.sim.actuators import Actuators
from repro.sim.checkpoint import load_engine, run_ticks
from test_checkpoint import (DURATION, SNAPSHOT_AT, STRADDLING_EVENTS,
                             assert_sim_histories_identical, make_scalar)

#: Scalar checkpoint of ``make_scalar(events=STRADDLING_EVENTS)`` at
#: t = SNAPSHOT_AT, written by the code of commit 048a204: its pickle
#: has no solver memos and its BE-throughput probe holds the sim.
ARCHIVE_BEFORE_MEMO = (Path(__file__).parent / "data"
                       / "scalar_checkpoint_before_memo.npz")

SPEC = default_machine_spec()
CAPPED = dataclasses.replace(
    SPEC.socket, tdp_watts=SPEC.socket.tdp_watts * 0.6)


def bits(value):
    """Every float in a result, as exact hex; structure kept."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((k, bits(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    return value


# -- strategies: small value pools, so sequences repeat inputs -------------

signed_zero = st.sampled_from([0.0, -0.0])
activities = st.one_of(signed_zero, st.sampled_from([0.3, 1.0, 2.2, 3.0]))
caps = st.sampled_from([None, 1.2, 1.8, 2.4])
fractions = st.one_of(signed_zero, st.sampled_from([0.25, 0.5, 1.0]))
sizes = st.one_of(signed_zero, st.sampled_from([1.5, 6.0, 40.0]))
rates = st.one_of(signed_zero, st.sampled_from([2.0, 15.0]))


@st.composite
def power_requests(draw):
    tasks = draw(st.lists(st.sampled_from(["lc", "be", "x"]), min_size=1,
                          max_size=3, unique=True))
    return [CorePowerRequest(task=t, cores=draw(st.integers(0, 18)),
                             activity=draw(activities),
                             dvfs_cap_ghz=draw(caps)) for t in tasks]


@st.composite
def cache_demands(draw, task):
    return CacheDemand(task=task, hot_mb=draw(sizes), bulk_mb=draw(sizes),
                       access_gbps=draw(rates),
                       hot_access_fraction=draw(fractions),
                       bulk_reuse=draw(fractions))


@st.composite
def tick_demands(draw):
    out = []
    for task, cos in (("lc", "lc"), ("be", "be")):
        sockets = {s: draw(st.integers(0, 18)) for s in range(SPEC.sockets)}
        out.append(TaskTickDemand(
            task=task, cores_by_socket=sockets, activity=draw(activities),
            dvfs_cap_ghz=draw(caps),
            cache_by_socket={s: draw(cache_demands(task))
                             for s in sockets if sockets[s] or draw(
                                 st.booleans())},
            cache_cos=draw(st.sampled_from([cos, "default"]))))
    return out


def sequence(inputs):
    """A call sequence over a few distinct inputs, with forced repeats."""
    return st.lists(inputs, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2,
                              max_size=12))


# -- warm memo vs fresh instance, bit for bit -------------------------------

class TestWarmEqualsFresh:
    @given(calls=sequence(power_requests()),
           swap_at=st.integers(0, 12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_power_model(self, calls, swap_at):
        warm = SocketPowerModel(SPEC.socket)
        for i, requests in enumerate(calls):
            if i == swap_at:
                # A chaos power_cap installs a fresh model (cold memo).
                warm = SocketPowerModel(CAPPED)
            socket = CAPPED if i >= swap_at else SPEC.socket
            got = warm.resolve(requests)
            want = SocketPowerModel(socket).resolve(requests)
            assert bits(got) == bits(want)

    def test_power_model_sequence_throttles(self):
        """The pools above reach the bisection (guards a vacuous pass)."""
        heavy = [CorePowerRequest("lc", 18, 3.0)]
        assert SocketPowerModel(SPEC.socket).resolve(heavy).throttled

    @given(calls=sequence(tick_demands()),
           splits=st.lists(st.tuples(st.integers(1, 10),
                                     st.integers(0, 9)), min_size=12,
                           max_size=12),
           swap_at=st.integers(0, 12))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_server(self, calls, splits, swap_at):
        warm = Server(SPEC)
        for i, demands in enumerate(calls):
            lc_ways, be_ways = splits[i]
            if i == swap_at:
                warm.power_model = SocketPowerModel(CAPPED)
            fresh = Server(SPEC)
            fresh.power_model = SocketPowerModel(warm.power_model.spec)
            for server in (warm, fresh):
                for s in range(SPEC.sockets):
                    # A CAT repartition: the partition size is in the key.
                    server.cat[s].set_partition("be", 0)
                    server.cat[s].set_partition("lc", lc_ways)
                    server.cat[s].set_partition("be", be_ways)
            got = warm.resolve(demands)
            want = fresh.resolve(demands)
            assert bits(got) == bits(want)
            assert bits(warm.telemetry.sockets) == bits(
                fresh.telemetry.sockets)

    @given(partition=st.one_of(signed_zero, sizes),
           calls=sequence(st.lists(cache_demands("t"), min_size=1,
                                   max_size=1)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_occupancy(self, partition, calls):
        warm = Server(SPEC)
        for cds in calls:
            assert bits(warm._occupancy(partition, cds)) == bits(
                resolve_occupancy(partition, cds))


class TestSignedZeros:
    """0.0 and -0.0 may share a key only where no output bit differs."""

    def test_power_activity_zero_sign_changes_no_bit(self):
        model = SocketPowerModel(SPEC.socket)
        pos = [CorePowerRequest("lc", 4, 1.0), CorePowerRequest("be", 6, 0.0)]
        neg = [CorePowerRequest("lc", 4, 1.0), CorePowerRequest("be", 6, -0.0)]
        assert bits(SocketPowerModel(SPEC.socket).resolve(pos)) == bits(
            SocketPowerModel(SPEC.socket).resolve(neg))
        assert bits(model.resolve(pos)) == bits(model.resolve(neg))

    @pytest.mark.parametrize("fields", [
        ("access_gbps",), ("hot_access_fraction", "bulk_reuse")])
    def test_occupancy_keeps_zero_signs_apart(self, fields):
        """The LLC solver does carry a -0.0 into its outputs (into
        ``miss_gbps``, or into ``hit_fraction`` when both hit terms are
        -0.0), so its key must tell the two zeros apart."""
        base = dict(hot_mb=1.0, bulk_mb=2.0, access_gbps=3.0,
                    hot_access_fraction=0.5, bulk_reuse=1.0)
        pos = [CacheDemand("t", **{**base, **dict.fromkeys(fields, 0.0)})]
        neg = [CacheDemand("t", **{**base, **dict.fromkeys(fields, -0.0)})]
        assert bits(resolve_occupancy(10.0, pos)) != bits(
            resolve_occupancy(10.0, neg))
        server = Server(SPEC)
        for cds in (pos, neg, pos, neg):
            assert bits(server._occupancy(10.0, cds)) == bits(
                resolve_occupancy(10.0, cds))


# -- memo bounds and read-only results ------------------------------------

class TestMemoBounds:
    def test_memo_is_emptied_at_its_limit(self):
        model = SocketPowerModel(SPEC.socket)
        for i in range(MEMO_LIMIT + 5):
            model.resolve([CorePowerRequest("lc", 4, i / 1000.0)])
            assert len(model._memo) <= MEMO_LIMIT
        server = Server(SPEC)
        for i in range(MEMO_LIMIT + 5):
            server._occupancy(10.0, [CacheDemand("t", 1.0, 2.0, float(i))])
            assert len(server._occupancy_memo) <= MEMO_LIMIT

    def test_cached_results_are_read_only(self):
        model = SocketPowerModel(SPEC.socket)
        res = model.resolve([CorePowerRequest("lc", 4, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.throttled = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.grants[0].freq_ghz = 0.0
        share = Server(SPEC)._occupancy(10.0, [CacheDemand("t", 1.0)])[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            share.miss_gbps = 0.0


# -- validation runs on a memo hit ------------------------------------------

class RejectedRequest(CorePowerRequest):
    def validate(self):
        raise ValueError("rejected")


class RejectedDemand(CacheDemand):
    def validate(self):
        raise ValueError("rejected")


class TestValidationOnHit:
    def test_power_request_validated_on_hit(self):
        model = SocketPowerModel(SPEC.socket)
        model.resolve([CorePowerRequest("lc", 4, 1.0)])
        with pytest.raises(ValueError, match="rejected"):
            model.resolve([RejectedRequest("lc", 4, 1.0)])

    def test_negative_activity_raises_on_warm_memo(self):
        model = SocketPowerModel(SPEC.socket)
        model.resolve([CorePowerRequest("lc", 4, 1.0)])
        with pytest.raises(ValueError, match="activity"):
            model.resolve([CorePowerRequest("lc", 4, -1.0)])

    def test_cache_demand_validated_on_hit(self):
        server = Server(SPEC)
        server._occupancy(10.0, [CacheDemand("t", 1.0, 2.0, 3.0)])
        with pytest.raises(ValueError, match="rejected"):
            server._occupancy(10.0, [RejectedDemand("t", 1.0, 2.0, 3.0)])

    def test_negative_partition_raises_on_warm_memo(self):
        server = Server(SPEC)
        cds = [CacheDemand("t", 1.0, 2.0, 3.0)]
        server._occupancy(0.0, cds)
        server._occupancy(1.0, cds)
        for partition in (-1.0, -1e-300):
            with pytest.raises(ValueError, match="partition"):
                server._occupancy(partition, cds)


# -- pickles ------------------------------------------------------------------

class TestPickles:
    def test_memos_do_not_ride_in_a_pickle(self):
        cold_model, warm_model = (SocketPowerModel(SPEC.socket)
                                  for _ in range(2))
        cold_server, warm_server = Server(SPEC), Server(SPEC)
        for i in range(20):
            warm_model.resolve([CorePowerRequest("lc", 4, i / 10.0)])
            warm_server._occupancy(10.0, [CacheDemand("t", 1.0, 2.0, i)])
        assert len(pickle.dumps(warm_model)) == len(pickle.dumps(cold_model))
        assert len(pickle.dumps(warm_server)) == len(
            pickle.dumps(cold_server))
        assert pickle.loads(pickle.dumps(warm_model))._memo == {}
        assert pickle.loads(pickle.dumps(warm_server))._occupancy_memo == {}

    def test_archive_from_before_the_memos_resumes_bit_identically(self):
        """An archive whose pickle has no memos and whose probe
        holds the sim restores, and its resumed run equals a straight
        run of this code."""
        straight = make_scalar(events=STRADDLING_EVENTS)
        straight.run(DURATION)
        restored = load_engine(str(ARCHIVE_BEFORE_MEMO),
                               expect_kind="single").sim
        assert restored.server._occupancy_memo == {}
        assert restored.server.power_model._memo == {}
        run_ticks(restored, int(round(DURATION - SNAPSHOT_AT)), 1.0)
        assert_sim_histories_identical(restored.history, straight.history,
                                       "archive resume vs straight")
        probe = restored.controller.core_memory.be_throughput_fn
        assert isinstance(probe, SimBeThroughputProbe)
        assert probe() == restored.be_monitor.last_normalized
        assert probe._monitor is restored.be_monitor
        assert "_sim" not in vars(probe)


# -- closed-form core split vs the round-robin loop it replaced ------------

def round_robin_split(sockets, cores, be_cores):
    """The per-core loop the closed form replaced (kept as the oracle)."""
    be = {s: 0 for s in range(sockets)}
    for _ in range(be_cores):
        target = min(range(sockets), key=lambda s: (be[s], s))
        if be[target] >= cores:
            break
        be[target] += 1
    lc = {s: cores - be[s] for s in range(sockets)}
    return lc, be


@pytest.mark.parametrize("sockets", [1, 2, 3, 4])
def test_core_split_equals_round_robin(sockets):
    for cores in range(1, 21):
        spec = dataclasses.replace(
            SPEC, sockets=sockets,
            socket=dataclasses.replace(SPEC.socket, cores=cores))
        act = Actuators(Server(spec))
        act._be_enabled = True
        for be_cores in range(sockets * cores + 3):
            act._be_cores = be_cores
            got = act._core_split()
            want = round_robin_split(sockets, cores, be_cores)
            assert got == want
            assert all(type(n) is int for part in got for n in part.values())


# -- finished sims are freed by reference counting -------------------------

def test_finished_cell_is_freed_without_the_cyclic_collector():
    """A sweep keeps each cell's result; the sim behind it must go as
    soon as the cell returns, with no generation-2 collection."""
    sims = []

    def heracles(sim):
        sims.append(weakref.ref(sim))
        return HeraclesController.for_sim(sim)

    gc.collect()
    gc.disable()
    try:
        result = run_colocation("websearch", "brain", 0.5, duration_s=30.0,
                                warmup_s=10.0, controller_factory=heracles)
        assert len(result.history) == 30
        assert sims[0]() is None
    finally:
        gc.enable()
