"""Batched multi-server simulation backend.

:class:`BatchColocationSim` advances N homogeneous-hardware servers —
each hosting one LC workload and (optionally) one BE task group — in a
single vectorized step per tick.  The contention physics that
:class:`~repro.sim.engine.ColocationSim` resolves object-by-object
(power/frequency equilibrium, CAT cache occupancy, DRAM channel
sharing, egress max-min fairness, M/M/k tail latency) is expressed here
as NumPy array math over all servers at once, following the
resource-model philosophy of summing costs analytically instead of
event-stepping them.

Equivalence contract
--------------------

The batch backend is a *drop-in numerical replica* of the scalar
engine, not an approximation: every formula is evaluated with the same
operation ordering the scalar code uses (the same left-associated
products, the same 40-iteration power bisection, the same Erlang-B
recurrence), and tail-latency noise is drawn from one independently
seeded :class:`numpy.random.Generator` per server, in server order —
so a batch of N servers produces tick-for-tick the same
:class:`~repro.sim.engine.TickRecord` stream as N scalar
``ColocationSim`` instances with the same seeds.  The equivalence is
enforced by ``tests/test_batch_equivalence.py`` and by the cluster
benchmark (``benchmarks/test_bench_batch.py``).

Controllers are *not* vectorized: each member server keeps a real
:class:`~repro.sim.actuators.Actuators`, latency/throughput monitors,
and (optionally) a real :class:`~repro.core.controller.
HeraclesController` — attached with the unmodified
``HeraclesController.for_sim`` — observing the batch-resolved state
through a :class:`CounterBank`-compatible view.  Controller logic is a
few comparisons per server per period; the physics was the hot path,
and it is the part that vectorizes.

Typical use::

    from repro.sim.batch import BatchColocationSim
    from repro.core.controller import HeraclesController

    batch = BatchColocationSim(lc=lc, trace=trace, bes=[be] * 16,
                               spec=spec, seeds=range(16))
    for m in batch.members:
        HeraclesController.for_sim(m, dram_model=shared_model)
    batch.run(3600.0)
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..hardware.cache import CatController
from ..hardware.counters import CounterBank
from ..hardware.server import Server
from ..hardware.spec import MachineSpec
from ..metrics.columns import BatchColumnStore
from ..metrics.history import BatchMemberSeries
from ..obs.profile import make_profiler
from ..obs.trace import make_sink
from ..workloads.best_effort import (BestEffortWorkload,
                                     reference_throughput_units)
from ..workloads.latency_critical import LatencyCriticalWorkload
from ..workloads.traces import LoadTrace
from .actuators import BE_COS, Actuators
from .chaos import PARTITION_TAIL_SLO_MULT, sort_events, trace_chaos_event
from .engine import Controller, SimHistory, TickRecord, TickSeriesMixin
from .monitors import LatencyMonitor, ThroughputMonitor


class BatchCounterView(CounterBank):
    """Per-member :class:`CounterBank` backed by the batch tick arrays.

    Controllers read hardware telemetry through this view exactly as
    they would through a scalar server's counter bank; every override
    returns the batch-resolved value for this member's server.
    """

    def __init__(self, batch: "BatchColocationSim", index: int,
                 server: Server):
        super().__init__(server)
        self._batch = batch
        self._i = index

    # -- DRAM ----------------------------------------------------------

    def dram_total_bw_gbps(self) -> float:
        """Total achieved DRAM bandwidth across sockets (GB/s)."""
        return float(self._batch._tick["dram_total_gbps"][self._i])

    def dram_utilization(self) -> float:
        """Worst per-socket DRAM channel utilization, in [0, 1]."""
        return float(self._batch._tick["dram_max_util"][self._i])

    def worst_socket_dram_bw_gbps(self) -> float:
        """Achieved DRAM bandwidth of the busiest socket (GB/s)."""
        return float(self._batch._tick["worst_socket_dram_gbps"][self._i])

    def dram_bw_of(self, task: str) -> float:
        """Achieved DRAM bandwidth of one task by name (GB/s)."""
        batch, i = self._batch, self._i
        if task == batch.members[i].lc.name:
            return float(batch._tick["lc_dram_ach"][i])
        be = batch.members[i].be
        if be is not None and task == be.name:
            if batch._tick["be_running"][i]:
                return float(batch._tick["be_dram_ach"][i])
        return 0.0

    def per_task_dram_gbps(self) -> Dict[str, float]:
        """Achieved DRAM bandwidth of every running task (GB/s)."""
        batch, i = self._batch, self._i
        out = {batch.members[i].lc.name: float(batch._tick["lc_dram_ach"][i])}
        be = batch.members[i].be
        if be is not None and batch._tick["be_running"][i]:
            out[be.name] = float(batch._tick["be_dram_ach"][i])
        return out

    # -- Power / frequency ----------------------------------------------

    def socket_power_watts(self, socket: int) -> float:
        """RAPL-smoothed package power of one socket (W)."""
        return float(self._batch._rapl_watts[self._i, socket])

    def power_fraction_of_tdp(self, socket: int) -> float:
        """One socket's RAPL power as a fraction of its TDP."""
        return (self._batch._rapl_watts[self._i, socket]
                / self._server.spec.socket.tdp_watts)

    def max_power_fraction_of_tdp(self) -> float:
        """The hottest socket's power as a fraction of TDP."""
        return float(max(
            self.power_fraction_of_tdp(s)
            for s in range(self._server.spec.sockets)))

    def freq_of(self, task: str) -> Optional[float]:
        """Core-weighted achieved frequency of a task (GHz), if running."""
        batch, i = self._batch, self._i
        if task == batch.members[i].lc.name:
            return float(batch._tick["lc_freq_ghz"][i])
        be = batch.members[i].be
        if be is not None and task == be.name:
            if batch._tick["be_running"][i]:
                return float(batch._tick["be_freq_ghz"][i])
        return None

    # -- Network ---------------------------------------------------------

    def tx_gbps_of(self, task: str) -> float:
        """Achieved egress bandwidth of one task by name (Gb/s)."""
        batch, i = self._batch, self._i
        if task == batch.members[i].lc.name:
            # Plain-float list view: the network subcontroller polls
            # this every simulated second on every member.
            return batch._lc_net_of(i)
        be = batch.members[i].be
        if be is not None and task == be.name:
            if batch._tick["be_running"][i]:
                return float(batch._tick["be_net_ach"][i])
        return 0.0

    def link_tx_gbps(self) -> float:
        """Total achieved egress on the NIC link (Gb/s)."""
        return float(self._batch._tick["link_tx_gbps"][self._i])

    # -- CPU -------------------------------------------------------------

    def cpu_utilization(self) -> float:
        """Fraction of physical cores in use, in [0, 1]."""
        return float(self._batch._tick["cpu_utilization"][self._i])


class _PassiveCat(CatController):
    """CAT mirror for batch members: state without re-validation.

    The batch physics reads partition sizes straight from the
    actuators, so the member server's CAT controllers only mirror
    state for introspection.  :class:`Actuators` clamps every split to
    a valid configuration before writing (LC + BE ways always sum to
    the cache), which makes the scalar ``set_partition`` overflow check
    pure per-tick overhead on the controllers' LLC-probe hot path.
    """

    def set_partition(self, cos: str, ways: int) -> None:
        """Record the partition size for ``cos`` without validation."""
        if ways == 0:
            self._classes.pop(cos, None)
        else:
            self._classes[cos] = ways


class BatchMember:
    """One server of a batch, presented with the scalar-sim surface.

    Exposes exactly the attributes :meth:`HeraclesController.for_sim`
    and the baseline controller factories consume — ``lc``, ``be``,
    ``actuators``, ``counters``, ``latency_monitor``, ``be_monitor``,
    ``history``, ``rng`` — so any controller written against
    :class:`~repro.sim.engine.ColocationSim` attaches unchanged.
    """

    def __init__(self, batch: "BatchColocationSim", index: int,
                 lc: LatencyCriticalWorkload, trace: LoadTrace,
                 be: Optional[BestEffortWorkload], seed: int,
                 min_lc_cores: int):
        self.batch = batch
        self.index = index
        self.lc = lc
        self.be = be
        self.trace = trace
        self.server = Server(batch.spec)
        self.server.cat = {
            s: _PassiveCat(batch.spec.socket.llc_mb,
                           batch.spec.socket.llc_ways)
            for s in range(batch.spec.sockets)
        }
        self.counters = BatchCounterView(batch, index, self.server)
        self.actuators = Actuators(self.server, min_lc_cores=min_lc_cores)
        self.latency_monitor = LatencyMonitor()
        self.rng = np.random.default_rng(seed)
        if batch.record_history:
            # Zero-copy member slice of the batch's (T, N) columns.
            self.history = BatchMemberHistory(batch._store, index)
        else:
            # The scalar format stays available (and simply empty), as
            # it was when the batch skipped per-member recording.
            self.history = SimHistory()
        self.controller: Optional[Controller] = None
        if be is not None:
            reference = reference_throughput_units(be)
            self.be_monitor: Optional[ThroughputMonitor] = ThroughputMonitor(
                reference)
        else:
            self.be_monitor = None

    @property
    def time_s(self) -> float:
        """The batch clock (shared by every member)."""
        return self.batch.time_s

    @property
    def spec(self) -> MachineSpec:
        """The batch's (homogeneous) machine description."""
        return self.batch.spec

    def attach_controller(self, controller: Controller) -> None:
        """Install the member's per-tick controller."""
        self.controller = controller

    @property
    def last_tail_ms(self) -> float:
        """This member's tail latency at the latest tick (ms)."""
        return float(self.batch._tick["tail_ms"][self.index])

    @property
    def last_emu(self) -> float:
        """This member's EMU at the latest tick."""
        return float(self.batch._tick["emu"][self.index])


@dataclass
class BatchTickResult:
    """Per-tick observables for every member, as arrays of shape (N,)."""

    t_s: float
    load: np.ndarray
    tail_latency_ms: np.ndarray
    slo_fraction: np.ndarray
    be_throughput_norm: np.ndarray
    emu: np.ndarray
    be_running: np.ndarray


class BatchMemberHistory(TickSeriesMixin, BatchMemberSeries):
    """One member's scalar-history view of the shared batch store.

    Presents the exact :class:`~repro.sim.engine.SimHistory` surface —
    ``records``, ``last()``, ``column()``, the windowed metrics — as a
    zero-copy slice of the batch's (T, N) columns, so the equivalence
    contract ("a batch member's history matches its scalar twin
    tick-for-tick") is checkable without materializing N dataclasses
    per tick.
    """

    RECORD_TYPE = TickRecord
    INT_FIELDS = SimHistory.INT_FIELDS
    BOOL_FIELDS = SimHistory.BOOL_FIELDS
    OPTIONAL_FIELDS = SimHistory.OPTIONAL_FIELDS


class BatchHistory:
    """Column-oriented record of a whole batched run.

    Rows are ticks, columns are members: every observable is a (T, N)
    member-major array inside one :class:`~repro.metrics.columns.
    BatchColumnStore` (timestamps are stored once — all members share
    the batch clock), so the cluster and sweep layers aggregate with
    array math and never materialize a ``TickRecord`` per
    (tick, server).

    A standalone ``BatchHistory()`` (as the public :meth:`append` API
    expects) records the compact observable set of
    :class:`BatchTickResult`; the batched engine instead hands its
    history a store that may carry the full ``TickRecord`` field set,
    shared zero-copy with the per-member
    :class:`BatchMemberHistory` views.
    """

    _FIELDS = ("load", "tail_latency_ms", "slo_fraction",
               "be_throughput_norm", "emu")

    def __init__(self, n: Optional[int] = None,
                 store: Optional[BatchColumnStore] = None):
        self._n = n
        self._store = store

    @property
    def store(self) -> Optional[BatchColumnStore]:
        """The backing store (None until the first append sizes it)."""
        return self._store

    def _ensure_store(self, n: int) -> BatchColumnStore:
        """Create the compact store on first use (N known at append)."""
        if self._store is None:
            fields = [("t_s", np.float64)]
            fields += [(name, np.float64) for name in self._FIELDS]
            self._store = BatchColumnStore(fields, n=n, shared=("t_s",))
        return self._store

    def append(self, result: BatchTickResult) -> None:
        """Record one tick's member-wide observable arrays.

        On an engine-owned history whose store carries the full
        ``TickRecord`` field set, the fields a :class:`BatchTickResult`
        does not provide are recorded as absent (NaN for float columns,
        zero/False for counts and flags) rather than rejected — the
        compact append API keeps working against either layout.
        """
        store = self._ensure_store(self._n or len(result.load))
        row = {name: getattr(result, name) for name in self._FIELDS}
        row["t_s"] = result.t_s
        for name in store.fields:
            if name not in row:
                dtype = np.dtype(store.raw_column(name).dtype)
                row[name] = np.nan if dtype.kind == "f" else 0
        store.append_tick(row)

    def column(self, name: str) -> np.ndarray:
        """(T, N) zero-copy view of one observable across the run."""
        if self._store is None or not len(self._store):
            return np.zeros((0, 0))
        return self._store.column(name)

    def times(self) -> np.ndarray:
        """Tick timestamps of the recorded run, shape (T,)."""
        if self._store is None:
            return np.zeros(0)
        return self._store.column("t_s")

    def __len__(self) -> int:
        """Number of recorded ticks."""
        return len(self._store) if self._store is not None else 0


def _distinct(objs: Sequence) -> tuple:
    """The distinct objects of ``objs`` by identity, and each entry's row.

    Returns ``(distinct, rows)``: ``distinct[rows[i]] is objs[i]``.  A
    table built once per distinct object expands to every entry with
    one gather, ``table[rows]`` — the Python work follows the number of
    distinct objects, not the length of ``objs``.
    """
    ids = np.fromiter(map(id, objs), dtype=np.uint64, count=len(objs))
    _, first, rows = np.unique(ids, return_index=True, return_inverse=True)
    return [objs[i] for i in first], rows.reshape(-1)


def _as_list(value, n: int, what: str) -> list:
    """Broadcast a scalar-or-sequence argument to a list of length n."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"{what}: expected {n} entries, got {len(value)}")
        return list(value)
    return [value] * n


class BatchColocationSim:
    """N servers, each one LC workload + one optional BE task group.

    Args:
        lc: one shared LC workload instance, or a sequence of N (all
            built against the same :class:`MachineSpec` — the batch is
            homogeneous in hardware, not necessarily in workload).
        trace: one shared load trace or a sequence of N.
        bes: None (no BE anywhere), one shared BE workload, or a
            sequence of N entries each ``BestEffortWorkload`` or None.
        spec: machine spec (defaults to the LC workload's).
        seeds: per-server tail-noise seeds (defaults to 0..N-1).
        n: batch size; inferred from the longest sequence argument
            when omitted.
        record_history: keep a per-member :class:`SimHistory` of full
            :class:`TickRecord` objects (the scalar engine's format).
            Disable for large fleets — the compact :class:`BatchHistory`
            columns are always recorded.
    """

    def __init__(self,
                 lc: Union[LatencyCriticalWorkload,
                           Sequence[LatencyCriticalWorkload]],
                 trace: Union[LoadTrace, Sequence[LoadTrace]],
                 bes: Union[None, BestEffortWorkload,
                            Sequence[Optional[BestEffortWorkload]]] = None,
                 spec: Optional[MachineSpec] = None,
                 seeds: Optional[Sequence[int]] = None,
                 n: Optional[int] = None,
                 min_lc_cores: int = 1,
                 record_history: bool = True,
                 specs: Optional[Sequence[MachineSpec]] = None,
                 spill_dir: Optional[str] = None):
        if seeds is not None:
            seeds = list(seeds)
        if n is None:
            n = 1
            for value in (lc, trace, bes, seeds):
                if isinstance(value, (list, tuple)):
                    n = max(n, len(value))
        self.n = n
        lcs = _as_list(lc, n, "lc")
        traces = _as_list(trace, n, "trace")
        be_list = _as_list(bes, n, "bes") if bes is not None else [None] * n
        seed_list = list(seeds) if seeds is not None else list(range(n))
        if len(seed_list) != n:
            raise ValueError(f"seeds: expected {n} entries")

        self.spec = spec or lcs[0].spec
        self.spec.validate()
        for w in lcs:
            if w.spec.total_cores != self.spec.total_cores:
                raise ValueError("batch members must share one hardware spec")
        self._dram_cap, self._nic_link = self._hardware_columns(specs)
        self.record_history = record_history
        self.time_s = 0.0
        # One columnar store for the whole batch: always the compact
        # BatchTickResult observables, plus the rest of the TickRecord
        # fields when per-member histories are kept.  Members' history
        # views read the same arrays — nothing is stored twice.
        if record_history:
            fields = SimHistory.field_dtypes()
        else:
            fields = [("t_s", np.float64)] + [
                (name, np.float64) for name in BatchHistory._FIELDS]
        # spill_dir bounds resident history memory by chunked
        # spill-to-disk (see repro.metrics.columns); each batch needs
        # its own directory.
        self._store = BatchColumnStore(fields, n=n, shared=("t_s",),
                                       spill_dir=spill_dir)
        self.history = BatchHistory(n=n, store=self._store)

        self.members: List[BatchMember] = self._build_members(
            lcs, traces, be_list, seed_list, min_lc_cores)

        self._shared_trace = traces[0] if all(
            t is traces[0] for t in traces) else None
        self._build_static_arrays(lcs, be_list)

        # Mutable telemetry state (RAPL-style smoothed power).
        S = self.spec.sockets
        self._rapl_watts = np.zeros((n, S))
        self._rapl_started = False
        self._rapl_smoothing = 0.5
        # Tail-noise bookkeeping (a no-draw member keeps factor 1.0).
        self._noise_sigmas = self._lc["noise_sigma"].tolist()
        self._any_noise = bool((self._lc["noise_sigma"] > 0).any())
        self._noise_draws = np.ones(n)
        self._lc_net_list: Optional[List[float]] = [0.0] * n
        self._gathered_be_cores = np.zeros(n, dtype=np.int64)
        self._tick: Dict[str, np.ndarray] = self._empty_tick()
        # Tick-loop constants, hoisted so the hot path spends no
        # dispatches rebuilding run-invariant values.
        self._srange = np.arange(S, dtype=np.int64)
        self._total_cores_i64 = np.int64(self.spec.total_cores)
        # Engines that collect their own telemetry (the mega fleet
        # engine) clear this to skip the per-tick column-store append.
        self._record_ticks = True
        # Observability (off by default: both stay None unless the
        # REPRO_TRACE / REPRO_PROFILE env toggles are set; the whole
        # disabled path is these attributes' None checks).
        self._obs_trace = make_sink()
        self._obs_prof = make_profiler()
        self._obs_map: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Member-surface hooks
    # ------------------------------------------------------------------
    #
    # Everything that touches per-member Python objects goes through
    # these overridable hooks; the vectorized physics in :meth:`tick`
    # never does.  The mega fleet engine (:mod:`repro.sim.megabatch`)
    # subclasses them with pure array-state implementations, sharing
    # this class's physics code path outright — which is what makes its
    # bit-identity to the sharded reference hold by construction.

    def _build_members(self, lcs, traces, be_list, seed_list,
                       min_lc_cores) -> List[BatchMember]:
        """Construct the per-member controller surface."""
        return [
            BatchMember(self, i, lcs[i], traces[i], be_list[i],
                        seed_list[i], min_lc_cores)
            for i in range(self.n)
        ]

    def _offered_load(self) -> np.ndarray:
        """Offered load of every member at the current clock, shape (N,)."""
        if self._shared_trace is not None:
            return np.full(self.n, self._shared_trace.clipped(self.time_s))
        return np.array([m.trace.clipped(self.time_s)
                         for m in self.members])

    def _gather_actuator_state(self):
        """Placement state of every member, as 7 parallel (N,) arrays.

        Returns ``(be_enabled, be_eff, lc_ways, be_ways, dvfs_cap,
        throttle, be_ceil)`` where ``be_eff`` is the ``be_cores``
        property view (0 while disabled) and uncapped DVFS/ceil values
        are ``inf``.
        """
        n = self.n
        be_eff = np.empty(n, dtype=np.int64)       # property view (0 if off)
        lc_ways = np.empty(n, dtype=np.int64)      # raw CAT split
        be_ways = np.empty(n, dtype=np.int64)
        be_enabled = np.empty(n, dtype=bool)
        dvfs_cap = np.empty(n)
        throttle = np.empty(n)
        be_ceil = np.empty(n)
        for i, m in enumerate(self.members):
            a = m.actuators
            be_enabled[i] = a._be_enabled
            be_eff[i] = a._be_cores if a._be_enabled else 0
            lc_ways[i] = a._lc_ways
            be_ways[i] = a._be_ways
            cap = a._be_dvfs_cap
            dvfs_cap[i] = np.inf if cap is None else cap
            throttle[i] = a._be_dram_throttle
            ceil = a.htb.ceil_of(BE_COS)
            be_ceil[i] = np.inf if ceil is None else ceil
        return (be_enabled, be_eff, lc_ways, be_ways, dvfs_cap, throttle,
                be_ceil)

    def _tail_noise_factors(self) -> Optional[np.ndarray]:
        """Per-member tail-noise multipliers for this tick, or None.

        Draws are taken per member in member order (a no-draw member —
        sigma <= 0 — never consumes its stream), so the sequence
        matches the scalar engine's single-server draws.
        """
        if not self._any_noise:
            return None
        draws = self._noise_draws
        for i, sigma in enumerate(self._noise_sigmas):
            if sigma > 0:
                draws[i] = self.members[i].rng.lognormal(mean=0.0,
                                                         sigma=sigma)
        return draws

    def _record_members(self, load, tail, be_units, be_running,
                        dt_s) -> np.ndarray:
        """Feed the per-member monitors; returns be_norm, shape (N,)."""
        be_norm = np.zeros(self.n)
        t = self.time_s
        for i, m in enumerate(self.members):
            m.latency_monitor.record(t, float(tail[i]), float(load[i]))
            if be_running[i]:
                m.be_monitor.record(float(be_units[i]) * dt_s, dt_s)
                be_norm[i] = m.be_monitor.last_normalized
        return be_norm

    def _step_controllers(self) -> None:
        """Run every member's controller at the current clock."""
        for m in self.members:
            if m.controller is not None:
                m.controller.step(self.time_s)

    def be_cores_now(self) -> np.ndarray:
        """Every member's current ``be_cores`` property view, shape (N,).

        Unlike the per-tick gather (step 2 of :meth:`tick`, cached in
        ``_gathered_be_cores``), this reads the actuators *now* —
        including any controller mutations from the current tick's
        step — which is what a cluster scheduler polls after a tick.
        """
        return np.array([m.actuators.be_cores for m in self.members],
                        dtype=np.int64)

    # ------------------------------------------------------------------
    # Observability (decision tracing / phase profiling)
    # ------------------------------------------------------------------
    #
    # Off by default: ``_obs_trace`` / ``_obs_prof`` stay None unless
    # the REPRO_TRACE / REPRO_PROFILE toggles are set, and every hook
    # below is gated on one ``is None`` check.  Tracing never mutates
    # engine state — the post-controller gather restores the
    # ``_gathered_be_cores`` cache the fleet drivers read.

    #: Class-level observability defaults (pre-observability pickles
    #: restore with everything off).
    _obs_trace = None
    _obs_prof = None
    _obs_map = None

    def obs_set_members(self, members) -> None:
        """Set the *global* (fleet-wide) index of every local member.

        Trace events carry global member indices so merged traces are
        invariant under any shard partition; a standalone batch keeps
        the identity mapping.
        """
        members = np.asarray(members, dtype=np.int64)
        if members.shape != (self.n,):
            raise ValueError(f"expected {self.n} member indices, got "
                             f"shape {members.shape}")
        self._obs_map = members

    def _obs_members(self) -> np.ndarray:
        """Local→global member index map (identity unless re-based)."""
        if self._obs_map is None:
            self._obs_map = np.arange(self.n, dtype=np.int64)
        return self._obs_map

    def _obs_actuator_state(self) -> np.ndarray:
        """The traced actuator columns ``(gate, cores, llc, dvfs, ceil)``.

        A pure re-gather through the member-surface hook (so the mega
        engine's array state reads through its own override), with the
        ``_gathered_be_cores`` cache restored — the fleet drivers
        record that cache as the tick's ``be_cores`` row, and tracing
        must never perturb it.  Returned as one ``(5, N)`` float array
        (see :func:`_traced_actuators`).
        """
        saved = self._gathered_be_cores
        (be_enabled, be_eff, _lc_ways, be_ways, dvfs_cap, _throttle,
         be_ceil) = self._gather_actuator_state()
        self._gathered_be_cores = saved
        return _traced_actuators(be_enabled, be_eff, be_ways, dvfs_cap,
                                 be_ceil)

    def _obs_emit_decisions(self, pre, slo_fraction, load) -> None:
        """Emit one event per actuator a controller changed this tick.

        ``pre`` is the traced ``(5, N)`` actuator array derived from
        the tick's step-2 gather (post-chaos, pre-controller — chaos
        mutations carry their own events); attached triggering signals
        are the tick's observed SLO fraction and offered load.
        Uncapped DVFS/ceiling values (``inf``) are emitted as null.
        The whole tick goes out as one fused ``(5, N)`` delta append
        (see :meth:`TraceSink.emit_actuator_deltas`) — array-shaped
        cost, no per-event Python calls.
        """
        self._obs_trace.emit_actuator_deltas(
            self.time_s, self._obs_members(), pre,
            self._obs_actuator_state(), slo_fraction, load)

    # ------------------------------------------------------------------
    # Chaos events (fault injection)
    # ------------------------------------------------------------------
    #
    # Chaos is resolved as masked column updates over the same physics
    # the scalar engine runs member-by-member; the semantics contract
    # lives in :mod:`repro.sim.chaos`.  Every branch below is gated on
    # ``self._chaos is None`` so a schedule-free run executes the exact
    # instruction stream it always did (bit-identity by construction),
    # and healthy members of a chaotic run multiply by exactly 1.0 —
    # a bitwise identity — wherever a derate column touches them.

    #: No chaos schedule attached (class default keeps the gate free).
    _chaos = None

    def set_chaos_events(self, events) -> None:
        """Attach a chaos schedule (:class:`~repro.sim.chaos.ChaosEvent`).

        Must be called before the first tick; member indices are local
        to this engine (``None`` targets every member).
        """
        events = sort_events(events)
        for event in events:
            if event.members is None:
                continue
            for m in event.members:
                if not 0 <= m < self.n:
                    raise ValueError(
                        f"chaos event targets member {m} of a "
                        f"{self.n}-member batch")
        n = self.n
        self._chaos = events
        self._chaos_pos = 0
        self._chaos_alive = np.ones(n, dtype=bool)
        self._chaos_derate = np.ones(n)
        self._chaos_tdp = np.ones(n)
        self._chaos_part_until = np.full(n, -np.inf)

    def _chaos_apply(self) -> None:
        """Fire due events, then re-pin the BE-off state of dead members."""
        events = self._chaos
        pos = self._chaos_pos
        while pos < len(events) and events[pos].at_s <= self.time_s:
            ev = events[pos]
            pos += 1
            idx = (list(range(self.n)) if ev.members is None
                   else list(ev.members))
            if not idx:
                continue
            if self._obs_trace is not None:
                trace_chaos_event(self._obs_trace, self.time_s, ev,
                                  self._obs_members()[idx])
            if ev.action == "leaf_crash":
                self._chaos_alive[idx] = False
            elif ev.action == "leaf_restart":
                self._chaos_alive[idx] = True
                self._chaos_disable_be(idx)   # rejoin cold
            elif ev.action == "straggler":
                self._chaos_derate[idx] = float(ev.value)
            elif ev.action == "power_cap":
                self._chaos_tdp[idx] = float(ev.value)
            elif ev.action == "partition":
                self._chaos_part_until[idx] = np.maximum(
                    self._chaos_part_until[idx], ev.at_s + float(ev.value))
            elif ev.action == "enable_be":
                self._chaos_enable_be(idx)
            elif ev.action == "disable_be":
                self._chaos_disable_be(idx)
            elif ev.action == "set_be_cores":
                self._chaos_set_be_cores(idx, int(ev.value))
            elif ev.action == "set_llc_split":
                self._chaos_set_llc_split(idx, int(ev.value))
            else:  # set_be_net_ceil
                self._chaos_set_net_ceil(idx, float(ev.value))
        self._chaos_pos = pos
        dead = ~self._chaos_alive
        if dead.any():
            # Forced off every tick while down: a controller that turns
            # BE back on mid-crash is overridden at the next tick start,
            # exactly as the scalar engine re-pins its single member.
            self._chaos_disable_be(np.nonzero(dead)[0])

    # Chaos actuator hooks — the member-surface seam.  The mega engine
    # overrides these with masked array transcriptions of the same
    # Actuators methods.

    def _chaos_disable_be(self, indices) -> None:
        for i in indices:
            self.members[i].actuators.disable_be()

    def _chaos_enable_be(self, indices) -> None:
        for i in indices:
            self.members[i].actuators.enable_be()

    def _chaos_set_be_cores(self, indices, value: int) -> None:
        for i in indices:
            self.members[i].actuators.set_be_cores(value)

    def _chaos_set_llc_split(self, indices, value: int) -> None:
        for i in indices:
            self.members[i].actuators.set_llc_split(value)

    def _chaos_set_net_ceil(self, indices, value: float) -> None:
        for i in indices:
            self.members[i].actuators.set_be_net_ceil(value)

    # ------------------------------------------------------------------
    # Static per-member parameter arrays
    # ------------------------------------------------------------------

    def _hardware_columns(self, specs):
        """Per-member DRAM/NIC capacities: scalars unless ``specs`` vary.

        A heterogeneous batch (the mega fleet engine merging several
        clusters into one array program) passes one
        :class:`MachineSpec` per member.  The specs must agree on every
        field the physics reads as a shared scalar — core counts, cache
        geometry, turbo ladder, power envelope — and the two capacity
        fields the physics applies per member, DRAM bandwidth and NIC
        link rate, become broadcast columns: ``(N, 1)`` against the
        per-socket demand matrices and ``(N,)`` against the egress
        vectors.  With no ``specs`` (every existing caller) the columns
        are the plain ``self.spec`` scalars and the arithmetic is
        unchanged bit for bit.
        """
        base = self.spec
        if specs is None:
            return base.socket.dram_bw_gbps, base.nic.link_gbps
        specs = list(specs)
        if len(specs) != self.n:
            raise ValueError(f"specs: expected {self.n} entries")
        # Fleet members share a handful of spec objects: check and read
        # each distinct one once, then expand the columns by its rows.
        distinct, rows = _distinct(specs)
        norm = _dc_replace(
            base, socket=_dc_replace(base.socket, dram_bw_gbps=1.0),
            nic=_dc_replace(base.nic, link_gbps=1.0))
        for s in distinct:
            if _dc_replace(
                    s, socket=_dc_replace(s.socket, dram_bw_gbps=1.0),
                    nic=_dc_replace(s.nic, link_gbps=1.0)) != norm:
                raise ValueError(
                    "specs may differ only in DRAM bandwidth and NIC "
                    "link rate; every structural field (cores, cache, "
                    "turbo, power) must match the batch spec")
        dram = np.array([s.socket.dram_bw_gbps for s in distinct])[rows]
        link = np.array([s.nic.link_gbps for s in distinct])[rows]
        dram_col = (base.socket.dram_bw_gbps
                    if (dram == base.socket.dram_bw_gbps).all()
                    else dram[:, None])
        link_col = (base.nic.link_gbps
                    if (link == base.nic.link_gbps).all() else link)
        return dram_col, link_col

    def _build_static_arrays(self, lcs, bes) -> None:
        # Every table row is a pure function of its workload object, and
        # fleets pass a few shared objects N times over: evaluate each
        # row once per distinct object, then expand with one gather.
        lc_distinct, lc_rows = _distinct(lcs)

        def arr(fn, dtype=float):
            values = np.array([fn(w) for w in lc_distinct], dtype=dtype)
            return values[lc_rows]

        p = lambda w: w.profile
        s = lambda w: w.profile.sensitivity
        self._lc = {
            "peak_qps": arr(lambda w: w.peak_qps),
            "base_service_ms": arr(lambda w: w.base_service_ms),
            "slo_ms": arr(lambda w: p(w).slo_latency_ms),
            "percentile": arr(lambda w: p(w).slo_percentile),
            "tail_mult": arr(lambda w: p(w).service_tail_mult),
            "pool_size": arr(lambda w: p(w).pool_size or 0, dtype=np.int64),
            "noise_sigma": arr(lambda w: p(w).noise_sigma),
            "compute_activity": arr(lambda w: p(w).compute_activity),
            "dram_peak_gbps": arr(lambda w: w._dram_peak_gbps),
            "dram_exponent": arr(lambda w: p(w).dram_load_exponent),
            "uncached_share": arr(lambda w: w._uncached_share),
            "baseline_hit": arr(lambda w: w._baseline_hit),
            "hot_mb": arr(lambda w: p(w).hot_mb),
            "bulk_peak_mb": arr(lambda w: p(w).bulk_mb_at_peak),
            "bulk_reuse": arr(lambda w: p(w).bulk_reuse),
            "hot_frac": arr(lambda w: p(w).hot_access_fraction),
            "net_frac": arr(lambda w: p(w).net_frac_at_peak),
            "net_flows": arr(lambda w: p(w).net_flows),
            "freq_exp": arr(lambda w: s(w).freq_exponent),
            "hot_w": arr(lambda w: s(w).hot_miss_weight),
            "bulk_w": arr(lambda w: s(w).bulk_miss_weight),
            "mem_frac": arr(lambda w: s(w).mem_time_fraction),
            "net_gain": arr(lambda w: s(w).net_tail_gain),
        }

        # Static derived quantities, precomputed once so the tick loop
        # spends no dispatches on run-constant arithmetic.  Each matches
        # the subexpression the scalar code evaluates per call.
        self._lc["cached_share"] = 1.0 - self._lc["uncached_share"]
        self._lc["miss_frac"] = np.maximum(1e-3,
                                           1.0 - self._lc["baseline_hit"])
        self._lc["net_peak"] = self._lc["net_frac"] * self._nic_link
        self._lc["tail_mass"] = 1.0 - self._lc["percentile"]
        # Queueing pool structure depends only on the integer core count:
        # table[j, servers] is servers_per_pool for distinct workload j,
        # and member i reads row ``_member_index[i]``.
        total = self.spec.total_cores
        table = np.ones((len(lc_distinct), total + 1), dtype=np.int64)
        for j, w in enumerate(lc_distinct):
            ps = w.profile.pool_size
            for servers in range(1, total + 1):
                pools = max(1, round(servers / ps)) if ps else 1
                table[j, servers] = max(1, round(servers / pools))
        self._k_table = table
        self._member_index = lc_rows

        be_distinct, be_rows = _distinct(bes)

        def barr(fn, default=0.0):
            return np.array([fn(w.profile) if w is not None else default
                             for w in be_distinct], dtype=float)[be_rows]

        self._has_be = np.array([w is not None for w in be_distinct],
                                dtype=bool)[be_rows]
        self._be = {
            # min(3, activity * power_weight) — the scalar demand() value.
            "activity": barr(lambda q: min(3.0, q.activity * q.power_weight)),
            "hot_mb": barr(lambda q: q.hot_mb),
            "bulk_mb": barr(lambda q: q.bulk_mb),
            "bulk_reuse": barr(lambda q: q.bulk_reuse, 1.0),
            "access_per_core": barr(lambda q: q.access_gbps_per_core),
            "hot_frac": barr(lambda q: q.hot_access_fraction),
            "uncached_per_core": barr(lambda q: q.uncached_dram_gbps_per_core),
            "net_demand": barr(lambda q: q.net_demand_gbps),
            "net_flows": barr(lambda q: q.net_flows, 1.0),
            "mem_bound": barr(lambda q: q.mem_bound_fraction),
            "cache_benefit": barr(lambda q: q.cache_benefit),
        }
        # Concatenated LC+BE statics for the stacked cache resolution.
        self._hot_frac_cat = np.concatenate([self._lc["hot_frac"],
                                             self._be["hot_frac"]])
        self._bulk_reuse_cat = np.concatenate([self._lc["bulk_reuse"],
                                               self._be["bulk_reuse"]])

    def _lc_net_of(self, i: int) -> float:
        """Member ``i``'s achieved LC egress as a plain float.

        The per-member float list is materialized from the tick's
        ``lc_net_ach`` column on first poll and cached for the rest of
        the tick — engines with no member objects never pay for it.
        """
        lst = self._lc_net_list
        if lst is None:
            lst = self._lc_net_list = self._tick["lc_net_ach"].tolist()
        return lst[i]

    def _empty_tick(self) -> Dict[str, np.ndarray]:
        n, zeros = self.n, np.zeros(self.n)
        return {
            "load": zeros.copy(), "tail_ms": zeros.copy(),
            "slo_fraction": zeros.copy(), "be_norm": zeros.copy(),
            "emu": zeros.copy(),
            "be_running": np.zeros(n, dtype=bool),
            "lc_freq_ghz": zeros.copy(), "be_freq_ghz": zeros.copy(),
            "lc_dram_ach": zeros.copy(), "be_dram_ach": zeros.copy(),
            "lc_net_ach": zeros.copy(), "be_net_ach": zeros.copy(),
            "dram_total_gbps": zeros.copy(), "dram_max_util": zeros.copy(),
            "worst_socket_dram_gbps": zeros.copy(),
            "link_tx_gbps": zeros.copy(), "cpu_utilization": zeros.copy(),
        }

    # ------------------------------------------------------------------
    # The vectorized tick
    # ------------------------------------------------------------------

    def tick(self, dt_s: float = 1.0) -> BatchTickResult:
        """Advance all members by one interval (vectorized physics)."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        n, S = self.n, self.spec.sockets
        spec = self.spec
        socket = spec.socket

        # -- 0. Chaos events (fire at tick start, before load eval) ---------
        prof = self._obs_prof
        mark = perf_counter() if prof is not None else 0.0
        if self._chaos is not None:
            self._chaos_apply()
            chaos_dead = ~self._chaos_alive
            chaos_parted = self._chaos_alive & (self.time_s
                                                < self._chaos_part_until)
        else:
            chaos_dead = chaos_parted = None
        if prof is not None:
            now = perf_counter()
            prof.add("chaos", now - mark)
            mark = now

        # -- 1. Offered load ------------------------------------------------
        load = self._offered_load()
        if self._chaos is not None:
            # Crashed leaves serve nothing; partitioned leaves have
            # their load held at the root (reads as zero here).
            load = np.where(chaos_dead | chaos_parted, 0.0, load)

        # -- 2. Gather placement state from the actuators -------------------
        (be_enabled, be_eff, lc_ways, be_ways, dvfs_cap, throttle,
         be_ceil) = self._gather_actuator_state()
        # The gathered be_cores view is the post-step state of the
        # *previous* tick (controllers mutate actuators after physics);
        # keep it readable so callers can collect controller grants
        # without a per-member property loop.
        self._gathered_be_cores = be_eff
        pre_act = None
        if self._obs_trace is not None:
            # A copy, not views: the mega engine's gather returns its
            # live actuator arrays, which controllers mutate in place —
            # the pre-controller snapshot must not follow them.
            pre_act = _traced_actuators(be_enabled, be_eff, be_ways,
                                        dvfs_cap, be_ceil)

        be_running = self._has_be & be_enabled & (be_eff > 0)

        # Per-socket core splits (the actuators' round-robin policy).
        be_s = (be_eff[:, None] // S
                + (self._srange[None, :] < (be_eff[:, None] % S)))
        lc_s = socket.cores - be_s
        lc_total = self._total_cores_i64 - be_eff
        be_total = np.where(be_running, be_eff, 0)
        be_s = np.where(be_running[:, None], be_s, 0)

        # -- 3. Workload demands -------------------------------------------
        L = self._lc
        rho_lc = np.minimum(
            1.0, ((load * L["peak_qps"]) * L["base_service_ms"]
                  / 1000.0) / lc_total)
        act_lc = L["compute_activity"] * rho_lc
        dram_target = L["dram_peak_gbps"] * load ** L["dram_exponent"]
        uncached_lc = L["uncached_share"] * dram_target
        access_lc = (L["cached_share"] * dram_target) / L["miss_frac"]
        bulk_lc = L["bulk_peak_mb"] * load
        net_lc = L["net_peak"] * load

        # Per-socket splits, matching the two scalar helpers' operation
        # order: cache_demand_for normalizes the weight first
        # (w = cores/total), split_across_sockets divides last.
        lc_mask_s = lc_s > 0
        w_lc = np.where(lc_mask_s, lc_s / lc_total[:, None], 0.0)
        hot_lc_s = L["hot_mb"][:, None] * w_lc
        bulk_lc_s = bulk_lc[:, None] * w_lc
        access_lc_s = access_lc[:, None] * w_lc
        uncached_lc_s = np.where(
            lc_mask_s,
            (uncached_lc[:, None] * lc_s) / lc_total[:, None], 0.0)

        B = self._be
        be_mask_s = be_s > 0
        safe_be_total = np.where(be_total > 0, be_total, 1)
        w_be = np.where(be_mask_s, be_s / safe_be_total[:, None], 0.0)
        hot_be_s = B["hot_mb"][:, None] * w_be
        bulk_be_s = B["bulk_mb"][:, None] * w_be
        access_be = B["access_per_core"] * be_total
        access_be_s = access_be[:, None] * w_be
        uncached_be = B["uncached_per_core"] * be_total
        uncached_be_s = np.where(
            be_mask_s,
            (uncached_be[:, None] * be_s) / safe_be_total[:, None], 0.0)
        act_be = B["activity"]
        net_be = np.where(be_running, B["net_demand"], 0.0)

        # -- 4. Power / frequency equilibrium -------------------------------
        lc_freq_s, be_freq_s, power_s = self._resolve_power(
            lc_s, act_lc, be_s, act_be, be_running, dvfs_cap)
        # RAPL metering (exponentially smoothed, as the real counters).
        a = self._rapl_smoothing
        if self._rapl_started:
            self._rapl_watts = a * power_s + (1 - a) * self._rapl_watts
        else:
            self._rapl_watts = power_s.copy()
            self._rapl_started = True
        # Core-weighted achieved frequency per task.
        lc_freq = _weighted_freq(lc_freq_s, lc_s)
        be_freq = _weighted_freq(be_freq_s, be_s)
        if self._chaos is not None:
            # Straggler derate on the achieved frequencies (healthy
            # members multiply by exactly 1.0 — a bitwise identity).
            lc_freq = lc_freq * self._chaos_derate
            be_freq = be_freq * self._chaos_derate

        # -- 5. LLC occupancy within each CAT partition ---------------------
        # LC and BE resolve in separate partitions with identical math,
        # so both stacks go through one vectorized resolution.
        mb_per_way = socket.llc_mb / socket.llc_ways
        hit2, hot_cov2, bulk_cov2, miss2 = _resolve_partition(
            np.concatenate([lc_ways * mb_per_way, be_ways * mb_per_way]),
            np.concatenate([lc_mask_s, be_mask_s]),
            np.concatenate([hot_lc_s, hot_be_s]),
            np.concatenate([bulk_lc_s, bulk_be_s]),
            np.concatenate([access_lc_s, access_be_s]),
            self._hot_frac_cat, self._bulk_reuse_cat)
        lc_hit, be_hit = hit2[:n], hit2[n:]
        lc_hot_cov, lc_bulk_cov = hot_cov2[:n], bulk_cov2[:n]
        be_hot_cov, be_bulk_cov = hot_cov2[n:], bulk_cov2[n:]
        lc_miss_s, be_miss_s = miss2[:n], miss2[n:]

        # -- 6. DRAM channels ----------------------------------------------
        dram = self._resolve_memory(
            lc_s, be_s, uncached_lc_s, lc_miss_s, uncached_be_s, be_miss_s,
            throttle, be_running)

        # -- 7. Egress link -------------------------------------------------
        net = self._resolve_network(
            net_lc, L["net_flows"], net_be, B["net_flows"], be_ceil,
            be_running)

        # -- 8. LC tail latency --------------------------------------------
        nominal = socket.turbo.nominal_ghz
        freq_factor = (nominal / lc_freq) ** L["freq_exp"]
        hot_loss = 1.0 - lc_hot_cov
        cache_factor = (1.0
                        + L["hot_w"] * hot_loss * (0.3 + 0.7 * hot_loss)
                        + L["bulk_w"] * (1.0 - lc_bulk_cov))
        mem_factor = 1.0 + L["mem_frac"] * (dram["lc_delay"] - 1.0)
        # Heracles pins LC and BE to disjoint physical cores, so the
        # HyperThread share is identically zero on this path (factor 1).
        inflation = freq_factor * cache_factor * mem_factor * 1.0
        service_ms = L["base_service_ms"] * inflation
        qps = load * L["peak_qps"]
        k_pool = self._k_table[self._member_index, lc_total]
        tail = _queue_tail_ms(lc_total, service_ms, qps, L["tail_mult"],
                              L["tail_mass"], k_pool)
        lc_sat = np.where(net_lc > 0,
                          np.minimum(1.0, net["lc_ach"] / np.where(
                              net_lc > 0, net_lc, 1.0)), 1.0)
        tail = tail * _net_latency_factor(net_lc, lc_sat, L["net_gain"])

        # Per-member seeded noise streams, drawn in member order so the
        # sequence matches the scalar engine's single-server draws.
        draws = self._tail_noise_factors()
        if draws is not None:
            tail = tail * draws
        if self._chaos is not None:
            # Noise streams above still advanced for every member (so
            # healthy members' draws are unaffected); the overrides
            # replace the computed tail afterwards.
            tail = np.where(chaos_parted,
                            L["slo_ms"] * PARTITION_TAIL_SLO_MULT, tail)
            tail = np.where(chaos_dead, 0.0, tail)
        slo_fraction = tail / L["slo_ms"]

        # -- 9. BE throughput ----------------------------------------------
        freq_scale = be_freq / nominal
        mem_sat = np.where(dram["be_dem"] > 1e-9,
                           np.minimum(1.0, dram["be_ach"] / np.where(
                               dram["be_dem"] > 1e-9, dram["be_dem"], 1.0)),
                           1.0)
        mem_scale = (1.0 - B["mem_bound"]) + B["mem_bound"] * mem_sat
        cache_scale = 1.0 + B["cache_benefit"] * (be_hit - 1.0)
        eff = np.maximum(1e-3, freq_scale * mem_scale * cache_scale * 1.0)
        be_sat = np.where(net_be > 0,
                          np.minimum(1.0, net["be_ach"] / np.where(
                              net_be > 0, net_be, 1.0)), 1.0)
        eff = np.where(B["net_demand"] > 0, eff * be_sat, eff)
        be_units = np.where(be_running, be_total * eff, 0.0)

        # -- 10. Telemetry / counters ---------------------------------------
        cores_in_use = lc_total + np.where(be_running, be_total, 0)
        self._tick = {
            "load": load, "tail_ms": tail, "slo_fraction": slo_fraction,
            "be_running": be_running,
            "lc_freq_ghz": lc_freq, "be_freq_ghz": be_freq,
            "lc_dram_ach": dram["lc_ach"], "be_dram_ach": dram["be_ach"],
            "lc_net_ach": net["lc_ach"], "be_net_ach": net["be_ach"],
            "dram_total_gbps": dram["total_gbps"],
            "dram_max_util": dram["max_util"],
            "worst_socket_dram_gbps": dram["worst_socket_gbps"],
            "link_tx_gbps": net["total_ach"],
            "cpu_utilization": (np.minimum(cores_in_use, spec.total_cores)
                                / spec.total_cores),
        }
        # Invalidate the members' plain-float egress view; it is
        # materialized lazily on first poll (never, for engines with no
        # member objects).
        self._lc_net_list = None

        # -- 11. Member bookkeeping: monitors, history, controllers ---------
        if prof is not None:
            now = perf_counter()
            prof.add("physics", now - mark)
            mark = now
        be_norm = self._record_members(load, tail, be_units, be_running,
                                       dt_s)
        emu = load + be_norm
        self._tick["be_norm"] = be_norm
        self._tick["emu"] = emu

        result = BatchTickResult(
            t_s=self.time_s, load=load, tail_latency_ms=tail,
            slo_fraction=slo_fraction, be_throughput_norm=be_norm,
            emu=emu, be_running=be_running)

        # One vectorized row write records the whole tick for every
        # member (the per-member dataclass loop this replaces built N
        # TickRecords per tick).  The actuator-state columns reuse the
        # arrays gathered in step 2: controllers only mutate actuators
        # *after* this point in the tick, so the gathered values are
        # exactly what the per-member properties would report here.
        row = {
            "t_s": self.time_s, "load": load, "tail_latency_ms": tail,
            "slo_fraction": slo_fraction, "be_throughput_norm": be_norm,
            "emu": emu,
        } if self._record_ticks else None
        if row is not None and self.record_history:
            row.update(
                be_cores=be_eff,
                be_llc_ways=np.where(be_enabled, be_ways, 0),
                be_dvfs_cap_ghz=np.where(np.isinf(dvfs_cap), np.nan,
                                         dvfs_cap),
                be_net_ceil_gbps=np.where(np.isinf(be_ceil), np.nan,
                                          be_ceil),
                be_enabled=be_enabled,
                dram_bw_gbps=dram["total_gbps"],
                dram_utilization=dram["max_util"],
                cpu_utilization=self._tick["cpu_utilization"],
                power_fraction_of_tdp=(_socket_sum(power_s)
                                       / (socket.tdp_watts * S)),
                lc_net_gbps=net["lc_ach"],
                be_net_gbps=net["be_ach"],
                link_utilization=np.minimum(
                    1.0, net["total_ach"] / self._nic_link),
            )
        if row is not None:
            self._store.append_tick(row)
        if prof is not None:
            now = perf_counter()
            prof.add("telemetry", now - mark)
            mark = now

        self._step_controllers()
        if pre_act is not None:
            self._obs_emit_decisions(pre_act, slo_fraction, load)
        if prof is not None:
            prof.add("controllers", perf_counter() - mark)

        self.time_s += dt_s
        return result

    def run(self, duration_s: float, dt_s: float = 1.0) -> BatchHistory:
        """Run all members for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            self.tick(dt_s)
        return self.history

    # ------------------------------------------------------------------
    # Physics stages
    # ------------------------------------------------------------------

    #: Grid resolution of the scalar power bisection: 40 halvings of
    #: [0, 1] land every lo/hi bound on an exact multiple of 2**-40
    #: (dyadic rationals are exact doubles), so the bisection's result
    #: is *characterized* — not approximated — as the largest grid
    #: point whose power check passes.
    _BISECT_SCALE = 2.0 ** 40

    def _resolve_power(self, lc_s, act_lc, be_s, act_be, be_running,
                       dvfs_cap):
        """Per-socket frequency/power equilibrium, (N, S) vectorized.

        Mirrors :meth:`SocketPowerModel.resolve`: turbo ceiling from the
        active-core count, per-task DVFS targets, and — when the socket
        would exceed TDP — the same frequency-scale clamp the scalar
        model finds by 40-step bisection.

        The clamp is computed without the 40 vectorized iterations: the
        scalar bisection's bounds always sit on the exact 2**-40 dyadic
        grid, so its outcome equals the largest grid point ``k/2**40``
        whose recomputed power does not exceed TDP.  We locate ``k``
        with an analytic piecewise-cubic root estimate and confirm it
        with a handful of exact grid probes (the probes evaluate the
        *same* expression, in the same operation order, as the scalar
        loop); any socket the probes cannot pin down — possible only if
        libm rounding makes power locally non-monotone — falls back to
        the literal 40-iteration bisection.
        """
        socket = self.spec.socket
        turbo = socket.turbo
        nominal = turbo.nominal_ghz
        floor = turbo.min_ghz
        span = turbo.max_turbo_ghz - turbo.all_core_turbo_ghz
        k = socket.core_dynamic_watts
        tdp = socket.tdp_watts
        if self._chaos is not None:
            # Timed power caps scale the TDP limit per member; (N, 1)
            # broadcasts across sockets.  Every use of ``tdp`` below is
            # elementwise, so the array substitutes for the scalar.
            tdp = tdp * self._chaos_tdp[:, None]
        idle = socket.idle_watts

        lc_present = lc_s > 0
        be_present = (be_s > 0) & be_running[:, None]
        active = (np.where(lc_present & (act_lc[:, None] > 0), lc_s, 0)
                  + np.where(be_present & (act_be[:, None] > 0), be_s, 0))
        if socket.cores > 1:
            fraction = np.clip((active - 1) / (socket.cores - 1), 0.0, 1.0)
        else:
            fraction = np.zeros(active.shape)
        ceiling = np.where(active <= 0, turbo.max_turbo_ghz,
                           turbo.max_turbo_ghz - span * fraction)
        t_lc = np.maximum(floor, ceiling)
        t_be = np.maximum(floor, np.minimum(dvfs_cap[:, None], ceiling))

        coef_lc = np.where(lc_present, (lc_s * act_lc[:, None]) * k, 0.0)
        coef_be = np.where(be_present, (be_s * act_be[:, None]) * k, 0.0)

        power = idle + (coef_lc * (t_lc / nominal) ** 3
                        + coef_be * (t_be / nominal) ** 3)
        throttled = power > tdp
        f_lc, f_be = t_lc, t_be
        if throttled.any():
            idx = np.nonzero(throttled)
            T = np.stack([t_lc[idx], t_be[idx]])    # (2, M)
            C = np.stack([coef_lc[idx], coef_be[idx]])
            # Subset the per-member TDP column to the throttled sockets
            # (tdp is per member, so the socket column is immaterial).
            tdp_t = tdp[idx[0], 0] if isinstance(tdp, np.ndarray) else tdp
            lo = self._throttle_scale(T, C, idle, tdp_t, nominal, floor)
            f_thr = np.maximum(floor, T * lo)
            p_thr = idle + (C[0] * (f_thr[0] / nominal) ** 3
                            + C[1] * (f_thr[1] / nominal) ** 3)
            f_lc = t_lc.copy()
            f_be = t_be.copy()
            power = power.copy()
            f_lc[idx] = f_thr[0]
            f_be[idx] = f_thr[1]
            power[idx] = p_thr
        return (np.where(lc_present, f_lc, 0.0),
                np.where(be_present, f_be, 0.0),
                power)

    def _throttle_scale(self, T, C, idle, tdp, nominal, floor):
        """Frequency scale factor ``lo`` for TDP-throttled sockets.

        Args:
            T: (2, M) per-task target frequencies of the throttled
               sockets (LC row 0, BE row 1).
            C: (2, M) matching dynamic-power coefficients
               (``cores * activity * core_dynamic_watts``).

        Returns the exact value the scalar bisection produces.
        """
        scale = self._BISECT_SCALE
        budget = tdp - idle
        floor_cube = (floor / nominal) ** 3

        def over_at(kk):
            """The scalar loop's TDP check at grid point kk / 2**40."""
            f = np.maximum(floor, T * (kk / scale))
            p = idle + (C[0] * (f[0] / nominal) ** 3
                        + C[1] * (f[1] / nominal) ** 3)
            return p > tdp

        # Analytic root estimate of idle + sum C*(max(floor, T*m)/nom)^3
        # = tdp over its three clamp pieces (estimate only; exactness
        # comes from the grid probes below).
        R3 = C * (T / nominal) ** 3
        mb = np.where(C > 0, floor / T, 0.0)   # per-task clamp threshold
        m_hi = np.maximum(mb[0], mb[1])
        m_lo = np.minimum(mb[0], mb[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.cbrt(budget / (R3[0] + R3[1]))      # no task clamped
            big0 = mb[0] >= mb[1]
            const = np.where(big0, C[0], C[1]) * floor_cube
            r2 = np.cbrt((budget - const)
                         / np.where(big0, R3[1], R3[0]))  # one clamped
        flat = (C[0] + C[1]) * floor_cube              # both clamped
        m_est = np.where(
            r1 >= m_hi, r1,
            np.where(r2 >= m_lo, np.minimum(r2, m_hi),
                     np.where(flat > budget, 0.0, m_lo)))
        m_est = np.nan_to_num(m_est, nan=0.0, posinf=1.0, neginf=0.0)

        k0 = np.clip(np.floor(np.clip(m_est, 0.0, 1.0) * scale),
                     0.0, scale - 1.0)
        # Probe the grid around the estimate; the answer is the k with
        # over(k) false and over(k+1) true (flip point), or 0 when even
        # a zero scale exceeds TDP.  The estimate is almost always
        # exact, so the two extra probes run only when it is not.
        p0 = over_at(k0)
        p1 = over_at(k0 + 1.0)
        kk = np.where(~p0 & p1, k0, -1.0)
        kk = np.where((k0 == 0.0) & p0, 0.0, kk)
        if (kk < 0).any():
            pm1 = over_at(k0 - 1.0)
            p2 = over_at(k0 + 2.0)
            kk = np.where(kk < 0,
                          np.where(~pm1 & p0, k0 - 1.0,
                                   np.where(~p1 & p2, k0 + 1.0, -1.0)),
                          kk)
            unresolved = kk < 0
            if unresolved.any():
                kk = np.where(unresolved,
                              self._bisect_scale_exact(T, C, idle, tdp,
                                                       nominal, floor), kk)
        return kk / scale

    @staticmethod
    def _bisect_scale_exact(T, C, idle, tdp, nominal, floor):
        """The literal 40-iteration scalar bisection (fallback path)."""
        m = T.shape[1]
        lo = np.zeros(m)
        hi = np.ones(m)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            f = np.maximum(floor, T * mid)
            p = idle + (C[0] * (f[0] / nominal) ** 3
                        + C[1] * (f[1] / nominal) ** 3)
            over = p > tdp
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid)
        return lo * BatchColocationSim._BISECT_SCALE

    def _resolve_memory(self, lc_s, be_s, uncached_lc_s, lc_miss_s,
                        uncached_be_s, be_miss_s, throttle, be_running):
        """Per-socket DRAM sharing, saturation delay, and counters."""
        cap = self._dram_cap  # scalar, or (N, 1) on a heterogeneous batch
        if self._chaos is not None:
            # Straggler derate on the per-member channel capacity (the
            # scalar engine sets MemoryController.capacity_gbps to the
            # same ``stock * derate`` product).
            cap = cap * self._chaos_derate[:, None]
        knee, gain = 0.88, 0.10  # MemoryController defaults

        bw_lc = uncached_lc_s + lc_miss_s
        bw_be = uncached_be_s + be_miss_s
        inc_lc = (bw_lc > 0) | (lc_s > 0)
        inc_be = ((bw_be > 0) | (be_s > 0)) & be_running[:, None]
        # (The scalar path multiplies the LC demand by its 1.0
        # throttle; multiplication by exactly 1.0 is the identity, so
        # it is dropped here.)
        dem_lc = np.where(inc_lc, bw_lc, 0.0)
        dem_be = np.where(inc_be, bw_be * throttle[:, None], 0.0)
        total = dem_lc + dem_be
        fits = total <= cap
        scale = np.where(fits, 1.0, cap / np.where(fits, 1.0, total))
        achieved_total = np.where(fits, total, cap)
        util = np.minimum(1.0, achieved_total / cap)

        rho = np.minimum(util, 0.995)
        below = rho <= knee
        excess = (rho - knee) / (1.0 - knee)
        queueing = np.minimum(5.0, gain * excess / (1.0 - rho))
        delay = np.where(below, 1.0 + 0.05 * (rho / knee), 1.05 + queueing)
        oversub = np.maximum(0.0, total / cap - 1.0)
        delay = delay + 6.0 * oversub

        # Accumulate across sockets (offered demand is unthrottled; the
        # delay factor is the per-task max).  Socket folds add in socket
        # order and excluded sockets contribute exact zeros, so this
        # reproduces the scalar per-socket accumulation loop.
        lc_dem = _socket_sum(dem_lc)  # dem_lc is exactly the LC demand
        lc_ach = _socket_sum(dem_lc * scale)
        lc_delay = np.maximum(1.0, _socket_max(np.where(inc_lc, delay, 1.0)))
        be_dem = _socket_sum(np.where(inc_be, bw_be, 0.0))
        be_ach = _socket_sum(dem_be * scale)
        be_delay = np.maximum(1.0, _socket_max(np.where(inc_be, delay, 1.0)))
        return {
            "lc_dem": lc_dem, "lc_ach": lc_ach, "lc_delay": lc_delay,
            "be_dem": be_dem, "be_ach": be_ach, "be_delay": be_delay,
            "total_gbps": _socket_sum(achieved_total),
            "max_util": _socket_max(util),
            "worst_socket_gbps": _socket_max(achieved_total),
        }

    def _resolve_network(self, net_lc, flows_lc, net_be, flows_be, be_ceil,
                         be_running):
        """Weighted max-min egress sharing with per-class HTB ceilings.

        A faithful vector transcription of :meth:`EgressLink.resolve`
        for the two-flow case: flow counts are the weights, allocations
        are capped at min(demand, ceil), leftover capacity redistributes
        until the link is full or every active flow is satisfied.
        """
        link = self._nic_link  # scalar, or (N,) on a heterogeneous batch
        lim_lc = net_lc  # the LC class is never ceiled
        lim_be = np.where(be_running, np.minimum(net_be, be_ceil), 0.0)
        present_be = be_running

        alloc_lc = np.zeros(self.n)
        alloc_be = np.zeros(self.n)
        capacity = np.full(self.n, link)
        a_lc = lim_lc > 0
        a_be = present_be & (lim_be > 0)
        live = np.ones(self.n, dtype=bool)
        for _ in range(3):  # len(demands) + 1 rounds, as the scalar loop
            live = live & (a_lc | a_be) & (capacity > 1e-12)
            if not live.any():
                break
            wsum = np.where(live, flows_lc * a_lc + flows_be * a_be, 1.0)
            g_lc = (capacity * flows_lc) / wsum
            take_lc = np.where(live & a_lc,
                               np.minimum(g_lc, lim_lc - alloc_lc), 0.0)
            alloc_lc = alloc_lc + take_lc
            g_be = (capacity * flows_be) / wsum
            take_be = np.where(live & a_be,
                               np.minimum(g_be, lim_be - alloc_be), 0.0)
            alloc_be = alloc_be + take_be
            spent = take_lc + take_be
            capacity = np.where(live, capacity - spent, capacity)
            a_lc = a_lc & ((lim_lc - alloc_lc) > 1e-12)
            a_be = a_be & ((lim_be - alloc_be) > 1e-12)
            live = live & (spent > 1e-12)
        return {
            "lc_ach": alloc_lc,
            "be_ach": alloc_be,
            "total_ach": alloc_lc + alloc_be,
        }


# ----------------------------------------------------------------------
# Vectorized physics helpers
# ----------------------------------------------------------------------


def _weighted_freq(freq_s: np.ndarray, cores_s: np.ndarray) -> np.ndarray:
    """Core-weighted mean frequency across sockets, in socket order.

    The accumulation starts from socket 0's product instead of a zero
    array — identical bits (frequencies and core counts are
    non-negative, so ``0.0 + x == x`` exactly), two fewer allocations
    per call on the hot path.
    """
    acc = freq_s[:, 0] * cores_s[:, 0]
    cores = cores_s[:, 0]
    for s in range(1, freq_s.shape[1]):
        acc = acc + freq_s[:, s] * cores_s[:, s]
        cores = cores + cores_s[:, s]
    return np.where(cores > 0, acc / np.where(cores > 0, cores, 1), 0.0)


def _traced_actuators(be_enabled, be_eff, be_ways, dvfs_cap,
                      be_ceil) -> np.ndarray:
    """The traced actuator state as one fresh ``(5, N)`` float array.

    Rows follow :data:`~repro.obs.trace.ACTUATOR_KINDS` — BE gate,
    cores, LLC ways (0 while disabled), DVFS cap, network ceiling — and
    the array never aliases the (possibly live) inputs.
    """
    return np.array([be_enabled, be_eff, np.where(be_enabled, be_ways, 0),
                     dvfs_cap, be_ceil], dtype=np.float64)


def _socket_sum(x_s: np.ndarray) -> np.ndarray:
    """Sum of an (N, S) array over sockets, folded in socket order.

    ``0.0 + x[:, 0] + x[:, 1] + ...`` — the scalar engine's per-socket
    accumulation order for any S, and bit-identical to NumPy's
    ``x.sum(axis=1)`` for S <= 2 (signed zeros included).  NumPy's
    reduce over a length-2 inner axis costs about 20x the two column
    adds at fleet sizes.
    """
    acc = 0.0 + x_s[:, 0]
    for s in range(1, x_s.shape[1]):
        acc = acc + x_s[:, s]
    return acc


def _socket_max(x_s: np.ndarray) -> np.ndarray:
    """Max of an (N, S) array over sockets, folded in socket order.

    Bit-identical to NumPy's ``x.max(axis=1)`` for S <= 2; see
    :func:`_socket_sum` for why it is folded by hand.
    """
    acc = x_s[:, 0]
    for s in range(1, x_s.shape[1]):
        acc = np.maximum(acc, x_s[:, s])
    return acc


def _resolve_partition(part_mb, mask_s, hot_s, bulk_s, access_s,
                       hot_frac, bulk_reuse):
    """Steady-state occupancy of one task alone in one CAT partition.

    With a single resident task the scalar waterfill reduces to
    ``occupancy = min(partition, footprint)``; coverage and hit fraction
    follow :func:`repro.hardware.cache.resolve_occupancy` exactly.
    Cross-socket merging replicates the scalar engine's sequential
    rule: first socket sets the values, later sockets average coverage
    and sum occupancy.

    Returns (hit, hot_cov, bulk_cov, miss_gbps_per_socket).
    """
    n, S = mask_s.shape
    occ_s = np.minimum(part_mb[:, None], hot_s + bulk_s)
    hot_cov_s = np.where(hot_s > 0,
                         np.minimum(1.0, occ_s / np.where(hot_s > 0, hot_s,
                                                          1.0)), 1.0)
    left_s = np.maximum(0.0, occ_s - hot_s)
    bulk_cov_s = np.where(bulk_s > 0,
                          np.minimum(1.0, left_s / np.where(bulk_s > 0,
                                                            bulk_s, 1.0)),
                          1.0)
    hit_s = np.minimum(1.0, hot_frac[:, None] * hot_cov_s
                       + (1.0 - hot_frac[:, None]) * bulk_cov_s
                       * bulk_reuse[:, None])
    miss_s = np.where(mask_s, access_s * (1.0 - hit_s), 0.0)

    if S == 2:
        # Closed form of the sequential merge below for the ubiquitous
        # two-socket case: socket 0 sets the value, socket 1 either
        # sets it (socket 0 excluded) or averages in — identical
        # arithmetic, about a third of the dispatches.
        m0, m1 = mask_s[:, 0], mask_s[:, 1]
        both = m0 & m1

        def merge(v_s):
            v0, v1 = v_s[:, 0], v_s[:, 1]
            out = np.where(m0, v0, np.where(m1, v1, 1.0))
            return np.where(both, (v0 + v1) / 2, out)

        return merge(hit_s), merge(hot_cov_s), merge(bulk_cov_s), miss_s

    hit = np.ones(n)
    hot_cov = np.ones(n)
    bulk_cov = np.ones(n)
    seen = np.zeros(n, dtype=bool)
    for s in range(S):
        m = mask_s[:, s]
        first = m & ~seen
        again = m & seen
        hit = np.where(first, hit_s[:, s],
                       np.where(again, (hit + hit_s[:, s]) / 2, hit))
        hot_cov = np.where(first, hot_cov_s[:, s],
                           np.where(again, (hot_cov + hot_cov_s[:, s]) / 2,
                                    hot_cov))
        bulk_cov = np.where(first, bulk_cov_s[:, s],
                            np.where(again,
                                     (bulk_cov + bulk_cov_s[:, s]) / 2,
                                     bulk_cov))
        seen = seen | m
    return hit, hot_cov, bulk_cov, miss_s


def _queue_tail_ms(servers, service_ms, qps, tail_mult, tail_mass, k):
    """Vectorized :meth:`QueueModel.tail_latency_ms` (M/M/k + pools).

    ``k`` is the per-pool server count (precomputed from the integer
    core count, see ``_k_table``).  The Erlang-B recurrence runs to the
    largest ``k`` in the batch, masked per element, reproducing the
    scalar iteration.
    """
    rho = (qps * (service_ms / 1000.0)) / servers
    service_tail = tail_mult * service_ms

    stable = np.minimum(rho, 0.995)
    offered = stable * k
    # Erlang-B recurrence, then Erlang-C.
    b = np.ones_like(offered)
    k_max = int(k.max())
    # When every member shares one pool size (the common homogeneous
    # case) the per-iteration mask is all-true and can be skipped —
    # identical recurrence, one dispatch instead of three per step.
    uniform_k = int(k.min()) == k_max
    for i in range(1, k_max + 1):
        t = offered * b
        b = t / (i + t) if uniform_k else np.where(i <= k, t / (i + t), b)
    rho_e = offered / k
    c = b / ((1.0 - rho_e) + rho_e * b)
    p_wait = np.where(offered == 0, 0.0,
                      np.minimum(1.0, np.maximum(0.0, c)))
    log_arg = np.where(p_wait > tail_mass, p_wait / tail_mass, 1.0)
    wait = np.where(p_wait > tail_mass,
                    service_ms / (k * (1.0 - stable)) * np.log(log_arg),
                    0.0)
    overload = np.where(rho > 0.995,
                        service_ms * k * 40.0 * (rho - 0.995), 0.0)
    return np.where(rho <= 0, service_tail, service_tail + wait + overload)


def _net_latency_factor(net_demand, satisfaction, net_gain):
    """Vectorized :func:`repro.perf.interference.network_latency_factor`."""
    shortfall = 1.0 - satisfaction
    ratio = 1.0 / np.maximum(1e-3, satisfaction)
    factor = np.minimum(
        1.0 + net_gain * (ratio - 1.0) + 25.0 * (ratio - 1.0) ** 2, 60.0)
    return np.where((net_demand <= 0) | (shortfall <= 1e-9), 1.0, factor)
