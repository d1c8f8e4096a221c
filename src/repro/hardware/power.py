"""Socket power: RAPL-style metering, Turbo headroom, and throttling.

The clock frequency of the cores used by an LC task depends not just on
its own load but on the intensity of any BE task on the same socket (§2):
dynamic overclocking (Turbo) raises frequency only while there is power
headroom, and a power-hungry neighbour removes that headroom.  This
module computes the frequency equilibrium of a socket given each task's
activity and per-core DVFS caps, and meters the resulting power the way
RAPL does.

Model: ``P = idle + sum_i activity_i * k * (f_i / f_nominal)^3`` over
active cores (voltage tracks frequency, so dynamic power ~ f^3).  Every
core targets ``min(dvfs_cap, turbo_ceiling)``; if the socket would exceed
TDP, frequencies scale down uniformly (respecting the DVFS floor) until
power fits — which is exactly how package-level RAPL clamping behaves.

:meth:`SocketPowerModel.resolve` memoizes that equilibrium per model
instance on the exact requests, because a simulated socket revisits the
same few allocations tick after tick.  A cached result is the solver's
own output for an equal input, so memoization never changes a number;
the results are frozen so a shared one cannot be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .spec import SocketSpec

#: Entries a solver memo holds before it is emptied: above the distinct
#: inputs one controlled server produces (at most 117 per server on the
#: Figure 4 grid), small enough that a run whose every input is new (a
#: diurnal load) stays bounded.
MEMO_LIMIT = 256


@dataclass
class CorePowerRequest:
    """Power-relevant state of one group of physical cores on a socket.

    Attributes:
        task: owner label (one request per task per socket is typical).
        cores: number of active physical cores in the group.
        activity: average activity factor; 0 for a halted core, ~1.0 for
            ordinary full-tilt code.  Values above 1.0 (up to 3.0) model
            power viruses, which draw substantially more current than
            typical code at the same frequency by exercising every
            functional unit at once.
        dvfs_cap_ghz: per-core DVFS limit, or None for uncapped.
    """

    task: str
    cores: int
    activity: float
    dvfs_cap_ghz: Optional[float] = None

    def validate(self) -> None:
        if self.cores < 0:
            raise ValueError("core count must be non-negative")
        if not 0.0 <= self.activity <= 3.0:
            raise ValueError("activity must be in [0, 3]")
        if self.dvfs_cap_ghz is not None and self.dvfs_cap_ghz <= 0:
            raise ValueError("DVFS cap must be positive")


@dataclass(frozen=True)
class PowerGrant:
    """Achieved frequency for one request group."""

    task: str
    freq_ghz: float


@dataclass(frozen=True)
class PowerResolution:
    """Socket-wide power outcome."""

    socket_power_watts: float
    tdp_watts: float
    throttled: bool
    grants: Tuple[PowerGrant, ...]

    def freq_of(self, task: str) -> float:
        for g in self.grants:
            if g.task == task:
                return g.freq_ghz
        raise KeyError(task)

    @property
    def power_fraction_of_tdp(self) -> float:
        return self.socket_power_watts / self.tdp_watts


class SocketPowerModel:
    """Frequency/power equilibrium solver for one socket."""

    def __init__(self, spec: SocketSpec):
        self.spec = spec
        self._memo: Dict[tuple, PowerResolution] = {}

    def __getstate__(self):
        # The memo is rebuilt on demand; checkpoints do not carry it.
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo = {}

    def _power_watts(self, requests: List[CorePowerRequest],
                     freqs: Dict[str, float]) -> float:
        nominal = self.spec.turbo.nominal_ghz
        dynamic = 0.0
        for r in requests:
            f = freqs[r.task]
            dynamic += (r.cores * r.activity * self.spec.core_dynamic_watts
                        * (f / nominal) ** 3)
        return self.spec.idle_watts + dynamic

    def resolve(self, requests: List[CorePowerRequest]) -> PowerResolution:
        """Find the frequency each group actually runs at.

        Every request is validated, then the equilibrium is looked up by
        the requests' exact fields and solved (:meth:`_solve`) only on a
        miss.  The key compares floats with ``==``, so ``0.0`` and
        ``-0.0`` share an entry; that cannot change an output bit.  The
        only keyed float that may be zero is ``activity``, validated
        ``>= 0``, and it reaches the outputs only through a power sum
        that starts at ``+0.0``, to which a ``-0.0`` term adds nothing.
        A NaN (which validation lets through only as a DVFS cap) equals
        nothing but itself, so it finds at most the solver's own output
        for that very object.
        """
        for r in requests:
            r.validate()
        key = tuple((r.task, r.cores, r.activity, r.dvfs_cap_ghz)
                    for r in requests)
        resolution = self._memo.get(key)
        if resolution is None:
            if len(self._memo) >= MEMO_LIMIT:
                self._memo.clear()
            resolution = self._memo[key] = self._solve(requests)
        return resolution

    def _solve(self, requests: List[CorePowerRequest]) -> PowerResolution:
        """The equilibrium of validated requests.

        1. Target frequency = min(DVFS cap, turbo ceiling for the number
           of active cores on the socket).
        2. If the resulting power exceeds TDP, scale all frequencies by a
           common factor (floored at the DVFS minimum) via bisection.
        """
        active = sum(r.cores for r in requests if r.activity > 0)
        ceiling = self.spec.turbo.turbo_ceiling_ghz(active, self.spec.cores)

        def target(r: CorePowerRequest) -> float:
            t = ceiling if r.dvfs_cap_ghz is None else min(
                r.dvfs_cap_ghz, ceiling)
            return max(self.spec.turbo.min_ghz, t)

        targets = {r.task: target(r) for r in requests}
        power = self._power_watts(requests, targets)
        throttled = False
        freqs = dict(targets)

        if power > self.spec.tdp_watts:
            throttled = True
            lo, hi = 0.0, 1.0
            floor = self.spec.turbo.min_ghz
            for _ in range(40):
                mid = (lo + hi) / 2.0
                freqs = {t: max(floor, f * mid) for t, f in targets.items()}
                if self._power_watts(requests, freqs) > self.spec.tdp_watts:
                    hi = mid
                else:
                    lo = mid
            freqs = {t: max(floor, f * lo) for t, f in targets.items()}
            power = self._power_watts(requests, freqs)

        grants = tuple(PowerGrant(task=r.task, freq_ghz=freqs[r.task])
                       for r in requests)
        return PowerResolution(
            socket_power_watts=power,
            tdp_watts=self.spec.tdp_watts,
            throttled=throttled,
            grants=grants,
        )


class RaplMeter:
    """Running Average Power Limit-style power telemetry for one socket.

    Heracles "uses RAPL to determine the operating power of the CPU and
    its maximum design power" (§4.3).  The meter keeps a short exponential
    average, as RAPL energy counters are integrated over an interval.
    """

    def __init__(self, tdp_watts: float, smoothing: float = 0.5):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.tdp_watts = tdp_watts
        self.smoothing = smoothing
        self._power_watts = 0.0
        self._initialized = False

    def record(self, instantaneous_watts: float) -> None:
        if instantaneous_watts < 0:
            raise ValueError("power cannot be negative")
        if not self._initialized:
            self._power_watts = instantaneous_watts
            self._initialized = True
        else:
            a = self.smoothing
            self._power_watts = (a * instantaneous_watts
                                 + (1 - a) * self._power_watts)

    def read_watts(self) -> float:
        return self._power_watts

    def read_fraction_of_tdp(self) -> float:
        return self._power_watts / self.tdp_watts
