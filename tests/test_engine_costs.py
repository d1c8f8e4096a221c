"""The mega engine's cost-saving paths reproduce the per-member values.

Three shortcuts keep the batched engines' cost proportional to their
arithmetic, and each must be invisible in the numbers:

* static tables are built once per distinct workload / spec object and
  expanded with one index gather — pinned against a per-member
  reference built one single-member engine at a time;
* the mega engine prefetches tail noise in chunks that start small and
  double on each refill — pinned against scalar ``lognormal`` draws
  from each member's own seeded stream, across refills and across a
  checkpoint taken mid-chunk;
* socket-axis reductions are folded by hand in socket order — pinned
  bitwise against NumPy's reductions.
"""

import dataclasses

import numpy as np
import pytest

from repro.sim.batch import (BatchColocationSim, _socket_max, _socket_sum)
from repro.sim.checkpoint import load_engine, save_engine
from repro.sim.megabatch import (NOISE_CHUNK_MAX, NOISE_CHUNK_MIN,
                                 MegaClusterSim)
from repro.sim.runner import memoized_dram_model
from repro.hardware.spec import default_machine_spec
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import (LC_PROFILES,
                                              LatencyCriticalWorkload,
                                              make_lc_workload)
from repro.workloads.traces import ConstantLoad


def with_capacity(spec, dram_bw_gbps, link_gbps):
    """``spec`` with another DRAM bandwidth and NIC link rate."""
    return dataclasses.replace(
        spec,
        socket=dataclasses.replace(spec.socket, dram_bw_gbps=dram_bw_gbps),
        nic=dataclasses.replace(spec.nic, link_gbps=link_gbps))


def mixed_batch():
    """Arguments of a heterogeneous batch with repeated objects.

    Two separate but equal-valued websearch objects, a memkeyval and a
    noise-free websearch variant; ``None`` BEs between shared BE
    objects; three spec objects that differ in DRAM/NIC capacity.
    """
    spec = default_machine_spec()
    web_a = make_lc_workload("websearch", spec)
    web_b = make_lc_workload("websearch", spec)
    mkv = make_lc_workload("memkeyval", spec)
    quiet = LatencyCriticalWorkload(
        dataclasses.replace(LC_PROFILES["websearch"], noise_sigma=0.0),
        spec)
    stream = make_be_workload("stream-DRAM", spec)
    brain = make_be_workload("brain", spec)
    fat = with_capacity(spec, spec.socket.dram_bw_gbps * 1.5,
                        spec.nic.link_gbps * 2.0)
    thin = with_capacity(spec, spec.socket.dram_bw_gbps * 0.5,
                         spec.nic.link_gbps)
    lcs = [web_a, mkv, web_b, web_a, quiet, mkv, web_b, quiet, web_a]
    bes = [stream, None, brain, stream, None, brain, None, stream, brain]
    specs = [spec, fat, spec, thin, fat, spec, thin, spec, fat]
    seeds = [11, 12, 13, 14, 15, 16, 17, 18, 19]
    return spec, lcs, bes, specs, seeds


def build(cls, lcs, bes, specs, seeds, spec, **kwargs):
    return cls(lc=list(lcs), trace=ConstantLoad(0.5), bes=list(bes),
               spec=spec, seeds=list(seeds), specs=list(specs),
               **kwargs)


def assert_same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert np.array_equal(a, b), f"{what} differs from the reference"


class TestDistinctTables:
    def per_member(self, cls, lcs, bes, specs, seeds, spec, **kwargs):
        """One single-member engine per member (the reference)."""
        return [build(cls, [lcs[i]], [bes[i]], [specs[i]], [seeds[i]],
                      spec, **kwargs) for i in range(len(lcs))]

    def test_batch_tables_equal_per_member_reference(self):
        spec, lcs, bes, specs, seeds = mixed_batch()
        batch = build(BatchColocationSim, lcs, bes, specs, seeds, spec,
                      record_history=False)
        refs = self.per_member(BatchColocationSim, lcs, bes, specs, seeds,
                               spec, record_history=False)
        for key in batch._lc:
            assert_same(batch._lc[key],
                        np.concatenate([r._lc[key] for r in refs]),
                        f"_lc[{key!r}]")
        for key in batch._be:
            assert_same(batch._be[key],
                        np.concatenate([r._be[key] for r in refs]),
                        f"_be[{key!r}]")
        assert_same(batch._has_be,
                    np.concatenate([r._has_be for r in refs]), "_has_be")
        assert_same(batch._k_table[batch._member_index],
                    np.concatenate([r._k_table[r._member_index]
                                    for r in refs]),
                    "_k_table rows")
        # Capacities: per-member columns, read straight off the specs.
        assert_same(batch._dram_cap,
                    np.array([[s.socket.dram_bw_gbps] for s in specs]),
                    "_dram_cap")
        assert_same(batch._nic_link,
                    np.array([s.nic.link_gbps for s in specs]),
                    "_nic_link")
        # Workloads that compare equal but are separate objects get
        # separate rows; the values they expand to are the same.
        assert len(set(batch._member_index.tolist())) == 4

    def test_mega_tables_equal_per_member_reference(self):
        spec, lcs, bes, specs, seeds = mixed_batch()
        model = memoized_dram_model("websearch", spec)
        mega = build(MegaClusterSim, lcs, bes, specs, seeds, spec)
        mega.attach_vec_heracles(dram_model=model)
        refs = self.per_member(MegaClusterSim, lcs, bes, specs, seeds, spec)
        for ref in refs:
            ref.attach_vec_heracles(dram_model=model)
        for name in ("_be_ref_safe", "_min_lc_llc_ways"):
            assert_same(getattr(mega, name),
                        np.concatenate([getattr(r, name) for r in refs]),
                        name)
        assert_same(mega._vec_controller.guaranteed_ghz,
                    np.concatenate([r._vec_controller.guaranteed_ghz
                                    for r in refs]),
                    "guaranteed_ghz")
        assert_same(mega._noise_idx,
                    np.array([i for i, w in enumerate(lcs)
                              if w.profile.noise_sigma > 0]),
                    "_noise_idx")

    def test_trace_runs_split_on_identity(self):
        spec = default_machine_spec()
        lc = make_lc_workload("websearch", spec)
        a, b = ConstantLoad(0.3), ConstantLoad(0.3)
        traces = [a, a, b, b, b, a]
        sim = MegaClusterSim(lc=[lc] * 6, trace=traces, bes=None,
                             spec=spec, seeds=range(6))
        assert [(g.start, g.stop) for g, _ in sim._trace_groups] == [
            (0, 2), (2, 5), (5, 6)]
        assert [t for _, t in sim._trace_groups] == [a, b, a]

    @pytest.mark.parametrize("field, delta", [("cores", -2),
                                              ("llc_ways", -4)])
    def test_structurally_different_spec_rejected(self, field, delta):
        spec, lcs, bes, specs, seeds = mixed_batch()
        odd = dataclasses.replace(spec, socket=dataclasses.replace(
            spec.socket, **{field: getattr(spec.socket, field) + delta}))
        # The odd spec shares one object across members, as fleet specs
        # do: the once-per-distinct-object check must still see it.
        specs = [odd if i % 3 == 1 else s for i, s in enumerate(specs)]
        for cls in (BatchColocationSim, MegaClusterSim):
            with pytest.raises(ValueError, match="specs may differ only"):
                build(cls, lcs, bes, specs, seeds, spec)


class TestNoiseChunks:
    TICKS = 2100  # past 64 + 128 + 256 + 512 + 1024: one capped refill

    def reference(self, lcs, seeds, ticks):
        """Scalar draws, member by member, from fresh seeded streams."""
        out = np.ones((ticks, len(lcs)))
        for i, (w, seed) in enumerate(zip(lcs, seeds)):
            sigma = w.profile.noise_sigma
            if sigma > 0:
                rng = np.random.default_rng(seed)
                out[:, i] = [rng.lognormal(mean=0.0, sigma=sigma)
                             for _ in range(ticks)]
        return out

    def draw(self, sim, ticks):
        # Copies: a partly-drawing engine refills one factor array.
        return np.array([sim._tail_noise_factors().copy()
                         for _ in range(ticks)])

    def test_draws_equal_scalar_streams_across_refills(self):
        spec, lcs, bes, specs, seeds = mixed_batch()
        sim = build(MegaClusterSim, lcs, bes, specs, seeds, spec)
        assert 0 < len(sim._noise_idx) < sim.n  # some members draw none
        chunks, rows = [], []
        for _ in range(self.TICKS):
            rows.append(self.draw(sim, 1)[0])
            if not chunks or sim._noise_chunk is not chunks[-1]:
                chunks.append(sim._noise_chunk)
        sizes = [len(chunk) for chunk in chunks]
        assert sizes == [NOISE_CHUNK_MIN, 128, 256, 512, NOISE_CHUNK_MAX,
                         NOISE_CHUNK_MAX]
        ref = self.reference(lcs, seeds, self.TICKS)
        assert np.array_equal(np.array(rows).view(np.uint64),
                              ref.view(np.uint64))

    def test_all_members_drawing(self):
        spec = default_machine_spec()
        lcs = [make_lc_workload("websearch", spec),
               make_lc_workload("memkeyval", spec)] * 3
        seeds = [101, 102, 103, 104, 105, 106]
        sim = MegaClusterSim(lc=lcs, trace=ConstantLoad(0.5), bes=None,
                             spec=spec, seeds=seeds)
        assert sim._noise_all
        assert np.array_equal(self.draw(sim, 600),
                              self.reference(lcs, seeds, 600))

    def test_checkpoint_mid_chunk_resumes_bit_identically(self, tmp_path):
        spec, lcs, bes, specs, seeds = mixed_batch()
        sim = build(MegaClusterSim, lcs, bes, specs, seeds, spec)
        head = self.draw(sim, 100)  # 36 rows into the 128-row chunk
        assert sim._noise_pos == 36 and len(sim._noise_chunk) == 128
        path = save_engine(sim, str(tmp_path / "noise"), kind="mega_group")
        restored = load_engine(path, expect_kind="mega_group").sim
        tail_straight = self.draw(sim, 500)
        tail_resumed = self.draw(restored, 500)
        assert np.array_equal(tail_resumed, tail_straight)
        ref = self.reference(lcs, seeds, 600)
        assert np.array_equal(np.concatenate([head, tail_resumed]), ref)


class TestSocketFolds:
    @pytest.fixture
    def values(self):
        rng = np.random.default_rng(2015)
        x = rng.normal(scale=50.0, size=(4096, 2))
        x[::7] = 0.0
        x[::11, 0] = -0.0
        x[::13] = -0.0
        x[::17, 1] = np.inf
        x[::19, 0] = -np.inf
        x[::23] = rng.integers(0, 8, size=(len(x[::23]), 2))
        return x

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_folds_match_numpy_bitwise(self, values, sockets):
        x = np.ascontiguousarray(values[:, :sockets])
        for fold, reduce in ((_socket_sum, np.sum), (_socket_max, np.max)):
            with np.errstate(invalid="ignore"):  # inf + -inf rows
                got = fold(x)
                want = reduce(x, axis=1)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64)), fold.__name__

    def test_sum_follows_socket_order_beyond_two(self):
        x = np.array([[1e16, 1.0, -1e16, 1.0]])
        # Scalar per-socket loop: ((((0 + 1e16) + 1) - 1e16) + 1) == 1.
        assert _socket_sum(x)[0] == 1.0
        assert _socket_max(x)[0] == 1e16
