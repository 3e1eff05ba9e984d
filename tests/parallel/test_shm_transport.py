"""The zero-copy shared-memory transport: slab pool, wire codec, backend."""

import numpy as np
import pytest

from repro.parallel import create_communicator
from repro.parallel.runtime import per_rank
from repro.parallel.backends.shm import (
    ShmTransport,
    SlabPool,
    reset_transport_totals,
    transport_totals,
)

SLAB = 1 << 16  # 64 KB slabs keep the test pools tiny


@pytest.fixture
def pool():
    p = SlabPool(4, SLAB)
    yield p
    p.dispose()


@pytest.fixture
def transport(pool):
    return ShmTransport(pool, min_bytes=64, alloc_wait=0.0)


class TestSlabPool:
    def test_alloc_free_cycle(self, pool):
        assert pool.free_count() == 4
        idx, reused = pool.alloc()
        assert not reused
        assert pool.free_count() == 3
        pool.free_many((idx,))
        assert pool.free_count() == 4
        idx2, reused2 = pool.alloc()
        assert idx2 == idx  # LIFO: hottest slab first
        assert reused2

    def test_exhaustion_returns_none(self, pool):
        got = [pool.alloc() for _ in range(4)]
        assert all(g is not None for g in got)
        assert pool.alloc() is None
        pool.free_many([idx for idx, _ in got])
        assert pool.free_count() == 4

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError, match="nslabs >= 1"):
            SlabPool(0, SLAB)
        with pytest.raises(ValueError, match="slab_bytes >= 8"):
            SlabPool(4, 4)

    def test_dispose_is_idempotent(self):
        p = SlabPool(2, SLAB)
        p.dispose()
        p.dispose()  # must not raise


class TestWireCodec:
    def _roundtrip(self, transport, payload):
        return transport.decode(transport.encode(payload, nwords=1))

    def test_c_contiguous_roundtrip_is_zero_copy(self, transport):
        a = np.arange(512, dtype=np.float64)
        out = self._roundtrip(transport, a)
        np.testing.assert_array_equal(out, a)
        assert out.dtype == a.dtype
        assert transport.counters["msgs_zero_copy"] == 1
        assert transport.counters["bytes_zero_copy"] == a.nbytes

    def test_f_contiguous_order_is_preserved(self, transport):
        a = np.asfortranarray(np.arange(144, dtype=np.float64).reshape(12, 12))
        out = self._roundtrip(transport, a)
        np.testing.assert_array_equal(out, a)
        assert out.flags.f_contiguous

    def test_non_contiguous_slice_packs_compact(self, transport):
        base = np.arange(4096, dtype=np.float64).reshape(64, 64)
        a = base[::2, 1::3]
        assert not a.flags.c_contiguous
        out = self._roundtrip(transport, a)
        np.testing.assert_array_equal(out, a)
        assert out.shape == a.shape

    def test_receiver_view_is_writable(self, transport):
        a = np.arange(512, dtype=np.float64)
        out = self._roundtrip(transport, a)
        out[0] = -1.0  # ownership transferred: mutation is safe
        assert out[0] == -1.0

    def test_small_array_spills_to_pickle(self, transport):
        a = np.arange(4, dtype=np.float64)  # 32 B < min_bytes=64
        wire = transport.encode(a, nwords=4)
        assert wire[0] == 0  # pickle kind
        np.testing.assert_array_equal(transport.decode(wire), a)
        assert transport.counters["msgs_pickled"] == 1
        assert transport.counters["msgs_zero_copy"] == 0

    def test_oversized_array_spills_to_pickle(self, transport):
        a = np.zeros(2 * SLAB // 8, dtype=np.float64)  # 2 slabs worth
        wire = transport.encode(a, nwords=a.size)
        assert wire[0] == 0
        np.testing.assert_array_equal(transport.decode(wire), a)

    def test_object_dtype_spills_to_pickle(self, transport):
        a = np.array([{"k": 1}, [2, 3]] * 64, dtype=object)
        wire = transport.encode(a, nwords=1)
        assert wire[0] == 0
        out = transport.decode(wire)
        assert out[0] == {"k": 1}

    def test_exhausted_pool_spills_gracefully(self, transport):
        a = np.arange(512, dtype=np.float64)
        wires = [transport.encode(a, nwords=512) for _ in range(6)]
        kinds = [w[0] for w in wires]
        assert kinds[:4] == [1, 1, 1, 1]  # four slabs packed
        assert kinds[4:] == [0, 0]  # then pickle, never an error
        assert transport.counters["spills"] == 2
        for w in wires:
            np.testing.assert_array_equal(transport.decode(w), a)

    def test_mixed_tuple_keeps_arrays_zero_copy(self, transport):
        payload = (np.arange(512, dtype=np.float64), "meta", 7)
        wire = transport.encode(payload, nwords=515)
        assert wire[0] == 2  # shallow container kind
        out = transport.decode(wire)
        assert isinstance(out, tuple) and len(out) == 3
        np.testing.assert_array_equal(out[0], payload[0])
        assert out[1:] == ("meta", 7)
        assert transport.counters["msgs_zero_copy"] == 1

    def test_non_array_payload_pickles(self, transport):
        wire = transport.encode({"dict": [1, 2]}, nwords=8)
        assert wire[0] == 0
        assert transport.decode(wire) == {"dict": [1, 2]}
        assert transport.counters["bytes_pickled"] == 64

    def test_gc_recycles_slab_via_pending_free(self, transport):
        a = np.arange(512, dtype=np.float64)
        out = self._roundtrip(transport, a)
        assert transport.pool.free_count() == 3
        del out  # finalizer only defers the free...
        transport._drain_pending()  # ...the next transport op collects it
        assert transport.pool.free_count() == 4
        # and the recycled slab counts as reuse on its next allocation
        transport.encode(a, nwords=512)
        assert transport.counters["slab_reuse"] == 1


def _exchange_program(comm, n):
    """Rank 0 -> 1 large block; rank 1 mutates the view and echoes back."""
    if comm.rank == 0:
        a = np.arange(n, dtype=np.float64)
        yield from comm.send(a, dest=1, tag=1)
        back = yield from comm.recv(source=1, tag=2)
        return float(back.sum())
    got = yield from comm.recv(source=0, tag=1)
    got += 1.0  # in-place on the zero-copy view (ownership transferred)
    yield from comm.send(got, dest=0, tag=2)
    return float(got[0])


class TestSharedMemoryBackend:
    def test_end_to_end_exchange_and_counters(self):
        n = 4096
        comm = create_communicator("shm", 2, timeout=60.0)
        reset_transport_totals()
        res = comm.run(_exchange_program, n)
        expected = float(np.arange(n, dtype=np.float64).sum() + n)
        assert res.returns[0] == expected
        assert res.returns[1] == 1.0
        assert res.backend == "shm"
        assert res.transport["msgs_zero_copy"] == 2
        assert res.transport["bytes_zero_copy"] == 2 * n * 8
        assert res.transport["spills"] == 0
        # the parent-side tally calibrate snapshots saw the same run
        assert transport_totals()["bytes_zero_copy"] == 2 * n * 8

    def test_transport_metrics_reach_the_tracer(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = create_communicator("shm", 2, timeout=60.0, tracer=tracer)
        comm.run(_exchange_program, 4096)
        samples = [
            s for s in tracer.metrics.samples()
            if s.name == "repro.transport.bytes_zero_copy"
        ]
        # one total plus one per rank, all labelled with the backend
        assert len(samples) == 3
        assert {s.labels_dict["backend"] for s in samples} == {"shm"}
        total = [s for s in samples if s.rank is None]
        assert total[0].value == 2 * 4096 * 8

    def test_ring_parity_with_virtual(self):
        import operator

        def prog(comm, scale):
            right = (comm.rank + 1) % comm.size
            a = np.full(600, float(comm.rank * scale))
            yield from comm.send(a, dest=right, tag=4)
            got = yield from comm.recv(tag=4)
            total = yield from comm.allreduce(float(got[0]), op=operator.add)
            return total

        args = per_rank([2 for _ in range(3)])
        vres = create_communicator("virtual", 3).run(prog, args)
        sres = create_communicator("shm", 3, timeout=60.0).run(prog, args)
        assert sres.returns == vres.returns

    def test_run_result_transport_none_for_plain_mp(self):
        def prog(comm):
            yield from comm.barrier()

        res = create_communicator("multiprocessing", 2, timeout=30.0).run(prog)
        assert res.transport is None
