"""The communicator-backend registry and the real-process drivers."""

import operator

import numpy as np
import pytest

from repro.core.remap import build_move_matrix, execute_remap
from repro.dist import decompose, migrate
from repro.dist.migrate import exchange_elements
from repro.mesh import box_mesh
from repro.obs import Tracer, analyze
from repro.parallel import (
    ANY,
    IDEAL,
    VirtualMachine,
    available_backends,
    create_communicator,
)
from repro.parallel.backends import mp, record_backend_run, resolve_backend
from repro.parallel.backends.shm import (
    DEFAULT_MIN_BYTES,
    DEFAULT_SLAB_BYTES,
    reset_transport_totals,
    transport_totals,
)
from repro.parallel.runtime import DeadlockError, RunResult, per_rank
from repro.partition import Graph, multilevel_kway


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("multiprocessing", "shm", "virtual")

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            create_communicator("nonesuch", 2)

    def test_resolve_backend_by_name(self):
        comm = resolve_backend("virtual", 4, machine=IDEAL)
        assert comm.name == "virtual"
        assert comm.nranks == 4

    def test_resolve_backend_passes_objects_through(self):
        comm = create_communicator("virtual", 4, machine=IDEAL)
        assert resolve_backend(comm, 4) is comm

    def test_resolve_backend_checks_rank_count(self):
        comm = create_communicator("virtual", 4, machine=IDEAL)
        with pytest.raises(ValueError, match="spans 4 ranks"):
            resolve_backend(comm, 8)

    def test_resolve_backend_rejects_non_backend(self):
        with pytest.raises(TypeError, match="object with .run"):
            resolve_backend(42, 2)


def _ring_program(comm, bonus):
    """Exchange around a ring: wildcard recv, relay, then a collective."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.send(f"r{comm.rank}+{bonus}", dest=right, tag=5)
    got = yield from comm.recv(source=ANY, tag=5)
    yield from comm.send(got, dest=right, tag=6)
    yield from comm.compute(1)
    relayed = yield from comm.recv(source=left, tag=6)
    total = yield from comm.allreduce(1, op=operator.add)
    return (got, relayed, total)


class TestVirtualBackend:
    def test_matches_raw_virtual_machine_bit_for_bit(self):
        comm = create_communicator("virtual", 5, machine=IDEAL)
        res = comm.run(_ring_program, per_rank([10 * r for r in range(5)]))
        raw = VirtualMachine(5, IDEAL).run(
            _ring_program, per_rank([10 * r for r in range(5)])
        )
        assert res.returns == raw.returns
        assert res.makespan == raw.makespan  # exact: same driver underneath
        assert res.backend == "virtual"
        assert res.wall_seconds is not None and res.wall_seconds >= 0.0


def _lengths_program(comm, x):
    yield from comm.compute(1)
    return x


def _not_a_generator(comm):
    return comm.rank


def _negative_work(comm):
    yield from comm.compute(-1)


def _negative_words(comm):
    yield from comm.send("x", dest=0, nwords=-1)


@pytest.mark.parametrize("backend", available_backends())
class TestMalformedPrograms:
    """Every backend refuses the same malformed rank programs: the checks
    live in ``runtime.start_ranks`` and in each driver's op dispatch."""

    @staticmethod
    def _backend(name):
        return create_communicator(name, 2, machine=IDEAL, timeout=10.0)

    @pytest.mark.parametrize("values", [[10, 11, 12], [10]],
                             ids=["extra", "missing"])
    def test_per_rank_length_is_checked_before_any_rank_runs(self, backend,
                                                             values):
        with pytest.raises(ValueError, match=f"carries {len(values)} values "
                                             "but the machine has 2 ranks"):
            self._backend(backend).run(_lengths_program, per_rank(values))

    def test_program_must_be_a_generator(self, backend):
        with pytest.raises((TypeError, RuntimeError), match="generator"):
            self._backend(backend).run(_not_a_generator)

    @pytest.mark.parametrize("program, text", [
        (_negative_work, "negative work: -1"),
        (_negative_words, "negative message size: -1"),
    ], ids=["work", "words"])
    def test_negative_counts_are_rejected(self, backend, program, text):
        with pytest.raises((ValueError, RuntimeError), match=text):
            self._backend(backend).run(program)


@pytest.mark.parametrize("backend", ["multiprocessing", "shm"])
def test_derived_rank_traffic_matches_virtual(backend):
    """A measured run's per-rank messages and words, read from its causal
    record, are the virtual run's for the same program."""

    def traffic(name, clock):
        tracer = Tracer()
        create_communicator(name, 4, machine=IDEAL, timeout=60.0,
                            tracer=tracer).run(
            _ring_program, per_rank([10 * r for r in range(4)]))
        [stats] = analyze(tracer, clock=clock).stats.values()
        return [(st.msgs_sent, st.msgs_recv, st.sync_sent, st.sync_recv,
                 st.words_sent, st.words_recv) for st in stats]

    virtual = traffic("virtual", "virtual")
    assert sum(row[0] for row in virtual) > 0
    assert traffic(backend, "wall") == virtual


class TestMultiprocessingBackend:
    def test_ring_parity_with_virtual(self):
        p = 4
        arg = per_rank([10 * r for r in range(p)])
        vres = create_communicator("virtual", p, machine=IDEAL).run(
            _ring_program, arg
        )
        mres = create_communicator(
            "multiprocessing", p, machine=IDEAL, timeout=60.0
        ).run(_ring_program, arg)
        assert mres.returns == vres.returns
        # same program, same yields -> identical message accounting
        assert mres.total_messages == vres.total_messages
        assert mres.total_words == vres.total_words
        assert mres.backend == "multiprocessing"
        assert mres.wall_seconds is not None and mres.wall_seconds > 0.0
        assert len(mres.clocks) == p
        assert mres.makespan == max(mres.clocks)

    def test_deadlock_detection_via_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.recv(source=1, tag=9)  # never sent

        comm = create_communicator("multiprocessing", 2, timeout=1.5)
        with pytest.raises(DeadlockError, match="no matching message"):
            comm.run(prog)

    def test_timeout_lists_the_unmatched_mailbox_like_the_vm(self):
        def prog(comm):
            if comm.rank == 0:
                for _ in range(3):
                    yield from comm.send("m", dest=1, tag=7, nwords=0)
                return None
            _ = yield from comm.recv(source=ANY, tag=2)

        listing = "(source=0, tag=7)×3"
        with pytest.raises(DeadlockError) as vm:
            VirtualMachine(2).run(prog)
        assert f"unmatched: {listing}" in str(vm.value)
        comm = create_communicator("multiprocessing", 2, timeout=1.5)
        with pytest.raises(DeadlockError) as real:
            comm.run(prog)
        msg = str(real.value)
        assert "rank 1: recv(source=ANY, tag=2) got no matching message" in msg
        assert msg.endswith(f"unmatched mailbox: {listing}")

    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom on purpose")
            yield from comm.barrier()

        comm = create_communicator("multiprocessing", 2, timeout=10.0)
        with pytest.raises(RuntimeError, match="rank 1") as exc:
            comm.run(prog)
        assert "boom on purpose" in str(exc.value)

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError, match="at least one rank"):
            create_communicator("multiprocessing", 0)

    def test_rank_error_tears_down_survivors_immediately(self):
        import time

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("fail fast")
            # would block out the full 60s receive timeout if the parent
            # waited for it instead of terminating on the first error
            yield from comm.recv(source=1, tag=9)

        comm = create_communicator("multiprocessing", 2, timeout=60.0)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1"):
            comm.run(prog)
        assert time.perf_counter() - t0 < 20.0

    def test_unreported_hang_hits_the_grace_deadline(self, monkeypatch):
        import time

        def prog(comm):
            time.sleep(30.0)  # stuck outside any receive: never reports
            yield from comm.barrier()

        monkeypatch.setattr(mp, "GRACE", 0.4)
        comm = create_communicator("multiprocessing", 1, timeout=0.4)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="did not report back"):
            comm.run(prog)
        assert time.perf_counter() - t0 < 10.0


class TestRecordBackendRun:
    @staticmethod
    def _result(**kw):
        return RunResult(
            returns=[None], clocks=kw.pop("clocks"), total_messages=0,
            total_words=0, **kw,
        )

    def test_none_tracer_is_a_no_op(self):
        res = self._result(clocks=[0.0])
        record_backend_run(None, "phase", res)  # must not raise

    def test_metrics_for_measured_and_modelled_runs(self):
        from repro.obs import Tracer

        tracer = Tracer()
        modelled = self._result(clocks=[2.5])
        measured = self._result(
            clocks=[0.5], wall_seconds=0.75, backend="multiprocessing",
        )
        record_backend_run(tracer, "mark", modelled)
        record_backend_run(tracer, "mark", measured)
        samples = [
            s for s in tracer.metrics.samples()
            if s.name == "repro.backend.makespan_seconds"
        ]
        assert {s.labels_dict["backend"] for s in samples} == {
            "virtual", "multiprocessing"
        }
        walls = [
            s for s in tracer.metrics.samples()
            if s.name == "repro.backend.wall_seconds"
        ]
        assert len(walls) == 1 and walls[0].value == 0.75
        assert walls[0].labels_dict["phase"] == "mark"


class TestOneRemapper:
    """The cycle's ``execute_remap`` and ``dist.migrate`` run one rank
    program (``repro.dist.migrate.exchange_elements``) on every backend."""

    NPROC = 4
    STORAGE = 24
    OLD = np.array([0, 1, 2, 3, 0, 2])
    NEW = np.array([1, 2, 3, 0, 0, 1])
    WREMAP = np.array([100, 200, 300, 400, 50, 7])

    @staticmethod
    def _box_case():
        mesh = box_mesh(3, 3, 3)
        dual = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
        old = multilevel_kway(dual, 4, seed=0)
        new = multilevel_kway(dual, 4, seed=7)
        return mesh, old, new

    def test_shm_remap_ships_the_words_it_charges(self):
        move = build_move_matrix(self.OLD, self.NEW, self.WREMAP, self.NPROC)
        sizes = 8 * self.STORAGE * move[move > 0]
        assert DEFAULT_MIN_BYTES <= sizes.min() and sizes.max() <= DEFAULT_SLAB_BYTES
        reset_transport_totals()
        execu = execute_remap(
            self.OLD, self.NEW, self.WREMAP, self.NPROC,
            storage_words=self.STORAGE, backend="shm",
        )
        got = transport_totals()
        assert got["bytes_zero_copy"] == 8 * execu.words_moved
        assert got["msgs_zero_copy"] == execu.messages
        assert got["bytes_pickled"] == 0

    @pytest.mark.parametrize("backend", ["multiprocessing", "shm"])
    def test_real_backends_move_what_virtual_moves(self, backend):
        move = build_move_matrix(self.OLD, self.NEW, self.WREMAP, self.NPROC)
        received = {
            name: exchange_elements(
                move, self.STORAGE,
                phase="remap", machine=IDEAL, backend=name,
            ).returns
            for name in ("virtual", backend)
        }
        assert received[backend] == received["virtual"] == move.sum(axis=0).tolist()

        remaps = [
            execute_remap(self.OLD, self.NEW, self.WREMAP, self.NPROC, backend=name)
            for name in ("virtual", backend)
        ]
        for field in ("elements_moved", "messages", "words_moved"):
            assert getattr(remaps[1], field) == getattr(remaps[0], field)

        mesh, old, new = self._box_case()
        migrations = [
            migrate(mesh, decompose(mesh, old, 4), new, backend=name)
            for name in ("virtual", backend)
        ]
        assert migrations[1].elements_moved == migrations[0].elements_moved
        assert migrations[1].messages == migrations[0].messages
        for a, b in zip(migrations[1].locals, migrations[0].locals):
            assert np.array_equal(a.elem_l2g, b.elem_l2g)

    def test_migrate_costs_what_the_cycles_remap_costs(self):
        mesh, old, new = self._box_case()
        migrated = migrate(
            mesh, decompose(mesh, old, 4), new, storage_words_per_elem=self.STORAGE
        )
        remapped = execute_remap(
            old, new, np.ones_like(old), 4, storage_words=self.STORAGE
        )
        assert migrated.seconds > 0.0
        assert migrated.seconds == remapped.time_seconds  # one program: plain ==
        assert migrated.elements_moved == remapped.elements_moved
        assert migrated.messages == remapped.messages
