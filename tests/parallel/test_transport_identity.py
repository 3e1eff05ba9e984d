"""Cross-backend payload identity on adversarial payloads.

Every wire — the virtual machine's in-memory handoff, the queue
backend's pickling, the shm backend's slab packing with pickle spill —
must deliver payloads bit-identical to what was sent.  The payloads
here are chosen to stress the slab codec's edges: non-contiguous
views, zero-length arrays, blocks larger than a slab, mixed-dtype
containers, and dtypes that must spill.
"""

import numpy as np
import pytest

from repro.parallel import available_backends, create_communicator

BACKENDS = available_backends()


def _adversarial_payloads():
    base = np.arange(4096, dtype=np.float64).reshape(64, 64)
    return [
        # non-contiguous strided slice (packs to a compact copy)
        base[::2, 1::3],
        # reversed view: negative strides
        np.arange(1000, dtype=np.float64)[::-1],
        # zero-length array (below min_bytes -> pickle path)
        np.empty((0,), dtype=np.float64),
        # empty with nonzero dims on other axes
        np.zeros((3, 0, 5), dtype=np.int64),
        # > 1 MB float64 block (larger than the default slab -> spill)
        np.arange(150_000, dtype=np.float64) * 0.5,
        # Fortran-ordered block
        np.asfortranarray(np.arange(900, dtype=np.float64).reshape(30, 30)),
        # mixed-dtype tuple: eligible array + small array + non-arrays
        (
            np.arange(1000, dtype=np.int32),
            np.linspace(0.0, 1.0, 500),
            b"header-bytes",
            {"elems": 17, "rank": 0},
        ),
        # list container with a float32 member
        [np.full(300, 2.5, dtype=np.float32), "tail"],
        # structured dtype (void kind -> must spill, values preserved)
        np.array([(1, 2.5), (3, 4.5)], dtype=[("a", "i8"), ("b", "f8")]),
        # non-array scalars ride the pickle path untouched
        3.25,
        None,
    ]


def _assert_identical(got, want, where):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype, where
        assert got.shape == want.shape, where
        assert np.array_equal(got, want), where
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_identical(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def _echo_program(comm, payloads):
    """Rank 0 ships every payload to rank 1, which echoes each one back."""
    if comm.rank == 0:
        for i, p in enumerate(payloads):
            yield from comm.send(p, dest=1, tag=i)
        returned = []
        for i in range(len(payloads)):
            p = yield from comm.recv(source=1, tag=i)
            returned.append(p)
        return returned
    received = []
    for i in range(len(payloads)):
        p = yield from comm.recv(source=0, tag=i)
        received.append(p)
    for i, p in enumerate(received):
        yield from comm.send(p, dest=0, tag=i)
    return len(received)


@pytest.mark.parametrize("backend", BACKENDS)
def test_adversarial_payloads_survive_the_wire(backend):
    payloads = _adversarial_payloads()
    comm = create_communicator(backend, 2, timeout=60.0)
    res = comm.run(_echo_program, payloads)
    assert res.returns[1] == len(payloads)
    for i, (got, want) in enumerate(zip(res.returns[0], payloads)):
        _assert_identical(got, want, f"{backend}: payload {i} after echo")


def test_backends_agree_with_each_other():
    """The same echo run yields bit-identical payloads on every backend."""
    payloads = _adversarial_payloads()
    reference = create_communicator("virtual", 2).run(
        _echo_program, payloads
    ).returns[0]
    for backend in BACKENDS:
        if backend == "virtual":
            continue
        got = create_communicator(backend, 2, timeout=60.0).run(
            _echo_program, payloads
        ).returns[0]
        for i, (g, w) in enumerate(zip(got, reference)):
            _assert_identical(g, w, f"{backend} vs virtual: payload {i}")


def test_shm_spill_accounting_matches_payload_mix():
    """The adversarial mix must split between slabs and pickle as designed."""
    payloads = _adversarial_payloads()
    res = create_communicator("shm", 2, timeout=60.0).run(
        _echo_program, payloads
    )
    t = res.transport
    # both directions counted: every message is either zero-copy or pickled
    assert t["msgs_zero_copy"] + t["msgs_pickled"] == 2 * len(payloads)
    # the eligible arrays (slices, reversed, 1MB-, F-order, tuple members)
    # did ride the slabs...
    assert t["msgs_zero_copy"] >= 2 * 5
    # ...and the oversized block forced exactly one spill per direction
    assert t["bytes_pickled"] >= 2 * 150_000 * 8
