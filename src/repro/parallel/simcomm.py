"""mpi4py-flavoured communicator for rank programs on the virtual machine.

All methods are generator functions: rank programs invoke them with
``yield from``, e.g.::

    def program(comm):
        data = yield from comm.bcast({"n": 10}, root=0)
        part = yield from comm.scatter(chunks if comm.rank == 0 else None, root=0)
        total = yield from comm.allreduce(len(part))
        return total

Collectives are implemented *on top of* point-to-point sends/receives using
the standard tree/dissemination algorithms, so their virtual cost scales
with :math:`\\log P` (or :math:`P` for the personalised collectives) exactly
as on a real message-passing machine.  Nonblocking operations return
:class:`Request` handles; :meth:`Comm.split` builds MPI-style
sub-communicators with isolated tag spaces.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .machine import MachineModel, word_count
from .runtime import ANY, ElapseOp, ProbeOp, RecvOp, SendOp, WorkOp

__all__ = ["Comm", "Request", "SubComm", "ANY"]

# Tag space: user tags must stay below _TAG_BASE; collectives use offsets
# above it so user traffic can never be captured by a collective.
_TAG_BASE = 1 << 20
_TAG_BARRIER = _TAG_BASE + 1
_TAG_BCAST = _TAG_BASE + 2
_TAG_GATHER = _TAG_BASE + 3
_TAG_SCATTER = _TAG_BASE + 4
_TAG_REDUCE = _TAG_BASE + 5
_TAG_ALLGATHER = _TAG_BASE + 6
_TAG_ALLTOALL = _TAG_BASE + 7
_TAG_SCAN = _TAG_BASE + 8
# sub-communicator traffic: each split gets a deterministic block of tags
# above this base (user tags < _SUB_TAG_SPAN, collectives remapped after).
# Blocks are indexed by folding the communicator's split-id path through
# the Cantor pairing (see SubComm._map_tag), so nested splits can never
# land inside a sibling split's block.
_TAG_SUB_BASE = _TAG_BASE + 4096
_SUB_TAG_SPAN = 1024
_SUB_BLOCK = 2 * _SUB_TAG_SPAN


def _cantor(a: int, b: int) -> int:
    """Cantor pairing: injective ``(a, b) -> n`` over the naturals."""
    return (a + b) * (a + b + 1) // 2 + b


class Request:
    """Handle for a nonblocking operation.

    ``isend`` completes eagerly in the buffered-postal model, so its
    request is born complete; an ``irecv`` request resolves when waited
    (blocking) or successfully tested (non-blocking probe).
    """

    def __init__(self, comm: "Comm | None" = None,
                 source: int = ANY, tag: int = ANY, value=None, done=False):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._value = value
        self._done = done

    @property
    def completed(self) -> bool:
        return self._done

    def wait(self):
        """Block until complete; returns the payload (None for sends)."""
        if self._done:
            return self._value
        payload, _s, _t = yield self._comm._recv_op(self._source, self._tag)
        self._value = payload
        self._done = True
        return payload

    def test(self):
        """Non-blocking completion check; returns (done, payload)."""
        if self._done:
            return True, self._value
        matched, result = yield self._comm._probe_op(self._source, self._tag)
        if matched:
            payload, _s, _t = result
            self._value = payload
            self._done = True
            return True, payload
        return False, None


class Comm:
    """Communicator bound to one rank of a :class:`VirtualMachine` run."""

    def __init__(self, rank: int, size: int, machine: MachineModel):
        self.rank = rank
        self.size = size
        self.machine = machine
        self._next_split_id = 0

    # --- primitive layer (overridden by SubComm for rank/tag translation) ---

    def _send_op(self, dest: int, tag: int, obj: Any, nwords: int) -> SendOp:
        """The send as a plain op (already in the machine's rank/tag space).

        Internal call sites ``yield self._send_op(...)`` directly, so a
        (possibly nested) SubComm translation costs function calls rather
        than a stack of delegating generator frames per message.
        """
        return SendOp(dest, tag, obj, nwords)

    def _recv_op(self, source: int, tag: int) -> RecvOp:
        """The receive as a plain op (machine rank/tag space).

        Yielding it resolves to ``(payload, source, tag)`` with the source
        in *machine* rank space — call sites that need the local source
        must run it through :meth:`_local_source`.  Most internal sites
        discard the source entirely and just ``yield self._recv_op(...)``.
        """
        return RecvOp(source, tag)

    def _probe_op(self, source: int, tag: int) -> ProbeOp:
        """The probe as a plain op (machine rank/tag space); resolves to
        ``(matched, (payload, machine_source, machine_tag) | None)``."""
        return ProbeOp(source, tag)

    def _local_source(self, src: int) -> int:
        """Translate a machine-space source rank into this communicator's
        rank space (identity here; SubComm folds back through its parent)."""
        return src

    def _recv(self, source: int, tag: int):
        """Returns (payload, source, tag) in this communicator's rank space."""
        return (yield self._recv_op(source, tag))

    def _probe(self, source: int, tag: int):
        return (yield self._probe_op(source, tag))

    # --- local time -------------------------------------------------------

    def compute(self, units: float):
        """Charge ``units`` of local computation to this rank's clock."""
        yield WorkOp(units)

    def elapse(self, seconds: float):
        """Advance this rank's clock by a raw number of seconds."""
        yield ElapseOp(seconds)

    # --- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, nwords: int | None = None):
        """Buffered send; completes after the message is on the wire."""
        self._check_tag(tag)
        yield self._send_op(
            dest, tag, obj, word_count(obj) if nwords is None else nwords
        )

    def recv(self, source: int = ANY, tag: int = ANY):
        """Blocking receive; returns the matching payload."""
        payload, _src, _tag = yield self._recv_op(source, tag)
        return payload

    def recv_status(self, source: int = ANY, tag: int = ANY):
        """Blocking receive returning ``(payload, source, tag)``."""
        return (yield from self._recv(source, tag))

    def isend(self, obj: Any, dest: int, tag: int = 0, nwords: int | None = None):
        """Nonblocking send; completes eagerly (buffered postal model)."""
        self._check_tag(tag)
        yield self._send_op(
            dest, tag, obj, word_count(obj) if nwords is None else nwords
        )
        return Request(done=True)

    def irecv(self, source: int = ANY, tag: int = ANY):
        """Nonblocking receive; resolve via ``req.wait()`` / ``req.test()``."""
        if False:  # pragma: no cover — marks this as a generator function
            yield
        return Request(self, source, tag)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY,
        sendtag: int = 0,
        recvtag: int = ANY,
        nwords: int | None = None,
    ):
        """Combined send+receive (deadlock-free under buffered sends)."""
        yield from self.send(obj, dest, tag=sendtag, nwords=nwords)
        return (yield from self.recv(source, recvtag))

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < _TAG_BASE:
            raise ValueError(f"user tags must be in [0, {_TAG_BASE}), got {tag}")

    # --- collectives --------------------------------------------------------

    def barrier(self):
        """Dissemination barrier: ceil(log2 P) rounds of pairwise sync."""
        k = 1
        while k < self.size:
            dest = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            yield self._send_op(dest, _TAG_BARRIER, None, 0)
            yield self._recv_op(src, _TAG_BARRIER)
            k *= 2

    def bcast(self, obj: Any, root: int = 0):
        """Binomial-tree broadcast; returns the root's object on every rank.

        Standard MPICH schedule over virtual ranks ``vrank = (rank-root) % P``:
        each non-root receives from the rank that differs in its lowest set
        bit, then forwards to ranks obtained by setting each lower bit.
        """
        vrank = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if vrank & mask:
                parent = ((vrank - mask) + root) % self.size
                obj, _s, _t = yield self._recv_op(parent, _TAG_BCAST)
                break
            mask *= 2
        mask //= 2
        while mask > 0:
            child = vrank + mask
            if child < self.size:
                yield self._send_op(
                    (child + root) % self.size, _TAG_BCAST, obj, word_count(obj)
                )
            mask //= 2
        return obj

    def gather(self, obj: Any, root: int = 0):
        """Gather one object per rank to ``root`` (list there, None elsewhere)."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                payload, src, _t = yield self._recv_op(ANY, _TAG_GATHER)
                out[self._local_source(src)] = payload
            return out
        yield self._send_op(root, _TAG_GATHER, obj, word_count(obj))
        return None

    def scatter(self, objs: list | None, root: int = 0):
        """Scatter ``objs[r]`` from root to each rank ``r``."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(
                    f"root must pass a list of length {self.size}, got "
                    f"{None if objs is None else len(objs)}"
                )
            for dst in range(self.size):
                if dst != root:
                    yield self._send_op(
                        dst, _TAG_SCATTER, objs[dst], word_count(objs[dst])
                    )
            return objs[root]
        payload, _s, _t = yield self._recv_op(root, _TAG_SCATTER)
        return payload

    def reduce(self, obj: Any, op: Callable = operator.add, root: int = 0):
        """Binomial-tree reduction to ``root``; result there, None elsewhere.

        ``op`` must be associative; the combine order is *rank* order
        (``x_0 ⊕ x_1 ⊕ … ⊕ x_{P-1}``) for every root, so runs are
        deterministic and root-independent even for non-commutative
        ``op``.  The tree is always rooted at rank 0 (whose binomial
        schedule combines contiguous rank blocks left to right); for
        ``root != 0`` the result travels one extra hop to ``root``.
        """
        acc = obj
        mask = 1
        while mask < self.size:
            if self.rank & mask:
                parent = self.rank & ~mask
                yield self._send_op(parent, _TAG_REDUCE, acc, word_count(acc))
                break
            child = self.rank | mask
            if child < self.size:
                payload, _s, _t = yield self._recv_op(child, _TAG_REDUCE)
                acc = op(acc, payload)
            mask *= 2
        if root != 0:
            if self.rank == 0:
                yield self._send_op(root, _TAG_REDUCE, acc, word_count(acc))
            elif self.rank == root:
                acc, _s, _t = yield self._recv_op(0, _TAG_REDUCE)
        return acc if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable = operator.add):
        """Reduction whose result is returned on every rank.

        Identical op schedule to ``reduce(root=0)`` followed by
        ``bcast(root=0)``, fused into one generator frame: an allreduce
        per propagation round is the exec phase's convergence check, and
        at 10k+ virtual ranks the two delegate frames (creation plus a
        ``yield from`` hop per op) are pure scheduler overhead.
        """
        rank = self.rank
        size = self.size
        # reduce to rank 0, combining in rank order (see ``reduce``)
        acc = obj
        mask = 1
        while mask < size:
            if rank & mask:
                yield self._send_op(
                    rank & ~mask, _TAG_REDUCE, acc, word_count(acc)
                )
                break
            child = rank | mask
            if child < size:
                payload, _s, _t = yield self._recv_op(child, _TAG_REDUCE)
                acc = op(acc, payload)
            mask *= 2
        # binomial broadcast from rank 0 (vrank == rank; see ``bcast``)
        mask = 1
        while mask < size:
            if rank & mask:
                acc, _s, _t = yield self._recv_op(rank - mask, _TAG_BCAST)
                break
            mask *= 2
        mask //= 2
        while mask > 0:
            child = rank + mask
            if child < size:
                yield self._send_op(child, _TAG_BCAST, acc, word_count(acc))
            mask //= 2
        return acc

    def allgather(self, obj: Any):
        """Gather one object per rank, result list returned on every rank."""
        gathered = yield from self.gather(obj, root=0)
        return (yield from self.bcast(gathered, root=0))

    def alltoall(self, objs: list):
        """Personalised all-to-all: send ``objs[d]`` to rank ``d``.

        Returns the list of objects received, indexed by source rank.
        Pairwise-exchange schedule: at step ``k`` rank ``r`` sends to
        ``(r+k) % P`` and receives from ``(r-k) % P``.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs {self.size} entries, got {len(objs)}")
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for k in range(1, self.size):
            dest = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            yield self._send_op(
                dest, _TAG_ALLTOALL, objs[dest], word_count(objs[dest])
            )
            # the receive names its source, so the local index is just src
            payload, _got, _t = yield self._recv_op(src, _TAG_ALLTOALL)
            out[src] = payload
        return out

    def scan(self, obj: Any, op: Callable = operator.add):
        """Inclusive prefix reduction: rank r gets op(obj_0, ..., obj_r).

        Distance-doubling (Hillis–Steele) schedule: ceil(log2 P) rounds.
        ``op`` must be associative; the combine order is rank order.
        """
        acc = obj
        k = 1
        while k < self.size:
            if self.rank + k < self.size:
                yield self._send_op(self.rank + k, _TAG_SCAN, acc, word_count(acc))
            if self.rank - k >= 0:
                payload, _s, _t = yield self._recv_op(self.rank - k, _TAG_SCAN)
                acc = op(payload, acc)
            k *= 2
        return acc

    def exscan(self, obj: Any, op: Callable = operator.add):
        """Exclusive prefix reduction: rank r gets op(obj_0, ..., obj_{r-1});
        rank 0 gets None."""
        result = yield from self.scan((None, obj), _PairOp(op))
        return result[0]

    def reduce_scatter(self, objs: list, op: Callable = operator.add):
        """Reduce ``objs[i]`` elementwise across ranks; rank i gets block i."""
        if len(objs) != self.size:
            raise ValueError(
                f"reduce_scatter needs {self.size} entries, got {len(objs)}"
            )
        gathered = yield from self.alltoall(objs)
        acc = gathered[0]
        for x in gathered[1:]:
            acc = op(acc, x)
        return acc

    # --- communicator splitting ---------------------------------------------

    def split(self, color: int, key: int = 0):
        """Partition ranks into sub-communicators by ``color``
        (MPI_Comm_split semantics).

        Members of the same color receive a :class:`SubComm` whose ranks
        are ordered by ``(key, parent rank)``.  The membership exchange is
        an allgather; the split id (used for tag-space isolation) advances
        identically on every rank because split is collective.
        """
        me = (int(color), int(key), self.rank)
        members = yield from self.allgather(me)
        mine = sorted((k, r) for c, k, r in members if c == color)
        parent_ranks = [r for _k, r in mine]
        split_id = self._next_split_id
        self._next_split_id += 1
        return SubComm(self, parent_ranks, parent_ranks.index(self.rank), split_id)


class _PairOp:
    """Carry (exclusive, inclusive) prefixes through an inclusive scan.

    Combining left block (E1, I1) with right block (E2, I2): the overall
    rightmost element's exclusive prefix is I1 ⊕ E2 (just I1 when the right
    block is a single element, encoded E2 = None), and the inclusive prefix
    is I1 ⊕ I2.
    """

    def __init__(self, op: Callable):
        self.op = op

    def __call__(self, left, right):
        e1, i1 = left
        e2, i2 = right
        exclusive = i1 if e2 is None else self.op(i1, e2)
        return (exclusive, self.op(i1, i2))


class SubComm(Comm):
    """Sub-communicator produced by :meth:`Comm.split`.

    Delegates to the parent communicator with rank translation and a
    private tag block, so two sub-communicators (or a sub-communicator and
    its parent) can never intercept each other's traffic.  User tags must
    stay below 1024 inside a SubComm; ``recv`` with ``tag=ANY`` is not
    supported (the tag block cannot be expressed as a wildcard).
    """

    def __init__(self, parent: Comm, parent_ranks: list[int], rank: int,
                 split_id: int):
        super().__init__(rank, len(parent_ranks), parent.machine)
        self.parent = parent
        self.parent_ranks = list(parent_ranks)
        self._to_local = {g: l for l, g in enumerate(parent_ranks)}
        self._split_id = split_id
        self._tag_base = _TAG_SUB_BASE + _cantor(split_id, 0) * _SUB_BLOCK

    def _map_tag(self, tag: int) -> int:
        """Translate a tag into the parent communicator's tag space.

        The block index of this communicator's own traffic is
        ``cantor(split_id, 0)``; traffic arriving from a *nested*
        sub-communicator (already mapped into some block ``b`` relative to
        this communicator) is re-blocked to ``cantor(split_id, b + 1)``.
        Folding the pairing along the split path keeps every communicator's
        final block distinct unless the communicators share the whole path
        — and same-path communicators are sibling colors of the same
        collective split calls, whose rank sets are disjoint, so their
        (identically tagged) traffic can never cross-match.  Offsets within
        a block (user tags below, collective tags above ``_SUB_TAG_SPAN``)
        are preserved at every level.
        """
        if tag == ANY:
            raise ValueError("tag=ANY is not supported inside a SubComm")
        if tag >= _TAG_SUB_BASE:  # nested sub-communicator traffic
            block, off = divmod(tag - _TAG_SUB_BASE, _SUB_BLOCK)
            return (
                _TAG_SUB_BASE
                + _cantor(self._split_id, block + 1) * _SUB_BLOCK
                + off
            )
        if tag >= _TAG_BASE:  # this communicator's own collective tags
            off = tag - _TAG_BASE
            assert off < _SUB_TAG_SPAN, f"collective tag overflow: {tag}"
            return self._tag_base + _SUB_TAG_SPAN + off
        if not 0 <= tag < _SUB_TAG_SPAN:
            raise ValueError(
                f"SubComm user tags must be in [0, {_SUB_TAG_SPAN}), got {tag}"
            )
        return self._tag_base + tag

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < _SUB_TAG_SPAN:
            raise ValueError(
                f"SubComm user tags must be in [0, {_SUB_TAG_SPAN}), got {tag}"
            )

    def _send_op(self, dest: int, tag: int, obj: Any, nwords: int) -> SendOp:
        return self.parent._send_op(
            self.parent_ranks[dest], self._map_tag(tag), obj, nwords
        )

    def _recv_op(self, source: int, tag: int) -> RecvOp:
        psrc = ANY if source == ANY else self.parent_ranks[source]
        return self.parent._recv_op(psrc, self._map_tag(tag))

    def _probe_op(self, source: int, tag: int) -> ProbeOp:
        psrc = ANY if source == ANY else self.parent_ranks[source]
        return self.parent._probe_op(psrc, self._map_tag(tag))

    def _local_source(self, src: int) -> int:
        return self._to_local[self.parent._local_source(src)]

    def _recv(self, source: int, tag: int):
        payload, src, _t = yield self._recv_op(source, tag)
        return payload, self._local_source(src), tag

    def _probe(self, source: int, tag: int):
        matched, result = yield self._probe_op(source, tag)
        if matched:
            payload, src, _t = result
            return True, (payload, self._local_source(src), tag)
        return False, None
