"""Spans taken from outside the program.

The benchmark times the layers of ``repro`` without a line of ``src/``
knowing about it.  A :class:`Recorder` keeps spans in memory — name,
start, end, parent — and is aggregated once, after the body.  Spans come
from two places:

* the workload driver wraps each call it makes into a layer in
  ``rec.span(name)``;
* :func:`install` rebinds the nested public entry points listed in
  :data:`TARGETS`: every ``repro.*`` module global that *is* the original
  function is replaced by a timing wrapper, and methods are replaced with
  ``setattr`` on their class.

Both are off in untraced passes (``Recorder(enabled=False)`` hands out a
no-op context and :func:`install` is never called), so ``wall_s`` is the
program's own time.  A target that no longer resolves is reported, not
raised: a refactor of ``src/`` must not break the instrument, only show
up in ``bench.unwrapped_n``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class _SpanContext:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.index = self.rec.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.rec.end(self.index)
        return False


class Recorder:
    """In-memory span list plus the counts taken at the same boundaries."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.digests: set[bytes] = set()
        self._top = -1  # innermost open span

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._top])
        self._top = index
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._top = span[3]

    def span(self, name: str):
        """Context manager around one driver-side call into a layer."""
        return _SpanContext(self, name) if self.enabled else _NULL

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open right now?"""
        i = self._top
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][3]
        return False

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as a span; ``note(rec, args, kwargs, result)`` counts."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return timed


# --- counts taken by the wrappers ------------------------------------------


def _note_kway(rec, args, kwargs, result):
    graph = args[0]
    rec.counts["partition.vertices"] += graph.n
    if rec.inside("core.solver_init"):
        # same (graph arrays, k, seed) => the same initial partition was
        # computed again; the digest is how reuse is counted from outside
        k = args[1] if len(args) > 1 else kwargs["k"]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        h = hashlib.blake2b(digest_size=16)
        for arr in (graph.ptr, graph.adj, graph.vwgt, graph.ewgt):
            h.update(arr.tobytes())
        h.update(f"{k}/{seed}".encode())
        rec.counts["core.init_partition_calls"] += 1
        rec.digests.add(h.digest())


def _note_refine(rec, args, kwargs, result):
    rec.counts["adapt.elements_out"] += args[0].mesh.ne


def _note_vm_run(rec, args, kwargs, result):
    rec.counts["parallel.vm_messages"] += result.total_messages


#: (span name, "module:attr" or "module:Class.method", count hook).
#: Every target is a public export of its package.
TARGETS = (
    ("partition.kway", "repro.partition:multilevel_kway", _note_kway),
    ("partition.repartition", "repro.partition:repartition", None),
    ("partition.bisect", "repro.partition:multilevel_bisect", None),
    ("partition.matching", "repro.partition:heavy_edge_matching", None),
    ("partition.contract", "repro.partition:contract", None),
    ("partition.initial", "repro.partition:greedy_graph_growing", None),
    ("partition.fm", "repro.partition:fm_bisection_refine", None),
    ("partition.kway_refine", "repro.partition:kway_greedy_refine", None),
    ("core.dualgraph", "repro.core:DualGraph.__init__", None),
    ("core.similarity", "repro.core:similarity_matrix", None),
    ("core.reassign", "repro.core:heuristic_mwbg", None),
    ("core.reassign", "repro.core:optimal_mwbg", None),
    ("core.reassign", "repro.core:optimal_bmcm", None),
    ("core.decide", "repro.core:CostModel.decide", None),
    ("core.remap", "repro.core:execute_remap", None),
    ("adapt.mark", "repro.adapt:AdaptiveMesh.mark", None),
    ("adapt.refine", "repro.adapt:AdaptiveMesh.refine", _note_refine),
    ("adapt.predicted_weights", "repro.adapt:AdaptiveMesh.predicted_weights", None),
    ("adapt.elem_partition", "repro.adapt:AdaptiveMesh.elem_partition", None),
    ("parallel.vm_run", "repro.parallel:VirtualMachine.run", _note_vm_run),
)


def install(rec: Recorder) -> list[str]:
    """Rebind every target to a timing wrapper; returns the unresolved ones."""
    unresolved = []
    for name, target, note in TARGETS:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            unresolved.append(target)
            continue
        wrapper = rec.wrap(name, original, note)
        if parents:  # a method: one binding, on the class
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for global_name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, global_name, wrapper)
    return unresolved


# --- aggregation -----------------------------------------------------------


class SpanTable:
    """Per-name self time, inclusive time and call count of a span list."""

    def __init__(self, spans: list[list], root: int):
        """Aggregate the spans below ``root`` (the body's own span)."""
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.min_self_s = 0.0
        in_body = [False] * len(spans)
        in_body[root] = True
        for i, (name, start, end, parent) in enumerate(spans):
            if i != root:
                if parent < 0 or not in_body[parent]:
                    continue
                in_body[i] = True
            own = (end - start) - covered[i]
            self.min_self_s = min(self.min_self_s, own)
            self.self_s[name] += own
            self.calls[name] += 1
            # inclusive time counts a recursion once: skip a span that
            # has an ancestor of its own name
            j = parent
            while j >= 0 and spans[j][0] != name:
                j = spans[j][3]
            if j < 0:
                self.incl_s[name] += end - start
        self.n = sum(in_body)

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span whose name starts with ``layer.``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))
