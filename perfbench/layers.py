"""Per-layer tracing from outside the program.

:class:`SpanTracer` wraps, at class level, every public method of every
class defined in the program's layer modules (:data:`LAYERS`).  While a
probe has a timed program call open, each wrapped call is counted, and in
every :data:`SPAN_EVERY`-th batch it also appends one span -- (name,
start, end, parent, op id) -- to flat in-memory columns.  After the run,
:meth:`SpanTracer.summary` turns them into per-layer call counts, self
times (duration minus child spans) and component times.

Spans sit at class-method boundaries, so a fast path the program inlines
bypasses them; the call counts are reported beside the times so such a
gap stays visible.  :func:`profile_summary` buckets a cProfile pass by
``repro`` package and keeps every function's count, so the wrapped
methods' counts can be checked between the two passes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from array import array
from typing import Dict, List, Tuple

from repro.params import BLOCKS_PER_HUGEPAGE

#: layer -> modules whose classes it owns (layer = ``repro`` package)
LAYERS = {
    "vfs": ("repro.vfs.interface",),
    "fs": ("repro.fs.common.base", "repro.fs.common.dirindex",
           "repro.fs.common.freespace", "repro.fs.common.inode"),
    "core": ("repro.core.filesystem", "repro.core.allocator",
             "repro.core.journal", "repro.core.layout", "repro.core.rewrite"),
    "structures": ("repro.structures.runstore", "repro.structures.extents",
                   "repro.structures.sortedmap", "repro.structures.rbtree"),
    "mmu": ("repro.mmu.mmap_region", "repro.mmu.tlb",
            "repro.mmu.page_table", "repro.mmu.cache"),
    "pm": ("repro.pm.device", "repro.pm.zeros"),
    "clock": ("repro.clock",),
    "obs": ("repro.obs.trace", "repro.obs.metrics"),
}

#: named components inside a layer: (module, class or None for all of the
#: module's classes).  Component time is the wall time inside the
#: component's outermost spans, children included.
COMPONENTS = {
    "core.journal": ("repro.core.journal", None),
    "core.allocator": ("repro.core.allocator", "AlignmentAwareAllocator"),
    "fs.dirindex": ("repro.fs.common.dirindex", None),
    "structures.runstore": ("repro.structures.runstore", "RunStore"),
}

#: methods whose call counts are reported as exact per-op counts
COUNTED = {
    "core.journal.commits": ("repro.core.journal", "_Transaction",
                             ("commit",)),
    "core.allocator.allocs": ("repro.core.allocator",
                              "AlignmentAwareAllocator",
                              ("alloc", "alloc_aligned_for_fault",
                               "alloc_meta_block")),
    "pm.persists": ("repro.pm.device", "PMDevice", ("persist", "sfence")),
}

#: spans are kept, and the cProfile pass profiles, every SPAN_EVERY-th
#: batch of the timed phase
SPAN_EVERY = 4

#: allocator methods whose hugepage-sized chunks are counted, and how
ALIGNED_SITES = {"alloc": "alloc", "alloc_aligned_for_fault": "fault"}


class AlignedChunks:
    """Hugepage-sized allocation chunks requested, and those served as
    aligned 2 MiB extents."""

    def __init__(self) -> None:
        self.attempts = 0
        self.useful = 0

    def note(self, kind: str, args, kwargs, result) -> None:
        if kind == "fault":
            self.attempts += 1
            self.useful += result is not None
            return
        if kwargs.get("want_aligned") is False:
            return
        huge = BLOCKS_PER_HUGEPAGE
        self.attempts += args[1] // huge
        self.useful += sum(
            1 for e in result if e.length == huge and e.start % huge == 0)

    @contextlib.contextmanager
    def window(self):
        """Count the chunks of every allocation made inside the block."""
        from repro.core.allocator import AlignmentAwareAllocator as cls
        saved = [(name, vars(cls)[name]) for name in ALIGNED_SITES]

        def counted(fn, kind):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.note(kind, args, kwargs, result)
                return result
            return wrapper

        for name, fn in saved:
            setattr(cls, name, counted(fn, ALIGNED_SITES[name]))
        try:
            yield self
        finally:
            for name, fn in saved:
                setattr(cls, name, fn)


def _public_methods():
    """Yield (layer, module, class, name, function) for every wrap site."""
    for layer, modules in LAYERS.items():
        for modname in modules:
            module = importlib.import_module(modname)
            for cname, cls in sorted(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != modname:
                    continue
                for name, fn in sorted(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    yield layer, modname, cls, name, fn


def _code_key(fn) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class SpanTracer:
    """Class-level method wrappers: call counts for every timed op, spans
    for the ops of every :data:`SPAN_EVERY`-th batch.

    Sampling whole batches bounds span memory at a few tens of MiB while
    the call counts stay complete, so they can be exact.
    """

    def __init__(self) -> None:
        self.on = False         # a probe has a timed program call open
        self.keep = False       # ... and its batch keeps spans
        self.op = -1
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.component_of: List[str] = []
        self.counted_as: List[str] = []
        self.code_keys: List[Tuple[str, int, str]] = []
        self.calls = array("q")
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_op = array("i")
        self._stack = [-1]
        self._saved: List[Tuple[type, str, object]] = []
        self.aligned = AlignedChunks()

    def _wrap(self, fn, name_id: int, aligned: str):
        tracer = self
        now = time.perf_counter_ns
        calls = self.calls
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op, stack = self.s_parent, self.s_op, self._stack

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[name_id] += 1
            if tracer.keep:
                idx = len(s_name)
                s_name.append(name_id)
                s_parent.append(stack[-1])
                s_op.append(tracer.op)
                s_end.append(0)
                stack.append(idx)
                s_start.append(now())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    s_end[idx] = now()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if aligned:
                tracer.aligned.note(aligned, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        for layer, modname, cls, name, fn in _public_methods():
            name_id = len(self.names)
            self.names.append(f"{cls.__name__}.{name}")
            self.layer_of.append(layer)
            self.code_keys.append(_code_key(fn))
            self.calls.append(0)
            comp = ""
            for cname, (cmod, ccls) in COMPONENTS.items():
                if cmod == modname and ccls in (None, cls.__name__):
                    comp = cname
            self.component_of.append(comp)
            counted = ""
            for key, (cmod, ccls, methods) in COUNTED.items():
                if cmod == modname and ccls == cls.__name__ \
                        and name in methods:
                    counted = key
            self.counted_as.append(counted)
            aligned = ""
            if cls.__name__ == "AlignmentAwareAllocator":
                aligned = ALIGNED_SITES.get(name, "")
            self._saved.append((cls, name, fn))
            setattr(cls, name, self._wrap(fn, name_id, aligned))

    def uninstall(self) -> None:
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()

    def summary(self, factors: List[float], batch: int) -> dict:
        """Call counts over every timed op (and over the kept batches'
        ops, from their spans); normalized times (ns) over the kept
        batches' ops, with the number of those ops."""
        n = len(self.s_name)
        dur = array("d", bytes(8 * n))
        child = array("d", bytes(8 * n))
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op = self.s_parent, self.s_op
        for i in range(n):
            d = (s_end[i] - s_start[i]) * factors[s_op[i] // batch]
            dur[i] = d
            p = s_parent[i]
            if p >= 0:
                child[p] += d
        comps = sorted({c for c in self.component_of if c})
        comp_bit = {c: 1 << k for k, c in enumerate(comps)}
        bit_of = [comp_bit.get(c, 0) for c in self.component_of]
        # mask[i]: components open on span i's ancestor chain (parents are
        # always recorded before their children)
        mask = array("q", bytes(8 * n))
        layer_self: Dict[str, float] = {}
        comp_ns: Dict[str, float] = {}
        kept_ops = set()
        kept_calls = array("q", bytes(8 * len(self.names)))
        for i in range(n):
            nid = s_name[i]
            kept_calls[nid] += 1
            p = s_parent[i]
            if p >= 0:
                mask[i] = mask[p] | bit_of[s_name[p]]
            else:
                kept_ops.add(s_op[i])
            layer = self.layer_of[nid]
            layer_self[layer] = layer_self.get(layer, 0.0) \
                + dur[i] - child[i]
            comp = self.component_of[nid]
            if comp and not mask[i] & bit_of[nid]:
                comp_ns[comp] = comp_ns.get(comp, 0.0) + dur[i]
        layer_calls: Dict[str, int] = {}
        comp_calls: Dict[str, int] = {}
        counted: Dict[str, int] = {}
        method_calls: Dict[str, list] = {}
        for nid, count in enumerate(self.calls):
            method_calls[self.names[nid]] = [kept_calls[nid],
                                             list(self.code_keys[nid])]
            layer = self.layer_of[nid]
            layer_calls[layer] = layer_calls.get(layer, 0) + count
            comp = self.component_of[nid]
            if comp:
                comp_calls[comp] = comp_calls.get(comp, 0) + count
            key = self.counted_as[nid]
            if key:
                counted[key] = counted.get(key, 0) + count
        return {
            "spans": n,
            "span_ops": len(kept_ops),
            "layer_calls": layer_calls,
            "layer_self_ns": layer_self,
            "component_calls": comp_calls,
            "component_ns": comp_ns,
            "counted": counted,
            "kept_method_calls": method_calls,
            "aligned_attempts": self.aligned.attempts,
            "aligned_useful": self.aligned.useful,
        }


class SetupSpans:
    """Wall time of the set-up's snapshot save/restore and aging fill."""

    def __init__(self) -> None:
        self.raw: Dict[str, float] = {}
        self.scale = 1.0
        self._saved: List[Tuple[object, str, object]] = []

    def _timed(self, key: str, fn, only_hit: bool = False):
        raw = self.raw

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            if not only_hit or result[1] == "hit":
                raw[key] = raw.get(key, 0.0) + wall
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from repro.aging.geriatrix import Geriatrix
        from repro.snapshot import store
        self.raw.clear()
        sites = ((store, "save", "snapshot.save_s", False),
                 (store, "load_ex", "snapshot.restore_s", True),
                 (Geriatrix, "fill", "aging.fill_s", False))
        for owner, attr, key, only_hit in sites:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._timed(key, fn, only_hit))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def summary(self) -> Dict[str, float]:
        """Normalized seconds per site (0.0 for sites never called)."""
        keys = ("snapshot.save_s", "snapshot.restore_s", "aging.fill_s")
        return {k: self.raw.get(k, 0.0) * self.scale for k in keys}


def _bucket(filename: str, marker: str) -> str:
    if filename == "~":
        return "builtins"
    pos = filename.rfind(marker)
    if pos < 0:
        return "other"
    rest = filename[pos + len(marker):].split(os.sep)
    if len(rest) == 1:
        return rest[0][:-3] if rest[0].endswith(".py") else rest[0]
    return rest[0]


def profile_summary(profiler) -> dict:
    """Python call counts of the profiled batches, bucketed by ``repro``
    package (``builtins`` for C functions), plus every function's count
    keyed like :attr:`SpanTracer.code_keys`."""
    import pstats
    stats = pstats.Stats(profiler).stats
    marker = os.sep + "repro" + os.sep
    buckets: Dict[str, int] = {}
    by_code: Dict[str, int] = {}
    for (filename, line, name), entry in stats.items():
        calls = entry[1]
        bucket = _bucket(filename, marker)
        buckets[bucket] = buckets.get(bucket, 0) + calls
        by_code[f"{filename}:{line}:{name}"] = calls
    return {"py_calls": buckets, "by_code": by_code}
