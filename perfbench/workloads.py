"""The three closed-loop workloads, each one caller in one thread.

A workload builds its file system in :meth:`setup`, then runs ops one at a
time through :meth:`op`.  Every op draws its inputs from the benchmark's
own seeded RNG *before* it calls into the program, times only the program
calls (through the probe handed in), and checks the program's output
*after* the timer stopped.  Nothing here reaches inside the program: all
calls go through the public APIs of ``repro.harness``, ``repro.vfs`` and
``repro.mmu``.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import struct
from array import array
from typing import Dict, List, Tuple

from repro.aging import AGRAWAL, Geriatrix
from repro.errors import NoSpaceError
from repro.harness import aged_fs, make_fs
from repro.params import KIB, MIB

FS_NAME = "WineFS"      # strict mode: synchronous, atomic data + metadata
#: every set-up builds its image from this seed (7 is the ``aged_fs``
#: default), so ``setup_s`` times the same work on every run; the
#: benchmark seed drives the timed op stream
SETUP_SEED = 7


def _exact_counters(ctx) -> Dict[str, float]:
    """Program counters that must repeat bit for bit for one seed."""
    counters = ctx.counters.as_dict()
    counters["total_cpu_ns"] = ctx.clock.total_cpu_time
    counters["lock_acquisitions"] = ctx.locks.acquisitions
    return counters


def _fingerprint(fs, ctx) -> Tuple:
    stats = fs.statfs()
    return (stats.total_blocks, stats.free_blocks, stats.files,
            stats.free_aligned_hugepages, stats.free_space_aligned_fraction,
            tuple(sorted(_exact_counters(ctx).items())),
            tuple(ctx.clock.snapshot()))


class Workload:
    """Base class: sizes, batch shape and the shared bookkeeping."""

    name = ""
    #: timed ops per second of ``--seconds``: the op count is fixed by the
    #: run length, never by how fast the host happens to be
    ops_per_second = 0
    #: ops between two reference-kernel chunks
    batch = 0
    #: set-up repetitions per run; ``setup_s`` is their median
    setup_reps = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.fs = None
        self.ctx = None
        self.enospc = 0
        self.user_bytes = 0
        self.failures: List[str] = []

    def fail(self, what: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(what)
        return False

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def fingerprint(self) -> Tuple:
        return _fingerprint(self.fs, self.ctx)

    def exact_counters(self) -> Dict[str, float]:
        return _exact_counters(self.ctx)

    def alloc_window(self):
        """Context around the set-up allocation whose hugepage alignment
        the traced run reports; the ``spans`` mode replaces it."""
        return contextlib.nullcontext()

    def extra_exact(self) -> Dict[str, float]:
        """Workload-specific exact values reported after set-up."""
        return {"free_aligned_hugepages":
                self.fs.statfs().free_aligned_hugepages}

    def begin_batch(self, probe) -> float:
        """Program work at a batch boundary; returns its raw wall time."""
        return 0.0

    def op(self, i: int, probe) -> Tuple[float, bool]:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def cleanup(self) -> None:
        """Release what the set-up left outside the file system."""


# ---------------------------------------------------------------------------
# aging: Geriatrix fill, then the rounds of Geriatrix.churn as single ops


class AgingWorkload(Workload):
    """Set-up: mkfs 1 GiB, Geriatrix fill to 75% (Agrawal profile).
    Timed: ``Geriatrix.churn``'s round, one program call per op -- a fill
    phase of create+fallocate up to HIGH, an overwrite phase of 4 KiB-1 MiB
    ``pwrite_zeros`` worth OVERWRITE_FRACTION / 50 of the image, and a
    drain phase of unlinks down to LOW."""

    name = "aging"
    ops_per_second = 10000
    batch = 25
    setup_reps = 11
    SIZE_GIB = 1.0
    TARGET = 0.75
    #: ``Geriatrix.churn``'s band and overwrite share; its per-round
    #: overwrite budget is ``write_volume * OVERWRITE_FRACTION / 50``, here
    #: with one image of write volume (``churn_multiple=1``)
    HIGH, LOW = TARGET + 0.03, TARGET - 0.12
    OVERWRITE_FRACTION = 0.4
    #: ``Geriatrix.churn`` leaves a fill phase after this many ENOSPCs
    FILL_MISSES = 10
    #: ``Geriatrix``'s size cap: one file holds at most 1/32 of the image,
    #: so the final state may sit that far outside [LOW, HIGH]
    MAX_FILE_SHARE = 1 / 32

    def setup(self, rep: int) -> None:
        fs, ctx = make_fs(FS_NAME, size_gib=self.SIZE_GIB)
        Geriatrix(fs, AGRAWAL, target_utilization=self.TARGET,
                  seed=SETUP_SEED).fill(ctx)
        files: List[str] = []
        sizes: Dict[str, int] = {}
        for d in sorted(fs.readdir("/", ctx)):
            for n in sorted(fs.readdir("/" + d, ctx)):
                path = f"/{d}/{n}"
                files.append(path)
                sizes[path] = fs.getattr(path, ctx).size
        self.fs, self.ctx = fs, ctx
        self.files, self.sizes = files, sizes
        stats = fs.statfs()
        image = stats.total_blocks * stats.block_size
        self.max_file = max(int(image * self.MAX_FILE_SHARE), 4 * MIB)
        self.overwrite_budget = int(image * self.OVERWRITE_FRACTION / 50)
        self.rng = random.Random(self.seed)
        self.phase = "fill"
        self.misses = 0
        self.overwritten = 0
        self.dirs = 0
        self.dir_fill = AGRAWAL.dir_fanout
        self.counter = 0

    def _next_path(self, probe) -> Tuple[str, float]:
        wall = 0.0
        if self.dir_fill >= AGRAWAL.dir_fanout:
            self.dirs += 1
            self.dir_fill = 0
            t0 = probe.begin()
            self.fs.mkdir(f"/churn{self.dirs}", self.ctx)
            wall = probe.end(t0)
        self.dir_fill += 1
        self.counter += 1
        return f"/churn{self.dirs}/c{self.counter}", wall

    def _pick(self) -> int:
        return self.rng.randrange(len(self.files))

    def op(self, i: int, probe) -> Tuple[float, bool]:
        # the phase moves on before the op, so every op is a program call
        util = self.fs.utilization()
        if self.phase == "fill" and (util >= self.HIGH
                                     or self.misses >= self.FILL_MISSES):
            self.phase, self.overwritten = "overwrite", 0
        if self.phase == "overwrite" and \
                self.overwritten >= self.overwrite_budget:
            self.phase = "drain"
        if self.phase == "drain" and (util <= self.LOW
                                      or len(self.files) < 2):
            self.phase, self.misses = "fill", 0
        if self.phase == "fill":
            return self._create(probe)
        if self.phase == "overwrite":
            return self._overwrite(probe)
        return self._unlink(probe)

    def _create(self, probe) -> Tuple[float, bool]:
        fs, ctx = self.fs, self.ctx
        size = min(AGRAWAL.sample_size(self.rng), self.max_file)
        path, wall = self._next_path(probe)
        enospc = False
        t0 = probe.begin()
        f = fs.create(path, ctx)
        try:
            f.fallocate(0, size, ctx)
        except NoSpaceError:
            enospc = True
            fs.unlink(path, ctx)
        f.close()
        wall += probe.end(t0)
        if enospc:
            self.enospc += 1
            self.misses += 1
            return wall, (not fs.exists(path)
                          or self.fail(f"{path} left behind after ENOSPC"))
        self.user_bytes += size
        self.files.append(path)
        self.sizes[path] = size
        got = fs.getattr(path).size
        return wall, got == size or self.fail(
            f"create {path}: size {got} != {size}")

    def _overwrite(self, probe) -> Tuple[float, bool]:
        fs, ctx, rng = self.fs, self.ctx, self.rng
        path = self.files[self._pick()]
        size = self.sizes[path]
        length = min(size, 1 << rng.randrange(12, 21))      # 4 KiB..1 MiB
        offset = rng.randrange(0, max(1, size - length))
        t0 = probe.begin()
        f = fs.open(path, ctx)
        try:
            f.pwrite_zeros(offset, length, ctx)
            enospc = False
        except NoSpaceError:
            enospc = True
        f.close()
        wall = probe.end(t0)
        self.overwritten += length
        if enospc:
            self.enospc += 1
        else:
            self.user_bytes += length
        got = fs.getattr(path).size
        return wall, got == size or self.fail(
            f"overwrite {path}: size {got} != {size}")

    def _unlink(self, probe) -> Tuple[float, bool]:
        fs, ctx = self.fs, self.ctx
        idx = self._pick()
        path = self.files[idx]
        t0 = probe.begin()
        fs.unlink(path, ctx)
        wall = probe.end(t0)
        self.files[idx] = self.files[-1]
        self.files.pop()
        del self.sizes[path]
        return wall, (not fs.exists(path)
                      or self.fail(f"unlink {path}: still exists"))

    def final_checks(self) -> None:
        util = self.fs.statfs().utilization
        lo = self.LOW - self.MAX_FILE_SHARE
        hi = self.HIGH + self.MAX_FILE_SHARE
        if not lo <= util <= hi:
            self.fail(f"final utilization {util:.4f} outside "
                      f"[{lo:.4f}, {hi:.4f}]")
        for path in self.files[::50]:
            got = self.fs.getattr(path).size
            if got != self.sizes[path]:
                self.fail(f"final {path}: size {got} != {self.sizes[path]}")


# ---------------------------------------------------------------------------
# mmap_aged: restored aged image, 128 MiB file, random mmap reads/writes


def _page_pattern(writer: int, page: int) -> bytes:
    """The 4 KiB the benchmark stores in *page* on write op *writer*."""
    return struct.pack("<QQ", writer, page) * (4 * KIB // 16)


class MmapAgedWorkload(Workload):
    """Set-up: ``aged_fs`` twice against a private empty snapshot
    directory (age + save, then restore), fallocate a 128 MiB file.
    Timed: random 4-64 KiB MappedRegion reads (80%) and writes (20%);
    each batch unmaps and re-maps the file."""

    name = "mmap_aged"
    ops_per_second = 20000
    batch = 200
    setup_reps = 5
    SIZE_GIB = 1.0
    CHURN = 1.0
    FILE_BYTES = 128 * MIB
    #: check every CHECK_EVERY-th read against the stored pattern
    CHECK_EVERY = 4

    def setup(self, rep: int) -> None:
        snapdir = os.path.join(self.workdir, f"snapshots-{rep}")
        shutil.rmtree(snapdir, ignore_errors=True)
        os.makedirs(snapdir)
        os.environ["REPRO_SNAPSHOT_DIR"] = snapdir
        kwargs = dict(size_gib=self.SIZE_GIB, churn_multiple=self.CHURN,
                      seed=SETUP_SEED, track_data=True)
        fresh, fresh_ctx = aged_fs(FS_NAME, **kwargs)
        self.payload_bytes = sum(
            os.path.getsize(os.path.join(snapdir, n))
            for n in os.listdir(snapdir))
        fs, ctx = aged_fs(FS_NAME, **kwargs)
        if _fingerprint(fs, ctx) != _fingerprint(fresh, fresh_ctx):
            self.fail("restored snapshot differs from the freshly aged image")
        del fresh, fresh_ctx
        self.file = fs.create("/bench.mmap", ctx)
        with self.alloc_window():
            self.file.fallocate(0, self.FILE_BYTES, ctx)
        self.fs, self.ctx = fs, ctx
        self.snapdir = snapdir
        self.pages = self.FILE_BYTES // (4 * KIB)
        self.writer = array("q", [-1]) * self.pages
        self.region = None
        self.reads = 0
        self.rng = random.Random(self.seed)

    def extra_exact(self) -> Dict[str, float]:
        out = super().extra_exact()
        out["snapshot_payload_bytes"] = self.payload_bytes
        return out

    def begin_batch(self, probe) -> float:
        t0 = probe.begin()
        if self.region is not None:
            self.region.unmap()
        self.region = self.file.mmap(self.ctx)
        return probe.end(t0)

    def op(self, i: int, probe) -> Tuple[float, bool]:
        rng = self.rng
        first = rng.randrange(0, self.pages - 16)
        npages = rng.randint(1, 16)
        region, ctx = self.region, self.ctx
        if rng.random() < 0.8:
            t0 = probe.begin()
            data = region.read(first * 4 * KIB, npages * 4 * KIB, ctx)
            wall = probe.end(t0)
            self.reads += 1
            if self.reads % self.CHECK_EVERY:
                return wall, len(data) == npages * 4 * KIB or self.fail(
                    f"read page {first}: short read")
            zero = bytes(4 * KIB)
            writer = self.writer
            want = b"".join(
                zero if writer[p] < 0 else _page_pattern(writer[p], p)
                for p in range(first, first + npages))
            return wall, data == want or self.fail(
                f"read pages {first}+{npages}: pattern mismatch")
        payload = b"".join(_page_pattern(i, p)
                           for p in range(first, first + npages))
        t0 = probe.begin()
        region.write(first * 4 * KIB, payload, ctx)
        wall = probe.end(t0)
        self.user_bytes += len(payload)
        for p in range(first, first + npages):
            self.writer[p] = i
        return wall, True

    def cleanup(self) -> None:
        if self.region is not None:
            self.region.unmap()
            self.region = None
        shutil.rmtree(self.snapdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# syscall_mix: small-file POSIX traffic, fsync after every write


class _File:
    """What the benchmark last wrote to one file: a base pattern plus
    (offset, tag, length) patches, replayed to build the expected bytes
    on read."""

    __slots__ = ("tag", "length", "patches")

    def __init__(self, tag: int, length: int) -> None:
        self.tag = tag
        self.length = length
        self.patches: List[Tuple[int, int, int]] = []


class SyscallMixWorkload(Workload):
    """Set-up: mkfs 0.5 GiB with ``track_data=True`` and prepopulate a
    tree of small files.  Timed: eight op kinds at equal shares -- the
    varmail personality's four (create+append+fsync, read whole file,
    append+fsync, unlink) and four more (getattr, readdir, 4 KiB
    pwrite+fsync, rename) -- round-robin over 4 simulated CPUs."""

    name = "syscall_mix"
    ops_per_second = 14000
    batch = 50
    setup_reps = 9
    SIZE_GIB = 0.5
    CPUS = 4
    DIRS = 16
    FILES_PER_DIR = 150
    #: drawn with equal shares.  The first four and the sizes below are
    #: ``repro.workloads.filebench.varmail``'s; the other four add the
    #: path-walk reads and the in-place write that varmail lacks, which
    #: makes 3 of 8 kinds reads and 5 of 8 writes
    KINDS = ("create", "read", "append", "unlink",
             "getattr", "readdir", "pwrite", "rename")
    #: varmail: prepopulated sizes ~ max(1 KiB, Exp(mean 16 KiB)), new
    #: mail 8 KiB, appends 4 KiB; capped at the pattern source's length
    MEAN_FILE = 16 * KIB
    MAX_FILE = 128 * KIB
    CREATE_BYTES = 8 * KIB
    APPEND_BYTES = 4 * KIB
    PWRITE_BYTES = 4 * KIB

    def setup(self, rep: int) -> None:
        fs, ctx = make_fs(FS_NAME, size_gib=self.SIZE_GIB,
                          num_cpus=self.CPUS, track_data=True)
        self.ctxs = [ctx.on_cpu(c) for c in range(self.CPUS)]
        self.rng = random.Random(SETUP_SEED)
        noise = random.Random(SETUP_SEED ^ 0x5EED).randbytes(self.MAX_FILE)
        self.noise = noise + noise
        self.fs, self.ctx = fs, ctx
        self.files: Dict[str, _File] = {}
        self.paths: List[str] = []
        self.dir_names: List[set] = []
        self.tag = 0
        for d in range(self.DIRS):
            fs.mkdir(f"/d{d}", self.ctxs[d % self.CPUS])
            self.dir_names.append(set())
        for k in range(self.DIRS * self.FILES_PER_DIR):
            c = self.ctxs[k % self.CPUS]
            size = min(self.MAX_FILE, max(KIB, int(
                self.rng.expovariate(1.0 / self.MEAN_FILE))))
            path, rec = self._new_file(k % self.DIRS, size)
            f = fs.create(path, c)
            f.write(self._pattern(rec.tag, rec.length), c)
            f.close()
        self.rng = random.Random(self.seed)

    def _pattern(self, tag: int, n: int) -> bytes:
        start = (tag * 40503) % self.MAX_FILE
        return self.noise[start:start + n]

    def _new_file(self, d: int, size: int) -> Tuple[str, _File]:
        self.tag += 1
        path = f"/d{d}/f{self.tag}"
        rec = _File(self.tag, size)
        self.files[path] = rec
        self.paths.append(path)
        self.dir_names[d].add(f"f{self.tag}")
        return path, rec

    def _forget(self, idx: int) -> str:
        path = self.paths[idx]
        self.paths[idx] = self.paths[-1]
        self.paths.pop()
        d, name = path[2:].split("/")
        self.dir_names[int(d)].discard(name)
        return path

    def _expected(self, rec: _File) -> bytes:
        buf = bytearray(self._pattern(rec.tag, rec.length))
        for offset, tag, n in rec.patches:
            end = offset + n
            if end > len(buf):
                buf.extend(bytes(end - len(buf)))
            buf[offset:end] = self._pattern(tag, n)
        return bytes(buf)

    def op(self, i: int, probe) -> Tuple[float, bool]:
        c = self.ctxs[i % self.CPUS]
        kind = self.KINDS[self.rng.randrange(len(self.KINDS))]
        return getattr(self, "_" + kind)(c, probe)

    def _read(self, c, probe) -> Tuple[float, bool]:
        path = self.paths[self.rng.randrange(len(self.paths))]
        rec = self.files[path]
        want = self._expected(rec)
        t0 = probe.begin()
        f = self.fs.open(path, c)
        data = f.pread(0, len(want) + 4 * KIB, c)
        f.close()
        wall = probe.end(t0)
        return wall, data == want or self.fail(f"read {path}: bytes differ")

    def _getattr(self, c, probe) -> Tuple[float, bool]:
        path = self.paths[self.rng.randrange(len(self.paths))]
        t0 = probe.begin()
        st = self.fs.getattr(path, c)
        wall = probe.end(t0)
        want = len(self._expected(self.files[path]))
        return wall, st.size == want or self.fail(
            f"getattr {path}: size {st.size} != {want}")

    def _readdir(self, c, probe) -> Tuple[float, bool]:
        d = self.rng.randrange(self.DIRS)
        t0 = probe.begin()
        names = self.fs.readdir(f"/d{d}", c)
        wall = probe.end(t0)
        want = self.dir_names[d]
        return wall, (len(names) == len(want) and set(names) == want) \
            or self.fail(f"readdir /d{d}: names differ")

    def _create(self, c, probe) -> Tuple[float, bool]:
        path, rec = self._new_file(self.rng.randrange(self.DIRS),
                                   self.CREATE_BYTES)
        data = self._pattern(rec.tag, rec.length)
        t0 = probe.begin()
        f = self.fs.create(path, c)
        f.append(data, c)
        f.fsync(c)
        f.close()
        wall = probe.end(t0)
        self.user_bytes += len(data)
        return wall, True

    def _write(self, c, probe, append: bool) -> Tuple[float, bool]:
        """Append or pwrite to a random file, then fsync."""
        path = self.paths[self.rng.randrange(len(self.paths))]
        rec = self.files[path]
        size = len(self._expected(rec))
        if append:
            n, at = self.APPEND_BYTES, size
        else:
            n = self.PWRITE_BYTES
            at = self.rng.randrange(0, max(1, size - n + 1))
        self.tag += 1
        data = self._pattern(self.tag, n)
        t0 = probe.begin()
        f = self.fs.open(path, c)
        if append:
            f.append(data, c)
        else:
            f.pwrite(at, data, c)
        f.fsync(c)
        f.close()
        wall = probe.end(t0)
        rec.patches.append((at, self.tag, n))
        self.user_bytes += len(data)
        return wall, True

    def _append(self, c, probe) -> Tuple[float, bool]:
        return self._write(c, probe, append=True)

    def _pwrite(self, c, probe) -> Tuple[float, bool]:
        return self._write(c, probe, append=False)

    def _rename(self, c, probe) -> Tuple[float, bool]:
        idx = self.rng.randrange(len(self.paths))
        old = self._forget(idx)
        rec = self.files.pop(old)
        d = self.rng.randrange(self.DIRS)
        self.tag += 1
        new = f"/d{d}/f{self.tag}"
        t0 = probe.begin()
        self.fs.rename(old, new, c)
        wall = probe.end(t0)
        self.files[new] = rec
        self.paths.append(new)
        self.dir_names[d].add(f"f{self.tag}")
        return wall, True

    def _unlink(self, c, probe) -> Tuple[float, bool]:
        path = self._forget(self.rng.randrange(len(self.paths)))
        del self.files[path]
        t0 = probe.begin()
        self.fs.unlink(path, c)
        wall = probe.end(t0)
        return wall, True

    def final_checks(self) -> None:
        for path in self.paths:
            got = self.fs.getattr(path).size
            want = len(self._expected(self.files[path]))
            if got != want:
                self.fail(f"final {path}: size {got} != {want}")
        if self.fs.statfs().files < len(self.paths):
            self.fail("statfs counts fewer files than the benchmark made")


WORKLOADS = {w.name: w for w in (AgingWorkload, MmapAgedWorkload,
                                 SyscallMixWorkload)}
