"""Run one workload once, in this fresh process, and print one JSON line.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload aging --seed 1 --seconds 10 \
        --mode plain --workdir .bench_build/perfbench/run-1

Modes:

* ``plain``   -- no instrumentation; end-to-end numbers.
* ``spans``   -- every public method of the program's layer classes is
  wrapped and recorded as a span during the timed phase.
* ``profile`` -- cProfile runs around each program call of every
  ``layers.SPAN_EVERY``-th batch of the timed phase (the batches whose
  spans the ``spans`` mode keeps); its call counts are bucketed by
  ``repro`` package.

Every mode sets up once, runs the timed phase on that first set-up, and
reports the same exact program counters, so the caller can check that
instrumentation did not perturb the simulation.  Only ``plain`` then
repeats the set-up, to report the median set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from array import array

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import hostspeed                                        # noqa: E402
import layers                                           # noqa: E402
from workloads import WORKLOADS                         # noqa: E402

#: share of a run's ops executed before timing starts
WARMUP_SHARE = 0.05


class Probe:
    """Times program calls; the traced modes hook in here."""

    def __init__(self) -> None:
        self.op = 0         # timed-phase index of the op in progress
        self.keep = False   # the batch in progress is traced in full

    def begin(self) -> float:
        return time.perf_counter()

    def end(self, t0: float) -> float:
        return time.perf_counter() - t0


class SpanProbe(Probe):
    def __init__(self, tracer: "layers.SpanTracer") -> None:
        super().__init__()
        self.tracer = tracer

    def begin(self) -> float:
        self.tracer.op = self.op
        self.tracer.keep = self.keep
        self.tracer.on = True
        return time.perf_counter()

    def end(self, t0: float) -> float:
        wall = time.perf_counter() - t0
        self.tracer.on = False
        return wall


class ProfileProbe(Probe):
    def __init__(self, profiler) -> None:
        super().__init__()
        self.profiler = profiler

    def begin(self) -> float:
        if self.keep:
            self.profiler.enable()
        return time.perf_counter()

    def end(self, t0: float) -> float:
        wall = time.perf_counter() - t0
        if self.keep:
            self.profiler.disable()
        return wall


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[idx]


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _set_up(wl, rep: int, setup_tracer=None) -> "hostspeed.SetupNormalizer":
    """One timed set-up repetition, from scratch."""
    wl.fs = wl.ctx = None
    gc.collect()
    if setup_tracer is not None:
        setup_tracer.install()
    try:
        with hostspeed.SetupNormalizer() as timer:
            wl.setup(rep)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    if setup_tracer is not None:
        setup_tracer.scale = timer.normalized_s / timer.raw_s
    return timer


def run(workload: str, seed: int, seconds: int, mode: str,
        workdir: str) -> dict:
    cls = WORKLOADS[workload]
    wl = cls(seed, workdir)
    ops = max(cls.batch * 4, int(round(seconds * cls.ops_per_second)))
    ops -= ops % cls.batch
    warmup = max(cls.batch * 2, int(ops * WARMUP_SHARE))
    warmup -= warmup % cls.batch

    # -- set-up 0, in this fresh process; the ops run on it ------------------
    setup_tracer = setup_chunks = None
    if mode == "spans":
        setup_tracer = layers.SetupSpans()
        setup_chunks = layers.AlignedChunks()
        wl.alloc_window = setup_chunks.window
    timers = [_set_up(wl, 0, setup_tracer)]
    fingerprint = wl.fingerprint()
    exact_setup = wl.extra_exact()

    # -- warm-up: same op stream, untimed ------------------------------------
    attempted = failed = 0
    probe = Probe()
    for i in range(warmup):
        if i % cls.batch == 0:
            wl.begin_batch(probe)
        attempted += 1
        try:
            _wall, ok = wl.op(i, probe)
        except Exception as exc:        # noqa: BLE001 -- counted, reported
            ok = wl.fail(f"warm-up op {i}: {type(exc).__name__}: {exc}")
        failed += not ok

    # -- timed phase ---------------------------------------------------------
    tracer = profiler = None
    if mode == "spans":
        tracer = layers.SpanTracer()
        probe = SpanProbe(tracer)
    elif mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        probe = ProfileProbe(profiler)
    batches = ops // cls.batch
    lat = array("d", bytes(8 * ops))         # raw per-op seconds
    valid = array("b", bytes(ops))
    batch_wall = array("d", bytes(8 * batches))
    norm = hostspeed.BatchNormalizer(batches)
    before = wl.exact_counters()
    user_bytes0, enospc0 = wl.user_bytes, wl.enospc
    gc.collect()
    if tracer is not None:
        tracer.install()
    norm.sample()
    for b in range(batches):
        probe.op = b * cls.batch
        probe.keep = b % layers.SPAN_EVERY == 0
        wall = wl.begin_batch(probe)
        for i in range(b * cls.batch, (b + 1) * cls.batch):
            probe.op = i
            attempted += 1
            try:
                op_wall, ok = wl.op(warmup + i, probe)
            except Exception as exc:    # noqa: BLE001 -- counted, reported
                ok = wl.fail(f"op {i}: {type(exc).__name__}: {exc}")
            else:
                lat[i] = op_wall
                valid[i] = 1
                wall += op_wall
            failed += not ok
        batch_wall[b] = wall
        norm.sample()
    if tracer is not None:
        tracer.uninstall()
    after = wl.exact_counters()
    wl.final_checks()
    wl.cleanup()

    # -- further set-ups, from scratch, for the set-up time median -----------
    for rep in range(1, cls.setup_reps if mode == "plain" else 1):
        timers.append(_set_up(wl, rep))
        if wl.fingerprint() != fingerprint:
            wl.fail(f"set-up repetition {rep} differs from repetition 0")
        wl.cleanup()

    factors = norm.factors()
    norm_lat = sorted(lat[i] * factors[i // cls.batch] * 1e6
                      for i in range(ops) if valid[i])
    raw_lat = sorted(lat[i] * 1e6 for i in range(ops) if valid[i])
    setup_ref = sorted(x for t in timers for x in t.samples)
    result = {
        "workload": workload, "seed": seed, "mode": mode,
        "ops": ops, "warmup": warmup, "batch": cls.batch,
        "attempted": attempted, "failed": failed,
        "failures": wl.failures,
        "samples": len(norm_lat),
        "setup_norm_s": [t.normalized_s for t in timers],
        "setup_raw_s": [t.raw_s for t in timers],
        "setup_ref_us": setup_ref[len(setup_ref) // 2] * 1e6,
        "timed_norm_s": sum(batch_wall[b] * factors[b]
                            for b in range(batches)),
        "timed_raw_s": sum(batch_wall),
        "p50_norm_us": _quantile(norm_lat, 0.50),
        "p99_norm_us": _quantile(norm_lat, 0.99),
        "p50_raw_us": _quantile(raw_lat, 0.50),
        "p99_raw_us": _quantile(raw_lat, 0.99),
        "ref_kernel_us": norm.kernel_us(),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": {
            "ops": ops,
            "counters": _delta(after, before),
            "user_bytes": wl.user_bytes - user_bytes0,
            "enospc": wl.enospc - enospc0,
            "setup": exact_setup,
        },
    }
    if tracer is not None:
        result["spans"] = tracer.summary(factors, cls.batch)
        result["setup_spans"] = setup_tracer.summary()
        result["setup_aligned"] = [setup_chunks.attempts,
                                   setup_chunks.useful]
    if profiler is not None:
        result["profile"] = layers.profile_summary(profiler)
        result["profile"]["ops"] = cls.batch * len(
            range(0, batches, layers.SPAN_EVERY))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "profile"),
                    default="plain")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, args.mode,
                 args.workdir)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
