#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the WineFS simulator.

Run from the repository root::

    python3 perfbench/run.py --workload aging --seed 1 --seconds 10 --trace 0

Each workload (``aging``, ``mmap_aged``, ``syscall_mix``; see
``BENCHMARK.json`` for why each was chosen) runs in a fresh worker
process (``perfbench/worker.py``).

* ``--trace 0`` runs the workload once, uninstrumented, and reports the
  end-to-end metrics.
* ``--trace 1`` runs it three times -- uninstrumented (exactly as with
  ``--trace 0``), with span wrappers, and under cProfile -- and reports
  the per-layer metrics.  Every exact count must agree across the three
  runs, or the benchmark fails instead of reporting: that is what shows
  the tracing did not perturb the simulation.

Every time is in host-speed-normalized seconds (see ``hostspeed.py``);
the raw wall value and the reference-kernel speed are printed beside it.
The op count is fixed by ``--seconds`` (ops per second of run length are
a per-workload constant), so every run of one seed does the same work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero if any output check or determinism check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
#: the keys of ``workloads.WORKLOADS``, which imports the program; this
#: file imports nothing from it, so a checkout without ``src`` fails cleanly
WORKLOAD_NAMES = ("aging", "mmap_aged", "syscall_mix")
#: a child that runs longer than SETUP_TIMEOUT_S plus this many seconds
#: per ``--seconds`` is taken to hang: over 3x the slowest child measured
#: (about 30 s at ``--seconds 10`` on a 2-CPU VM)
TIMEOUT_S_PER_SECOND = 7.0
SETUP_TIMEOUT_S = 40.0
#: largest ``--seconds``: a ``--trace 1`` run of 10 s took at most 81 s
#: on that VM, so a host twice as slow still ends within 180 s
MAX_SECONDS = 10
#: environment switches of the program that would change what is measured
_CLEARED_ENV = ("REPRO_SNAPSHOT", "REPRO_SNAPSHOT_ARCHIVE",
                "REPRO_SNAPSHOT_MAX_BYTES", "REPRO_SNAPSHOT_DIR",
                "REPRO_REFERENCE_STATE")
#: layers whose Python call counts are reported (``other`` = the rest of
#: ``repro`` plus generated dataclass methods and the standard library)
PY_CALL_LAYERS = ("vfs", "fs", "core", "structures", "mmu", "pm", "clock",
                  "obs", "builtins", "other")


class BenchError(Exception):
    """A child run failed or a check did not hold."""


def _run_child(workload: str, seed: int, seconds: int, mode: str,
               workdir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(_HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode,
           "--workdir", os.path.join(workdir, mode)]
    timeout = SETUP_TIMEOUT_S + TIMEOUT_S_PER_SECOND * seconds
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run hung: no result after "
                         f"{timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run printed no result")
    return json.loads(lines[-1])


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


#: metric name -> (value, unit, context line printed beside it)
Metrics = Dict[str, Tuple[float, str, str]]


def end_to_end(a: dict) -> Metrics:
    """Metrics from the uninstrumented run."""
    ops = a["ops"]
    n = f"n={a['samples']}"
    setup_raw = statistics.median(a["setup_raw_s"])
    reps = len(a["setup_norm_s"])
    passed = a["attempted"] - a["failed"]
    return {
        "ops_per_s": (ops / a["timed_norm_s"], "1/s",
                      f"raw {ops / a['timed_raw_s']:.1f} 1/s; {ops} timed "
                      f"ops, {a['warmup']} warm-up ops excluded"),
        "op_us_p50": (a["p50_norm_us"], "us",
                      f"raw {a['p50_raw_us']:.2f} us; {n}"),
        "op_us_p99": (a["p99_norm_us"], "us",
                      f"raw {a['p99_raw_us']:.2f} us; {n}"),
        "setup_s": (statistics.median(a["setup_norm_s"]), "s",
                    f"raw {setup_raw:.4f} s; median of {reps} set-ups"),
        "peak_rss_mib": (a["peak_rss_mib"], "MiB",
                         "ru_maxrss of the worker process"),
        "ok_share": (passed / a["attempted"], "ratio",
                     f"{passed} of {a['attempted']} ops passed their check"),
    }


def per_layer(a: dict, s: dict, p: dict) -> Metrics:
    """Per-layer metrics from the three runs of one seed."""
    ops = a["ops"]
    ex = a["exact"]
    c = ex["counters"]
    sp = s["spans"]
    span_ops = sp["span_ops"]
    exact = f"exact; {ops} ops"
    timed = f"spans of {span_ops} ops"
    traced_setup = "normalized; traced run's set-up"

    def per_op(count: float) -> Tuple[float, str, str]:
        return count / ops, "count", exact

    def self_us(layer: str) -> Tuple[float, str, str]:
        ns = sp["layer_self_ns"].get(layer, 0.0)
        return _div(ns, span_ops) / 1e3, "us", timed

    def comp_us(comp: str) -> Tuple[float, str, str]:
        ns = sp["component_ns"].get(comp, 0.0)
        return _div(ns, span_ops) / 1e3, "us", timed

    calls = sp["layer_calls"]
    comp_calls = sp["component_calls"]
    counted = sp["counted"]
    f4k, f2m = c["page_faults_4k"], c["page_faults_2m"]
    tlb = c["tlb_hits"] + c["tlb_misses"]
    setup_spans = s["setup_spans"]
    attempts = sp["aligned_attempts"]
    setup_attempts, setup_useful = s["setup_aligned"]
    all_attempts = attempts + setup_attempts
    all_useful = sp["aligned_useful"] + setup_useful
    m = {
        "vfs.calls_per_op": per_op(calls.get("vfs", 0)),
        "vfs.self_us_per_op": self_us("vfs"),
        "fs.dirindex_calls_per_op": per_op(comp_calls.get("fs.dirindex", 0)),
        "fs.self_us_per_op": self_us("fs"),
        "core.journal.commits_per_op": per_op(
            counted.get("core.journal.commits", 0)),
        "core.journal.us_per_op": comp_us("core.journal"),
        "core.allocator.allocs_per_op": per_op(
            counted.get("core.allocator.allocs", 0)),
        "core.allocator.us_per_op": comp_us("core.allocator"),
        "core.allocator.enospc_per_op": per_op(ex["enospc"]),
        "core.allocator.aligned_attempts_per_op": per_op(attempts),
        "core.allocator.aligned_hit_ratio": (
            _div(all_useful, all_attempts), "ratio",
            f"{all_useful} of {all_attempts} hugepage chunks aligned; "
            f"{setup_attempts} of them in the set-up fallocate"),
        "core.allocator.free_aligned_hugepages": (
            ex["setup"]["free_aligned_hugepages"], "count",
            "exact; after set-up"),
        "structures.runstore_calls_per_op": per_op(
            comp_calls.get("structures.runstore", 0)),
        "structures.us_per_op": self_us("structures"),
        "mmu.faults_4k_per_op": per_op(f4k),
        "mmu.faults_2m_per_op": per_op(f2m),
        "mmu.tlb_miss_ratio": (_div(c["tlb_misses"], tlb), "ratio",
                               f"exact; {tlb} TLB lookups"),
        # share of faulted-in memory mapped by 2 MiB (= 512 4 KiB) pages
        "mmu.hugepage_fraction": (_div(512 * f2m, 512 * f2m + f4k), "ratio",
                                  f"exact; {f4k + f2m} faults"),
        "mmu.us_per_op": self_us("mmu"),
        "pm.persists_per_op": per_op(counted.get("pm.persists", 0)),
        "pm.bytes_written_per_user_byte": (
            _div(c["pm_bytes_written"], ex["user_bytes"]), "ratio",
            f"exact; {ex['user_bytes']} user bytes"),
        "pm.us_per_op": self_us("pm"),
        "clock.sim_ns_per_op": (c["total_cpu_ns"] / ops, "ns", exact),
        "clock.lock_wait_ns_per_op": (c["lock_wait_ns"] / ops, "ns", exact),
        "snapshot.save_s": (setup_spans["snapshot.save_s"], "s",
                            traced_setup),
        "snapshot.restore_s": (setup_spans["snapshot.restore_s"], "s",
                               traced_setup),
        "snapshot.payload_bytes": (
            ex["setup"].get("snapshot_payload_bytes", 0), "bytes",
            "exact; first set-up"),
        "aging.fill_s": (setup_spans["aging.fill_s"], "s", traced_setup),
    }
    py_calls = p["profile"]["py_calls"]
    profiled = p["profile"]["ops"]
    known = set(PY_CALL_LAYERS[:-1])
    other = sum(v for k, v in py_calls.items() if k not in known)
    for layer in PY_CALL_LAYERS:
        count = other if layer == "other" else py_calls.get(layer, 0)
        m[f"{layer}.py_calls_per_op"] = (
            count / profiled, "count", f"exact; {profiled} profiled ops")
    m["bench.trace_overhead"] = (
        s["timed_norm_s"] / a["timed_norm_s"], "ratio",
        f"traced {s['timed_norm_s']:.3f} s / untraced "
        f"{a['timed_norm_s']:.3f} s, normalized")
    m["bench.ref_kernel_us"] = (a["ref_kernel_us"], "us",
                                "median raw reference-kernel chunk")
    return m


def determinism_problems(a: dict, s: dict, p: dict) -> List[str]:
    """Every exact count must agree across the three runs of one seed."""
    problems = []
    for other in (s, p):
        if other["exact"] != a["exact"]:
            keys = [k for k in a["exact"]
                    if a["exact"][k] != other["exact"].get(k)]
            problems.append(f"exact counters differ between the plain and "
                            f"{other['mode']} runs: {keys}")
    by_code = p["profile"]["by_code"]
    for name, (count, key) in sorted(
            s["spans"]["kept_method_calls"].items()):
        profiled = by_code.get(":".join(str(x) for x in key), 0)
        if profiled != count:
            problems.append(f"{name}: {count} calls through the span "
                            f"wrappers, {profiled} under cProfile, in the "
                            f"batches both trace")
    return problems


def _print_table(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit, context) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit:<6} ({context})")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in [1, {MAX_SECONDS}]")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"run-{os.getpid()}")
    modes = ("plain",) if args.trace == 0 else ("plain", "spans", "profile")
    runs = {}
    try:
        for mode in modes:
            runs[mode] = _run_child(args.workload, args.seed, args.seconds,
                                    mode, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    for mode, run in runs.items():
        problems += [f"{mode}: {f}" for f in run["failures"]]
        if run["failed"]:
            problems.append(f"{mode}: {run['failed']} ops failed")
    a = runs["plain"]
    title = (f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}")
    metrics = end_to_end(a)
    _print_table(title + " -- end to end", metrics)
    if args.trace:
        problems += determinism_problems(a, runs["spans"], runs["profile"])
        metrics = per_layer(a, runs["spans"], runs["profile"])
        _print_table(title + " -- per layer", metrics)
    print(f"  host: reference kernel {a['ref_kernel_us']:.1f} us median "
          f"in the timed phase, {a['setup_ref_us']:.1f} us in set-up")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _context) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
