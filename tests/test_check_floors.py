"""The CI perf-floor gate (``benchmarks/perf/check_floors.py``).

Every floor kind must be able to fail: a plain speedup floor, a
self-relative ``{"metric", "floor"}`` floor, and ``fleet_scaling``, which
is gated on its own ``work.scaling_x`` on multi-CPU hosts and skipped on
single-CPU ones.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(ROOT, "benchmarks", "perf", "check_floors.py")
_spec = importlib.util.spec_from_file_location("check_floors", _PATH)
check_floors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_floors)


def floors(**entries):
    return {"tolerance": 0.3, "scale": 1.0, "floors": entries}


def run(speedups=None, benches=None, scale=1.0):
    return {"scale": scale, "speedup_vs_baseline": speedups or {},
            "benches": benches or {}}


def fleet(scaling_x, meaningful, host_cpus=2):
    return {"fleet_scaling": {"work": {
        "scaling_x": scaling_x, "scaling_meaningful": meaningful,
        "host_cpus": host_cpus}}}


FLEET_FLOOR = {"metric": "scaling_x", "floor": 0.9}


class TestPlainFloor:
    def test_passes_at_or_above_gate(self, capsys):
        # gate = 2.0 * (1 - 0.3) = 1.4
        assert check_floors.check(run({"mmap_rand": 1.4}),
                                  floors(mmap_rand=2.0)) == 0
        assert "perf floors OK" in capsys.readouterr().out

    def test_fails_below_gate(self, capsys):
        assert check_floors.check(run({"mmap_rand": 1.39}),
                                  floors(mmap_rand=2.0)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "mmap_rand" in out

    def test_missing_bench_is_skipped(self, capsys):
        assert check_floors.check(run({}), floors(mmap_rand=2.0)) == 0
        assert "not in this run" in capsys.readouterr().out

    def test_scale_mismatch_fails(self):
        assert check_floors.check(run({"mmap_rand": 9.0}, scale=0.1),
                                  floors(mmap_rand=2.0)) == 1

    def test_no_speedups_fails(self):
        assert check_floors.check({"scale": 1.0},
                                  floors(mmap_rand=2.0)) == 1


class TestDictFloor:
    def bench(self, value):
        return {"snapshot_restore": {"work": {"speedup_vs_cold": value}}}

    @pytest.mark.parametrize("value, rc", [(3.5, 0), (27.6, 0), (3.4, 1)])
    def test_gates_work_metric(self, value, rc):
        doc = run(benches=self.bench(value))
        spec = {"metric": "speedup_vs_cold", "floor": 5.0}
        assert check_floors.check(doc, floors(snapshot_restore=spec)) == rc

    def test_speedup_vs_baseline_is_not_consulted(self, capsys):
        # a dict floor reads the work dict only
        doc = run({"snapshot_restore": 99.0}, benches={})
        spec = {"metric": "speedup_vs_cold", "floor": 5.0}
        assert check_floors.check(doc, floors(snapshot_restore=spec)) == 0
        assert "not in this run" in capsys.readouterr().out


class TestFleetScaling:
    def test_single_cpu_host_is_skipped(self, capsys):
        doc = run(benches=fleet(0.5, meaningful=False, host_cpus=1))
        assert check_floors.check(doc, floors(fleet_scaling=FLEET_FLOOR)) \
            == 0
        assert "not gated" in capsys.readouterr().out

    def test_multi_cpu_host_passes(self, capsys):
        doc = run(benches=fleet(1.84, meaningful=True))
        assert check_floors.check(doc, floors(fleet_scaling=FLEET_FLOOR)) \
            == 0
        out = capsys.readouterr().out
        assert "fleet_scaling.scaling_x" in out and "ok" in out

    def test_multi_cpu_host_fails_below_gate(self, capsys):
        # gate = 0.9 * (1 - 0.3) = 0.63
        doc = run(benches=fleet(0.6, meaningful=True))
        assert check_floors.check(doc, floors(fleet_scaling=FLEET_FLOOR)) \
            == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_committed_floor_gates_scaling_x(self):
        with open(check_floors.DEFAULT_FLOORS) as fh:
            committed = json.load(fh)
        assert committed["floors"]["fleet_scaling"] == FLEET_FLOOR
        doc = run(benches=fleet(0.1, meaningful=True))
        # only the fleet bench ran: every other floor is skipped, so the
        # verdict is fleet_scaling's alone
        assert check_floors.check(doc, committed) == 1
