"""Tests of run.py and the workloads.  Run: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import passrun  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_seed_permutes_item_order_only():
    vk = passrun._import_verlkit()
    for wl in workloads.WORKLOADS.values():
        orders = [[k for k, _ in wl.items(vk, seed)] for seed in range(4)]
        assert all(sorted(o, key=repr) == sorted(orders[0], key=repr) for o in orders)
        assert len({tuple(o) for o in orders}) > 1
        assert orders[1] == [k for k, _ in wl.items(vk, 1)]


def test_ops_repeat_across_seeds_and_calls_repeat_within_a_seed():
    first = run.run_pass("e6_tor_windows", 7, "--trace")
    again = run.run_pass("e6_tor_windows", 7, "--trace")
    other = run.run_pass("e6_tor_windows", 8)
    assert first["failed"] == again["failed"] == other["failed"] == 0
    assert first["ops"] == again["ops"] == other["ops"] == 4
    assert first["digest"] == again["digest"] == other["digest"]
    calls = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: again["layers"][k] for k in calls}
    assert run.routing_violations("e6_tor_windows", first["layers"]) == []


def test_routing_violations_name_the_layer():
    layers = {"cyclo.mul.calls": 3, "exactla.snf.calls": 0, "fusion.ring_build.calls": 5}
    assert run.routing_violations("e6_tor_windows", layers) == [
        "cyclo unexpected calls", "exactla no calls", "polyring no calls"]
    assert run.routing_violations("ade_tables", layers) == [
        "exactla no calls", "repring no calls", "modinv no calls"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = spans.layer_metrics(spans.Tracer(), 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layers}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e6_tor_windows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
