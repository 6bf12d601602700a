"""Smoke test of the traced benchmark: ``bench/tracer.py`` wraps every
public function of the library and reads a few of its internals, so a
change to those must keep a traced pass running and its checks passing."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from weakform import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_benchmark_units_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    # the manifest's guard-limit digests are those of its default seed, 1
    recorded = json.loads((BENCH / "manifest.json").read_text())["guard_limit"]
    seed = recorded["default_seed"]
    units = {name: w.generate(seed)[0] for name, w in workloads.WORKLOADS.items()}
    traced = tracer.Tracer()
    traced.install()
    try:
        records = {name: w.run_unit(units[name])[1] for name, w in workloads.WORKLOADS.items()}
        codes = {}
        for experiment in recorded["report_sha256"]:
            config = tmp_path / f"{experiment}.json"
            config.write_text(workloads.guard_config(seed, experiment), encoding="utf-8")
            out = tmp_path / f"{experiment}.csv"
            codes[experiment] = cli.main([experiment, "--config", str(config), "--out", str(out)])
    finally:
        traced.uninstall()

    for name, w in workloads.WORKLOADS.items():
        assert w.check_unit(units[name], records[name]) is None, name
    assert codes == dict.fromkeys(recorded["report_sha256"], 0)
    for experiment, digest in recorded["report_sha256"].items():
        out = tmp_path / f"{experiment}.csv"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, experiment
    called = {traced.names[i] for i in traced.spans["name"]}
    assert {
        "cli.main", "harness.run_experiment", "learning.learn", "tasks.TaskSpace.sample_index",
        "learning.sample_efficiency", "bounds.verify_upper_bound", "tasks.TaskSpace.tasks",
    } <= called
