#!/usr/bin/env python3
"""Cold-start benchmark of the weakform library.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``bench/manifest.json`` for why each was chosen, its
unit, and which layers it stresses):

- ``task-stream``  count, then stream, the task space of small environments;
- ``proxy-order``  sample efficiency of weakness against simplicity and
  random rival proxies;
- ``vocab-bound``  the upper-bound recipe and the utility maximality sweep
  over seeded base tasks;
- ``guard-limit``  each CLI experiment (enumerate, learn, compare-proxies,
  sample-gen) on an environment whose language sits at the hard guard
  limit of 20 statements.

Load is a closed loop with one client: one process issues one unit at a
time.  Every pass runs in a fresh interpreter (``bench/child.py``), so the
library's module-level caches start cold each time, as they do for a
user's run.  With ``--trace 0`` passes repeat until ``--seconds`` is
spent and the end-to-end metrics are medians over passes.  With
``--trace 1`` one untraced and one traced pass run back to back and the
per-layer metrics come from the traced one.  The last line of standard
output is one JSON object; the lines before it repeat the metrics, with
the raw seconds, for a reader.  Exit status is 0 when a result was
printed.

Times are reported on a reference scale: each unit's seconds are
multiplied by ``REFERENCE_S`` over the time the fixed computation
``child.reference_work`` took around that unit.  On a shared machine
whose speed swings by half for tens of seconds this keeps two runs of
the same code within a few percent, where raw seconds are not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("task-stream", "proxy-order", "vocab-bound", "guard-limit")
GUARD_EXPERIMENTS = ("enumerate", "learn", "compare-proxies", "sample-gen")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Sets the reference scale: close to the time ``child.reference_work``
#: took on the machine the bounds were set on while it ran fast.
REFERENCE_S = 0.0060


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed unit)."""


# --- children ----------------------------------------------------------------------

class Launcher:
    """Starts child interpreters one at a time inside a scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, **spec) -> dict:
        self.started += 1
        tag = f"{self.started:04d}"
        cli_dir = self.workdir / f"cli-{tag}"
        cli_dir.mkdir()
        spec.update(
            src=str(SRC),
            workdir=str(cli_dir),
            result=str(self.workdir / f"result-{tag}.json"),
            spans=str(self.workdir / f"spans-{tag}.bin"),
        )
        spec_path = self.workdir / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(t0)],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {spec['workload']} pass exceeded {CHILD_TIMEOUT_S} s") from None
        elapsed = time.monotonic() - t0
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise BenchError(
                f"a {spec['workload']} pass exited {proc.returncode}: {stderr[-2000:]}"
            )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["elapsed_s"] = elapsed
        result["spans"] = spec["spans"]
        return result


# --- statistics ----------------------------------------------------------------------

def tail(ordered: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten values beyond it,
    or the maximum when there are too few values for any."""
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(0, math.ceil(pct / 100 * n) - 1)
        if n - 1 - rank >= 10:
            return pct, ordered[rank]
    return 100.0, ordered[-1]


# --- unit workloads ------------------------------------------------------------------

def unit_passes(launcher: Launcher, workload: str, seed: int, seconds: float) -> list[dict]:
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        passes.append(launcher.spawn(workload=workload, seed=seed, trace=False))
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + typical > seconds:
            return passes


def scaled_units(result: dict) -> list[float]:
    """Unit times of one child on the reference scale.

    Each unit's time is multiplied by REFERENCE_S over the mean of the
    reference samples taken while it ran or within one sampling interval
    of it (the nearest two when there are none), so a unit that ran while
    the machine was slow is scaled down by as much as the reference was.
    """
    ref = result["reference"]
    stamps, samples, window = ref["stamps"], ref["samples"], ref["window_s"]
    out = []
    for start, end, seconds in result["units"]:
        lo = bisect_left(stamps, start - window)
        hi = bisect_right(stamps, end + window)
        near = samples[lo:hi] or samples[max(0, lo - 1):lo + 1]
        out.append(seconds * REFERENCE_S / statistics.fmean(near))
    return out


def scaled_setup(result: dict) -> float:
    """Set-up time scaled by the reference samples taken right after it."""
    return result["setup_s"] * REFERENCE_S / statistics.median(result["reference"]["samples"][:3])


def unit_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    units = len(passes[0]["units"])
    scaled = [scaled_units(p) for p in passes]
    body = [sum(s) for s in scaled]
    # each unit's median over the passes, then percentiles over units
    per_unit = sorted(statistics.median(s[i] for s in scaled) * 1000 for i in range(units))
    pct, tail_ms = tail(per_unit)
    metrics = {
        "setup_s": statistics.median(scaled_setup(p) for p in passes),
        "wall_s": statistics.median(body),
        "work_per_s": statistics.median(sum(p["work"]) / b for p, b in zip(passes, body)),
        "unit_p50_ms": statistics.median(per_unit),
        "unit_tail_ms": tail_ms,
        "peak_rss_mib": statistics.median(p["rss_kib"] for p in passes) / 1024,
    }
    notes = [
        f"{len(passes)} passes of {units} units; unit_tail_ms is p{pct:g} of "
        f"{units} per-unit medians",
        "raw body_s: " + " ".join(f"{sum(u[2] for u in p['units']):.4f}" for p in passes),
        "scaled body_s: " + " ".join(f"{b:.4f}" for b in body),
    ]
    return metrics, notes


def unit_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(len(p["units"]) for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    return attempted, len(errors), errors


# --- guard-limit ---------------------------------------------------------------------

def guard_rounds(launcher: Launcher, seed: int, seconds: float | None, trace: bool = False) -> dict:
    """CLI experiments in turn, each in its own interpreter: one full round,
    then more while the next one still fits in ``seconds``."""
    start = time.monotonic()
    runs: dict[str, list[dict]] = {e: [] for e in GUARD_EXPERIMENTS}
    k = 0
    while True:
        experiment = GUARD_EXPERIMENTS[k % len(GUARD_EXPERIMENTS)]
        if k >= len(GUARD_EXPERIMENTS):
            if seconds is None:
                return runs
            typical = statistics.median(r["elapsed_s"] for r in runs[experiment])
            if time.monotonic() - start + typical > seconds:
                return runs
        runs[experiment].append(
            launcher.spawn(workload="guard-limit", seed=seed, trace=trace, experiment=experiment)
        )
        k += 1


def guard_metrics(runs: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    per_exp = {
        e: statistics.median(scaled_units(r)[0] for r in rs) for e, rs in runs.items()
    }
    ordered = sorted(s * 1000 for s in per_exp.values())
    pct, tail_ms = tail(ordered)
    wall = sum(per_exp.values())
    everything = [r for rs in runs.values() for r in rs]
    metrics = {
        "setup_s": statistics.median(scaled_setup(r) for r in everything),
        "wall_s": wall,
        "work_per_s": len(per_exp) / wall,
        "unit_p50_ms": statistics.median(ordered),
        "unit_tail_ms": tail_ms,
        "peak_rss_mib": max(
            statistics.median(r["rss_kib"] for r in rs) for rs in runs.values()
        ) / 1024,
    }
    notes = [
        "runs per experiment: " + ", ".join(f"{e}={len(rs)}" for e, rs in runs.items()),
        "cli.main seconds: " + ", ".join(f"{e}={s:.4f}" for e, s in per_exp.items()),
        "raw cli.main seconds: " + " ".join(f"{r['units'][0][2]:.4f}" for r in everything),
        f"unit_tail_ms is p{pct:g} of {len(ordered)} per-experiment medians",
    ]
    return metrics, notes


def guard_failures(runs: dict[str, list[dict]], seed: int, manifest: dict) -> tuple[int, int, list[str]]:
    recorded = manifest["guard_limit"]["report_sha256"]
    default_seed = manifest["guard_limit"]["default_seed"]
    attempted, errors = 0, []
    for experiment, rs in runs.items():
        first = rs[0].get("sha256")
        for r in rs:
            attempted += 1
            if r["exit_code"] != 0:
                errors.append(f"{experiment}: exit code {r['exit_code']}")
            elif r["sha256"] != first:
                errors.append(f"{experiment}: report differs between identical runs")
            elif seed == default_seed and r["sha256"] != recorded[experiment]:
                errors.append(f"{experiment}: report sha256 {r['sha256']} != recorded")
    return attempted, len(errors), errors


# --- per-layer metrics ---------------------------------------------------------------

def layer_metrics(names: list[str], spans: list[str], extra: dict) -> dict:
    import tracer

    stats, counters = tracer.summarize(spans)

    def stat(label: str, key: str) -> float:
        return stats.get(label, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in names:
        label, _, key = name.rpartition(".")
        if name in extra:
            out[name] = extra[name]
        elif name in counters:
            out[name] = counters[name]
        elif key in ("calls", "self_s"):
            out[name] = stat(label, key)
        elif name == "bounds.instantiate.distinct_ratio":
            out[name] = ratio(counters.get("bounds.instantiate.distinct", 0), stat(label, "calls"))
        elif name == "tasks.correct_policies.hit_ratio":
            out[name] = ratio(
                counters.get("tasks.correct_policies.hits", 0),
                counters.get("tasks.correct_policies.tested", 0),
            )
        elif key in ("yielded", "builds", "bytes"):
            out[name] = 0  # the layer was never reached on this workload
        else:
            raise BenchError(f"no source for per-layer metric {name!r}")
    return out


# --- main ----------------------------------------------------------------------------

def run(args, spec: dict, manifest: dict, launcher: Launcher) -> tuple[dict, list[str], int, int]:
    trace = args.trace == 1
    guard = args.workload == "guard-limit"
    if not trace:
        if guard:
            runs = guard_rounds(launcher, args.seed, args.seconds)
            metrics, notes = guard_metrics(runs)
            attempted, failed, errors = guard_failures(runs, args.seed, manifest)
        else:
            passes = unit_passes(launcher, args.workload, args.seed, args.seconds)
            metrics, notes = unit_metrics(passes)
            attempted, failed, errors = unit_failures(passes)
        wanted = [m["name"] for m in spec["end_to_end"]]
        return {n: metrics[n] for n in wanted}, notes + errors, attempted, failed

    extra = {f"cli.main.{e.replace('-', '_')}_s": 0.0 for e in GUARD_EXPERIMENTS}
    if guard:
        plain = guard_rounds(launcher, args.seed, None)
        traced = guard_rounds(launcher, args.seed, None, trace=True)
        plain_all = [r for rs in plain.values() for r in rs]
        traced_all = [r for rs in traced.values() for r in rs]
        for e, rs in plain.items():
            extra[f"cli.main.{e.replace('-', '_')}_s"] = scaled_units(rs[0])[0]
        attempted, failed, errors = guard_failures(
            {e: plain[e] + traced[e] for e in GUARD_EXPERIMENTS}, args.seed, manifest
        )
    else:
        plain_all = [launcher.spawn(workload=args.workload, seed=args.seed, trace=False)]
        traced_all = [launcher.spawn(workload=args.workload, seed=args.seed, trace=True)]
        attempted, failed, errors = unit_failures(plain_all + traced_all)
    extra["weakform.import_s"] = statistics.median(r["import_s"] for r in plain_all + traced_all)
    extra["trace.overhead_ratio"] = (
        sum(sum(scaled_units(r)) for r in traced_all)
        / sum(sum(scaled_units(r)) for r in plain_all)
    )
    names = [m["name"] for m in spec["per_layer"]]
    metrics = layer_metrics(names, [r["spans"] for r in traced_all], extra)
    return metrics, errors, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weakform" / "__init__.py").is_file():
        print(f"error: no weakform sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    manifest = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        metrics, notes, attempted, failed = run(args, spec, manifest, Launcher(workdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ratio = {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
