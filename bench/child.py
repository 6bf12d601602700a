"""One cold-start pass in a fresh interpreter, started by ``run.py``.

Usage: ``python3 bench/child.py SPEC_JSON SPAWN_TIME``.  The spec names
the workload, seed, mode and output paths; SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this interpreter, so the
set-up time measured here includes interpreter start.  The pass writes
one JSON result file and exits 0 unless the benchmark itself broke.

Every pass also times a fixed reference computation (``reference_work``)
before, during and after its timed work.  The parent divides each unit's
time by the reference times taken around it, which takes out the swings
in speed of a shared machine.  In an untraced pass the samples come from
an interval timer every ``CALIBRATE_EVERY_S`` seconds and their time is
subtracted from the unit they interrupted; a traced pass samples only
before and after its body, so no span contains a sample.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

#: Seconds between two reference samples while the timed work runs.
CALIBRATE_EVERY_S = 0.1


class _Record:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work() -> int:
    """A fixed pure-Python computation that never touches weakform.

    It mixes what the library spends its time on (small tuples as dict
    keys, slotted objects, sorting, generator sums) and allocates little,
    so its time tracks how fast the machine runs interpreted code at the
    moment without raising the pass's peak memory.
    """
    counts: dict = {}
    acc = 0
    batch = []
    for i in range(6000):
        key = (i & 127, (i >> 7) & 3)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 2654435761) & 0xFFFF
        batch.append(_Record(i, key))
        if len(batch) == 64:
            batch.sort(key=lambda r: (r.b, -r.a))
            acc += sum(1 for r in batch if r.a & 1)
            batch = []
    return acc


class Calibrator:
    """Reference samples (start stamp, duration) taken on entry, on exit
    and, when ``ticking``, from a SIGALRM handler in between."""

    def __init__(self, ticking: bool):
        self.ticking = ticking
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> "Calibrator":
        for _ in range(3):
            self.sample()
        if self.ticking:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self.sample()

    def timed(self, fn, *args):
        """Call ``fn``; return its result and (start, end, seconds net of
        the reference samples taken while it ran)."""
        spent = self.spent
        t0 = time.perf_counter()
        value = fn(*args)
        t1 = time.perf_counter()
        return value, (t0, t1, t1 - t0 - (self.spent - spent))

    def export(self) -> dict:
        return {"window_s": CALIBRATE_EVERY_S, "stamps": self.stamps, "samples": self.samples}


def _start_tracer(spec: dict):
    if not spec["trace"]:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(spec: dict, result: dict, tracer) -> None:
    if tracer is not None:
        tracer.dump(spec["spans"])
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


def _run_units(spec: dict, result: dict, spawn: float) -> None:
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    units = workload.generate(spec["seed"])
    result["setup_s"] = time.monotonic() - spawn
    tracer = _start_tracer(spec)

    spans, work, records = [], [], []
    with Calibrator(ticking=tracer is None) as cal:
        for i, unit in enumerate(units):
            if tracer is not None:
                tracer.unit = i
            t0 = time.perf_counter()
            try:
                (done, record), span = cal.timed(workload.run_unit, unit)
            except Exception:  # noqa: BLE001 - an unexpected exception fails the unit
                t1 = time.perf_counter()
                done, record, span = 0, traceback.format_exc(limit=3), (t0, t1, t1 - t0)
            spans.append(span)
            work.append(done)
            records.append(record)
    if tracer is not None:
        tracer.uninstall()

    errors = []
    for unit, record in zip(units, records):
        error = record if isinstance(record, str) else workload.check_unit(unit, record)
        if error:
            errors.append(error)
    result.update(units=spans, work=work, errors=errors, reference=cal.export())
    _finish(spec, result, tracer)


def _run_cli(spec: dict, result: dict, spawn: float) -> None:
    import workloads
    from weakform import cli

    workdir = Path(spec["workdir"])
    experiment = spec["experiment"]
    config = workdir / f"{experiment}.json"
    report = workdir / f"{experiment}.csv"
    config.write_text(workloads.guard_config(spec["seed"], experiment), encoding="utf-8")
    result["setup_s"] = time.monotonic() - spawn
    tracer = _start_tracer(spec)

    argv = [experiment, "--config", str(config), "--out", str(report)]
    with Calibrator(ticking=tracer is None) as cal:
        code, span = cal.timed(cli.main, argv)
    if tracer is not None:
        tracer.uninstall()
    result.update(
        units=[span],
        exit_code=code,
        sha256=workloads.sha256_file(report) if code == 0 else None,
        reference=cal.export(),
    )
    _finish(spec, result, tracer)


def main() -> int:
    spawn = float(sys.argv[2])
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import weakform  # noqa: F401 - timed: the import is part of set-up

    result = {"import_s": time.perf_counter() - t0}
    if spec["workload"] == "guard-limit":
        _run_cli(spec, result, spawn)
    else:
        _run_units(spec, result, spawn)
    return 0


if __name__ == "__main__":
    sys.exit(main())
