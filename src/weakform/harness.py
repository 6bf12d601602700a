"""Experiment execution and report emission.

Every experiment turns into a list of flat string-valued rows under one
fixed header.  Rows are fully determined by the configuration and its
seeds; the wall-clock column stays empty unless timing is explicitly
requested, so that a rerun is byte-identical.  Reports are written
atomically (temp file, then rename) as CSV or as a JSON list of
objects with the same field names and values.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from itertools import permutations
from pathlib import Path
from random import Random

from . import __version__
from .bounds import (
    mk_uninstantiated,
    utility,
    verify_upper_bound,
)
from .config import ExperimentConfig
from .core import (
    Environment,
    Guards,
    encode_statement,
    env_hash,
    enumerate_language,
    extension_of_set,
    extension_size,
    mk_environment,
)
from .errors import (
    EmptyReport,
    IoError,
    NoCorrectPolicy,
    WeakformError,
)
from .learning import (
    _proxy_errors,
    estimate_generalization_probabilities,
    evaluate_generalization,
    generalization_table,
    learn,
)
from .tasks import Task, enumerate_tasks, mk_task, task_space

__all__ = ["CSV_FIELDS", "run_experiment", "write_report"]

#: The fixed report header.  `value` carries the experiment-specific
#: number (exact rationals as "num/den"), `note` carries markers and
#: per-row error names.
CSV_FIELDS = (
    "experiment",
    "config_hash",
    "env_hash",
    "states",
    "vocab_size",
    "language_size",
    "task_count",
    "task_id",
    "proxy",
    "policy",
    "extension_size",
    "generalized",
    "utility",
    "value",
    "note",
    "seed",
    "wall_ms",
    "guards",
    "version",
)


def _guards_str(g: Guards) -> str:
    return (
        f"v{g.max_vocabulary};t{g.max_truth_set};"
        f"l{g.max_task_language};p{g.max_powerset_states}"
    )


class _RowFactory:
    """Fills the constant columns of every row of one run."""

    def __init__(self, config: ExperimentConfig, env: Environment):
        self.base = {name: "" for name in CSV_FIELDS}
        self.base["experiment"] = config.experiment
        self.base["config_hash"] = config.config_hash()
        self.base["env_hash"] = env_hash(env)
        self.base["states"] = str(env.state_count)
        self.base["vocab_size"] = str(env.vocabulary_size)
        self.base["guards"] = _guards_str(config.guards)
        self.base["version"] = __version__

    def row(self, **fields) -> dict[str, str]:
        out = dict(self.base)
        for key, value in fields.items():
            if key not in out:
                raise KeyError(f"unknown report field {key!r}")
            out[key] = "" if value is None else str(value)
        return out


# --- the learn experiment -----------------------------------------------------------

def _derive_trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _derive_child(task: Task, rng: Random, child_input_count: int | None) -> Task:
    """Deterministically carve a strict child out of a sampled parent.

    Inputs are a random strict subset; outputs are the parent's outputs
    that still complete a kept input.  If the trimmed outputs fill the
    whole child extension, the canonically last one is dropped to keep
    the child a valid task.
    """
    k = child_input_count if child_input_count is not None else len(task.inputs) - 1
    k = max(1, min(k, len(task.inputs) - 1))
    kept = sorted(rng.sample(range(len(task.inputs)), k))
    inputs = [task.inputs[i] for i in kept]
    ext = extension_of_set(task.env, inputs).as_set()
    outs = [o for o in task.outputs_correct if o in ext]
    if len(outs) == len(ext):
        outs = outs[:-1]
    return mk_task(task.env, inputs, outs)


def _learn_unit(config, env, factory, proxies, space, seed, trial) -> list[dict[str, str]]:
    common = dict(
        language_size=len(space.language),
        task_count=space.total_count,
        seed=f"{seed}.{trial}",
    )
    rng = Random(_derive_trial_seed(seed, trial))
    parent = None
    # a parent needs two input statements, and every language of at
    # least three statements holds such tasks; smaller ones hold none
    for _ in range(10000 if len(space.language) >= 3 else 0):
        imask, omask = space.sample_index(rng.randrange(space.total_count))
        if imask.bit_count() >= 2:
            parent = space.task_from_masks(imask, omask)
            break
    if parent is None:
        return [factory.row(note="NoUsableParent", **common)]

    child = _derive_child(parent, rng, config.child_input_count)
    task_id = f"parent:{parent.encode()};child:{child.encode()}"
    try:
        eps = str(utility(child, config.guards))
    except NoCorrectPolicy:
        eps = ""
    rows = []
    for name, proxy in proxies:
        try:
            pi = learn(child, proxy, config.guards)
        except NoCorrectPolicy:
            rows.append(
                factory.row(task_id=task_id, proxy=name, note="NoCorrectPolicy", **common)
            )
            continue
        rows.append(
            factory.row(
                task_id=task_id,
                proxy=name,
                policy=encode_statement(pi),
                extension_size=extension_size(env, pi, config.guards),
                generalized="true" if evaluate_generalization(pi, parent) else "false",
                utility=eps,
                **common,
            )
        )
    return rows


# --- experiment dispatch ---------------------------------------------------------------

def run_experiment(config: ExperimentConfig, timing: bool = False) -> list[dict[str, str]]:
    """Execute the configured experiment and return its report rows."""
    t0 = time.monotonic()
    env = mk_environment(config.environment["states"], config.environment["vocabulary"])
    rows = _RUNNERS[config.experiment](config, env, _RowFactory(config, env))
    if timing:
        wall = str(int((time.monotonic() - t0) * 1000))
        for row in rows:
            row["wall_ms"] = wall
    return rows


def _run_enumerate(config, env, factory) -> list[dict[str, str]]:
    space = task_space(env, config.guards, config.include_empty_outputs)
    return [
        factory.row(
            language_size=len(space.language),
            task_count=space.total_count,
            policy=encode_statement(statement),
            extension_size=extension_size(env, statement, config.guards),
        )
        for statement in space.language
    ]


def _run_learn(config, env, factory) -> list[dict[str, str]]:
    space = task_space(env, config.guards, config.include_empty_outputs)
    # rows carry each proxy's configured name ("random:01", not "random:1")
    proxies = list(zip(config.proxies, config.resolved_proxies))
    return [
        row
        for seed in config.seeds
        for trial in range(config.trials)
        for row in _learn_unit(config, env, factory, proxies, space, seed, trial)
    ]


def _run_compare(config, env, factory) -> list[dict[str, str]]:
    space = task_space(env, config.guards, config.include_empty_outputs)
    # each distinct proxy once, in first-listed order ("random:01" is
    # "random:1"); a pair's sample efficiency is the difference of the two
    # proxies' errors, so each proxy's rows are built once (the config
    # admits no run without two distinct proxies)
    proxies = tuple({p.name: p for p in config.resolved_proxies}.values())
    errors = _proxy_errors(env, proxies, config.guards, config.include_empty_outputs)
    rows = []
    for (a, error_a), (b, error_b) in permutations(zip(proxies, errors), 2):
        value = error_a - error_b
        rows.append(
            factory.row(
                language_size=len(space.language),
                task_count=space.total_count,
                proxy=f"{a.name}|{b.name}",
                value=value,
                note="more_efficient" if value < 0 else (
                    "tie" if value == 0 else "less_efficient"
                ),
            )
        )
    return rows


def _run_utility(config, env, factory) -> list[dict[str, str]]:
    lang = enumerate_language(env, config.guards)
    rows = []
    if config.task is not None:
        tasks = [mk_task(env, config.task["inputs"], config.task["outputs"], config.guards)]
    else:
        tasks = enumerate_tasks(env, config.guards, config.include_empty_outputs)
    for task in tasks:
        try:
            outcome = {"utility": utility(task, config.guards)}
        except NoCorrectPolicy:
            outcome = {"note": "NoCorrectPolicy"}
        rows.append(factory.row(language_size=len(lang), task_id=task.encode(), **outcome))
    return rows


def _run_verify_bound(config, env, factory) -> list[dict[str, str]]:
    rho = mk_uninstantiated(
        mk_task(env, config.rho["inputs"], config.rho["outputs"], config.guards)
    )
    report = verify_upper_bound(
        rho, config.candidates, config.guards, config.include_empty_outputs
    )
    selected = {}
    if report.selected is not None:
        probability = report.selected.probability
        selected = dict(
            value=f"{probability.numerator}/{probability.denominator}",
            policy=report.selected.policy,
            proxy=report.selected.vocabulary,
        )
    rows = [factory.row(task_id=rho.base.encode(), note=f"outcome={report.outcome}", **selected)]
    for rank, pair in enumerate(report.ranking):
        rows.append(
            factory.row(
                task_id=pair.vocabulary,
                policy=pair.policy,
                extension_size=pair.extension_size,
                value=f"{pair.probability.numerator}/{pair.probability.denominator}",
                note=f"rank={rank}",
            )
        )
    return rows


def _run_sample_gen(config, env, factory) -> list[dict[str, str]]:
    table = generalization_table(env, config.guards, config.include_empty_outputs)
    lang = table.statements
    rows = []
    for seed in config.seeds:
        estimates = estimate_generalization_probabilities(
            env, lang, config.samples, seed, config.guards, config.include_empty_outputs
        )
        for statement, est in zip(lang, estimates):
            exact = table.probability(statement)
            rows.append(
                factory.row(
                    language_size=len(lang),
                    task_count=table.denominator,
                    policy=encode_statement(statement),
                    extension_size=extension_size(env, statement, config.guards),
                    value=f"{exact.numerator}/{exact.denominator}",
                    note=f"est={est.successes}/{est.samples}",
                    seed=seed,
                )
            )
    return rows


#: the runner of each of ``EXPERIMENT_KINDS``; config validation admits no other kind
_RUNNERS = {
    "enumerate": _run_enumerate,
    "learn": _run_learn,
    "compare-proxies": _run_compare,
    "utility": _run_utility,
    "verify-bound": _run_verify_bound,
    "sample-gen": _run_sample_gen,
}


# --- report writing ------------------------------------------------------------------------

def render_report(rows: list[dict[str, str]], format: str) -> str:
    if not rows:
        raise EmptyReport("refusing to write a report with no rows")
    if format == "json":
        return json.dumps(rows, indent=2) + "\n"
    if format != "csv":
        raise WeakformError(f"unknown report format {format!r}")
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_report(rows: list[dict[str, str]], path: str | Path, format: str = "csv") -> None:
    """Atomically write the rows; no partial file survives a failure."""
    text = render_report(rows, format)
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
