"""Experiment configuration documents.

Configs are JSON.  Parsing applies every default explicitly, so the
parsed object always lists the effective value of every field; its
canonical serialisation round-trips byte-identically and is what the
config hash covers.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from .core import (
    DEFAULT_GUARDS,
    HARD_GUARD_LIMITS,
    Environment,
    Guards,
    _list_of_lists,
    _program_positions,
    environment_to_dict,
    full_powerset_vocabulary,
    load_environment,
    mk_environment,
)
from .errors import GuardConflict, GuardExceeded, ParseError, WeakformError
from .learning import Proxy, proxy_by_name
from .tasks import mk_task

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "config_from_dict",
    "parse_config",
]

EXPERIMENT_KINDS = (
    "enumerate",
    "learn",
    "compare-proxies",
    "utility",
    "verify-bound",
    "sample-gen",
)

_TOP_LEVEL_KEYS = {
    "experiment",
    "environment",
    "proxies",
    "seeds",
    "trials",
    "child_input_count",
    "include_empty_outputs",
    "candidates",
    "rho",
    "task",
    "samples",
    "guards",
    "output",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: no silent defaults remain."""

    experiment: str
    environment: dict            # inline canonical {"states": ..., "vocabulary": [...]}
    proxies: tuple[str, ...]
    seeds: tuple[int, ...]
    trials: int
    child_input_count: int | None
    include_empty_outputs: bool
    candidates: Any              # "all" or tuple of vocabularies (tuples of state tuples)
    rho: dict | None             # {"inputs": [...], "outputs": [...]}
    task: dict | None
    samples: int
    guards: Guards
    output_path: str | None
    output_format: str
    # each name of ``proxies`` resolved once, when the document was
    # validated, so a run uses the relation it validated and reads no
    # table file again; the names define the experiment, so the resolved
    # proxies are neither serialised, hashed nor compared
    resolved_proxies: tuple[Proxy, ...] = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "environment": self.environment,
            "proxies": list(self.proxies),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "child_input_count": self.child_input_count,
            "include_empty_outputs": self.include_empty_outputs,
            "candidates": (
                self.candidates
                if isinstance(self.candidates, str)
                else [[list(p) for p in vocab] for vocab in self.candidates]
            ),
            "rho": self.rho,
            "task": self.task,
            "samples": self.samples,
            "guards": asdict(self.guards),
            "output": {"path": self.output_path, "format": self.output_format},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        # the destination does not define the experiment, so the hash
        # ignores the output section
        doc = {k: v for k, v in self.to_dict().items() if k != "output"}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@contextmanager
def _invalid_as_parse_error(label: str):
    """A domain error in the document is a configuration error (exit 2);
    an exceeded guard stays one (exit 3)."""
    try:
        yield
    except GuardExceeded:
        raise
    except WeakformError as exc:
        raise ParseError(f"{label}: {exc}") from None


def _parse_guards(doc: Any) -> Guards:
    if doc is None:
        return DEFAULT_GUARDS
    _expect(isinstance(doc, dict), "guards must be an object")
    limits = asdict(HARD_GUARD_LIMITS)
    values = {}
    for key, value in doc.items():
        if key not in limits:
            raise ParseError(f"unknown guard {key!r}")
        if not _is_int(value) or value < 1:
            raise GuardConflict(f"guard {key} must be a positive integer")
        if value > limits[key]:
            raise GuardConflict(
                f"guard {key}={value} exceeds the hard maximum {limits[key]}"
            )
        values[key] = value
    return replace(DEFAULT_GUARDS, **values)


def _parse_environment(doc: Any, base_dir: Path | None, guards: Guards) -> Environment:
    _expect(isinstance(doc, dict), "environment must be an object")
    if "file" in doc:
        _expect(isinstance(doc["file"], str), "environment.file must be a path")
        path = Path(doc["file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        # a file is loaded as a document, which warns when it had to be
        # put in canonical order
        with _invalid_as_parse_error("environment"):
            try:
                return load_environment(path)
            except OSError as exc:
                raise ParseError(f"cannot read environment file {path}: {exc}") from None
    _expect(
        "full_powerset" in doc or "states" in doc and "vocabulary" in doc,
        "environment needs 'states'+'vocabulary', 'file' or 'full_powerset'",
    )
    with _invalid_as_parse_error("environment"):
        if "full_powerset" in doc:
            return full_powerset_vocabulary(doc["full_powerset"], guards)
        return mk_environment(doc["states"], _list_of_lists(doc, "vocabulary"))


def _parse_statement_sets(doc: Any, label: str, env: Environment, guards: Guards) -> dict:
    _expect(isinstance(doc, dict), f"{label} must be an object")
    _expect(set(doc) == {"inputs", "outputs"}, f"{label} needs exactly 'inputs' and 'outputs'")
    with _invalid_as_parse_error(label):
        mk_task(env, _list_of_lists(doc, "inputs"), _list_of_lists(doc, "outputs"), guards)
    return {key: [sorted(set(s)) for s in doc[key]] for key in ("inputs", "outputs")}


def config_from_dict(
    doc: dict,
    base_dir: Path | None = None,
    default_experiment: str | None = None,
) -> ExperimentConfig:
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown configuration keys: {sorted(unknown)}")

    experiment = doc.get("experiment", default_experiment)
    _expect(experiment is not None, "missing 'experiment'")
    _expect(
        experiment in EXPERIMENT_KINDS,
        f"experiment must be one of {', '.join(EXPERIMENT_KINDS)}; got {experiment!r}",
    )
    if default_experiment is not None and doc.get("experiment") not in (None, default_experiment):
        raise ParseError(
            f"config says experiment={doc['experiment']!r} but the subcommand is "
            f"{default_experiment!r}"
        )

    guards = _parse_guards(doc.get("guards"))
    _expect("environment" in doc, "missing 'environment'")
    env = _parse_environment(doc["environment"], base_dir, guards)
    environment = environment_to_dict(env)
    # with no program true anywhere the language is the empty statement
    # alone, which admits no task; only enumerate has something to report
    _expect(
        experiment == "enumerate" or any(env.program_sets()),
        f"{experiment} needs a task, and an environment with no program "
        "true in any state admits none",
    )

    proxies = doc.get("proxies", ["weakness"])
    _expect(
        isinstance(proxies, list)
        and proxies != []
        and all(isinstance(p, str) for p in proxies),
        "proxies must be a nonempty list of names",
    )
    # raises UnknownProxy; each distinct name is resolved once, and names
    # that resolve alike ("random:1" and "random:01") are the same proxy
    resolved = {name: proxy_by_name(name, base_dir) for name in dict.fromkeys(proxies)}
    distinct_proxies = {proxy.name for proxy in resolved.values()}

    seeds = doc.get("seeds", [0])
    _expect(
        isinstance(seeds, list)
        and seeds != []
        and all(map(_is_int, seeds)),
        "seeds must be a nonempty list of integers",
    )

    trials = doc.get("trials", 1)
    _expect(_is_int(trials) and trials >= 1, "trials must be an integer >= 1")

    child_input_count = doc.get("child_input_count")
    if child_input_count is not None:
        _expect(
            _is_int(child_input_count) and child_input_count >= 1,
            "child_input_count must be an integer >= 1",
        )

    include_empty = doc.get("include_empty_outputs", True)
    _expect(isinstance(include_empty, bool), "include_empty_outputs must be a boolean")

    candidates = doc.get("candidates", "all")
    if candidates != "all":
        _expect(
            isinstance(candidates, list)
            and all(isinstance(v, list) and all(isinstance(p, list) for p in v) for v in candidates),
            "candidates must be \"all\" or a list of vocabularies (lists of states)",
        )
        # each program read as the environment's own, by the library's reader
        sets = env.program_sets()
        with _invalid_as_parse_error("candidates"):
            candidates = tuple(
                tuple(map(sets.__getitem__, _program_positions(env, v))) for v in candidates
            )

    rho = doc.get("rho")
    if rho is not None:
        rho = _parse_statement_sets(rho, "rho", env, guards)
    task = doc.get("task")
    if task is not None:
        task = _parse_statement_sets(task, "task", env, guards)

    samples = doc.get("samples", 10000)
    _expect(_is_int(samples) and samples >= 1, "samples must be an integer >= 1")

    output = doc.get("output", {})
    _expect(isinstance(output, dict), "output must be an object")
    _expect(set(output) <= {"path", "format"}, "output allows only 'path' and 'format'")
    output_path = output.get("path")
    _expect(output_path is None or isinstance(output_path, str), "output path must be a string")
    output_format = output.get("format", "csv")
    _expect(output_format in ("csv", "json"), "output format must be csv or json")

    if experiment == "compare-proxies":
        _expect(len(distinct_proxies) >= 2, "compare-proxies needs at least two distinct proxies")
    if experiment == "verify-bound":
        _expect(rho is not None, "verify-bound needs 'rho'")
        n = environment["states"]
        _expect(
            len(environment["vocabulary"]) == (1 << n),
            "verify-bound needs a full-powerset environment",
        )

    return ExperimentConfig(
        experiment=experiment,
        environment=environment,
        proxies=tuple(proxies),
        seeds=tuple(seeds),
        trials=trials,
        child_input_count=child_input_count,
        include_empty_outputs=include_empty,
        candidates=candidates,
        rho=rho,
        task=task,
        samples=samples,
        guards=guards,
        output_path=output_path,
        output_format=output_format,
        resolved_proxies=tuple(map(resolved.__getitem__, proxies)),
    )


def parse_config(
    text: str,
    base_dir: Path | None = None,
    default_experiment: str | None = None,
) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    _expect(isinstance(doc, dict), "the configuration document must be a JSON object")
    return config_from_dict(doc, base_dir, default_experiment)
