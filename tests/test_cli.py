from __future__ import annotations

import builtins
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakform import cli, load_environment, mk_environment
from weakform.config import EXPERIMENT_KINDS
from weakform.errors import IndexOutOfRange, ParseError, StateOutOfRange
from weakform.learning import sample_efficiency, table_proxy
from weakform.tasks import load_task

from helpers import brute_extension_of_set, brute_language

ENV2_DOC = {"states": 2, "vocabulary": [[0], [1], [0, 1]]}
EMPTY_LANGUAGE_DOCS = [{"states": 1, "vocabulary": []}, {"states": 2, "vocabulary": [[]]}]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_success_writes_report(tmp_path, capsys):
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": ENV2_DOC,
    })
    out = tmp_path / "report.csv"
    code = cli.main(["enumerate", "--config", str(config), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("experiment,config_hash,env_hash")
    assert len(text.splitlines()) == 7


def test_stdout_when_no_output_path(tmp_path, capsys):
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": ENV2_DOC,
    })
    code = cli.main(["enumerate", "--config", str(config)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("experiment,")


def test_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["shortest"],
    })
    assert cli.main(["learn", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert cli.main(["enumerate", "--config", str(tmp_path / "nope.json")]) == 2
    # run as a module, the CLI exits with main's code
    root = Path(__file__).resolve().parent.parent
    for config, code in ((root / "configs" / "compare-env2.json", 0), (tmp_path / "nope.json", 2)):
        done = subprocess.run(
            [sys.executable, "-m", "weakform.cli", "compare-proxies", "--config", str(config),
             "--out", str(tmp_path / "r.csv")],
            capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == code, done.stderr


def test_subcommand_config_mismatch(tmp_path, capsys):
    config = write_config(tmp_path, {
        "experiment": "learn",
        "environment": ENV2_DOC,
    })
    assert cli.main(["enumerate", "--config", str(config)]) == 2


def test_guard_exceeded_exit_code(tmp_path, capsys):
    # the three-state powerset language has 38 statements, over the
    # default task-space guard of 16
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": {"full_powerset": 3},
    })
    assert cli.main(["enumerate", "--config", str(config)]) == 3
    assert "guard exceeded" in capsys.readouterr().err


def test_internal_error_dumps_repro_bundle(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": ENV2_DOC,
    })

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    out = tmp_path / "r.csv"
    code = cli.main(["enumerate", "--config", str(config), "--out", str(out)])
    assert code == 4
    bundle = json.loads((tmp_path / "weakform-repro.json").read_text())
    assert "synthetic failure" in bundle["error"]
    assert bundle["config"]


def test_repro_bundle_records_the_parsed_argv(tmp_path, capsys, monkeypatch):
    # main(argv) records the list it parsed, not the host process's argv
    config = write_config(tmp_path, {"experiment": "enumerate", "environment": ENV2_DOC})

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    monkeypatch.setattr(sys, "argv", ["host", "host-arg-1", "host-arg-2"])
    argv = ["enumerate", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    assert cli.main(argv) == 4
    bundle = json.loads((tmp_path / "weakform-repro.json").read_text())
    assert bundle["argv"] == argv


def test_repro_bundle_goes_beside_the_configured_report(tmp_path, capsys, monkeypatch):
    # with no --out, the bundle lands beside the config's output.path,
    # not in the cwd
    reports, cwd = tmp_path / "reports", tmp_path / "cwd"
    reports.mkdir()
    cwd.mkdir()
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": ENV2_DOC,
        "output": {"path": str(reports / "report.csv")},
    })

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    monkeypatch.chdir(cwd)
    assert cli.main(["enumerate", "--config", str(config)]) == 4
    assert "synthetic failure" in json.loads((reports / "weakform-repro.json").read_text())["error"]
    assert not list(cwd.iterdir())


def test_internal_error_without_a_writable_bundle_exits_4(tmp_path, capsys, monkeypatch):
    # the bundle write fails beside the report and again in the cwd: the
    # exit code stays 4 and stderr says that no bundle was written
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    def unwritable(*args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(cli, "run_experiment", boom)
    monkeypatch.setattr(Path, "write_text", unwritable)
    out = tmp_path / "r.csv"
    config = str(Path(__file__).resolve().parent.parent / "configs" / "compare-env2.json")
    code = cli.main(["compare-proxies", "--config", config, "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "synthetic failure" in err
    assert "repro bundle: none written" in err
    assert not list(tmp_path.iterdir())


def test_seed_override_changes_hash(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "seeds": [1],
        "trials": 2,
    })
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["learn", "--config", str(config), "--out", str(a)]) == 0
    assert cli.main([
        "learn", "--config", str(config), "--seed", "9", "--out", str(b),
    ]) == 0
    rows_a = a.read_text().splitlines()
    rows_b = b.read_text().splitlines()
    assert rows_a != rows_b
    assert '9.0' in rows_b[1]


def test_json_format_flag(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "enumerate",
        "environment": ENV2_DOC,
    })
    out = tmp_path / "report.json"
    code = cli.main([
        "enumerate", "--config", str(config), "--out", str(out), "--format", "json",
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6


def test_timing_fills_only_wall_ms(tmp_path):
    # every row gets the same integer wall time; every other column is
    # what an untimed run writes
    config = write_config(tmp_path, {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "seeds": [3],
        "trials": 3,
    })
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli.main(["learn", "--config", str(config), "--out", str(plain)]) == 0
    assert cli.main(["learn", "--config", str(config), "--out", str(timed), "--timing"]) == 0
    with open(plain, newline="") as fh:
        plain_rows = list(csv.DictReader(fh))
    with open(timed, newline="") as fh:
        timed_rows = list(csv.DictReader(fh))
    assert len(timed_rows) == len(plain_rows) > 1
    walls = {row.pop("wall_ms") for row in timed_rows}
    assert len(walls) == 1 and walls.pop().isdigit()
    assert {row.pop("wall_ms") for row in plain_rows} == {""}
    assert timed_rows == plain_rows


def test_rerun_byte_identical(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["weakness", "simplicity"],
        "seeds": [4],
        "trials": 6,
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["learn", "--config", str(config), "--out", str(a)]) == 0
    assert cli.main(["learn", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("doc, code", [
    ({"experiment": "enumerate", "environment": {"states": 2, "vocabulary": 5}}, 2),
    ({"experiment": "enumerate", "environment": {"states": "2", "vocabulary": [[0]]}}, 2),
    ({"experiment": "enumerate", "environment": {"states": 2, "vocabulary": [[0], [2]]}}, 2),
    ({"experiment": "enumerate", "environment": {"states": 2, "vocabulary": [[0], [0]]}}, 2),
    ({"experiment": "enumerate", "environment": {"full_powerset": "2"}}, 2),
    ({"experiment": "enumerate", "environment": {"file": 5}}, 2),
    ({"experiment": "utility", "environment": ENV2_DOC,
      "task": {"inputs": [[7]], "outputs": []}}, 2),
    ({"experiment": "learn", "environment": ENV2_DOC, "trials": True}, 2),
    ({"experiment": "sample-gen", "environment": ENV2_DOC, "samples": True}, 2),
    ({"experiment": "learn", "environment": ENV2_DOC, "child_input_count": True}, 2),
    ({"experiment": "verify-bound", "environment": {"full_powerset": 2},
      "rho": {"inputs": [[1]], "outputs": []}, "candidates": [[[0], [5]]]}, 2),
    ({"experiment": "verify-bound", "environment": {"full_powerset": 2},
      "rho": {"inputs": [[1]], "outputs": []}, "candidates": [[5]]}, 2),
    # an exceeded guard keeps its own exit code
    ({"experiment": "enumerate", "environment": {"full_powerset": 9}}, 3),
] + [
    # no program is true anywhere, so the language is the empty statement
    # alone and there is no task to learn, compare, sample or score
    ({"experiment": experiment, "environment": environment,
      "proxies": ["weakness", "simplicity"]}, 2)
    for environment in EMPTY_LANGUAGE_DOCS
    for experiment in ("learn", "compare-proxies", "sample-gen", "utility")
] + [
    # no proxy to learn with, and two names for one proxy
    ({"experiment": "learn", "environment": ENV2_DOC, "proxies": []}, 2),
    ({"experiment": "compare-proxies", "environment": ENV2_DOC,
      "proxies": ["random:1", "random:01"]}, 2),
] + [
    # true is an int to Python, but no count of states
    ({"experiment": "enumerate", "environment": {"states": True, "vocabulary": [[0]]}}, 2),
    ({"experiment": "enumerate", "environment": {"full_powerset": True}}, 2),
] + [
    # the weakness proxy counts extensions under the config's guards, as
    # enumerate does: the empty statement's truth set of two states
    # exceeds a max_truth_set of 1
    ({"experiment": "compare-proxies", "environment": ENV2_DOC,
      "proxies": ["weakness", "simplicity"], "guards": {"max_truth_set": 1}}, 3),
] + [
    # a report path must be a string
    ({"experiment": "enumerate", "environment": ENV2_DOC, "output": {"path": 5}}, 2),
    # a guard the library does not know
    ({"experiment": "enumerate", "environment": ENV2_DOC, "guards": {"max_states": 3}}, 2),
])
def test_bad_config_exit_code(tmp_path, capsys, doc, code):
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    assert cli.main([doc["experiment"], "--config", str(config), "--out", str(out)]) == code
    assert not (tmp_path / "weakform-repro.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("environment", EMPTY_LANGUAGE_DOCS)
def test_enumerate_empty_language(tmp_path, environment):
    config = write_config(tmp_path, {"experiment": "enumerate", "environment": environment})
    out = tmp_path / "r.csv"
    assert cli.main(["enumerate", "--config", str(config), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv, message", [
    pytest.param(["explore", "--config", "c.json"],
                 "argument subcommand: invalid choice: 'explore'", id="unknown-kind"),
    pytest.param(["--config", "c.json"],
                 "the following arguments are required: subcommand", id="no-kind"),
    # every run is one serial process
    pytest.param(["learn", "--config", "c.json", "--jobs", "2"],
                 "unrecognized arguments: --jobs 2", id="jobs"),
])
def test_bad_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; import weakform.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"


DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def _config_bytes(**doc):
    return json.dumps({"experiment": "enumerate", "environment": ENV2_DOC, **doc}).encode()


@pytest.mark.parametrize("files", [
    pytest.param({"config.json": b"\xff\xfe" + _config_bytes()}, id="undecodable-config"),
    pytest.param({"config.json": DEEP_JSON}, id="deep-config"),
    pytest.param({
        "config.json": _config_bytes(environment={"file": "env.json"}),
        "env.json": DEEP_JSON,
    }, id="deep-environment-file"),
    pytest.param({
        "config.json": _config_bytes(proxies=["table:rel.json", "weakness"]),
        "rel.json": DEEP_JSON,
    }, id="deep-table-file"),
])
def test_unreadable_documents_exit_2(tmp_path, capsys, files):
    # every malformed document is a configuration error, also one that
    # is no UTF-8 or that nests deeper than the JSON reader can follow
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    config, out = tmp_path / "config.json", tmp_path / "r.csv"
    assert cli.main(["enumerate", "--config", str(config), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "weakform-repro.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("env_text", ['{"states": 2, "vocabulary": 5}', "not json", None])
def test_bad_environment_file_exit_code(tmp_path, capsys, env_text):
    if env_text is not None:  # None: the file does not exist
        (tmp_path / "env.json").write_text(env_text)
    config = write_config(tmp_path, {"experiment": "enumerate", "environment": {"file": "env.json"}})
    assert cli.main(["enumerate", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert not (tmp_path / "weakform-repro.json").exists()


#: malformed JSON documents and the error the library's reader raises on
#: each: the shape rule refuses what is no list of lists, and the
#: element readers a member of the wrong kind
MALFORMED_VOCABULARIES = [
    (5, ParseError), ([5], ParseError), (None, ParseError),
    ([[0], ""], ParseError), ([[0], {}], ParseError), ([[0], [True]], StateOutOfRange),
]
MALFORMED_STATEMENT_SETS = [
    (5, ParseError), ([5], ParseError), ({}, ParseError),
    ([""], ParseError), ([[0], None], ParseError), ([["1"]], IndexOutOfRange),
]


def _document_id(value):
    return value.__name__ if isinstance(value, type) else json.dumps(value)


def _exit_code(tmp_path, doc):
    config, out = write_config(tmp_path, doc), tmp_path / "r.csv"
    code = cli.main([doc["experiment"], "--config", str(config), "--out", str(out)])
    assert not (tmp_path / "weakform-repro.json").exists()
    assert not out.exists()
    return code


@pytest.mark.parametrize("vocabulary, error", MALFORMED_VOCABULARIES, ids=_document_id)
def test_a_malformed_vocabulary_gets_one_verdict(tmp_path, capsys, vocabulary, error):
    # the library and the command read an environment by one rule: the
    # library raises, and the command exits 2 on the document inline and
    # as a file
    doc = {"states": 2, "vocabulary": vocabulary}
    with pytest.raises(error):
        load_environment(doc)
    with pytest.raises(error):
        load_task({"env": doc, "inputs": [[1]], "outputs": []})
    (tmp_path / "env.json").write_text(json.dumps(doc))
    for environment in (doc, {"file": "env.json"}):
        assert _exit_code(tmp_path, {"experiment": "enumerate", "environment": environment}) == 2


@pytest.mark.parametrize("key", ["inputs", "outputs"])
@pytest.mark.parametrize("statements, error", MALFORMED_STATEMENT_SETS, ids=_document_id)
def test_a_malformed_statement_set_gets_one_verdict(tmp_path, capsys, key, statements, error):
    # the same for a task's statement sets: the library raises, and the
    # command exits 2 on them as a task and as a rho
    sets = {"inputs": [[1]], "outputs": [], key: statements}
    with pytest.raises(error):
        load_task({"env": ENV2_DOC, **sets})
    assert _exit_code(tmp_path, {"experiment": "utility", "environment": ENV2_DOC, "task": sets}) == 2
    assert _exit_code(
        tmp_path, {"experiment": "verify-bound", "environment": {"full_powerset": 2}, "rho": sets}
    ) == 2


@pytest.mark.parametrize("where", ["missing/r.csv", "."])
def test_unwritable_report_path_exit_code(tmp_path, capsys, where):
    # a report path in a missing directory, or a directory itself, is a
    # configuration error: exit 2 with the path on stderr, and no bundle
    config = str(Path(__file__).resolve().parent.parent / "configs" / "compare-env2.json")
    out = tmp_path / where
    assert cli.main(["compare-proxies", "--config", config, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("pairs", [
    [[[0], ["a", 1]]],
    [[[0], [None]]],
    [[[0], ["a"]]],
    [["01", "2"]],
    # true and 1.0 equal 1 to Python, but name no program
    [[[0], [True]]],
    [[[0], [1.0]]],
])
def test_malformed_table_file_exit_code(tmp_path, capsys, pairs):
    # every true pair must be two lists of ints, whether or not sorting
    # the bad one would fail
    (tmp_path / "rel.json").write_text(json.dumps({"true_pairs": pairs}))
    config = write_config(tmp_path, {
        "experiment": "compare-proxies",
        "environment": ENV2_DOC,
        "proxies": ["table:rel.json", "weakness"],
    })
    out = tmp_path / "r.csv"
    assert cli.main(["compare-proxies", "--config", str(config), "--out", str(out)]) == 2
    assert "rel.json" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "weakform-repro.json").exists()


@pytest.mark.parametrize("experiment", ["compare-proxies", "learn"])
def test_table_proxy_resolves_against_the_config_directory(tmp_path, monkeypatch, experiment):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "pairs.json").write_text('{"true_pairs": [[[0], [2]], [[2], [0, 2]]]}')
    write_config(sub, {
        "experiment": experiment,
        "environment": ENV2_DOC,
        "proxies": ["table:pairs.json", "weakness"],
        "seeds": [3],
        "trials": 4,
    }, name="c.json")
    outside, inside = tmp_path / "outside.csv", tmp_path / "inside.csv"
    monkeypatch.chdir(tmp_path)
    assert cli.main([experiment, "--config", "sub/c.json", "--out", str(outside)]) == 0
    monkeypatch.chdir(sub)
    assert cli.main([experiment, "--config", "c.json", "--out", str(inside)]) == 0
    assert outside.read_bytes() == inside.read_bytes()
    assert "table:pairs.json" in inside.read_text()


TWO_RELATIONS = {
    "a": [[[0], [2]]],
    "b": [[[2], [0]], [[], [2]]],
}


@pytest.mark.parametrize("others", [["weakness"], []])
def test_same_named_tables_are_distinct_proxies(tmp_path, others):
    # two different relations in files of the same name: each keeps the
    # label it was written with, and the two are compared
    for sub, pairs in TWO_RELATIONS.items():
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "rel.json").write_text(json.dumps({"true_pairs": pairs}))
    proxies = ["table:a/rel.json", "table:b/rel.json"] + others
    config = write_config(tmp_path, {
        "experiment": "compare-proxies",
        "environment": ENV2_DOC,
        "proxies": proxies,
    })
    out = tmp_path / "report.csv"
    assert cli.main(["compare-proxies", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        values = {row["proxy"]: int(row["value"]) for row in csv.DictReader(fh)}
    assert sorted(values) == sorted(f"{a}|{b}" for a in proxies for b in proxies if a != b)
    env = mk_environment(ENV2_DOC["states"], ENV2_DOC["vocabulary"])
    a, b = (table_proxy(f"table:{sub}/rel.json", TWO_RELATIONS[sub]) for sub in "ab")
    assert values["table:a/rel.json|table:b/rel.json"] == sample_efficiency(env, a, b) != 0


@pytest.mark.parametrize("experiment", ["compare-proxies", "learn"])
def test_each_table_file_is_read_once_per_run(tmp_path, monkeypatch, experiment):
    # the config resolves each table proxy once, named twice or not, and
    # the run uses the relation it validated: no file is read again
    for sub, pairs in TWO_RELATIONS.items():
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "rel.json").write_text(json.dumps({"true_pairs": pairs}))
    config = write_config(tmp_path, {
        "experiment": experiment,
        "environment": ENV2_DOC,
        "proxies": ["table:a/rel.json", "table:b/rel.json", "table:a/rel.json", "weakness"],
        "seeds": [1, 2],
        "trials": 3,
    })
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).name == "rel.json":
            opened.append(Path(file).parent.name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
    monkeypatch.undo()
    assert sorted(opened) == ["a", "b"]
    assert "table:b/rel.json" in out.read_text()


SHIPPED_REPORT_SHA256 = {
    "compare-env2": "26f29869ee80d81ab96aa0cc8b62205bfeafeea348edc476ae94ba7a3ba759c7",
    "learn-env2": "ef27bec12b1034d842f22a027be2f6d8ea689f8ad01d5189e46dfebc49a4d1ad",
    "verify-bound-2": "0203bca0f7870f5296af81324b51f60a0fd3e3187e3bf2320e9a902110b1d5dd",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPORT_SHA256))
def test_shipped_config_reports_are_pinned(tmp_path, capsys, name):
    """The reports of the configs under configs/ are byte-identical from
    one change to the next.  A digest here changes only together with an
    intended change to that report, recorded in a CHANGES.md line."""
    config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    experiment = json.loads(config.read_text())["experiment"]
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_REPORT_SHA256[name]


# The seed-1 guard-limit configs of the benchmark (|L| = 20, the hard
# ceiling of max_task_language) and the digests its manifest records:
# the index->task mapping of the sampler at the size where its tables
# are largest.
GUARD_LIMIT_BASE = {
    "environment": {"states": 4, "vocabulary": [[1], [2], [3], [0, 2], [1, 2], [0, 2, 3]]},
    "guards": {"max_task_language": 20},
    "output": {"format": "csv"},
}
GUARD_LIMIT_CONFIGS = {
    "learn": {"proxies": ["weakness", "simplicity"], "seeds": [650], "trials": 4},
    "sample-gen": {"samples": 1000, "seeds": [650]},
}
GUARD_LIMIT_REPORT_SHA256 = {
    "learn": "8711012f00f0ac8f415838641da1c2f8ff0a9620962e9c84b014154585926e1c",
    "sample-gen": "b71934fcbfd3b8cf647ae0da87a5d3a5e4e4c5fa08638cfa68cb1a6d0857ed34",
}


@pytest.mark.parametrize("experiment", sorted(GUARD_LIMIT_CONFIGS))
def test_guard_limit_sampler_reports_are_pinned(tmp_path, capsys, experiment):
    doc = dict(GUARD_LIMIT_BASE, experiment=experiment, **GUARD_LIMIT_CONFIGS[experiment])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GUARD_LIMIT_REPORT_SHA256[experiment]


# --- generated documents ------------------------------------------------------------

def _rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def _statement_sets(draw, env):
    """A task document: valid when the language allows one, or rarely
    (always, for a one-statement language) a malformed one."""
    lang = brute_language(env)
    if len(lang) < 2 or _rarely(draw):
        return draw(st.one_of(
            st.fixed_dictionaries({
                "inputs": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
                "outputs": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
            }),
            st.sampled_from([[], {"inputs": [[0]]}, {"inputs": [[0]], "outputs": 1}]),
        ))
    inputs = draw(st.lists(st.sampled_from(lang), min_size=1, max_size=len(lang) - 1, unique=True))
    ext = sorted(brute_extension_of_set(env, inputs))
    outputs = draw(st.lists(st.sampled_from(ext), max_size=len(ext) - 1, unique=True))
    return {"inputs": [list(x) for x in inputs], "outputs": [list(x) for x in outputs]}


@st.composite
def config_docs(draw):
    """Config documents over environments with at most 3 states and 3
    programs (or a full powerset of at most 2 states, which verify-bound
    needs), mostly valid, each part rarely malformed."""
    experiment = draw(st.sampled_from(EXPERIMENT_KINDS))
    powerset = draw(st.booleans()) if experiment == "verify-bound" else _rarely(draw)
    if powerset:
        states = draw(st.integers(1, 2))
        vocabulary = [[s for s in range(states) if m >> s & 1] for m in range(1 << states)]
        environment = {"full_powerset": states}
    else:
        states = draw(st.integers(1, 3))
        vocabulary = draw(st.lists(
            st.sets(st.integers(0, states - 1), min_size=0 if _rarely(draw) else 1).map(sorted),
            min_size=1, max_size=3, unique_by=tuple,
        ))
        environment = {"states": states, "vocabulary": vocabulary}
    if _rarely(draw):
        environment = draw(st.sampled_from([
            {"states": 0, "vocabulary": []},
            {"states": states, "vocabulary": vocabulary + [[states]]},
            {"states": states, "vocabulary": [[0], [0]]},
            {"states": states, "vocabulary": 5},
            {"full_powerset": 0},
        ]))
    doc = {"experiment": experiment, "environment": environment}

    names = ["weakness", "simplicity", "random:1", "random:01", "random:2"]
    if _rarely(draw):
        names.append("shortest")
    if not _rarely(draw):
        doc["proxies"] = draw(st.lists(
            st.sampled_from(names), min_size=0 if _rarely(draw) else 2, max_size=3,
        ))
    for key, needed in (("task", "utility"), ("rho", "verify-bound")):
        if (experiment == needed and not _rarely(draw)) or draw(st.booleans()):
            doc[key] = draw(_statement_sets(mk_environment(states, vocabulary)))
    if draw(st.booleans()):
        bad = [[states]] if _rarely(draw) else []
        doc["candidates"] = draw(st.one_of(
            st.just("all"),
            st.lists(st.lists(st.sampled_from(vocabulary + bad), unique_by=tuple), max_size=3),
        ))
    low = 0 if _rarely(draw) else 1
    for key, top in (("trials", 2), ("child_input_count", 4), ("samples", 50)):
        if draw(st.booleans()):
            doc[key] = draw(st.integers(low, top))
    if draw(st.booleans()):
        doc["seeds"] = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2))
    if draw(st.booleans()):
        doc["include_empty_outputs"] = draw(st.booleans())
    if _rarely(draw):
        doc["guards"] = draw(st.dictionaries(
            st.sampled_from(["max_vocabulary", "max_task_language", "max_truth_set"]),
            st.integers(0, 8),
            max_size=2,
        ))
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config_docs())
def test_generated_configs_never_exit_internal(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        out = Path(tmp) / "r.csv"
        code = cli.main([doc["experiment"], "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3), doc
        assert not (Path(tmp) / "weakform-repro.json").exists()
        assert out.exists() == (code == 0)
