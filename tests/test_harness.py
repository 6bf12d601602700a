from __future__ import annotations

import csv
import json
from random import Random

import pytest

from weakform import harness, mk_environment, sample_efficiency, simplicity_proxy, weakness_proxy
from weakform.config import parse_config
from weakform.errors import (
    EmptyReport,
    GuardConflict,
    IoError,
    ParseError,
    UnknownProxy,
)
from weakform.harness import CSV_FIELDS, run_experiment, write_report
from weakform.harness import _derive_child
from weakform.tasks import is_child, task_space

ENV2_DOC = {"states": 2, "vocabulary": [[0], [1], [0, 1]]}


def cfg(text_or_doc, **kw):
    if isinstance(text_or_doc, dict):
        text_or_doc = json.dumps(text_or_doc)
    return parse_config(text_or_doc, **kw)


# --- configuration parsing ------------------------------------------------------

def test_minimal_config_lists_all_defaults():
    c = cfg({"experiment": "enumerate", "environment": ENV2_DOC})
    doc = c.to_dict()
    assert doc["proxies"] == ["weakness"]
    assert doc["seeds"] == [0]
    assert doc["trials"] == 1
    assert doc["include_empty_outputs"] is True
    assert doc["candidates"] == "all"
    assert doc["samples"] == 10000
    assert doc["guards"] == {
        "max_vocabulary": 24,
        "max_truth_set": 24,
        "max_task_language": 16,
        "max_powerset_states": 4,
    }
    assert doc["output"] == {"path": None, "format": "csv"}


def test_config_roundtrips_byte_identically():
    c = cfg({
        "experiment": "compare-proxies",
        "environment": ENV2_DOC,
        "proxies": ["weakness", "simplicity", "random:3"],
        "seeds": [5, 6],
    })
    again = cfg(c.canonical_json())
    assert again.canonical_json() == c.canonical_json()
    assert again.config_hash() == c.config_hash()


def test_unknown_proxy_rejected():
    with pytest.raises(UnknownProxy):
        cfg({
            "experiment": "learn",
            "environment": ENV2_DOC,
            "proxies": ["shortest"],
        })


def test_guard_conflict():
    with pytest.raises(GuardConflict):
        cfg({
            "experiment": "enumerate",
            "environment": ENV2_DOC,
            "guards": {"max_vocabulary": 31},
        })
    with pytest.raises(GuardConflict):
        cfg({
            "experiment": "enumerate",
            "environment": ENV2_DOC,
            "guards": {"max_truth_set": 0},
        })


def test_parse_error_has_position():
    with pytest.raises(ParseError, match="line 2"):
        cfg('{\n  "experiment": }')


def test_unknown_keys_rejected():
    with pytest.raises(ParseError, match="unknown configuration keys"):
        cfg({"experiment": "enumerate", "environment": ENV2_DOC, "extra": 1})


def test_experiment_subcommand_conflict():
    with pytest.raises(ParseError, match="subcommand"):
        cfg(
            {"experiment": "learn", "environment": ENV2_DOC},
            default_experiment="enumerate",
        )


def test_environment_from_file(tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps(ENV2_DOC))
    c = cfg(
        {"experiment": "enumerate", "environment": {"file": "env.json"}},
        base_dir=tmp_path,
    )
    assert c.environment == ENV2_DOC


def test_environment_full_powerset():
    c = cfg({"experiment": "enumerate", "environment": {"full_powerset": 2}})
    assert len(c.environment["vocabulary"]) == 4


def test_compare_needs_two_proxies():
    with pytest.raises(ParseError):
        cfg({
            "experiment": "compare-proxies",
            "environment": ENV2_DOC,
            "proxies": ["weakness"],
        })


def test_verify_bound_needs_rho_and_powerset():
    with pytest.raises(ParseError):
        cfg({"experiment": "verify-bound", "environment": {"full_powerset": 2}})
    with pytest.raises(ParseError):
        cfg({
            "experiment": "verify-bound",
            "environment": ENV2_DOC,
            "rho": {"inputs": [[3]], "outputs": []},
        })


# --- experiments -------------------------------------------------------------------

def test_enumerate_rows():
    c = cfg({"experiment": "enumerate", "environment": ENV2_DOC})
    rows = run_experiment(c)
    assert len(rows) == 6
    assert rows[0]["language_size"] == "6"
    assert rows[0]["task_count"] == "2330"
    assert [r["policy"] for r in rows] == ["{}", "{0}", "{1}", "{2}", "{0,2}", "{1,2}"]
    assert [r["extension_size"] for r in rows] == ["6", "2", "2", "3", "1", "1"]
    assert all(r["wall_ms"] == "" for r in rows)


def test_compare_proxies_rows_carry_exhaustive_value():
    c = cfg({
        "experiment": "compare-proxies",
        "environment": ENV2_DOC,
        "proxies": ["weakness", "simplicity"],
    })
    rows = run_experiment(c)
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    expected = sample_efficiency(env, weakness_proxy(), simplicity_proxy())
    by_pair = {r["proxy"]: r for r in rows}
    assert by_pair["weakness|simplicity"]["value"] == str(expected)
    assert by_pair["simplicity|weakness"]["value"] == str(-expected)


def test_learn_rows_and_child_validity():
    # most uniformly drawn children admit no correct policy, so those
    # trials produce marker rows; enough trials still land some learns
    c = cfg({
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["weakness", "simplicity"],
        "seeds": [1, 2],
        "trials": 10,
    })
    rows = run_experiment(c)
    assert len(rows) == 2 * 10 * 2
    assert {r["seed"] for r in rows} == {f"{s}.{t}" for s in (1, 2) for t in range(10)}
    ok_rows = [r for r in rows if r["policy"]]
    assert ok_rows, "no successful learning trial at all"
    for r in ok_rows:
        assert r["generalized"] in ("true", "false")
    marked = [r for r in rows if r["note"] == "NoCorrectPolicy"]
    assert marked, "expected some trials without a correct policy"


def test_derive_child_is_strict_child():
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    space = task_space(env)
    rng = Random(5)
    found = 0
    for _ in range(300):
        imask, omask = space.sample_index(rng.randrange(space.total_count))
        if imask.bit_count() < 2:
            continue
        parent = space.task_from_masks(imask, omask)
        child = _derive_child(parent, rng, None)
        assert is_child(child, parent)
        found += 1
    assert found > 50


def test_utility_experiment_single_task():
    c = cfg({
        "experiment": "utility",
        "environment": ENV2_DOC,
        "task": {"inputs": [[2]], "outputs": [[0, 2]]},
    })
    rows = run_experiment(c)
    assert len(rows) == 1
    assert rows[0]["utility"] == "1"


def test_utility_experiment_flags_undefined():
    c = cfg({
        "experiment": "utility",
        "environment": ENV2_DOC,
        "task": {"inputs": [[0]], "outputs": [[0]]},
    })
    rows = run_experiment(c)
    assert rows[0]["note"] == "NoCorrectPolicy"
    assert rows[0]["utility"] == ""


def test_verify_bound_experiment():
    c = cfg({
        "experiment": "verify-bound",
        "environment": {"full_powerset": 2},
        "rho": {"inputs": [[3]], "outputs": [[1, 3]]},
    })
    rows = run_experiment(c)
    assert rows[0]["note"] == "outcome=not_attained"
    ranked = [r for r in rows if r["note"].startswith("rank=")]
    assert ranked[0]["value"] == "13/132"


def test_sample_gen_experiment():
    c = cfg({
        "experiment": "sample-gen",
        "environment": {"states": 2, "vocabulary": [[0], [1]]},
        "samples": 400,
        "seeds": [3],
    })
    rows = run_experiment(c)
    assert len(rows) == 3
    for r in rows:
        assert "/" in r["value"]
        assert r["note"].startswith("est=")


def test_rows_have_fixed_fields():
    c = cfg({"experiment": "enumerate", "environment": ENV2_DOC})
    for row in run_experiment(c):
        assert tuple(row.keys()) == CSV_FIELDS


# --- determinism and report writing ---------------------------------------------------

def test_run_experiment_deterministic():
    doc = {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["weakness"],
        "seeds": [7],
        "trials": 5,
    }
    assert run_experiment(cfg(doc)) == run_experiment(cfg(doc))


def test_parallel_learn_matches_serial():
    doc = {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["weakness", "simplicity"],
        "seeds": [1, 2],
        "trials": 4,
    }
    assert run_experiment(cfg(doc), jobs=2) == run_experiment(cfg(doc), jobs=1)


@pytest.mark.parametrize("jobs, cpus, expected", [
    (1000, 64, 6),  # one worker per unit: 2 seeds x 3 trials
    (1000, 4, 4),   # one worker per CPU
    (3, 64, 3),     # as many as asked for
])
def test_learn_pool_is_clamped(monkeypatch, jobs, cpus, expected):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    doc = {"experiment": "learn", "environment": ENV2_DOC, "seeds": [1, 2], "trials": 3}
    assert run_experiment(cfg(doc), jobs=jobs) == run_experiment(cfg(doc), jobs=1)
    assert started == [expected]


def test_write_report_csv_and_json_agree(tmp_path):
    c = cfg({"experiment": "enumerate", "environment": ENV2_DOC})
    rows = run_experiment(c)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    write_report(rows, csv_path, "csv")
    write_report(rows, json_path, "json")
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(json_path.read_text())
    assert csv_rows == json_rows


def test_write_report_two_lines(tmp_path):
    c = cfg({
        "experiment": "utility",
        "environment": ENV2_DOC,
        "task": {"inputs": [[2]], "outputs": [[0, 2]]},
    })
    rows = run_experiment(c)
    path = tmp_path / "one.csv"
    write_report(rows, path, "csv")
    assert path.read_text().count("\n") == 2


def test_write_report_empty_rejected(tmp_path):
    with pytest.raises(EmptyReport):
        write_report([], tmp_path / "x.csv", "csv")


def test_write_report_unwritable_path_leaves_nothing(tmp_path):
    c = cfg({"experiment": "enumerate", "environment": ENV2_DOC})
    rows = run_experiment(c)
    target = tmp_path / "no" / "such" / "dir" / "r.csv"
    with pytest.raises(IoError):
        write_report(rows, target, "csv")
    assert not target.exists()
    assert not list(tmp_path.iterdir())


def test_reports_byte_identical_across_runs(tmp_path):
    doc = {
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": ["weakness"],
        "seeds": [11],
        "trials": 4,
    }
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_experiment(cfg(doc)), a, "csv")
    write_report(run_experiment(cfg(doc)), b, "csv")
    assert a.read_bytes() == b.read_bytes()
