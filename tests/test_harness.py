from __future__ import annotations

import csv
import json
from dataclasses import replace
from random import Random

import pytest

from weakform import (
    config,
    harness,
    mk_environment,
    proxy_by_name,
    sample_efficiency,
    simplicity_proxy,
    weakness_proxy,
)
from weakform.bounds import all_vocabularies, utility
from weakform.config import EXPERIMENT_KINDS, parse_config
from weakform.errors import (
    EmptyReport,
    GuardConflict,
    IoError,
    NoCorrectPolicy,
    ParseError,
    UnknownProxy,
    WeakformError,
)
from weakform.harness import CSV_FIELDS, render_report, run_experiment, write_report
from weakform.harness import _derive_child
from weakform.tasks import TaskSpace, enumerate_tasks, is_child, task_space

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


def test_compare_proxies_builds_each_proxys_rows_once(monkeypatch):
    # every ordered pair is read off the two proxies' errors, so a proxy's
    # rows, 400 SHA-256 cells for a random one at |L| = 20, run once
    built = []

    def counted(name, base_dir=None):
        proxy = proxy_by_name(name, base_dir)

        def rows(*args):
            built.append(name)
            return proxy.rows(*args)

        return replace(proxy, rows=rows)

    monkeypatch.setattr(config, "proxy_by_name", counted)
    names = ["weakness", "simplicity", "random:3"]
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    want = [
        (f"{a}|{b}", str(sample_efficiency(env, proxy_by_name(a), proxy_by_name(b))))
        for a in names for b in names if a != b
    ]
    # a proxy listed twice, by name or by another spelling of its seed, is
    # one proxy: its rows are built once, and each ordered pair is written once
    for listed in (names, names + ["weakness"], names + ["random:03"]):
        built.clear()
        rows = run_experiment(cfg({
            "experiment": "compare-proxies",
            "environment": ENV2_DOC,
            "proxies": listed,
        }))
        assert len(built) == len(names), listed
        assert [(r["proxy"], r["value"]) for r in rows] == want, listed


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


def test_learn_draws_no_task_when_no_parent_can_exist(monkeypatch):
    # a parent needs two input statements; the language {(), (0,)} has
    # two statements in all, so no trial draws and each writes its marker
    draws = []
    sample_index = TaskSpace.sample_index

    def counted(self, index):
        draws.append(index)
        return sample_index(self, index)

    monkeypatch.setattr(TaskSpace, "sample_index", counted)
    doc = {"experiment": "learn", "environment": {"states": 1, "vocabulary": [[0]]}, "trials": 5}
    rows = run_experiment(cfg(doc))
    assert [r["note"] for r in rows] == ["NoUsableParent"] * 5
    assert draws == []
    run_experiment(cfg(dict(doc, environment=ENV2_DOC)))
    assert draws


def test_learn_resolves_each_proxy_once_per_run(monkeypatch):
    resolved = []

    def counted(name, base_dir=None):
        resolved.append(name)
        return proxy_by_name(name, base_dir)

    monkeypatch.setattr(config, "proxy_by_name", counted)
    names = ["weakness", "random:01"]
    rows = run_experiment(cfg({
        "experiment": "learn",
        "environment": ENV2_DOC,
        "proxies": names,
        "seeds": [1, 2],
        "trials": 4,
    }))
    assert resolved == names
    assert {r["proxy"] for r in rows if r["proxy"]} == set(names)


@pytest.mark.parametrize("experiment", ["compare-proxies", "learn"])
def test_run_uses_the_relation_its_config_validated(tmp_path, experiment):
    # the table is read when the config is parsed; rewriting the file
    # afterwards changes nothing in the run
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"true_pairs": [[[0], [2]], [[2], [0, 2]]]}))
    c = cfg({
        "experiment": experiment,
        "environment": ENV2_DOC,
        "proxies": ["table:rel.json", "weakness"],
        "trials": 3,
    }, base_dir=tmp_path)
    before = run_experiment(c)
    rel.write_text("not a relation")
    assert run_experiment(c) == before
    assert any("table:rel.json" in r["proxy"] for r in before)


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


def test_utility_experiment_without_a_task_scores_every_task():
    c = cfg({"experiment": "utility", "environment": ENV2_DOC})
    rows = run_experiment(c)
    env = mk_environment(2, [[0], [1], [0, 1]])
    tasks = list(enumerate_tasks(env))
    assert [row["task_id"] for row in rows] == [t.encode() for t in tasks]
    for row, task in zip(rows, tasks):
        try:
            want = (str(utility(task)), "")
        except NoCorrectPolicy:
            want = ("", "NoCorrectPolicy")
        assert (row["utility"], row["note"]) == want, task
    assert {row["note"] for row in rows} == {"", "NoCorrectPolicy"}


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
    # an explicit list of every sub-vocabulary is the same sweep; only the
    # config hash, which covers the candidates, differs
    env = mk_environment(c.environment["states"], c.environment["vocabulary"])
    listed = cfg({**json.loads(c.canonical_json()), "candidates": [
        [list(p) for p in vocabulary] for vocabulary in all_vocabularies(env)
    ]})
    assert listed.candidates != "all"
    explicit = run_experiment(listed)
    assert {row.pop("config_hash") for row in explicit} != {row.pop("config_hash") for row in rows}
    assert explicit == rows


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
    factory = harness._RowFactory(c, mk_environment(2, [{0}, {1}, {0, 1}]))
    with pytest.raises(KeyError, match="'wall'"):
        factory.row(wall="1")
    # every experiment kind has a runner
    assert tuple(harness._RUNNERS) == EXPERIMENT_KINDS


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
    with pytest.raises(WeakformError, match="unknown report format 'xml'"):
        render_report(rows, "xml")


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
