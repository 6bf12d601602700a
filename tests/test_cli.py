from __future__ import annotations

import json

import pytest

from weakform import cli

ENV2_DOC = {"states": 2, "vocabulary": [[0], [1], [0, 1]]}


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
])
def test_bad_config_exit_code(tmp_path, capsys, doc, code):
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    assert cli.main([doc["experiment"], "--config", str(config), "--out", str(out)]) == code
    assert not (tmp_path / "weakform-repro.json").exists()
    assert not out.exists()


def test_jobs_must_be_positive(tmp_path, capsys):
    config = write_config(tmp_path, {"experiment": "learn", "environment": ENV2_DOC})
    with pytest.raises(SystemExit) as exc:
        cli.main(["learn", "--config", str(config), "--jobs", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("env_text", ['{"states": 2, "vocabulary": 5}', "not json"])
def test_bad_environment_file_exit_code(tmp_path, capsys, env_text):
    (tmp_path / "env.json").write_text(env_text)
    config = write_config(tmp_path, {"experiment": "enumerate", "environment": {"file": "env.json"}})
    assert cli.main(["enumerate", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert not (tmp_path / "weakform-repro.json").exists()
