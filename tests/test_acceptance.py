"""Acceptance suite: one test per numbered criterion.

Each test prints a single `ACCEPTANCE <n>: PASS|FAIL` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream).  The
optimality checks (5, 6, 7) write a minimal counterexample bundle to
``test-artifacts/`` before failing, so a red run leaves behind exactly
what is needed to reproduce the violation.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from random import Random

from weakform import (
    Guards,
    enumerate_language,
    environment_to_dict,
    extension,
    extension_size,
    full_powerset_vocabulary,
    language_size,
    mk_environment,
)
from weakform.bounds import (
    all_vocabularies,
    mk_uninstantiated,
    utility,
    verify_upper_bound,
    verify_utility_maximal_at_P,
)
from weakform.config import parse_config
from weakform.errors import EmptyTaskSpace, InvalidTask, NoOutput
from weakform.harness import run_experiment, write_report
from weakform.learning import (
    evaluate_generalization,
    generalization_table,
    learn,
    random_proxy,
    sample_efficiency,
    simplicity_proxy,
    weakness_proxy,
)
from weakform.tasks import (
    correct_policies,
    count_tasks,
    enumerate_tasks,
    infer,
    is_correct_policy,
    mk_task,
    task_space,
)

from helpers import all_environments, input_masks, table_unions

ARTIFACTS = Path(__file__).resolve().parent.parent / "test-artifacts"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")


def _write_bundle(number: int, bundle: dict) -> Path:
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"criterion{number}-counterexample.json"
    path.write_text(json.dumps(bundle, indent=2, default=str), encoding="utf-8")
    return path


def _env2():
    return mk_environment(2, [{0}, {1}, {0, 1}])


# --- 1: the worked fixture ------------------------------------------------------


def test_criterion_1_worked_fixture():
    t0 = time.monotonic()
    env = _env2()
    child = mk_task(env, [(2,)], [(0, 2)])
    parent = mk_task(env, [(2,), (1,)], [(0, 2)])

    assert correct_policies(child).members == ((0,), (0, 2))
    assert learn(child, weakness_proxy()) == (0,)
    assert utility(child) == 1
    assert evaluate_generalization((0,), parent) is True

    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    _report(1, "worked fixture", ok, f"{elapsed:.3f}s")
    assert ok


# --- 2: extension counting oracle ----------------------------------------------


def test_criterion_2_counting_oracle():
    t0 = time.monotonic()
    statements = 0
    for env in all_environments(4, 4):
        for x in enumerate_language(env):
            assert extension_size(env, x) == len(extension(env, x)), (env, x)
            statements += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _report(2, "counting oracle", ok, f"{statements} statements, {elapsed:.1f}s")
    assert ok


# --- 3: task-space counting oracle ------------------------------------------------


def _c3_universe():
    for env in all_environments(4, 4):
        if len(enumerate_language(env)) <= 8:
            yield env


def test_criterion_3_task_space_oracle():
    t0 = time.monotonic()
    envs = 0
    tasks = 0
    for env in _c3_universe():
        counted = count_tasks(env)
        streamed = sum(1 for _ in enumerate_tasks(env))
        assert counted == streamed, environment_to_dict(env)
        envs += 1
        tasks += streamed
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _report(3, "task-space oracle", ok, f"{envs} envs, {tasks} tasks, {elapsed:.1f}s")
    assert ok


# --- 4: exactly uniform sampling ----------------------------------------------------


def test_criterion_4_uniform_sampler():
    t0 = time.monotonic()
    env = _env2()
    space = task_space(env)
    total = space.total_count
    draws = 100_000
    counts: dict = {}
    for t in space.sample_many(0, draws):
        counts[t.key()] = counts.get(t.key(), 0) + 1
    p = 1.0 / total
    bound = 5 * (draws * p * (1 - p)) ** 0.5
    worst = max(
        abs(counts.get(key, 0) - draws * p)
        for key in ((t.inputs, t.outputs_correct) for t in space.tasks())
    )
    elapsed = time.monotonic() - t0
    ok = worst <= bound and elapsed < 30.0
    _report(
        4,
        "uniform sampler",
        ok,
        f"worst deviation {worst:.1f} vs 5-sigma {bound:.1f}, {elapsed:.1f}s",
    )
    assert worst <= bound
    assert elapsed < 30.0


# --- 5: no tested proxy beats weakness ------------------------------------------------


def test_criterion_5_weakness_optimality():
    t0 = time.monotonic()
    weakness = weakness_proxy()
    simplicity = simplicity_proxy()
    randoms = [random_proxy(seed) for seed in range(100)]
    violations = []
    checked = 0
    for env in all_environments(3, 4):
        try:
            value = sample_efficiency(env, weakness, simplicity)
        except EmptyTaskSpace:
            continue
        checked += 1
        if value > 0:
            violations.append((env, "simplicity", value))
        for rp in randoms:
            value = sample_efficiency(env, weakness, rp)
            if value > 0:
                violations.append((env, rp.name, value))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 600.0
    detail = f"{checked} envs x 101 rivals, {len(violations)} violations, {elapsed:.1f}s"
    if violations:
        env, rival, value = violations[0]
        table = generalization_table(env)
        bundle = {
            "criterion": 5,
            "claim": "sample_efficiency(weakness, rival) <= 0 for every rival tested",
            "violation_count": len(violations),
            "environments_checked": checked,
            "first_violation": {
                "environment": environment_to_dict(env),
                "rival_proxy": rival,
                "sample_efficiency_weakness_vs_rival": value,
                "language": [list(s) for s in table.statements],
                "extension_sizes": [
                    extension_size(env, s) for s in table.statements
                ],
                "generalization_numerators": list(table.numerators),
                "task_count": table.denominator,
            },
            "note": (
                "the generalization order ranks statements by "
                "2^|L| - 2^|E_l| - 1 (+1 for the empty statement), which is "
                "antitone in extension size; weakness therefore anti-correlates "
                "with it on every pair of distinct extension sizes"
            ),
        }
        path = _write_bundle(5, bundle)
        detail += f", bundle: {path}"
    _report(5, "weakness optimality", ok, detail)
    assert not violations, detail
    assert elapsed < 600.0


# --- 6: the select-by-utility-then-weakness recipe ---------------------------------------


def _phi3_family(count: int, seed: int):
    """A deterministic bounded family of base tasks over three states:
    at most two inputs, at most two outputs each."""
    env = full_powerset_vocabulary(3)
    lang = enumerate_language(env)
    rng = Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        k = rng.choice((1, 2))
        inputs = [lang[i] for i in sorted(rng.sample(range(1, len(lang)), k))]
        from weakform import extension_of_set

        ext = extension_of_set(env, inputs)
        m = rng.randrange(0, 3)
        if m >= ext.size:
            continue
        outs = [ext.members[i] for i in sorted(rng.sample(range(ext.size), m))]
        try:
            task = mk_task(env, inputs, outs)
        except InvalidTask:
            continue
        if task.key() in seen:
            continue
        seen.add(task.key())
        out.append(mk_uninstantiated(task))
    return out


def test_criterion_6_upper_bound_recipe():
    t0 = time.monotonic()
    failures = []
    checked = 0

    env2p = full_powerset_vocabulary(2)
    candidates2 = list(all_vocabularies(env2p))
    for t in enumerate_tasks(env2p):
        rho = mk_uninstantiated(t)
        rep = verify_upper_bound(rho, candidates2)
        checked += 1
        if rep.outcome == "not_attained":
            failures.append((2, rho, rep))

    env3p = full_powerset_vocabulary(3)
    candidates3 = [
        v for v in all_vocabularies(env3p)
        if language_size(mk_environment(3, v) if v else env3p) <= 12
    ]
    for rho in _phi3_family(80, seed=2026):
        rep = verify_upper_bound(rho, candidates3)
        checked += 1
        if rep.outcome == "not_attained":
            failures.append((3, rho, rep))

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    detail = f"{checked} base tasks, {len(failures)} not attained, {elapsed:.1f}s"
    if failures:
        states, rho, rep = failures[0]
        bundle = {
            "criterion": 6,
            "claim": (
                "the pair selected by max utility then max weakness attains the "
                "maximum generalization probability among all candidates"
            ),
            "violation_count": len(failures),
            "base_tasks_checked": checked,
            "first_violation": {
                "states": states,
                "base_task": rho.base.encode(),
                "selected": rep.selected.to_dict(),
                "best": rep.best.to_dict(),
            },
            "note": (
                "within one vocabulary the generalization order prefers the "
                "strongest correct policy, so picking the weakest one can only "
                "attain the maximum when the policy set has a single element "
                "or ties"
            ),
        }
        path = _write_bundle(6, bundle)
        detail += f", bundle: {path}"
    _report(6, "upper-bound recipe", ok, detail)
    assert not failures, detail
    assert elapsed < 600.0


def test_recipe_attains_no_decided_task_over_every_3_state_candidate():
    # a finding beside criterion 6, which caps its 3-state candidates at
    # |L_B| <= 12: over all 256 candidates the recipe attains none of the
    # decided base tasks, in both output modes.  Under the default
    # task-language guard (16) verify_upper_bound ranks no candidate with
    # |L_B| > 16, and that silent skip leaves some base tasks undecided
    raised = Guards(max_task_language=38)
    for count, seed, decided, decided_by_default in ((40, 7, 38, 37), (150, 11, 129, 126)):
        family = _phi3_family(count, seed=seed)
        for include_empty in (True, False):
            for guards, expected in ((raised, decided), (Guards(), decided_by_default)):
                outcomes = Counter(
                    verify_upper_bound(rho, "all", guards, include_empty).outcome for rho in family
                )
                assert outcomes == {"not_attained": expected, "no_candidate": count - expected}


# --- 7: utility maximal at the full vocabulary ----------------------------------------------


def test_criterion_7_utility_maximal_at_full_vocabulary():
    t0 = time.monotonic()
    failures = []
    checked = 0

    env2p = full_powerset_vocabulary(2)
    for t in enumerate_tasks(env2p):
        rho = mk_uninstantiated(t)
        rep = verify_utility_maximal_at_P(rho)
        checked += 1
        if not rep.holds:
            failures.append((2, rho, rep))

    for rho in _phi3_family(80, seed=2026):
        rep = verify_utility_maximal_at_P(rho)
        checked += 1
        if not rep.holds:
            failures.append((3, rho, rep))

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    undefined = sum(1 for _, _, rep in failures if rep.utility_at_full is None)
    numeric = [f for f in failures if f[2].utility_at_full is not None]
    detail = (
        f"{checked} base tasks, {len(failures)} violations "
        f"({undefined} with utility undefined at the full vocabulary, "
        f"{len(numeric)} numeric), {elapsed:.1f}s"
    )
    if failures:
        states, rho, rep = (numeric or failures)[0]
        bundle = {
            "criterion": 7,
            "claim": "no sub-vocabulary yields strictly higher utility than the full one",
            "violation_count": len(failures),
            "undefined_at_full": undefined,
            "numeric_violations": len(numeric),
            "base_tasks_checked": checked,
            "first_violation": {
                "states": states,
                "base_task": rho.base.encode(),
                "utility_at_full": rep.utility_at_full,
                "beaten_by": rep.witness.to_dict(),
            },
            "note": (
                "restriction can erase correct outputs faster than it erases "
                "policy extensions, leaving a sub-vocabulary with strictly "
                "higher utility; it can also leave the full vocabulary with "
                "no correct policy at all while a restriction has one"
            ),
        }
        path = _write_bundle(7, bundle)
        detail += f", bundle: {path}"
    _report(7, "utility maximal at full vocabulary", ok, detail)
    assert not failures, detail
    assert elapsed < 300.0


# --- 8: inference correctness guarantees --------------------------------------------------------


def test_criterion_8_guaranteed_correctness():
    t0 = time.monotonic()

    # envelope: for every input set and policy of every swept environment,
    # the completions shared by any single input and the policy stay inside
    # the one output set the policy is correct for
    envs = 0
    for env in _c3_universe():
        space = task_space(env)
        n = len(space.language)
        ext = space.ext_masks
        for imask, emask in zip(input_masks(space), table_unions(space)):
            input_bits = [i for i in range(n) if (imask >> i) & 1]
            for j in range(n):
                inter = emask & ext[j]
                if inter == emask:
                    continue  # no task makes statement j a correct policy here
                for i in input_bits:
                    assert ext[i] & ext[j] & ~inter == 0, (
                        environment_to_dict(env), imask, j, i,
                    )
        envs += 1

    # the inference code path itself, exhaustively on the small end
    inferences = 0
    for env in all_environments(2, 3):
        if len(enumerate_language(env)) > 6 or count_tasks(env) == 0:
            continue
        for task in enumerate_tasks(env):
            for pi in correct_policies(task):
                for x in task.inputs:
                    try:
                        _, ok = infer(task, pi, x, seed=1)
                    except NoOutput:
                        continue
                    assert ok, (environment_to_dict(env), task.encode(), pi, x)
                    inferences += 1

    # and the converse really is realisable: an incorrect policy that can
    # still emit a correct output
    env = _env2()
    witness_task = mk_task(env, [(2,)], [(0, 2)])
    assert not is_correct_policy(witness_task, (2,))
    witness_hits = [s for s in range(30) if infer(witness_task, (2,), (2,), s)[1]]

    elapsed = time.monotonic() - t0
    ok = bool(witness_hits)
    _report(
        8,
        "guaranteed correctness",
        ok,
        f"{envs} envs enveloped, {inferences} inferences exercised, "
        f"witness seeds {witness_hits[:3]}, {elapsed:.1f}s",
    )
    assert witness_hits


# --- 9: byte-identical reports ------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    doc = {
        "experiment": "learn",
        "environment": {"states": 2, "vocabulary": [[0], [1], [0, 1]]},
        "proxies": ["weakness", "simplicity", "random:5"],
        "seeds": [3, 4],
        "trials": 8,
    }
    config = parse_config(json.dumps(doc))
    outputs = {}
    for run in ("a", "b"):
        rows = run_experiment(config)
        for fmt in ("csv", "json"):
            path = tmp_path / f"{run}.{fmt}"
            write_report(rows, path, fmt)
            outputs[(run, fmt)] = path.read_bytes()
    ok = (
        outputs[("a", "csv")] == outputs[("b", "csv")]
        and outputs[("a", "json")] == outputs[("b", "json")]
    )
    elapsed = time.monotonic() - t0
    _report(9, "deterministic reports", ok, f"{elapsed:.1f}s")
    assert ok
