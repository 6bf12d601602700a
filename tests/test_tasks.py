from __future__ import annotations

import copy
import gc
import json
import pickle
import time
import tracemalloc
from dataclasses import replace
from itertools import accumulate, combinations, compress, islice
from math import comb
from operator import attrgetter, is_not, itemgetter
from random import Random

import pytest

from weakform import Guards, enumerate_language, full_powerset_vocabulary, mk_environment, utility
from weakform import tasks as tasks_module
from weakform.core import ExtensionSet, LanguageIndex, _stmt_order
from weakform.errors import (
    EmptyInputs,
    EmptyTaskSpace,
    EnvironmentMismatch,
    IndexOutOfRange,
    InputNotInTask,
    InputsNotStrictSubset,
    InvalidSampleCount,
    NoOutput,
    NotAStatement,
    OutputsNotInExtension,
    OutputsNotStrict,
    ParseError,
    TaskSpaceTooLarge,
)
from weakform.learning import (
    estimate_generalization_probabilities,
    generalization_table,
    sample_efficiency,
    simplicity_proxy,
    weakness_proxy,
)
from weakform.tasks import (
    PolicySet,
    Task,
    TaskSpace,
    correct_policies,
    count_tasks,
    enumerate_tasks,
    hierarchy_level,
    infer,
    is_child,
    is_correct_policy,
    load_task,
    mk_task,
    outputs,
    sample_task,
    task_space,
    task_to_dict,
)

from helpers import (
    all_environments,
    brute_antichain_count,
    brute_correct_policies,
    brute_extension_of_set,
    brute_language,
    brute_sample_index,
    input_masks,
    mask_stream,
    per_draw_estimates,
    table_decode,
    table_running_count,
    table_task_counts,
    table_unions,
    table_unrank,
    table_weight,
)


def brute_task_keys(env, include_empty_outputs=True):
    """All (inputs, outputs) pairs, via sets and itertools only."""
    lang = brute_language(env)
    keys = []
    lo = 0 if include_empty_outputs else 1
    for r in range(1, len(lang)):
        for inputs in combinations(lang, r):
            ext = sorted(brute_extension_of_set(env, inputs), key=_stmt_order)
            for r2 in range(lo, len(ext)):
                for outs in combinations(ext, r2):
                    keys.append((tuple(inputs), tuple(outs)))
    return keys


def brute_hierarchy_levels(env, include_empty_outputs=True):
    """Longest ascending chains by plain recursion over the task list."""
    keys = brute_task_keys(env, include_empty_outputs)
    memo: dict = {}

    def level(key):
        if key in memo:
            return memo[key]
        ia, oa = set(key[0]), set(key[1])
        best = 0
        for other in keys:
            if ia < set(other[0]) and oa <= set(other[1]):
                cand = 1 + level(other)
                if cand > best:
                    best = cand
        memo[key] = best
        return best

    return {key: level(key) for key in keys}


# --- construction ------------------------------------------------------------

def test_mk_task_valid(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert t.inputs == ((2,),)
    assert t.outputs_correct == ((0, 2),)
    assert t.extension.as_set() == {(2,), (0, 2), (1, 2)}
    assert repr(t) == "Task(I={{2}};O={{0,2}})"


def _encoded(statements):
    return "{%s}" % ",".join("{%s}" % ",".join(map(str, x)) for x in statements)


def test_task_contract():
    """A task is a value of (env, inputs, outputs): whichever way it was
    built, it equals and hashes like every other build of it, equals no
    plain tuple, has read-only fields and no instance dictionary, and
    keeps its printed forms."""
    checked = 0
    for env in all_environments(2, 2):
        for task in enumerate_tasks(env):
            built = mk_task(env, *task.key())
            assert built == task and task == built and not built != task
            assert hash(built) == hash(task)
            fields = (built.env, built.inputs, built.outputs_correct, built.extension)
            assert built != fields and fields != built
            assert not built == fields and not fields == built
            assert len({built, task, fields}) == 2
            for name in ("env", "inputs", "outputs_correct", "extension"):
                with pytest.raises(AttributeError):
                    setattr(built, name, getattr(task, name))
            with pytest.raises(AttributeError):
                built.note = "x"
            assert not hasattr(built, "__dict__")
            encoded = "I=%s;O=%s" % (_encoded(task.inputs), _encoded(task.outputs_correct))
            assert built.encode() == task.encode() == encoded
            assert repr(built) == repr(task) == f"Task({encoded})"
            assert built.key() == (task.inputs, task.outputs_correct)
            assert built.input_set == frozenset(task.inputs)
            assert built.output_set == frozenset(task.outputs_correct)
            checked += 1
    assert checked > 50


def test_task_pickles_and_copies(env2):
    space = task_space(env2)
    made = [
        mk_task(env2, [(2,), (1,)], [(0, 2)]),
        next(t for t in space.tasks() if t.outputs_correct),
        space.sample(3),
    ]
    for task in made:
        for again in (pickle.loads(pickle.dumps(task)), copy.deepcopy(task), copy.copy(task)):
            assert type(again) is type(task)
            assert again == task
            assert again.extension == task.extension
            assert again.extension.members == task.extension.members
            assert again.env == task.env
            assert repr(again) == repr(task)


def test_statement_sets_are_canonical_tuples(env2):
    # an ExtensionSet or PolicySet holds its statements once, as a slotted
    # tuple in canonical order
    lang = enumerate_language(env2)
    ext = ExtensionSet(list(reversed(lang)) + [lang[0]])
    pols = correct_policies(mk_task(env2, [(2,)], [(0, 2)]))
    assert type(pols) is PolicySet and pols.members == ((0,), (0, 2))
    for got, members in ((ext, lang), (pols, ((0,), (0, 2)))):
        assert isinstance(got, tuple) and type(got).__slots__ == ()
        assert not hasattr(got, "__dict__")
        with pytest.raises(AttributeError):
            got.extra = 1
        with pytest.raises(AttributeError):
            got.members = members
        assert type(got.members) is tuple and got.members == members
        assert len(got) == len(members) and list(got) == list(members)
        assert all(x in got for x in members) and (9,) not in got
        for again in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
            assert type(again) is type(got) and again.members == members
    # _of_canonical takes its members as they come
    assert ExtensionSet._of_canonical(iter(lang)).members == lang
    assert ext.size == len(lang) and ext.as_set() == frozenset(lang)
    # a set of the same statements is equal and hashes alike; a tuple is not
    for other in (ExtensionSet(lang), frozenset(lang), set(lang)):
        assert ext == other and other == ext and not ext != other
    assert hash(ext) == hash(frozenset(lang)) == hash(ExtensionSet(lang))
    for other in (lang, tuple(ext), list(lang), ExtensionSet(lang[1:])):
        assert ext != other and other != ext and not ext == other
    assert repr(ext) == "ExtensionSet({{},{0},{1},{2},{0,2},{1,2}})"
    assert repr(pickle.loads(pickle.dumps(ext))) == repr(ext)


def test_task_is_built_from_one_iterable(env2):
    built = mk_task(env2, [(2,), (1,)], [(0, 2)])
    fields = (built.env, built.inputs, built.outputs_correct, built.extension)
    for task in (Task(fields), Task(iter(fields))):
        assert type(task) is Task
        assert task == built and hash(task) == hash(built)
        assert task.extension.members == built.extension.members
    with pytest.raises(TypeError):
        Task(*fields)


def test_a_repeated_or_respelled_member_is_read_once(env2):
    # a statement set holds each statement once, however often or however
    # it is spelled; the input mask is the OR of its members' bits, not their sum
    plain = mk_task(env2, [(0,)], [(0, 2)])
    for inputs, outputs in (([(0,), (0,)], [(0, 2)]), ([(0,), [0, 0]], [(0, 2), (2, 0)])):
        assert mk_task(env2, inputs, outputs) == plain
        doc = {"inputs": [list(x) for x in inputs], "outputs": [list(y) for y in outputs]}
        assert load_task(doc, env2) == plain
        assert load_task({**task_to_dict(plain), **doc}) == plain
    assert plain.inputs == ((0,),) and plain.outputs_correct == ((0, 2),)


def test_mk_task_empty_inputs(env2):
    with pytest.raises(EmptyInputs):
        mk_task(env2, [], [])


def test_mk_task_outputs_not_strict(env2):
    with pytest.raises(OutputsNotStrict):
        mk_task(env2, [(2,)], [(2,), (0, 2), (1, 2)])


def test_mk_task_outputs_not_in_extension(env2):
    with pytest.raises(OutputsNotInExtension):
        mk_task(env2, [(2,)], [(1,)])


def test_mk_task_inputs_not_strict(env2):
    lang = enumerate_language(env2)
    with pytest.raises(InputsNotStrictSubset):
        mk_task(env2, lang, [])


def test_mk_task_empty_outputs_allowed(env2):
    t = mk_task(env2, [(0,)], [])
    assert t.outputs_correct == ()


# --- outputs -------------------------------------------------------------------

def test_outputs_examples(env2):
    assert outputs(mk_task(env2, [(2,)], [(0, 2)])).as_set() == {(2,), (0, 2), (1, 2)}
    assert outputs(mk_task(env2, [(0,)], [])).as_set() == {(0,), (0, 2)}
    assert outputs(mk_task(env2, [(2,), (1,)], [(0, 2)])).as_set() == {
        (2,), (0, 2), (1, 2), (1,),
    }


# --- policy correctness -----------------------------------------------------------

def test_is_correct_policy_examples(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert is_correct_policy(t, (0,)) is True
    assert is_correct_policy(t, (2,)) is False
    assert is_correct_policy(t, ()) is False


def test_correct_policies_examples(env2):
    t1 = mk_task(env2, [(2,)], [(0, 2)])
    assert correct_policies(t1).members == ((0,), (0, 2))
    t2 = mk_task(env2, [(2,)], [(0, 2), (1, 2)])
    assert correct_policies(t2).members == ()
    t3 = mk_task(env2, [(0,)], [])
    assert correct_policies(t3).members == ((1,), (1, 2))


def test_correct_policies_match_brute_definition():
    # filter the whole language by the set definition, with no masks
    checked = 0
    for env in all_environments(2, 3):
        lang = brute_language(env)
        for include_empty in (True, False):
            for t in enumerate_tasks(env, include_empty_outputs=include_empty):
                expected = brute_correct_policies(t)
                assert list(correct_policies(t).members) == expected
                for pi in lang:
                    assert is_correct_policy(t, pi) == (pi in expected)
                checked += 1
    assert checked > 2000


def test_policies_of_a_large_extension_with_no_outputs():
    # 14 programs sharing state 0 and two lone ones: |L| = 2^14 + 2.
    # With no outputs every member of the inputs' extension (12,288
    # statements) is a rival; the policy set checks each statement of
    # the language against the definition, by index masks
    env = mk_environment(17, [[0, s] for s in range(1, 15)] + [[15], [16]])
    t = mk_task(env, [(2,), (3,)], [])
    index = LanguageIndex.of(env)
    e = sum(1 << index.position[y] for y in t.extension)
    assert t.extension.size == (1 << 14) - (1 << 12)
    expected = tuple(p for p in index.statements if e & index.extension_mask(p) == 0)
    assert correct_policies(t).members == expected == ((0,), (1,))
    assert is_correct_policy(t, (1,)) and not is_correct_policy(t, ())


def test_policies_of_a_large_language_use_linear_memory():
    # 14 programs sharing state 0 make every index set a statement, so
    # |L| = 2^14.  One extension mask per statement would take |L|^2 bits
    # (32 MiB); the policy test works on the two-member input extension.
    env = mk_environment(15, [[0, s] for s in range(1, 15)])
    top = tuple(range(14))
    tracemalloc.start()
    try:
        t = mk_task(env, [top[:-1]], [top])
        policies = correct_policies(t).members
        peak = tracemalloc.get_traced_memory()[1]
        # the weakest correct policy (13,) extends to 2^13 statements, one an output
        assert utility(t) == (1 << 13) - 1
        utility_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(enumerate_language(env)) == 1 << 14
    # a policy is correct iff it contains program 13
    assert len(policies) == 1 << 13
    assert policies[0] == (13,)
    assert is_correct_policy(t, (13,)) and not is_correct_policy(t, (0,))
    assert peak < 16 << 20
    assert utility_peak < 16 << 20


# --- inference ---------------------------------------------------------------------

def test_infer_singleton_choice(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    for seed in range(5):
        assert infer(t, (0,), (2,), seed) == ((0, 2), True)


def test_infer_incorrect_policy(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert infer(t, (1,), (2,), 0) == ((1, 2), False)


def test_infer_no_output(env2):
    t = mk_task(env2, [(0,)], [(0, 2)])
    with pytest.raises(NoOutput):
        infer(t, (1,), (0,), 0)


def test_infer_input_not_in_task(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    with pytest.raises(InputNotInTask):
        infer(t, (0,), (1,), 0)


def test_infer_rejects_non_statement_policy(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    with pytest.raises(NotAStatement):
        infer(t, (0, 1), (2,), 0)


def test_infer_accepts_a_task_built_under_raised_guards():
    # 25 programs exceed the default vocabulary guard; the task was
    # admitted under a raised one, so inference and the policy test
    # work on it
    env = mk_environment(25, [[s] for s in range(25)])
    t = mk_task(env, [(0,)], [], Guards(max_vocabulary=25))
    assert infer(t, (0,), (0,), 0) == ((0,), False)
    assert is_correct_policy(t, (1,)) and not is_correct_policy(t, (0,))


def test_policies_of_a_task_built_under_raised_guards():
    # the policy set and learning read the index the task was admitted
    # with, not one re-checked against the default vocabulary guard
    from weakform.learning import learn, weakness_proxy

    env = mk_environment(25, [[s] for s in range(25)])
    t = mk_task(env, [(0,)], [], Guards(max_vocabulary=25))
    assert correct_policies(t).members == tuple((s,) for s in range(1, 25))
    assert learn(t, weakness_proxy()) == (1,)


def test_infer_deterministic(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    a = infer(t, (2,), (2,), 7)
    b = infer(t, (2,), (2,), 7)
    assert a == b


def test_incorrect_policy_can_emit_correct_output(env2):
    # the policy equal to the input is not correct, yet some draw of its
    # three possible completions lands in the correct outputs
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert not is_correct_policy(t, (2,))
    hits = [seed for seed in range(30) if infer(t, (2,), (2,), seed)[1]]
    assert hits, "no seed produced a correct output from the incorrect policy"


def test_correct_policies_never_miss():
    # for every task of a small sweep, every correct policy, every input:
    # inference either fails outright or lands in the correct outputs
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    for t in enumerate_tasks(env):
        for pi in correct_policies(t):
            for x in t.inputs:
                try:
                    _, ok = infer(t, pi, x, 13)
                except NoOutput:
                    continue
                assert ok


# --- the generational hierarchy -------------------------------------------------------

def test_is_child_examples(env2):
    alpha = mk_task(env2, [(2,)], [(0, 2)])
    omega = mk_task(env2, [(2,), (1,)], [(0, 2)])
    assert is_child(alpha, omega) is True
    assert is_child(alpha, alpha) is False
    assert is_child(omega, alpha) is False


def test_is_child_environment_mismatch(env2, env_pair):
    a = mk_task(env2, [(2,)], [(0, 2)])
    b = mk_task(env_pair, [(0,)], [])
    with pytest.raises(EnvironmentMismatch):
        is_child(a, b)


def test_is_child_transitive_irreflexive(env_pair):
    tasks = list(enumerate_tasks(env_pair))
    for a in tasks:
        assert not is_child(a, a)
    for a in tasks:
        for b in tasks:
            if not is_child(a, b):
                continue
            for c in tasks:
                if is_child(b, c):
                    assert is_child(a, c)


def test_hierarchy_level_no_parent_possible(env_pair):
    # inputs of maximal size leave no room for a strictly larger parent
    t = mk_task(env_pair, [(), (0,)], [(1,)])
    assert hierarchy_level(t, task_space(env_pair)) == 0


def test_hierarchy_level_matches_brute_chain_search():
    checked = 0
    for env in all_environments(2, 2):
        for include_empty in (True, False):
            space = task_space(env, include_empty_outputs=include_empty)
            expected = brute_hierarchy_levels(env, include_empty)
            for t in enumerate_tasks(env, include_empty_outputs=include_empty):
                assert hierarchy_level(t, space) == expected[(t.inputs, t.outputs_correct)]
                checked += 1
    assert checked == 594


def test_hierarchy_level_env2(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    space = task_space(env2)
    level = hierarchy_level(t, space)
    assert level >= 1
    assert level == 4
    parent = mk_task(env2, [(2,), (1,)], [(0, 2)])
    assert hierarchy_level(parent, space) + 1 <= level
    # a task of another environment has no level in this space
    other = mk_task(mk_environment(2, [{0}, {1}]), [()], [(0,)])
    with pytest.raises(EnvironmentMismatch):
        hierarchy_level(other, space)


def test_hierarchy_level_closed_form_sweep():
    # each parent step grows the inputs by at least one statement, and a
    # chain that adds one statement at a time is always available
    for env in [mk_environment(2, [{0}, {1}]), mk_environment(2, [{0}, {0, 1}])]:
        n = len(enumerate_language(env))
        space = task_space(env)
        for t in enumerate_tasks(env):
            assert hierarchy_level(t, space) == n - 1 - len(t.inputs)


# --- counting, enumeration, sampling -----------------------------------------------------

def test_count_tasks_env2(env2):
    assert count_tasks(env2) == 2330


def test_single_input_contribution(env2):
    # a one-input task with a three-statement extension admits 2^3 - 1 outputs
    ext = outputs(mk_task(env2, [(2,)], [])).size
    assert ext == 3
    with_i = [t for t in enumerate_tasks(env2) if t.inputs == ((2,),)]
    assert len(with_i) == 7


def test_count_matches_enumeration_sweep():
    checked = 0
    for env in all_environments(3, 3):
        if len(enumerate_language(env)) > 8:
            continue
        got = sum(1 for _ in enumerate_tasks(env))
        assert got == count_tasks(env)
        checked += 1
    assert checked > 50


def test_count_matches_brute_keys(env2, env_pair):
    for env in (env2, env_pair):
        assert count_tasks(env) == len(brute_task_keys(env))
        assert count_tasks(env, include_empty_outputs=False) == len(
            brute_task_keys(env, include_empty_outputs=False)
        )


def test_enumerate_tasks_all_valid(env_pair):
    for t in enumerate_tasks(env_pair):
        again = mk_task(t.env, t.inputs, t.outputs_correct)
        assert again.key() == t.key()
        assert set(t.outputs_correct) < t.extension.as_set() or t.outputs_correct == ()
        assert len(t.outputs_correct) < t.extension.size


def test_enumerate_tasks_deterministic_and_ordered(env2):
    first = next(iter(enumerate_tasks(env2)))
    assert first.encode() == next(iter(enumerate_tasks(env2))).encode()
    # iterating a task space is its stream
    assert list(task_space(env2)) == list(enumerate_tasks(env2))
    sizes = [len(t.inputs) for t in enumerate_tasks(env2)]
    assert sizes == sorted(sizes)


def test_enumerate_tasks_exclude_empty_outputs(env_pair):
    keys = {t.key() for t in enumerate_tasks(env_pair, include_empty_outputs=False)}
    assert all(outs for _, outs in keys)
    full = {t.key() for t in enumerate_tasks(env_pair)}
    assert keys == {k for k in full if k[1]}


def test_task_space_guard(env2):
    with pytest.raises(TaskSpaceTooLarge):
        count_tasks(env2, Guards(max_task_language=4))


def test_hierarchy_level_guard():
    # four programs sharing a state give a 16-statement language with
    # more than 2^20 tasks; the closed form walks none of them, so it
    # needs no guard
    env = mk_environment(3, [{0}, {0, 1}, {0, 2}, {0, 1, 2}])
    space = task_space(env)
    assert space.total_count > (1 << 20)
    t = mk_task(env, [(3,)], [])
    assert hierarchy_level(t, space) == 14


def _env_18():
    env = mk_environment(4, [[0], [1], [2], [3], [0, 1], [2, 3], [0, 2]])
    guards = Guards(max_task_language=18)
    assert len(enumerate_language(env, guards)) == 18
    return env, guards


def test_stream_holds_no_table():
    # the stream ORs each input set's extension masks as it walks them:
    # its first tasks cost neither the memory nor the time of a 2^|L| table
    space = TaskSpace(*_env_18())
    tracemalloc.start()
    try:
        for _ in islice(space.tasks(), 1000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 << 18) // 16
    space = TaskSpace(*_guard_limit_env())
    start = time.perf_counter()
    next(space.tasks())
    assert time.perf_counter() - start < 0.1


def test_stream_past_the_shared_cap_holds_no_table():
    # the first run of _env_18 has all 18 statements in its extension,
    # past the cap on shared output sets: its 2^18 - 1 output sets are
    # drawn one at a time, never held as a tuple
    space = TaskSpace(*_env_18())
    tracemalloc.start()
    try:
        stream = space.tasks()
        first = next(stream)
        streamed = 1
        for last in islice(stream, 4095):
            streamed += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed == 4096 and last.inputs == first.inputs
    assert first.extension.size == 18 > tasks_module._SHARED_OUTPUTS
    assert peak <= (8 << 18) // 16


def test_counting_builds_no_table():
    # a vocabulary guard no other test uses keys a task space and a
    # generalization table of their own
    env, guards = _env_18()
    guards = replace(guards, max_vocabulary=23)
    tracemalloc.start()
    try:
        total = count_tasks(env, guards)
        table = generalization_table(env, guards)
        sample_efficiency(env, weakness_proxy(), simplicity_proxy(), guards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    space = task_space(env, guards)
    assert table.denominator == total == space.total_count
    assert not {"_memo", "_starts", "_columns", "_rows"} & set(vars(space))
    assert peak <= (8 << 18) // 16


def test_counting_and_enumerating_build_no_sampling_tables():
    # a guard value no other test uses keys a task space of its own; the
    # draw begins the count's memo, and the stream keeps nothing on the space
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    guards = Guards(max_task_language=13)
    space = task_space(env, guards)
    assert count_tasks(env, guards) == 2330
    space.sample(0)
    held = set(vars(space))
    assert sum(1 for _ in enumerate_tasks(env, guards)) == 2330
    assert set(vars(space)) == held


def test_sample_index_matches_brute_definition():
    checked = 0
    for env in all_environments(2, 3):
        for include_empty in (True, False):
            space = task_space(env, include_empty_outputs=include_empty)
            statements_of = space.index.statements_of
            for i in range(space.total_count):
                imask, omask = space.sample_index(i)
                got = (statements_of(imask), statements_of(omask))
                assert got == brute_sample_index(env, i, include_empty), (env, include_empty, i)
                checked += 1
    assert checked == 5738


def test_first_draw_builds_no_table():
    # a draw counts its way to the task: it builds neither the union
    # table nor a running count, and keeps only the count's memo
    space = TaskSpace(*_env_18())
    table = 8 << 18
    rng = Random(18)
    tracemalloc.start()
    try:
        space.sample_index(0)
        for _ in range(100):
            space.sample_index(rng.randrange(space.total_count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "cum" not in vars(space)
    assert peak <= table // 16
    # at the guard-limit shape the two tables took about 0.25 s to build;
    # the first draw now takes about a millisecond
    space = TaskSpace(*_guard_limit_env())
    start = time.perf_counter()
    space.sample_index(space.total_count // 2)
    assert time.perf_counter() - start < 0.1


def _disjoint_env(size):
    # size - 1 disjoint programs: each statement holds one of them, plus
    # the empty statement
    return mk_environment(max(size - 1, 1), [{i} for i in range(size - 1)])


def _guard_limit_env():
    # the shape of the benchmark's guard-limit environments: four states,
    # six programs, a 20-statement language
    env = mk_environment(4, [[1], [2], [3], [0, 2], [1, 2], [0, 2, 3]])
    guards = Guards(max_task_language=20)
    assert len(enumerate_language(env, guards)) == 20
    return env, guards


@pytest.mark.parametrize("include_empty", [True, False])
def test_count_matches_table_sum(include_empty):
    # the pivot count against the weighted sum over the union table
    cases = [(env, Guards()) for env in all_environments(3, 3)]
    cases += [_guard_limit_env(), (_disjoint_env(20), Guards(max_task_language=20))]
    for env, guards in cases:
        space = TaskSpace(env, guards, include_empty)
        assert space.total_count == sum(table_task_counts(space)), env
        cum = table_running_count(space)
        assert (cum[-1] if cum else 0) == space.total_count
    assert len(cases) == 114


@pytest.mark.parametrize("include_empty", [True, False])
def test_count_of_disjoint_programs_takes_no_antichain_walk(include_empty):
    # 19 disjoint programs: the empty statement below 19 pairwise
    # incomparable ones, so 2^19 antichains, but a linear count.  An input
    # set holding the empty statement covers the language; any other
    # covers just itself.
    env, guards = _disjoint_env(20), Guards(max_task_language=20)
    m = 0 if include_empty else 1
    start = time.perf_counter()
    total = TaskSpace(env, guards, include_empty).total_count
    elapsed = time.perf_counter() - start
    assert total == ((1 << 19) - 1) * ((1 << 20) - 1 - m) + 3**19 - 1 - (1 + m) * ((1 << 19) - 1)
    assert elapsed < 0.25


@pytest.mark.parametrize("include_empty", [True, False])
def test_count_matches_antichain_walk_past_the_table(include_empty):
    # |L| = 38: no 2^|L| table could be built (2 TiB), and none is
    env = full_powerset_vocabulary(3)
    space = TaskSpace(env, Guards(max_task_language=38), include_empty)
    assert len(space.language) == 38
    assert space.total_count == brute_antichain_count(env, include_empty)


def _union_of(space, imask):
    # the union of the extensions of an input set, by its definition
    union = 0
    for i, e in enumerate(space.ext_masks):
        if imask >> i & 1:
            union |= e
    return union


def test_unrank_matches_canonical_order():
    for size in range(1, 15):
        space = TaskSpace(_disjoint_env(size))
        assert len(space.language) == size
        order = list(input_masks(space))
        assert len(order) == max((1 << size) - 2, 0)
        assert [table_unrank(space, pos) for pos in range(len(order))] == order, size


@pytest.mark.parametrize("include_empty", [True, False])
def test_running_count_matches_canonical_walk(include_empty):
    space = TaskSpace(*_env_18(), include_empty_outputs=include_empty)
    weights = (table_weight(space, _union_of(space, m).bit_count()) for m in input_masks(space))
    cum = table_running_count(space)
    assert list(cum) == list(accumulate(weights))
    assert cum[-1] == space.total_count


def _class_boundaries(space):
    """The first and last index of every size class that holds a task,
    read off the table sampler's running count."""
    cum = table_running_count(space)
    n = len(space.language)
    out = []
    start = 0
    for k in range(1, n):
        end = start + comb(n, k)
        first = cum[start - 1] if start else 0
        if cum[end - 1] > first:
            out += [first, cum[end - 1] - 1]
        start = end
    return out


@pytest.mark.parametrize("include_empty", [True, False])
def test_draws_match_the_running_count_oracle(include_empty):
    # the counting decoder against the table sampler it replaced: every
    # size-class boundary, 2,000 seeded indices on each |L| >= 18 space,
    # and a stride over every environment of up to three programs on
    # three states
    def check(space, indices):
        for i in indices:
            expected = table_decode(space, i)
            assert space._decode(i) == expected, (space.env, i)
            assert space.sample_index(i) == expected[::2]

    large = [_env_18(), _guard_limit_env(), (_disjoint_env(20), Guards(max_task_language=20))]
    for env, guards in large:
        space = TaskSpace(env, guards, include_empty)
        rng = Random(len(space.language))
        check(space, _class_boundaries(space))
        check(space, [rng.randrange(space.total_count) for _ in range(2000)])
    checked = 0
    for env in all_environments(3, 3):
        space = TaskSpace(env, Guards(), include_empty)
        check(space, _class_boundaries(space))
        check(space, range(0, space.total_count, 11))
        checked += 1
    assert checked == 112


@pytest.mark.parametrize("include_empty", [True, False])
def test_walk_matches_the_running_count_oracle(include_empty):
    # the estimator reads the walk alone: its union and output mask
    # against the table sampler at every size-class boundary and on
    # 2,000 seeded indices of each |L| >= 18 space
    large = [_env_18(), _guard_limit_env(), (_disjoint_env(20), Guards(max_task_language=20))]
    for env, guards in large:
        space = TaskSpace(env, guards, include_empty)
        rng = Random(len(space.language))
        indices = _class_boundaries(space) + [rng.randrange(space.total_count) for _ in range(2000)]
        for i in indices:
            assert space._walk(i)[:2] == table_decode(space, i)[1:], (env, i)


def _lex_rank(members, m):
    """The rank of a sorted k-subset of range(m) among the k-subsets in
    lexicographic order: for each member, the subsets that agree before
    it and hold a smaller member in its place."""
    k, rank, low = len(members), 0, 0
    for t, x in enumerate(members):
        rank += sum(comb(m - 1 - j, k - 1 - t) for j in range(low, x))
        low = x + 1
    return rank


def test_unrank_matches_combinations():
    # every rank of every k for m <= 12, and the first, middle and last
    # ranks of every k for m = 19 and m = 37
    columns = tasks_module._binomials(38)

    def unrank(m, k, rank):
        mask = tasks_module._unrank(columns, m, k, rank)
        return tuple(j for j in range(m) if mask >> j & 1)

    for m in range(13):
        for k in range(m + 1):
            got = [unrank(m, k, rank) for rank in range(comb(m, k))]
            assert got == list(combinations(range(m), k)), (m, k)
            assert [_lex_rank(c, m) for c in got] == list(range(comb(m, k)))
    for k in range(20):
        total = comb(19, k)
        expected = list(combinations(range(19), k))
        for rank in (0, total // 2, total - 1):
            assert unrank(19, k, rank) == expected[rank], (k, rank)
    for k in range(38):
        total = comb(37, k)
        assert unrank(37, k, 0) == next(combinations(range(37), k))
        assert unrank(37, k, total - 1) == tuple(sorted(next(combinations(range(36, -1, -1), k))))
        middle = unrank(37, k, total // 2)
        assert len(middle) == k and _lex_rank(middle, 37) == total // 2, k


@pytest.mark.parametrize("include_empty", [True, False])
def test_a_draw_stops_once_its_union_is_final(monkeypatch, include_empty):
    # position 0 is the empty statement, whose extension is all of L: an
    # input set that holds it has its final union after the first row,
    # so a cold space reads that one row's count and unranks the rest
    env, guards = _guard_limit_env()
    calls = []
    fields = tasks_module._fields
    monkeypatch.setattr(tasks_module, "_fields", lambda *args: calls.append(args) or fields(*args))
    space = TaskSpace(env, guards, include_empty)
    starts = space._starts
    indices = [starts[k] for k in range(1, len(starts) - 1)]  # the input sets {0, 1, .., k}
    indices += [space.total_count // 2, starts[10] + (starts[11] - starts[10]) // 3]
    for i in indices:
        cold = TaskSpace(env, guards, include_empty)
        calls.clear()
        imask, _, _ = cold._decode(i)
        assert imask & 1 and imask.bit_count() > 1, i
        assert len(calls) == 1, (i, len(calls))
        assert (imask, *cold._walk(i)[:2]) == table_decode(space, i)


@pytest.mark.parametrize("include_empty", [True, False])
def test_draws_past_the_table(include_empty):
    # |L| = 38: a table sampler would need 2 TiB; the counting decoder
    # draws valid tasks, in canonical order, with no table at all
    env = full_powerset_vocabulary(3)
    guards = Guards(max_task_language=38)
    space = TaskSpace(env, guards, include_empty)
    n = len(space.language)
    for task in space.sample_many(38, 50):
        again = mk_task(env, task.inputs, task.outputs_correct, guards)
        assert again == task and again.extension.members == task.extension.members
        assert task.outputs_correct or include_empty
    # the first task: the first statement alone, with the first output set
    first = space.ext_masks[0]
    assert space.sample_index(0) == (1, 0 if include_empty else first & -first)
    # the last: every statement but the first, with every member of the
    # extension but its lowest
    last = (1 << n) - 2
    union = _union_of(space, last)
    assert space.sample_index(space.total_count - 1) == (last, union ^ (union & -union))
    # sorted indices decode in canonical order: size, positions, then
    # the output set's ordinal among the extension's members
    rng = Random(n)
    keys = []
    for i in sorted({rng.randrange(space.total_count) for _ in range(200)}):
        imask, union, omask = space._decode(i)
        assert union == _union_of(space, imask)
        positions = [j for j in range(n) if imask >> j & 1]
        members = [j for j in range(n) if union >> j & 1]
        ordinal = sum(1 << bit for bit, j in enumerate(members) if omask >> j & 1)
        keys.append((len(positions), positions, ordinal))
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("include_empty", [True, False])
def test_warm_draw_reenters_no_pivot_count(monkeypatch, include_empty):
    # each step of a draw reads its position's row: once 200 seeded draws
    # have filled the rows, decoding them again never calls the count
    cases = [_guard_limit_env(), _env_18(), (_disjoint_env(20), Guards(max_task_language=20))]
    for env, guards in cases:
        space = TaskSpace(env, guards, include_empty)
        rng = Random(200)
        indices = [rng.randrange(space.total_count) for _ in range(200)]
        first = list(map(space._decode, indices))
        calls = []
        count = tasks_module._union_power_sum
        monkeypatch.setattr(tasks_module, "_union_power_sum", lambda *args: calls.append(args) or count(*args))
        assert list(map(space._decode, indices)) == first
        assert calls == [], env
        # a cold space does call it, so the count above is live
        TaskSpace(env, guards, include_empty)._decode(indices[0])
        assert calls, env
        monkeypatch.undo()


@pytest.mark.parametrize("include_empty", [True, False])
def test_estimates_match_the_per_draw_oracle_at_the_guard_limit(include_empty):
    # the hits counted per union against testing every draw against
    # every statement, for every statement over 1,000 draws: all 20 at
    # the guard-limit shape, where nearly every draw's union is the whole
    # language and hits are rare, and all 6 of a small space
    cases = [_guard_limit_env(), (mk_environment(2, [{0}, {1}, {0, 1}]), Guards())]
    for env, guards in cases:
        space = TaskSpace(env, guards, include_empty)
        statements = enumerate_language(env, guards)
        for seed in (1, 7):
            got = estimate_generalization_probabilities(env, statements, 1000, seed, guards, include_empty)
            hits = per_draw_estimates(space, space.ext_masks, 1000, seed)
            assert [(e.statement, e.successes, e.samples, e.seed) for e in got] == [
                (x, h, 1000, seed) for x, h in zip(statements, hits)
            ], (env, seed)
    assert any(hits) and not all(hits)


def test_unions_match_their_definition():
    # the oracle's union table against the OR of each input set's extensions
    spaces = [task_space(env) for env in all_environments(3, 3)]
    spaces += [TaskSpace(_disjoint_env(size)) for size in range(1, 15)]
    for space in spaces:
        unions = table_unions(space)
        assert len(unions) == max((1 << len(space.language)) - 2, 0)
        reference = [_union_of(space, m) for m in input_masks(space)]
        assert list(unions) == reference, space.env


_compared = itemgetter(0, 1, 2)  # env, inputs, outputs_correct
_members = attrgetter("extension.members")


def _compare_streams(env, got, want, include_empty):
    """Check ``got`` against ``want``, task by task, for as long as ``got``
    runs; return how many tasks it streamed."""
    streamed = 0
    previous = None
    # compared a chunk at a time, with C iterators, since the
    # streams run to millions of tasks
    while chunk := list(islice(got, 1 << 12)):
        expected = list(islice(want, len(chunk)))
        assert set(map(type, chunk)) == {Task}, env
        assert list(map(_compared, chunk)) == list(map(_compared, expected)), env
        assert list(map(_members, chunk)) == list(map(_members, expected)), env
        # every input set admits a task when empty outputs count,
        # so consecutive tasks come from one or consecutive input
        # sets, and a new extension object means a new union
        exts = [previous, *map(itemgetter(3), chunk)]
        if include_empty:
            for before, after in compress(zip(exts, exts[1:]), map(is_not, exts, exts[1:])):
                assert before is None or before.members != after.members, env
        previous = exts[-1]
        streamed += len(chunk)
    return streamed


@pytest.mark.parametrize("include_empty", [True, False])
def test_stream_matches_the_mask_stream(include_empty):
    envs = list(all_environments(3, 3)) + [_disjoint_env(size) for size in range(1, 11)]
    gc.disable()  # the chunks below hold thousands of young tuples
    try:
        for env in envs:
            space = TaskSpace(env, include_empty_outputs=include_empty)
            got, want = space.tasks(), mask_stream(space)
            streamed = _compare_streams(env, got, want, include_empty)
            assert next(want, None) is None, env
            assert streamed == space.total_count, env
        # the first 100,000 tasks of an 11-statement language: each input
        # set holding the empty statement has the whole language for its
        # extension, past the cap on shared output sets (a run of ten
        # such pairs among them), and the other sets' extensions are small
        env = _disjoint_env(11)
        space = TaskSpace(env, include_empty_outputs=include_empty)
        assert len(space.language) > tasks_module._SHARED_OUTPUTS
        got = islice(space.tasks(), 100_000)
        assert _compare_streams(env, got, mask_stream(space), include_empty) == 100_000
    finally:
        gc.enable()


@pytest.mark.parametrize("index", [-1, -2330, 2330, 2331, 1 << 70])
def test_sample_index_out_of_range(env2, index):
    space = task_space(env2)
    assert space.total_count == 2330
    with pytest.raises(IndexOutOfRange):
        space.sample_index(index)


@pytest.mark.parametrize("index", [True, 1.0, "1"])
def test_sample_index_refuses_an_index_that_is_no_int(env2, index):
    # True equals 1 and 1.0 equals 1, but neither names a task
    with pytest.raises(IndexOutOfRange):
        task_space(env2).sample_index(index)


# env2's language is ((), (0,), (1,), (2,), (0, 2), (1, 2)); the input
# mask 0b10 is the statement (0,), whose extension is 0b10010, and 0b1
# the empty statement, whose extension is the whole language.  True
# equals 1 and 1.0 equals 1, but neither names a set
@pytest.mark.parametrize("imask, omask, error", [
    (0, 0, EmptyInputs),
    (0b111111, 0, InputsNotStrictSubset),
    (0b1000000, 0, InputsNotStrictSubset),
    (-1, 0, InputsNotStrictSubset),
    (0b10, 0b1, OutputsNotInExtension),
    (0b10, 0b10011, OutputsNotInExtension),
    (0b10, -1, OutputsNotInExtension),
    (0b10, 0b10010, OutputsNotStrict),
    (True, 0, InputsNotStrictSubset),
    (1.0, 0, InputsNotStrictSubset),
    ("1", 0, InputsNotStrictSubset),
    (0b1, True, OutputsNotInExtension),
    (0b1, 1.0, OutputsNotInExtension),
    (0b1, "1", OutputsNotInExtension),
])
def test_task_from_masks_checks_the_masks(env2, imask, omask, error):
    with pytest.raises(error):
        task_space(env2).task_from_masks(imask, omask)


@pytest.mark.parametrize("count", [-1, 2.5, True, "1", None])
def test_sample_many_refuses_a_bad_count_before_any_draw(env2, count):
    space = task_space(env2)
    with pytest.raises(InvalidSampleCount):
        space.sample_many(0, count)  # on the call, not on the first draw
    assert list(space.sample_many(0, 0)) == []
    drawn = list(space.sample_many(0, 3))
    assert len(drawn) == 3 and drawn[0] == space.sample(0)


def test_sample_task_deterministic(env2):
    assert sample_task(env2, 99).key() == sample_task(env2, 99).key()
    keys = {sample_task(env2, seed).key() for seed in range(40)}
    assert len(keys) > 30  # distinct seeds almost always hit distinct tasks


def test_sample_task_empty_space():
    env = mk_environment(1, [])
    with pytest.raises(EmptyTaskSpace):
        sample_task(env, 0)


def test_sampler_covers_space_uniformly(env_pair):
    # 26 tasks; with 26000 draws each count should sit within six
    # binomial standard deviations of the mean
    total = count_tasks(env_pair)
    assert total == 26
    draws = 1000 * total
    space = task_space(env_pair)
    counts: dict = {}
    for t in space.sample_many(7, draws):
        counts[t.key()] = counts.get(t.key(), 0) + 1
    assert len(counts) == total
    p = 1.0 / total
    sigma = (draws * p * (1 - p)) ** 0.5
    for key, c in counts.items():
        assert abs(c - draws * p) <= 6 * sigma, (key, c)


def test_sampler_input_marginal(env2):
    # the probability of drawing an input set is proportional to the
    # number of output sets it admits
    space = task_space(env2)
    total = space.total_count
    draws = 60000
    weight: dict = {}
    for t in enumerate_tasks(env2):
        weight[t.inputs] = weight.get(t.inputs, 0) + 1
    counts: dict = {}
    for t in space.sample_many(11, draws):
        counts[t.inputs] = counts.get(t.inputs, 0) + 1
    for inputs, w in weight.items():
        p = w / total
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(counts.get(inputs, 0) - draws * p) <= 6 * sigma


# --- serialisation -------------------------------------------------------------------------

def test_task_roundtrip(tmp_path, env2):
    t = mk_task(env2, [(2,), (1,)], [(0, 2)])
    doc = task_to_dict(t)
    again = load_task(doc)
    assert again.key() == t.key()
    assert again.env == env2


def test_load_task_revalidates(env2, tmp_path):
    doc = {"inputs": [[2]], "outputs": [[2], [0, 2], [1, 2]]}
    with pytest.raises(OutputsNotStrict):
        load_task(doc, env2)
    # a task file is read, then validated the same way
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(OutputsNotStrict):
        load_task(path, env2)
    task = mk_task(env2, [(2,)], [(0, 2)])
    path.write_text(json.dumps(task_to_dict(task)))
    assert load_task(str(path)) == task
    assert load_task(path, env2) == task
    # a document that names its environment is read in it: another given
    # environment, where its indices name other programs, is refused
    env3 = mk_environment(3, [{0}, {1}, {0, 1}])
    for source in (task_to_dict(task), path, str(path)):
        with pytest.raises(EnvironmentMismatch):
            load_task(source, env3)
    # a document without one is read in the given environment
    assert load_task(task_to_dict(task, inline_env=False), env2) == task


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"inputs": [[0]]}, "'outputs'"),
        ({"outputs": [[0]]}, "'inputs'"),
        ({}, "'inputs' or 'outputs'"),
    ],
)
def test_load_task_names_a_missing_key(env2, doc, named):
    with pytest.raises(ParseError, match=named):
        load_task(doc, env2)


def test_load_task_needs_an_environment_and_an_object(env2):
    with pytest.raises(ParseError, match="'env'"):
        load_task({"inputs": [[2]], "outputs": []})
    with pytest.raises(ParseError, match="JSON object"):
        load_task([[2]], env2)
