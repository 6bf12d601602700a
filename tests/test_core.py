from __future__ import annotations

import functools
import importlib
import json
import operator
import pickle
import pkgutil
import warnings

import pytest

import weakform
from weakform import (
    ExtensionSet,
    Guards,
    VocabularyReorderedWarning,
    enumerate_language,
    env_hash,
    environment_to_dict,
    equivalent,
    extension,
    extension_of_set,
    extension_size,
    full_powerset_vocabulary,
    is_completion,
    is_statement,
    language_size,
    load_environment,
    mk_environment,
    save_environment,
    truth_set,
    weakness_cmp,
)
from weakform.bounds import compare_vocabularies, instantiate, mk_uninstantiated, verify_upper_bound
from weakform.core import LanguageIndex, Program, canon_statement
from weakform.errors import (
    DuplicateProgram,
    IndexOutOfRange,
    InvalidVocabulary,
    NotAStatement,
    ParseError,
    StateOutOfRange,
    TruthSetTooLarge,
    VocabularyTooLarge,
)
from weakform.learning import (
    estimate_generalization_probabilities,
    random_proxy,
    simplicity_cmp,
    simplicity_proxy,
    table_proxy,
    weakness_proxy,
)
from weakform.tasks import infer, is_correct_policy, load_task, mk_task

from helpers import (
    all_environments,
    brute_below,
    brute_extension,
    brute_ie_extension_size,
    brute_language,
    brute_truth_set,
)


# --- construction ------------------------------------------------------------

def test_mk_environment_env2(env2):
    assert env2.state_count == 2
    assert env2.program_sets() == ((0,), (1,), (0, 1))
    # a program holds exactly its states; one outside the state range is in none
    assert [[s in p for s in (-1, 0, 1, 2)] for p in env2.programs] == [
        [False, True, False, False],
        [False, False, True, False],
        [False, True, True, False],
    ]


def test_mk_environment_duplicate():
    with pytest.raises(DuplicateProgram):
        mk_environment(2, [{0}, {0}])


def test_mk_environment_empty_program_admitted():
    env = mk_environment(1, [{0}, set()])
    assert env.program_sets() == ((), (0,))


def test_mk_environment_rejects_bad_states():
    with pytest.raises(StateOutOfRange):
        mk_environment(2, [{0, 2}])
    with pytest.raises(StateOutOfRange):
        mk_environment(0, [])


def test_state_count_rejects_bool():
    with pytest.raises(StateOutOfRange, match="got True"):
        mk_environment(True, [[0]])
    with pytest.raises(StateOutOfRange, match="got True"):
        full_powerset_vocabulary(True)


def test_canonical_order_is_cardinality_then_lex():
    env = mk_environment(4, [{1, 2}, {0, 3}, {3}, {0}])
    assert env.program_sets() == ((0,), (3,), (0, 3), (1, 2))


# --- truth sets and statement checks -------------------------------------------

def test_truth_set_examples(env2):
    assert truth_set(env2, [0, 2]) == {0}
    assert truth_set(env2, []) == {0, 1}
    assert truth_set(env2, [0, 1]) == set()


def test_truth_set_index_error(env2):
    with pytest.raises(IndexOutOfRange):
        truth_set(env2, [3])
    # the first bad index in the caller's order is named, even where the
    # indices do not sort, and a one-shot iterable is read once
    for call, bad in (
        (lambda: truth_set(env2, ["a", 0]), "'a'"),
        (lambda: truth_set(env2, ["a"]), "'a'"),
        (lambda: truth_set(env2, [0, 5, "a"]), "5"),
        (lambda: is_statement(env2, [None, 0]), "None"),
        (lambda: is_statement(env2, iter([0, 2, 9])), "9"),
        (lambda: weakness_cmp(env2, ("a", 0), (1,)), "'a'"),
    ):
        with pytest.raises(IndexOutOfRange, match=f"index {bad} outside"):
            call()
    assert truth_set(env2, iter([2, 0, 2])) == truth_set(env2, [0, 2])


def test_is_statement_examples(env2):
    assert is_statement(env2, [0, 2]) is True
    assert is_statement(env2, [0, 1]) is False
    assert is_statement(env2, []) is True


# --- language enumeration -------------------------------------------------------

def test_enumerate_language_env2(env2):
    assert enumerate_language(env2) == ((), (0,), (1,), (2,), (0, 2), (1, 2))


def test_enumerate_language_pair(env_pair):
    assert enumerate_language(env_pair) == ((), (0,), (1,))


def test_enumerate_language_empty_vocabulary():
    env = mk_environment(1, [])
    assert enumerate_language(env) == ((),)


def test_enumerate_language_guard(env2):
    with pytest.raises(VocabularyTooLarge):
        enumerate_language(env2, Guards(max_vocabulary=2))


def test_extension_guard():
    # |v| = 25 exceeds the default guard: the language index refuses to
    # build instead of enumerating the language
    env = mk_environment(25, [[s] for s in range(25)])
    with pytest.raises(VocabularyTooLarge):
        extension(env, (0,))
    with pytest.raises(VocabularyTooLarge):
        extension_of_set(env, [(0,)])
    with pytest.raises(VocabularyTooLarge):
        equivalent(env, (0,), (1,))


def test_enumerate_language_matches_brute_sweep():
    for env in all_environments(3, 3):
        assert enumerate_language(env) == tuple(brute_language(env))


def test_enumerate_language_deterministic(env2):
    a = repr(enumerate_language(env2))
    b = repr(enumerate_language(mk_environment(2, [{0}, {1}, {0, 1}])))
    assert a == b


# --- completions and extensions ---------------------------------------------------

def test_is_completion():
    assert is_completion((0, 2), (2,)) is True
    assert is_completion((2,), (0, 2)) is False
    assert is_completion((0, 2), (0, 2)) is True


def test_extension_examples(env2):
    assert extension(env2, [2]).as_set() == {(2,), (0, 2), (1, 2)}
    assert extension(env2, [0, 2]).as_set() == {(0, 2)}
    assert extension(env2, []).as_set() == set(enumerate_language(env2))


def test_extension_rejects_non_statement(env2):
    with pytest.raises(NotAStatement):
        extension(env2, [0, 1])


def test_extension_size_examples(env2):
    assert extension_size(env2, [2]) == 3
    assert extension_size(env2, [0]) == 2
    assert extension_size(env2, []) == 6


def test_extension_size_guard(env2):
    with pytest.raises(TruthSetTooLarge):
        extension_size(env2, [], Guards(max_truth_set=1))


def test_extension_set_canonicalises_its_members(env2):
    members = enumerate_language(env2)
    got = ExtensionSet(list(reversed(members)) + [members[0]])
    assert got.members == members
    assert got == ExtensionSet(members)
    assert extension_of_set(env2, [()]).members == members


def test_extension_of_set_examples(env2):
    got = extension_of_set(env2, [(2,), (1,)])
    assert got.as_set() == {(2,), (0, 2), (1, 2), (1,)}
    assert got.size == 4
    assert extension_of_set(env2, []).as_set() == set()
    assert extension_of_set(env2, [()]).as_set() == set(enumerate_language(env2))


def test_equivalent(env2):
    assert equivalent(env2, (0,), (0,)) is True
    assert equivalent(env2, (0,), (0, 2)) is False
    assert equivalent(env2, (1,), (2,)) is False


# --- cross-checked sweeps ----------------------------------------------------------

def test_extension_matches_brute_sweep():
    for env in all_environments(3, 3):
        for x in brute_language(env):
            assert extension(env, x).as_set() == brute_extension(env, x)


def test_extension_size_matches_enumeration_sweep():
    # the inclusion-exclusion path against the enumeration path
    for env in all_environments(3, 3):
        for x in enumerate_language(env):
            assert extension_size(env, x) == len(extension(env, x))


def test_extension_size_matches_the_truth_set_walk():
    # the walk over maximal containing masks against the walk over every
    # subset of the truth set
    checked = 0
    for env in all_environments(4, 4):
        for x in enumerate_language(env):
            assert extension_size(env, x) == brute_ie_extension_size(env, x)
            checked += 1
    assert checked == 23781


def test_extension_sizes_refuse_a_wide_truth_set_as_extension_size_does():
    # the popcount path names the first listed statement over the guard
    # with the message of the inclusion-exclusion path
    env = mk_environment(3, [{0, 1}, {1, 2}, {0, 2}])
    index = LanguageIndex.of(env)
    guards = Guards(max_truth_set=1)
    for listed, wide in ((((0, 1), (0,), ()), (0,)), (((), (0,)), ())):
        with pytest.raises(TruthSetTooLarge) as popcount:
            index.extension_sizes(listed, guards)
        with pytest.raises(TruthSetTooLarge) as walk:
            extension_size(env, wide, guards)
        assert str(popcount.value) == str(walk.value)
    narrow = [(0, 1), (1, 2), (0, 2)]
    assert index.extension_sizes(narrow, guards) == [extension_size(env, x, guards) for x in narrow]


def test_extension_size_of_a_large_truth_set():
    # 26 states: the empty statement and program 2 are true in all of
    # them, yet only two distinct containing masks are maximal, so the
    # inclusion-exclusion has three terms, not 2^26
    env = mk_environment(26, [[0], [1], list(range(26))])
    guards = Guards(max_truth_set=30)
    index = LanguageIndex.of(env)
    for x in enumerate_language(env):
        assert extension_size(env, x, guards) == index.extension_mask(x).bit_count()


def test_below_matches_brute_down_sets():
    for env in all_environments(3, 3):
        index = LanguageIndex.of(env)
        nv = env.vocabulary_size
        for programs in range(1 << nv):
            members = [j for j in range(nv) if programs >> j & 1]
            assert list(index.statements_of(index.below(programs))) == brute_below(env, members)
        # each statement's extension, and its incompatible statements:
        # those outside the OR of the per-state rows over its truth set
        for x, e, d in zip(index.statements, index.ext_masks, _incompatible(index)):
            ext = brute_extension(env, x)
            assert set(index.statements_of(e)) == ext
            assert set(index.statements_of(d)) == {
                y for y in brute_language(env) if not ext & brute_extension(env, y)
            }
    # the sets read off the truth sets are the pairwise definition's
    index = LanguageIndex(full_powerset_vocabulary(4))
    ext = index.ext_masks
    assert _incompatible(index) == [
        sum(1 << i for i, f in enumerate(ext) if not f & e) for e in ext
    ]


def _incompatible(index):
    """Each statement's incompatible statements, as ``tasks._policy_count``
    reads them: those true at no state of its truth set."""
    full = (1 << len(index.statements)) - 1
    rows = index.true_at
    return [
        full & ~functools.reduce(operator.or_, (r for s, r in enumerate(rows) if t >> s & 1), 0)
        for t in index.truth_masks
    ]


def test_language_size_matches_enumeration():
    for env in all_environments(3, 3):
        assert language_size(env) == len(enumerate_language(env))


def test_truth_sets_match_brute(env2):
    for x in enumerate_language(env2):
        assert truth_set(env2, x) == brute_truth_set(env2, x)


# --- order-theoretic invariants ------------------------------------------------------

def test_antitonicity():
    for env in all_environments(2, 3):
        lang = enumerate_language(env)
        for x in lang:
            ex = extension(env, x).as_set()
            for y in ex:
                # x <= y, so the extension of y nests inside that of x
                ey = extension(env, y).as_set()
                assert ey <= ex
                assert len(ey) <= len(ex)


def test_self_membership():
    for env in all_environments(2, 3):
        for x in enumerate_language(env):
            assert x in extension(env, x)


def test_truth_set_monotone_along_completion(env2):
    for x in enumerate_language(env2):
        tx = truth_set(env2, x)
        for y in extension(env2, x):
            assert truth_set(env2, y) <= tx


def test_extension_members_are_statements():
    for env in all_environments(2, 3):
        for x in enumerate_language(env):
            for y in extension(env, x):
                assert is_statement(env, y)


# --- serialisation ---------------------------------------------------------------------

def test_environment_roundtrip(tmp_path, env2):
    path = tmp_path / "env.json"
    save_environment(env2, path)
    loaded = load_environment(path)
    assert loaded == env2
    assert env_hash(loaded) == env_hash(env2)


def test_environment_hash_is_computed_once(monkeypatch):
    a = mk_environment(3, [[0], [1, 2], [0, 1]])
    b = mk_environment(3, [[1, 2], [0, 1], [0]])
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.state_count, a.programs))  # the dataclass field hash
    assert a != mk_environment(3, [[0], [1, 2]])
    calls = []
    program_hash = Program.__hash__
    monkeypatch.setattr(Program, "__hash__", lambda p: calls.append(p) or program_hash(p))
    c = mk_environment(3, [[0], [1, 2], [0, 1]])
    for _ in range(3):
        assert hash(c) == hash(a)
    assert len(calls) == len(c.programs)


def test_environment_hash_survives_pickle():
    a = mk_environment(3, [[0], [1, 2], [0, 1]])
    unhashed = mk_environment(3, [[0], [1, 2], [0, 1]])
    hash(a)
    for env in (a, unhashed):
        copy = pickle.loads(pickle.dumps(env))
        assert copy == a and hash(copy) == hash(a)
        assert {a: 1}[copy] == 1


def test_load_warns_on_reorder(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"states": 2, "vocabulary": [[0, 1], [0], [1]]}))
    with pytest.warns(VocabularyReorderedWarning):
        env = load_environment(path)
    assert env.program_sets() == ((0,), (1,), (0, 1))
    # a repeated state reorders nothing
    path.write_text(json.dumps({"states": 2, "vocabulary": [[0, 0], [1], [0, 1]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_environment(path) == env


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"states": 2}, "'vocabulary'"),
        ({"vocabulary": [[0]]}, "'states'"),
        ({}, "'states' or 'vocabulary'"),
    ],
)
def test_load_environment_names_a_missing_key(doc, named):
    with pytest.raises(ParseError, match=named):
        load_environment(doc)
    with pytest.raises(ParseError, match=named):
        load_task({"env": doc, "inputs": [[0]], "outputs": []})


#: file contents that hold no JSON document: malformed, not UTF-8, and
#: nested deeper than the JSON reader can follow
UNREADABLE_DOCUMENTS = [b"{bad", b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000]


def test_load_environment_needs_an_object(tmp_path):
    with pytest.raises(ParseError, match="JSON object"):
        load_environment([2, [[0]]])
    # a file that holds no JSON document is a parse error, for an
    # environment and for a task alike; a missing file stays an OSError
    path = tmp_path / "doc.json"
    for data in UNREADABLE_DOCUMENTS:
        path.write_bytes(data)
        with pytest.raises(ParseError, match="cannot read environment file"):
            load_environment(path)
        with pytest.raises(ParseError, match="cannot read task file"):
            load_task(str(path))
    with pytest.raises(FileNotFoundError):
        load_environment(tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError):
        load_task(tmp_path / "missing.json")


#: library calls given a Python value that is no iterable where a
#: statement, a statement set, a program or a candidate belongs: each
#: raises the error its reader raises for a bad member, and a sweep
#: records the candidate's row, as ``[(vocabulary, error)]``; an
#: ``(error, message)`` pair is a value of the wrong shape
MALFORMED_CALLS = {
    "canon_statement": (lambda env, task, rho: canon_statement(env, 5), IndexOutOfRange),
    "truth_set": (lambda env, task, rho: truth_set(env, 5), IndexOutOfRange),
    "is_statement": (lambda env, task, rho: is_statement(env, 5), IndexOutOfRange),
    "extension": (lambda env, task, rho: extension(env, 5), IndexOutOfRange),
    "extension_size": (lambda env, task, rho: extension_size(env, 5), IndexOutOfRange),
    "is_correct_policy": (lambda env, task, rho: is_correct_policy(task, 5), IndexOutOfRange),
    "infer-policy": (lambda env, task, rho: infer(task, 5, (2,), 0), IndexOutOfRange),
    "infer-input": (lambda env, task, rho: infer(task, (), 5, 0), IndexOutOfRange),
    "Proxy.holds": (lambda env, task, rho: weakness_proxy().holds(env, 5, ()), IndexOutOfRange),
    "weakness_cmp": (lambda env, task, rho: weakness_cmp(env, (), 5), IndexOutOfRange),
    "simplicity_cmp": (lambda env, task, rho: simplicity_cmp(5, ()), IndexOutOfRange),
    "is_completion": (lambda env, task, rho: is_completion(5, ()), IndexOutOfRange),
    "table_proxy-pairs": (lambda env, task, rho: table_proxy("t", 5), IndexOutOfRange),
    "table_proxy-pair": (lambda env, task, rho: table_proxy("t", [5]), IndexOutOfRange),
    "table_proxy-side": (lambda env, task, rho: table_proxy("t", [(5, ())]), IndexOutOfRange),
    # a pair of other than two sides, and a side of other than ints
    "table_proxy-three-sides": (
        lambda env, task, rho: table_proxy("t", [((0,), (1,), (2,))]),
        (IndexOutOfRange, r"\(\(0,\), \(1,\), \(2,\)\) is not two sides"),
    ),
    "table_proxy-one-side": (
        lambda env, task, rho: table_proxy("t", [((0,),)]),
        (IndexOutOfRange, r"\(\(0,\),\) is not two sides"),
    ),
    "table_proxy-index": (
        lambda env, task, rho: table_proxy("t", [(("a", 1), ())]),
        (IndexOutOfRange, "index 'a' is no int"),
    ),
    # every proxy's rows and the index's sizes read a statement list as
    # ``require_statement`` reads each member
    "weakness-rows": (lambda env, task, rho: weakness_proxy().rows(env, 5), IndexOutOfRange),
    "simplicity-rows": (lambda env, task, rho: simplicity_proxy().rows(env, 5), IndexOutOfRange),
    "random-rows": (lambda env, task, rho: random_proxy(0).rows(env, 5), IndexOutOfRange),
    "table-rows": (lambda env, task, rho: table_proxy("t", []).rows(env, 5), IndexOutOfRange),
    "simplicity-row": (lambda env, task, rho: simplicity_proxy().rows(env, [5]), IndexOutOfRange),
    "random-row": (lambda env, task, rho: random_proxy(0).rows(env, [5]), IndexOutOfRange),
    "table-row": (lambda env, task, rho: table_proxy("t", []).rows(env, [5]), IndexOutOfRange),
    "extension_sizes": (
        lambda env, task, rho: LanguageIndex.of(env).extension_sizes(5), IndexOutOfRange
    ),
    "mk_task-inputs": (lambda env, task, rho: mk_task(env, 5, []), IndexOutOfRange),
    "mk_task-input": (lambda env, task, rho: mk_task(env, [5], []), IndexOutOfRange),
    "mk_task-outputs": (lambda env, task, rho: mk_task(env, [(2,)], 5), IndexOutOfRange),
    "extension_of_set": (lambda env, task, rho: extension_of_set(env, 5), IndexOutOfRange),
    "estimates": (
        lambda env, task, rho: estimate_generalization_probabilities(env, 5, 10, 0),
        IndexOutOfRange,
    ),
    "mk_environment": (lambda env, task, rho: mk_environment(2, 5), StateOutOfRange),
    "mk_environment-program": (lambda env, task, rho: mk_environment(2, [5]), StateOutOfRange),
    "instantiate-program": (lambda env, task, rho: instantiate(rho, [5]), InvalidVocabulary),
    "instantiate": (lambda env, task, rho: instantiate(rho, 5), InvalidVocabulary),
    "compare-candidate": (
        lambda env, task, rho: compare_vocabularies(rho, [[5]]).rows,
        [("[5]", "InvalidVocabulary")],
    ),
    "compare-candidates": (
        lambda env, task, rho: compare_vocabularies(rho, [5]).rows,
        [("5", "InvalidVocabulary")],
    ),
    "compare-program": (
        lambda env, task, rho: compare_vocabularies(rho, [[(0,), None], [(0,), (1,)]]).rows,
        [("[(0,), None]", "InvalidVocabulary"), ("[{0},{1}]", None)],
    ),
    "verify_upper_bound": (
        lambda env, task, rho: verify_upper_bound(rho, [[5]]).utility_rows,
        [("[5]", "InvalidVocabulary")],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CALLS))
def test_no_type_error_escapes_a_reader(env2, name):
    call, expected = MALFORMED_CALLS[name]
    task = mk_task(env2, [(2,)], [(0, 2)])
    rho = mk_uninstantiated(mk_task(full_powerset_vocabulary(2), [(1,)], []))
    if isinstance(expected, list):
        assert [(row.vocabulary, row.error) for row in call(env2, task, rho)] == expected
    else:
        error, match = expected if isinstance(expected, tuple) else (expected, "5 is no iterable")
        with pytest.raises(error, match=match):
            call(env2, task, rho)


def test_environment_to_dict(env2):
    assert environment_to_dict(env2) == {
        "states": 2,
        "vocabulary": [[0], [1], [0, 1]],
    }


#: every module-level cache of the library.  Each holds its entries for the
#: life of the process, so a new one is listed here on purpose or not at all
MODULE_CACHES = {
    "core._index_cached",
    "learning._table_cached",
    "tasks._space_cached",
}


def test_module_level_caches_are_listed():
    found = set()
    for info in pkgutil.iter_modules(weakform.__path__):
        module = importlib.import_module(f"weakform.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for scope in scopes:
            for obj in scope.values():
                if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                    found.add(f"{info.name}.{obj.__qualname__}")
    assert found == MODULE_CACHES
