from __future__ import annotations

import hashlib
import json
import re
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from weakform import Guards, bounds, core, full_powerset_vocabulary, learning
from weakform.bounds import (
    CandidatePolicy,
    VocabularyRow,
    all_vocabularies,
    compare_vocabularies,
    encode_vocabulary,
    instantiate,
    mk_uninstantiated,
    restriction_is_strict_child,
    utility,
    verify_upper_bound,
    verify_utility_maximal_at_P,
    weakest_correct_policy,
)
from weakform.errors import (
    DuplicateProgram,
    EmptyInstantiation,
    InvalidVocabulary,
    NoCorrectPolicy,
    StateOutOfRange,
    StateSpaceTooLarge,
    WeakformError,
)
from weakform.core import (
    LanguageIndex,
    _bits,
    encode_statement,
    enumerate_language,
    extension_size,
    mk_environment,
)
from weakform.learning import generalization_table
from weakform.tasks import (
    TaskSpace,
    _class_counts,
    _ones,
    _policy_count,
    correct_policies,
    enumerate_tasks,
    mk_task,
)

from helpers import brute_instantiate
from test_acceptance import _phi3_family


@pytest.fixture
def rho2():
    """Base task over the two-state powerset: one input, one output."""
    env_p = full_powerset_vocabulary(2)
    # programs: 0 -> {}, 1 -> {0}, 2 -> {1}, 3 -> {0,1}
    return mk_uninstantiated(mk_task(env_p, [(3,)], [(1, 3)]))


# --- utility -------------------------------------------------------------------

def test_utility_examples(env2, env_pair):
    assert utility(mk_task(env2, [(2,)], [(0, 2)])) == 1
    assert utility(mk_task(env_pair, [()], [(0,)])) == 0
    with pytest.raises(NoCorrectPolicy):
        utility(mk_task(env2, [(0,)], [(0,)]))


def test_utility_nonnegative_when_defined(env2):
    from weakform.tasks import enumerate_tasks

    seen = 0
    for t in enumerate_tasks(env2):
        try:
            assert utility(t) >= 0
            seen += 1
        except NoCorrectPolicy:
            continue
        if seen >= 200:
            break
    assert seen


def test_weakest_correct_policy(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert weakest_correct_policy(t) == ((0,), 2)


def test_weakest_correct_policy_matches_the_inclusion_exclusion_maximum(env2):
    # the popcount path against the canonically first largest
    # inclusion-exclusion size among the policies
    checked = 0
    for env in (env2, mk_environment(3, [{0, 1}, {1, 2}, {0, 2}])):
        for task in enumerate_tasks(env):
            policies = correct_policies(task)
            if not policies:
                with pytest.raises(NoCorrectPolicy):
                    weakest_correct_policy(task)
                continue
            sizes = [extension_size(env, p) for p in policies]
            best = max(sizes)
            assert weakest_correct_policy(task) == (policies[sizes.index(best)], best)
            checked += 1
    assert checked == 959


# --- powerset vocabularies ---------------------------------------------------------

def test_full_powerset_vocabulary_sizes():
    assert full_powerset_vocabulary(1).program_sets() == ((), (0,))
    assert full_powerset_vocabulary(2).vocabulary_size == 4
    assert full_powerset_vocabulary(3).vocabulary_size == 8


def test_full_powerset_guard():
    from weakform import Guards

    with pytest.raises(StateSpaceTooLarge):
        full_powerset_vocabulary(5)
    with pytest.raises(StateSpaceTooLarge):
        full_powerset_vocabulary(3, Guards(max_powerset_states=2))


def test_mk_uninstantiated_requires_powerset(env2):
    with pytest.raises(InvalidVocabulary):
        mk_uninstantiated(mk_task(env2, [(2,)], [(0, 2)]))
    # an uninstantiated task is a value: equal, and hashed, by its base task
    env_p = full_powerset_vocabulary(2)
    first, again = (mk_uninstantiated(mk_task(env_p, [(3,)], [(1, 3)])) for _ in range(2))
    other = mk_uninstantiated(mk_task(env_p, [(3,)], []))
    assert first is not again and first == again and hash(first) == hash(again)
    assert first != other and first != first.base and len({first, again, other}) == 2


# --- instantiation --------------------------------------------------------------------

def test_instantiate_identity(rho2):
    full = rho2.env.program_sets()
    t = instantiate(rho2, full)
    assert t.env == rho2.env
    assert t.inputs == rho2.base.inputs
    assert t.outputs_correct == rho2.base.outputs_correct
    # each of the environment's sweep tables is built on first read: on a
    # fresh index, instantiate builds none of them, a listed sweep the down
    # table and truth masks, and only "all" the sweep table
    core._index_cached.cache_clear()
    fresh = mk_uninstantiated(rho2.base)
    tables = {"down", "swept", "truth_masks", "true_at"}
    assert instantiate(fresh, full) == t
    assert not tables & set(vars(fresh.index))
    compare_vocabularies(fresh, [full])
    assert tables & set(vars(fresh.index)) == {"down", "truth_masks"}
    compare_vocabularies(fresh, "all")
    assert tables & set(vars(fresh.index)) == {"down", "swept", "truth_masks"}


def test_instantiate_reindexes(rho2):
    t = instantiate(rho2, [(0,), (0, 1)])
    assert t.env.program_sets() == ((0,), (0, 1))
    assert t.inputs == ((1,),)
    assert t.outputs_correct == ((0, 1),)


def test_instantiate_drops_unexpressible_outputs(rho2):
    t = instantiate(rho2, [(0, 1)])
    assert t.inputs == ((0,),)
    assert t.outputs_correct == ()


def test_instantiate_empty(rho2):
    with pytest.raises(EmptyInstantiation):
        instantiate(rho2, [(0,)])


def test_instantiate_rejects_foreign_programs():
    env_p = full_powerset_vocabulary(1)
    rho = mk_uninstantiated(mk_task(env_p, [(1,)], []))
    with pytest.raises(InvalidVocabulary):
        instantiate(rho, [(0, 1)])


def test_instantiate_names_a_state_that_is_no_int(rho2):
    # the program is built before its states are sorted, so the error is
    # the one building the environment raises, not a TypeError
    with pytest.raises(StateOutOfRange) as want:
        mk_environment(2, [(0, "a")])
    with pytest.raises(StateOutOfRange) as got:
        instantiate(rho2, [(0, "a")])
    assert str(got.value) == str(want.value)
    assert compare_vocabularies(rho2, [[(0, "a")]]).rows[0].error == "StateOutOfRange"
    report = verify_upper_bound(rho2, [[(0, "a")], [(0,), (0, 1)]])
    assert [r.error for r in report.utility_rows] == ["StateOutOfRange", None]
    assert report.header["candidates"][0] == "[{0,a}]"


def test_instantiate_rejects_a_program_over_other_states():
    # Program({0}) over five states names the states of a base program,
    # yet it is no program of a three-state base
    foreign = mk_environment(5, [[0], [1, 4]]).programs[0]
    rho = mk_uninstantiated(mk_task(full_powerset_vocabulary(3), [(1,)], []))
    assert compare_vocabularies(rho, [[(0,), (1,)]]).rows[0].utility == 1
    for restrict in (instantiate, brute_instantiate):
        with pytest.raises(InvalidVocabulary, match="over 5 states, not 3"):
            restrict(rho, [foreign, (1,)])
    assert compare_vocabularies(rho, [[foreign, (1,)]]).rows[0].error == "InvalidVocabulary"
    assert verify_upper_bound(rho, [[foreign, (1,)]]).outcome == "no_candidate"


def _restriction(restrict, rho, vocabulary):
    """The restricted task and its extension, or the error's type and message."""
    try:
        task = restrict(rho, vocabulary)
    except WeakformError as exc:
        return type(exc), str(exc)
    return task, task.extension.members


def test_instantiate_matches_state_tuple_definition(rho2):
    env2p = full_powerset_vocabulary(2)
    vocabularies = list(all_vocabularies(env2p))
    cases = []
    for t, base in enumerate(enumerate_tasks(env2p)):
        rho = mk_uninstantiated(base)
        for v, vocabulary in enumerate(vocabularies):
            # each vocabulary as state tuples in canonical and in reverse
            # order, and as Program values, in turn
            form = (t + v) % 3
            if form == 1:
                vocabulary = vocabulary[::-1]
            elif form == 2:
                vocabulary = [p for p in env2p.programs[::-1] if p.states() in vocabulary]
            cases.append((rho, vocabulary))
    errors = [
        ([(5,)], InvalidVocabulary),
        ([(0,), (True,)], StateOutOfRange),
        ([(0, 1), (1, 0)], DuplicateProgram),
        ([(1,), (5,), (0, 1), (0, 1)], InvalidVocabulary),
    ]
    cases += [(rho2, vocabulary) for vocabulary, _ in errors]
    for rho3 in _phi3_family(4, seed=7):
        rng = Random(repr(rho3))
        for vocabulary in all_vocabularies(rho3.env):
            cases.append((rho3, rng.sample(vocabulary, len(vocabulary))))

    for base, vocabulary in cases:
        assert _restriction(instantiate, base, vocabulary) == _restriction(
            brute_instantiate, base, vocabulary
        ), (base, vocabulary)
    for vocabulary, error in errors:
        assert _restriction(instantiate, rho2, vocabulary)[0] is error


def test_compare_vocabularies_records_a_duplicate_program(rho2):
    rep = compare_vocabularies(rho2, [[(0,), (0, 1), (0,)]])
    assert rep.rows[0].error == "DuplicateProgram"
    assert rep.header["candidates"] == ["[{0},{0,1},{0}]"]


def test_one_shot_candidates_are_read_once(rho2):
    cand = [(0,), (0, 1)]
    listed = verify_upper_bound(rho2, [cand])
    streamed = verify_upper_bound(rho2, [iter(cand)])
    assert streamed.to_json() == listed.to_json()
    assert compare_vocabularies(rho2, [iter(cand)]).rows[0].utility == 1
    # each program is read once as well: a rejected candidate records the
    # row of its tuple form, and an accepted one gives the report of cand
    rejected = [(0,), (5,)]
    report = compare_vocabularies(rho2, [[iter(p) for p in rejected]])
    assert report.to_json() == compare_vocabularies(rho2, [rejected]).to_json()
    assert report.rows[0].vocabulary == "[{0},{5}]"
    report = compare_vocabularies(rho2, [map(iter, cand)])
    assert report.to_json() == compare_vocabularies(rho2, [cand]).to_json()


def test_strict_child_flag(rho2):
    # restriction never adds content, so the relation hinges on whether
    # some input vanished: the identity restriction is not a strict child
    full = instantiate(rho2, rho2.env.program_sets())
    assert restriction_is_strict_child(rho2, full) is False
    smaller = instantiate(rho2, [(0,), (0, 1)])
    assert restriction_is_strict_child(rho2, smaller) is False
    env_p = full_powerset_vocabulary(2)
    wide = mk_uninstantiated(mk_task(env_p, [(3,), (2,)], [(1, 3)]))
    narrowed = instantiate(wide, [(0,), (0, 1)])
    assert narrowed.inputs == ((1,),)
    assert restriction_is_strict_child(wide, narrowed) is True


# --- vocabulary comparison reports -------------------------------------------------------

def test_compare_vocabularies_rows(rho2):
    cands = [rho2.env.program_sets(), [(0,), (0, 1)], [(0,)], [(0, 1)]]
    rep = compare_vocabularies(rho2, cands)
    assert len(rep.rows) == 4
    by_vocab = {r.vocabulary: r for r in rep.rows}
    assert by_vocab[encode_vocabulary(cands[0])].utility == 1
    assert by_vocab["[{0},{0,1}]"].utility == 1
    assert by_vocab["[{0}]"].error == "EmptyInstantiation"
    assert by_vocab["[{0,1}]"].error == "NoCorrectPolicy"


def test_compare_vocabularies_duplicates_identical(rho2):
    cand = [(0,), (0, 1)]
    rep = compare_vocabularies(rho2, [cand, cand])
    a, b = rep.rows
    assert a.to_dict() | {"index": 0} == b.to_dict() | {"index": 0}


def test_report_header_and_serialisation(rho2):
    rep = compare_vocabularies(rho2, [rho2.env.program_sets()])
    doc = json.loads(rep.to_json())
    assert doc["environment_hash"]
    assert doc["version"]
    assert doc["seeds"] == []
    assert doc["guards"]["max_vocabulary"] == 24


# --- the selection recipe -------------------------------------------------------------------

def test_verify_upper_bound_full_sweep(rho2):
    cands = list(all_vocabularies(rho2.env))
    rep = verify_upper_bound(rho2, cands)
    # the shipped verify-bound-2 base task: the recipe misses the best pair
    assert (rep.outcome, rep.attained) == ("not_attained", False)
    # the selected pair is the weakest policy of a maximal-utility candidate
    assert rep.selected is not None
    restricted = instantiate(
        rho2, cands[rep.selected.candidate_index]
    )
    pols = correct_policies(restricted)
    assert rep.selected.policy in {
        "{%s}" % ",".join(map(str, p)) for p in pols.members
    }
    pi, size = weakest_correct_policy(restricted)
    assert rep.selected.extension_size == size
    # ranking is sorted by probability, best first
    probs = [c.probability for c in rep.ranking]
    assert probs == sorted(probs, reverse=True)
    assert rep.best == rep.ranking[0]


def test_verify_upper_bound_single_candidate(rho2):
    cand = [(0,), (0, 1)]
    rep = verify_upper_bound(rho2, [cand])
    assert rep.selected.vocabulary == "[{0},{0,1}]"
    assert rep.selected.policy == "{0}"
    assert rep.selected.extension_size == 2


def test_verify_upper_bound_no_candidate(rho2):
    rep = verify_upper_bound(rho2, [[(0,)]])
    assert rep.outcome == "no_candidate"
    assert rep.attained is None
    assert rep.selected is None


# --- weakest-policy monotonicity along vocabulary chains ----------------------------------------

def test_weakest_policy_monotonicity_harness(rho2, capsys):
    # growing the vocabulary usually leaves room for weaker correct
    # policies, but survival of the policy set can break that, so
    # violations are reported rather than asserted
    chain = [
        [(0,), (0, 1)],
        [(0,), (1,), (0, 1)],
        [(), (0,), (1,), (0, 1)],
    ]
    witnessed = []
    previous = None
    for vocab in chain:
        try:
            restricted = instantiate(rho2, vocab)
            _, size = weakest_correct_policy(restricted)
        except (EmptyInstantiation, NoCorrectPolicy):
            previous = None
            continue
        if previous is not None and size < previous:
            witnessed.append((vocab, previous, size))
        previous = size
    for vocab, before, after in witnessed:
        print(
            f"monotonicity violation: weakest policy shrank {before} -> {after} "
            f"at {encode_vocabulary(vocab)}"
        )
    # the harness itself must have produced comparable rows
    assert previous is not None


# --- utility maximal at the full vocabulary ---------------------------------------------------

def test_maximality_report(rho2):
    rep = verify_utility_maximal_at_P(rho2)
    assert rep.holds is True
    assert rep.utility_at_full == 1
    assert rep.rows[-1].vocabulary == encode_vocabulary(rho2.env.program_sets())


def test_maximality_guard():
    env_p = full_powerset_vocabulary(4)
    rho = mk_uninstantiated(mk_task(env_p, [(15,)], []))
    with pytest.raises(StateSpaceTooLarge):
        verify_utility_maximal_at_P(rho)


def test_maximality_undefined_at_full_is_violation():
    # a base task with no correct policy anywhere the full vocabulary,
    # while some restriction has one, counts against maximality
    env_p = full_powerset_vocabulary(2)
    lang_minus_empty = [(1,), (2,), (3,), (1, 3), (2, 3)]
    rho = mk_uninstantiated(mk_task(env_p, [()], lang_minus_empty))
    with pytest.raises(NoCorrectPolicy):
        utility(rho.base)
    rep = verify_utility_maximal_at_P(rho)
    assert rep.utility_at_full is None
    assert rep.holds is False
    assert rep.witness is not None


# --- the mask pass against per-candidate restricted tasks ---------------------------------------

def _reference_pass(rho, candidates, guards):
    """Each candidate's utility row, restricted task and correct policies
    by ``brute_instantiate``, ``correct_policies`` and the weakest of them."""
    out = []
    for idx, cand in enumerate(candidates):
        cand = tuple(cand)
        encoded = encode_vocabulary(cand)
        restricted, policies = None, ()
        try:
            restricted = brute_instantiate(rho, cand, guards)
            policies = correct_policies(restricted).members
            pi, size = weakest_correct_policy(restricted, guards)
            row = VocabularyRow(
                idx,
                encoded,
                len(enumerate_language(restricted.env, guards)),
                size - len(restricted.outputs_correct),
                encode_statement(pi),
                size,
                restriction_is_strict_child(rho, restricted),
                None,
            )
        except WeakformError as exc:
            row = VocabularyRow(idx, encoded, None, None, None, None, None, type(exc).__name__)
            policies = ()  # a row with an error ranks none of its pairs
        out.append((row, restricted, policies))
    return out


def _reference_bound(rho, candidates, guards, include_empty_outputs):
    """``verify_upper_bound`` with every pair read off its restricted task."""
    outcomes = _reference_pass(rho, candidates, guards)
    rows = tuple(row for row, _, _ in outcomes)
    pairs = []
    for row, restricted, policies in outcomes:
        if not policies:
            continue
        try:
            table = generalization_table(restricted.env, guards, include_empty_outputs)
            for pi in policies:
                pairs.append(CandidatePolicy(
                    row.index,
                    row.vocabulary,
                    encode_statement(pi),
                    extension_size(restricted.env, pi, guards),
                    table.probability(pi),
                ))
        except WeakformError:
            continue
    return bounds._select(bounds._report_header(rho, rows, guards), rows, pairs)


def _malformed(rho):
    """Candidates for instantiate to reject or, from the Program values
    on, to accept in an unusual form; fresh on each call, since one-shot
    iterators are among them."""
    full = rho.env.programs
    sets = rho.env.program_sets()
    return [
        [(5,)],                                  # a foreign state
        [sets[1], (0, 0, 1)],                    # a foreign program
        [sets[1], sets[-1], sets[1]],            # a repeated program
        [(True,), sets[-1]],                     # a state that only equals an int
        [(1.0,), (0, 1)],
        [(True,), (7,)],                         # foreign beats the bool
        [full[-1], sets[-1]],                    # a Program repeating a tuple
        list(full[::-1]),                        # Program values, reversed
        iter(sets[1:]),                          # a one-shot iterator
        [sets[-1][::-1], set(sets[1])],          # unsorted and set forms
        (p for p in full if p.size != 1),        # a one-shot generator
        [tuple(map(_State, sets[-1]))],          # an int subclass is a state
        [(0, "a")],                              # a state that is no int and does not sort
        [mk_environment(5, [[0], [1, 4]]).programs[0], (1,)],  # a Program over other states
    ]


class _State(int):
    pass


def _reference_cases(states):
    """Base tasks: every 2-state one, or seeded 3-state ones."""
    if states == 2:
        return [mk_uninstantiated(t) for t in enumerate_tasks(full_powerset_vocabulary(2))]
    return _phi3_family(6, seed=12)


@pytest.mark.parametrize("guards", [
    Guards(),
    Guards(max_truth_set=1),
    Guards(max_vocabulary=2),
    Guards(max_task_language=3),
], ids=["default", "truth_set_1", "vocabulary_2", "task_language_3"])
def test_vocabulary_rows_match_per_candidate_restriction(guards):
    for states in (2, 3):
        bases = _reference_cases(states)
        # the low guards change only the error rows, and malformed
        # candidates hardly depend on the base task: strides keep it cheap
        stride = 1 if guards == Guards() or states == 3 else 5
        for i, rho in enumerate(bases[::stride]):
            candidates = list(all_vocabularies(rho.env))
            malformed = _malformed if i % 10 == 0 else lambda rho: []
            got = compare_vocabularies(rho, candidates + malformed(rho), guards)
            want = _reference_pass(rho, candidates + malformed(rho), guards)
            assert got.rows == tuple(row for row, _, _ in want), rho


@pytest.mark.parametrize("guards", [
    Guards(),
    Guards(max_truth_set=1),
    Guards(max_task_language=3),
], ids=["default", "truth_set_1", "task_language_3"])
def test_bound_reports_match_per_candidate_restriction(guards):
    cases = _reference_cases(2)[::40] + _reference_cases(3)[:3]
    for rho in cases:
        candidates = list(all_vocabularies(rho.env))
        for include_empty in (True, False):
            got = verify_upper_bound(rho, candidates + _malformed(rho), guards, include_empty)
            want = _reference_bound(rho, candidates + _malformed(rho), guards, include_empty)
            assert got.to_json() == want.to_json(), (rho, include_empty)


def test_rows_with_an_error_rank_no_pair():
    # a candidate with a policy too wide for the truth-set guard ranks
    # none of its pairs, not those before the too-wide one
    guards = Guards(max_truth_set=1)
    erred = 0
    for rho in _reference_cases(2) + _reference_cases(3):
        for include_empty in (True, False):
            report = verify_upper_bound(rho, list(all_vocabularies(rho.env)), guards, include_empty)
            errors = {r.index for r in report.utility_rows if r.error}
            assert not errors & {p.candidate_index for p in report.ranking}, (rho, include_empty)
            erred += "TruthSetTooLarge" in {r.error for r in report.utility_rows}
    assert erred


def test_vocabulary_sweeps_build_no_restricted_task(monkeypatch):
    # every restriction and every (vocabulary, policy) pair is read off
    # the base task's index: no candidate gets its own environment,
    # index, task, task space, generalization table or extension size
    rho = _phi3_family(1, seed=5)[0]
    candidates = list(all_vocabularies(rho.env))
    utilities = verify_utility_maximal_at_P(rho)  # the base index exists from here on
    bound_reports = [verify_upper_bound(rho, candidates, Guards(), mode) for mode in (True, False)]
    built = []
    for owner, name in (
        (bounds, "instantiate"),
        (bounds, "mk_environment"),
        (LanguageIndex, "extension_sizes"),
        (core, "extension_size"),
        (learning, "generalization_table"),
        (learning, "_table_cached"),
        (LanguageIndex, "__init__"),
        (TaskSpace, "__init__"),
    ):
        original = getattr(owner, name)

        def record(*args, _name=name, _original=original, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)
    assert verify_utility_maximal_at_P(rho).to_json() == utilities.to_json()
    compare_vocabularies(rho, candidates)
    for mode, want in zip((True, False), bound_reports):
        assert verify_upper_bound(rho, candidates, Guards(), mode).to_json() == want.to_json()
    assert built == []
    assert not hasattr(bounds, "generalization_table")
    assert not hasattr(bounds, "mk_task")
    assert bound_reports[0].ranking and bound_reports[1].ranking


def test_the_sweep_raises_nothing_and_reads_the_down_table(monkeypatch):
    # on one three-state base task every row's error is recorded by its
    # class's name, with no exception built, and each candidate's policies
    # come off the environment's down table: ``below`` runs once per
    # statement to build it, then once per candidate that keeps an input,
    # for its restricted language, and never per rival or per policy
    base = _phi3_family(1, seed=5)[0].base
    index = core._index_cached(base.env)
    below = LanguageIndex.below
    calls = []

    def counted(self, programs):
        calls.append(programs)
        return below(self, programs)

    def refused(self, *args):
        raise AssertionError(f"{type(self).__name__}{args} was built")

    monkeypatch.setattr(LanguageIndex, "below", counted)
    monkeypatch.delitem(vars(index), "down", raising=False)  # a cold table
    index.down
    assert len(calls) == len(index.statements)
    monkeypatch.setattr(WeakformError, "__init__", refused)
    for _ in range(2):
        calls.clear()
        report = verify_utility_maximal_at_P(mk_uninstantiated(base))
        kept = [r for r in report.rows if r.error != "EmptyInstantiation"]
        assert len(calls) == len(set(calls)) == len(kept) > 0
    assert {r.error for r in report.rows} > {None, "EmptyInstantiation"}


def test_row_records_keep_their_contract():
    # positional construction, field order, to_dict, immutability and no
    # per-instance dict
    fields = (
        "index", "vocabulary", "language_size", "utility", "witness_policy",
        "witness_extension_size", "strict_child", "error",
    )
    values = (3, "[{0},{0,1}]", 4, 1, "{1}", 2, True, None)
    row = VocabularyRow(*values)
    assert tuple(getattr(row, f) for f in fields) == values
    assert list(row.to_dict().items()) == list(zip(fields, values))
    pair = CandidatePolicy(3, "[{0},{0,1}]", "{1}", 2, Fraction(2, 6))
    assert list(pair.to_dict().items()) == [
        ("candidate_index", 3),
        ("vocabulary", "[{0},{0,1}]"),
        ("policy", "{1}"),
        ("extension_size", 2),
        ("probability", "1/3"),
    ]
    for record, field in ((row, "index"), (row, "error"), (pair, "probability")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert not hasattr(record, "__dict__")
    assert row == VocabularyRow(*values) and hash(row) == hash(VocabularyRow(*values))


def _sweep_reports(rho, candidates, guards):
    """Every sweep report of one base task, as JSON."""
    reports = [compare_vocabularies(rho, candidates, guards)]
    reports += [verify_upper_bound(rho, candidates, guards, mode) for mode in (True, False)]
    reports.append(verify_utility_maximal_at_P(rho, guards))
    return [r.to_json() for r in reports]


@pytest.mark.parametrize("guards", [
    Guards(),
    Guards(max_truth_set=1),
    Guards(max_task_language=3),
], ids=["default", "truth_set_1", "task_language_3"])
def test_warm_sweeps_equal_cold_ones(guards):
    # the environment's parse and count memos give every base task what
    # a fresh index gives it.  The canonical (1,) is parsed first, so a
    # True, a 1.0 or an int subclass, which hash and compare like 1,
    # would find its entry if the memo were keyed by equality alone
    conflated = [
        ((1,), (0, 1)),
        ((True,), (0, 1)),
        ((1.0,), (0, 1)),
        ((_State(1),), (_State(0), _State(1))),
        ((_State(1),), (0, 1)),
    ]
    for bases in (_reference_cases(2)[::40], _reference_cases(3)[:4]):
        env = bases[0].env
        # each vocabulary in canonical order, then reversed, which may not
        # take a second memo entry
        vocabularies = list(all_vocabularies(env))
        candidates = conflated + vocabularies + [v[::-1] for v in vocabularies]

        def reports(rho):
            # a fresh UninstantiatedTask, since each caches its index's memos
            return _sweep_reports(mk_uninstantiated(rho.base), candidates + _malformed(rho), guards)

        cold = []
        for rho in bases:
            core._index_cached.cache_clear()
            cold.append(reports(rho))
        core._index_cached.cache_clear()
        warm = [reports(rho) for rho in bases[::-1]]
        assert warm[::-1] == cold, env
        index = LanguageIndex.of(env)
        assert len(index.parsed) <= 1 << env.vocabulary_size
        assert len(index.counts) <= 2 << env.vocabulary_size
        assert {type(s) for key in index.parsed for p in key for s in p} == {int}
        assert {type(p) for key in index.parsed for p in key} == {tuple}


def test_a_second_base_task_reuses_the_environment_work(monkeypatch):
    # once a base task has swept a candidate list, another base task over
    # the same environment neither counts a restricted task space nor
    # parses a candidate again: both come from the environment's memos
    env = full_powerset_vocabulary(3)
    first = mk_task(env, [(1,), (1, 4, 7)], [(1, 4, 5)])
    second = mk_task(env, [(1, 5), (1, 4, 5, 7)], [(1, 4, 5)])
    candidates = list(all_vocabularies(env))
    core._index_cached.cache_clear()
    want = [
        verify_upper_bound(mk_uninstantiated(second), candidates, Guards(), mode).to_json()
        for mode in (True, False)
    ]
    core._index_cached.cache_clear()
    for mode in (True, False):
        verify_upper_bound(mk_uninstantiated(first), candidates, Guards(), mode)
    calls = []
    for name in ("_class_counts", "_positions"):
        original = getattr(bounds, name)

        def record(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, record)
    rho = mk_uninstantiated(second)
    got = [verify_upper_bound(rho, candidates, Guards(), mode).to_json() for mode in (True, False)]
    assert calls == []
    assert got == want
    assert all(json.loads(report)["ranking"] for report in got)


def test_the_row_memo_is_kept_per_guards():
    # one base task swept under alternating guards gives every report a
    # fresh base task gives: a row memo keyed without a guard its rows
    # read would hand the default guards' rows to the low ones
    alternating = (Guards(), Guards(max_truth_set=1), Guards(max_vocabulary=2), Guards())
    for rho in _reference_cases(2)[::40] + _reference_cases(3)[:3]:
        vocabularies = list(all_vocabularies(rho.env))
        for candidates in (vocabularies, "all"):
            for guards in alternating:
                want = _sweep_reports(mk_uninstantiated(rho.base), candidates, guards)
                assert _sweep_reports(rho, candidates, guards) == want, (rho, guards)
        assert len(rho.rows) == 3
        assert all(len(memo) <= len(vocabularies) for memo in rho.rows.values())


def test_a_sweep_reads_the_rows_the_bound_built(monkeypatch):
    # the maximality sweep restricts only the masks the bound's list did
    # not hold, and a later list in another order or form gets the rows a
    # fresh base task gives it, numbered and written as that list's
    restricted = []
    restrict = bounds.UninstantiatedTask.restrict

    def counted(self, vocabulary, guards):
        restricted.append(vocabulary)
        return restrict(self, vocabulary, guards)

    monkeypatch.setattr(bounds.UninstantiatedTask, "restrict", counted)
    for states, bases in ((2, _reference_cases(2)[::40]), (3, _reference_cases(3)[:3])):
        for rho in bases:
            env = rho.env
            sets = env.program_sets()
            vocabularies = list(all_vocabularies(env))
            # at three states the bound reads a third of the vocabularies
            listed = vocabularies if states == 2 else vocabularies[::3]
            verify_upper_bound(rho, listed)
            restricted.clear()
            maximal = verify_utility_maximal_at_P(rho)
            masks = {sum(1 << sets.index(p) for p in v) for v in vocabularies}
            held = {sum(1 << sets.index(p) for p in v) for v in listed}
            assert sorted(restricted) == sorted(masks - held), rho
            assert len(restricted) == (0 if states == 2 else 170)
            fresh = mk_uninstantiated(rho.base)
            assert maximal.to_json() == verify_utility_maximal_at_P(fresh).to_json()
            programs = dict(zip(sets, env.programs))
            for later in (vocabularies[::-1], [[programs[p] for p in v] for v in vocabularies]):
                restricted.clear()
                got = compare_vocabularies(rho, later)
                assert restricted == [], rho
                assert got.rows == compare_vocabularies(fresh, later).rows, rho


#: sha256 over the verify_upper_bound JSON (empty outputs included, then
#: excluded) and the verify_utility_maximal_at_P JSON of every 40th
#: 2-state reference case and every 3-state one, over all sub-vocabularies
BOUND_REPORTS_SHA256 = "bf515758db56481e850f5e58a0334266667d48a7a05f49ffe5958101ad75cb90"


def test_bound_reports_are_pinned():
    """The sweep reports are byte-identical from one change to the next;
    the digest changes only with an intended report change, recorded in a
    CHANGES.md line."""
    digest = hashlib.sha256()
    for rho in _reference_cases(2)[::40] + _reference_cases(3):
        candidates = list(all_vocabularies(rho.env))
        for mode in (True, False):
            digest.update(verify_upper_bound(rho, candidates, Guards(), mode).to_json().encode())
        digest.update(verify_utility_maximal_at_P(rho).to_json().encode())
    assert digest.hexdigest() == BOUND_REPORTS_SHA256


def test_base_mask_counts_match_restricted_tables():
    # the denominator and numerators of every restriction, read off the
    # base masks, against the restricted environment's own task space and
    # generalization table, with one memo shared across the sweep and
    # with a fresh memo per count
    guards = Guards(max_task_language=38)
    for states, base_input in ((2, (3,)), (3, (7,))):
        env = full_powerset_vocabulary(states)
        index = mk_uninstantiated(mk_task(env, [base_input], [])).index
        ext = index.ext_masks
        sets = env.program_sets()
        shared: dict = {}
        for vocabulary in range(1 << len(sets)):
            language = index.below(vocabulary)
            restricted = mk_environment(states, [sets[b] for b in _bits(vocabulary)])
            for include_empty in (True, False):
                m = 0 if include_empty else 1
                want = TaskSpace(restricted, guards, include_empty).total_count
                for memo in (shared, {}):
                    got = sum(_class_counts(ext, language, memo, _ones(len(ext)), m))
                    assert got == want, (vocabulary, include_empty)
                table = generalization_table(restricted, guards, include_empty)
                got = tuple(_policy_count(index, p, language, m) for p in _bits(language))
                assert got == table.numerators, (vocabulary, include_empty)


def test_every_restricted_count_the_bound_reaches_is_at_least_two(monkeypatch):
    # verify_upper_bound divides by the restricted task count with no
    # check for 0: a row with a policy has |L_B| >= 2, and the input set
    # {empty statement} alone admits 2^|L_B| - 1 - m >= 2 tasks
    seen = []
    original = bounds._class_counts

    def record(*args):
        counts = original(*args)
        seen.append(sum(counts))
        return counts

    monkeypatch.setattr(bounds, "_class_counts", record)
    core._index_cached.cache_clear()  # so every count is computed here
    two_state = [
        mk_uninstantiated(t)
        for t in enumerate_tasks(full_powerset_vocabulary(2))
        if len(t.inputs) <= 2
    ]
    for rho in two_state + _phi3_family(40, seed=12):
        candidates = list(all_vocabularies(rho.env))
        for guards in (
            Guards(),
            Guards(max_truth_set=1),
            Guards(max_vocabulary=2),
            Guards(max_task_language=3),
            Guards(max_task_language=38),
        ):
            for mode in (True, False):
                verify_upper_bound(rho, candidates, guards, mode)
    core._index_cached.cache_clear()
    assert min(seen) == 2


@pytest.mark.parametrize("guards", [
    Guards(),
    Guards(max_truth_set=1),
    Guards(max_vocabulary=2),
    Guards(max_task_language=3),
], ids=["default", "truth_set_1", "vocabulary_2", "task_language_3"])
def test_maximality_sweep_matches_compared_vocabularies(guards):
    # the sweep reads its candidates as base program masks, past the
    # parse step: the same header and rows, in the same order, as the
    # comparison of every vocabulary supplied as state tuples
    for rho in _reference_cases(2) + _reference_cases(3):
        got = verify_utility_maximal_at_P(rho, guards)
        want = compare_vocabularies(rho, list(all_vocabularies(rho.env)), guards)
        assert got.header == want.header, rho
        assert got.rows == want.rows, rho


@pytest.mark.parametrize("guards", [
    Guards(),
    Guards(max_truth_set=1),
    Guards(max_task_language=3),
], ids=["default", "truth_set_1", "task_language_3"])
def test_all_reads_the_sweep_table(guards):
    # "all" gives every report that the list of every vocabulary gives,
    # and reads the environment's sweep table: a fresh index parses nothing
    for base in _reference_cases(2)[::40] + _reference_cases(3)[:3]:
        core._index_cached.cache_clear()
        rho = mk_uninstantiated(base.base)
        got = _sweep_reports(rho, "all", guards)
        assert not rho.index.parsed, rho
        assert got == _sweep_reports(rho, list(all_vocabularies(rho.env)), guards), rho


@pytest.mark.parametrize("candidates", ["ALL", "al", ""])
def test_a_misspelt_sweep_is_refused(rho2, candidates):
    # a string is no list of candidates: any other than "all" is refused
    # by name, where it was read one character at a time
    for sweep in (compare_vocabularies, verify_upper_bound):
        with pytest.raises(InvalidVocabulary, match=re.escape(repr(candidates))):
            sweep(rho2, candidates)


def test_a_four_state_bound_sizes_its_count_by_the_ranked_languages():
    # the pivot count's (1+z)^a table runs to the largest restricted
    # language ranked, a few statements, and not to the 942 of the base
    # language, whose table would take over 100 MiB
    rho = mk_uninstantiated(mk_task(full_powerset_vocabulary(4), [(1, 7)], []))
    for table in ("program_position", "program_codes", "truth_masks", "down"):
        getattr(rho.index, table)  # the environment's own tables are not the call's
    tracemalloc.start()
    try:
        report = verify_upper_bound(rho, [[(0,), (0, 3)], [(0,), (0, 3), (1,)]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ranking
    assert peak < 2 << 20, peak


def test_ranking_matches_the_sort_definition():
    # ties in probability are broken by candidate, then by policy code;
    # the pairs reach the selection shuffled, so their arrival order
    # cannot stand in for the tie-break
    def key(p):
        return (-p.probability, p.candidate_index, (len(p.policy), p.policy))

    ties = 0
    for rho in _reference_cases(2)[::7] + _reference_cases(3):
        for include_empty in (True, False):
            report = verify_upper_bound(rho, list(all_vocabularies(rho.env)), Guards(), include_empty)
            pairs = list(report.ranking)
            Random(repr(rho)).shuffle(pairs)
            got = bounds._select(report.header, report.utility_rows, pairs)
            assert got.ranking == tuple(sorted(pairs, key=key)), (rho, include_empty)
            assert got.to_json() == report.to_json(), (rho, include_empty)
            probabilities = [p.probability for p in pairs]
            ties += len(probabilities) - len(set(probabilities))
    assert ties
