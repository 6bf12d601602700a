from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from weakform import Guards, enumerate_language, extension_size, mk_environment
from weakform.core import LanguageIndex
from weakform.errors import (
    AmbiguousMaximum,
    EmptyTaskSpace,
    IndexOutOfRange,
    InvalidSampleCount,
    NoCorrectPolicy,
    NotAStatement,
    TaskSpaceTooLarge,
    TruthSetTooLarge,
    UnknownProxy,
    VocabularyTooLarge,
)
from weakform.learning import (
    GeneralizationTable,
    Proxy,
    _key_rows,
    estimate_generalization_probabilities,
    estimate_generalization_probability,
    evaluate_generalization,
    gen_cmp,
    generalization_probability,
    generalization_table,
    learn,
    proxy_by_name,
    random_proxy,
    sample_efficiency,
    simplicity_cmp,
    simplicity_proxy,
    table_proxy,
    weakness_cmp,
    weakness_proxy,
)
from weakform.tasks import TaskSpace, enumerate_tasks, mk_task, task_space

from helpers import (
    all_environments,
    brute_correct_policies,
    brute_language,
    brute_relation,
    brute_sample_efficiency,
    brute_sample_index,
)


# --- comparators --------------------------------------------------------------

def test_weakness_cmp_examples(env2):
    assert weakness_cmp(env2, (0,), (2,)) is True
    assert weakness_cmp(env2, (0,), (0,)) is False
    assert weakness_cmp(env2, (), (0,)) is False


def test_weakness_cmp_admits_the_index():
    # the rows read the language index, which a comparison builds only
    # under the caller's vocabulary guard
    env = mk_environment(25, [[s] for s in range(25)])
    with pytest.raises(VocabularyTooLarge):
        weakness_cmp(env, (0,), (1,))
    assert weakness_cmp(env, (0,), (1,), Guards(max_vocabulary=25)) is False


def test_weakness_rows_match_the_inclusion_exclusion_sizes():
    # the rows are popcounts off the index; the index-free
    # inclusion-exclusion walk is the second path
    for env in all_environments(3, 4):
        lang = enumerate_language(env)
        sizes = [extension_size(env, s) for s in lang]
        assert LanguageIndex.of(env).extension_sizes(lang) == sizes, env
        assert weakness_proxy().rows(env, lang) == _key_rows(sizes), env
    # as extension_size reads them, the rows read any spelling of a
    # statement and refuse a non-statement
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    assert weakness_proxy().rows(env, [(2, 0, 0), (0,)]) == weakness_proxy().rows(env, [(0, 2), (0,)])
    with pytest.raises(NotAStatement):
        weakness_proxy().rows(env, [(0,), (0, 1)])
    with pytest.raises(IndexOutOfRange, match="5 is no iterable"):
        weakness_proxy().rows(env, [(0,), 5])


@pytest.mark.parametrize("proxy", [
    weakness_proxy(),
    simplicity_proxy(),
    random_proxy(0),
    table_proxy("table", [([0, 2], [0]), ([2], [0, 2])]),
], ids=lambda proxy: proxy.name)
def test_every_proxy_reads_spellings_as_weakness_does(proxy):
    # every proxy's rows, and the index's extension sizes, read a statement
    # list as require_statement reads each member, as extension_size does
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    index = LanguageIndex.of(env)
    assert proxy.rows(env, [(2, 0, 0), (0,)]) == proxy.rows(env, [(0, 2), (0,)])
    assert index.extension_sizes([(2, 0, 0), (0,)]) == [
        extension_size(env, (2, 0, 0)), extension_size(env, (0,))
    ] == index.extension_sizes([(0, 2), (0,)])
    readers = [
        lambda xs: proxy.rows(env, xs),
        index.extension_sizes,
        lambda xs: [extension_size(env, x) for x in xs],
    ]
    for bad, error in [
        ((0, 1), NotAStatement),
        ((7,), IndexOutOfRange),
        ((True,), IndexOutOfRange),
        ((1.0,), IndexOutOfRange),
    ]:
        for read in readers:
            with pytest.raises(error):
                read([(0,), bad])
    # the language passed whole reads as it stands, and a list copy reads
    # alike; an equal tuple that spells (1,) as (True,) is read, and refused
    lang = index.statements
    assert proxy.rows(env, list(lang)) == proxy.rows(env, lang)
    assert index.extension_sizes(list(lang)) == index.extension_sizes(lang)
    spelt = tuple((True,) if s == (1,) else s for s in lang)
    assert spelt == lang
    for read in readers:
        with pytest.raises(IndexOutOfRange):
            read(spelt)


def test_weakness_cmp_irreflexive_transitive_consistent(env2):
    lang = enumerate_language(env2)
    sizes = {l: extension_size(env2, l) for l in lang}
    for a in lang:
        assert not weakness_cmp(env2, a, a)
        for b in lang:
            assert weakness_cmp(env2, a, b) == (sizes[a] < sizes[b])
            if not weakness_cmp(env2, a, b):
                continue
            for c in lang:
                if weakness_cmp(env2, b, c):
                    assert weakness_cmp(env2, a, c)


def test_simplicity_cmp_examples():
    assert simplicity_cmp((0, 2), (0,)) is True
    assert simplicity_cmp((0,), (1,)) is False
    assert simplicity_cmp((), (0,)) is False
    # a repeated index is one member program
    assert simplicity_cmp((1, 1), (0,)) is False
    assert simplicity_cmp((0, 0, 2), (2, 2)) is True


# --- generalization ------------------------------------------------------------

def test_generalization_table_matches_brute_scan():
    # definition path: count over every enumerated task
    checked = 0
    for env in all_environments(2, 3):
        lang = enumerate_language(env)
        if len(lang) < 2:
            continue
        for include_empty in (True, False):
            table = generalization_table(env, include_empty_outputs=include_empty)
            brute = {l: 0 for l in lang}
            tasks = 0
            for t in enumerate_tasks(env, include_empty_outputs=include_empty):
                tasks += 1
                for l in brute_correct_policies(t):
                    brute[l] += 1
            assert table.denominator == tasks
            for l in lang:
                assert table.numerator(l) == brute[l], (env, include_empty, l)
            checked += 1
    assert checked == 30


def test_generalization_table_numerator_domain_errors(env2):
    table = generalization_table(env2)
    with pytest.raises(NotAStatement):
        table.numerator((0, 1))
    with pytest.raises(IndexOutOfRange):
        table.numerator((7,))
    assert table.numerator([2, 0, 2]) == table.numerator((0, 2))


def test_generalization_numerators_closed_form_sweep():
    # a statement is correct for exactly one output set per input set,
    # inadmissible only when the input extensions all sit inside its own
    # (i.e. when every input completes it); that makes the numerator
    # 2^|L| - 2^|E_l| - 1, plus one for the empty statement whose count
    # would otherwise also drop the full input set
    for env in all_environments(2, 3):
        lang = enumerate_language(env)
        if len(lang) < 2:
            continue
        table = generalization_table(env)
        n = len(lang)
        for l in lang:
            expected = (1 << n) - (1 << extension_size(env, l)) - 1
            if l == ():
                expected += 1
            assert table.numerator(l) == expected, (env, l)


def test_generalization_table_env2_frozen(env2):
    table = generalization_table(env2)
    assert table.statements == ((), (0,), (1,), (2,), (0, 2), (1, 2))
    assert table.numerators == (0, 59, 59, 55, 61, 61)
    assert table.denominator == 2330


def test_table_numerator_under_raised_guards():
    # 25 disjoint programs exceed the default vocabulary guard; a table
    # admitted under raised guards answers without checking the defaults
    env = mk_environment(25, [[s] for s in range(25)])
    assert GeneralizationTable(env, True, ((),), (1,), 2).numerator(()) == 1
    with pytest.raises(VocabularyTooLarge):
        generalization_table(env)
    table = generalization_table(env, Guards(max_vocabulary=25, max_task_language=26))
    assert len(table.statements) == 26
    assert table.probability((0,)) == Fraction((1 << 26) - 2 - 1, table.denominator)


def test_generalization_probability_examples(env2):
    assert generalization_probability(env2, ()) == 0
    assert generalization_probability(env2, (0,)) == Fraction(59, 2330)
    for l in enumerate_language(env2):
        p = generalization_probability(env2, l)
        assert 0 <= p <= 1


def test_generalization_probability_empty_space():
    env = mk_environment(1, [])
    with pytest.raises(EmptyTaskSpace):
        generalization_probability(env, ())


def test_empty_statement_never_generalizes_sweep():
    # the empty statement's extension is the whole language, so its
    # intersection with any input extension is never a strict subset
    for env in all_environments(2, 3):
        lang = enumerate_language(env)
        if len(lang) < 2:
            continue
        assert generalization_probability(env, ()) == 0


def test_generalization_probability_reads_its_statement_once(env2, monkeypatch):
    # the table's ``probability`` reads the statement; the caller reads it no
    # more, so an error of the table comes before an error of the statement
    import weakform.core
    import weakform.learning

    calls = []
    original = weakform.core.require_statement

    def counted(env, candidate):
        calls.append(candidate)
        return original(env, candidate)

    for module in (weakform.core, weakform.learning):
        monkeypatch.setattr(module, "require_statement", counted)
    assert generalization_probability(env2, (0,)) == Fraction(59, 2330)
    assert calls == [(0,)]
    with pytest.raises(EmptyTaskSpace):
        generalization_probability(mk_environment(1, []), (5,))


def test_gen_cmp_examples(env2):
    assert gen_cmp(env2, (), (0,)) is True
    assert gen_cmp(env2, (0,), (0,)) is False
    lang = enumerate_language(env2)
    for a in lang:
        for b in lang:
            assert not (gen_cmp(env2, a, b) and gen_cmp(env2, b, a))


def test_table_pins_env2_numerators(env2):
    table = generalization_table(env2)
    assert table.statements[:2] == ((), (0,))
    assert table.numerators[:2] == (0, 59)
    assert table.denominator == 2330


# --- Monte Carlo estimator ---------------------------------------------------------

def test_estimator_converges(env2):
    for l in [(0,), (2,), (0, 2)]:
        exact = generalization_probability(env2, l)
        est = estimate_generalization_probability(env2, l, samples=20000, seed=3)
        se = (float(exact) * (1 - float(exact)) / 20000) ** 0.5
        assert abs(float(est.estimate) - float(exact)) <= 3 * se
        # the estimate's own standard error, and its interval at z = 3
        p = est.successes / est.samples
        assert est.stderr() == (p * (1 - p) / est.samples) ** 0.5
        assert est.interval() == (p - 3 * est.stderr(), p + 3 * est.stderr())
        assert est.interval(z=1e6) == (0.0, 1.0)
    zero = estimate_generalization_probability(env2, (), samples=2000, seed=3)
    assert zero.successes == 0
    assert zero.stderr() == 0.0 and zero.interval() == (0.0, 0.0)


def test_estimator_deterministic(env2):
    a = estimate_generalization_probability(env2, (0,), samples=500, seed=9)
    b = estimate_generalization_probability(env2, (0,), samples=500, seed=9)
    assert a == b


def test_estimates_match_per_draw_definition():
    # one stream of draws for all statements, against each statement's
    # own call and against the set definition of every draw
    checked = 0
    for env in all_environments(2, 3):
        lang = enumerate_language(env)
        for include_empty in (True, False):
            total = task_space(env, include_empty_outputs=include_empty).total_count
            for seed in (0, 5, 11):
                if total == 0:
                    with pytest.raises(EmptyTaskSpace):
                        estimate_generalization_probabilities(env, lang, 30, seed, Guards(), include_empty)
                    continue
                hits = dict.fromkeys(lang, 0)
                rng = Random(seed)
                for _ in range(30):
                    inputs, outs = brute_sample_index(env, rng.randrange(total), include_empty)
                    for l in brute_correct_policies(mk_task(env, inputs, outs)):
                        hits[l] += 1
                batch = estimate_generalization_probabilities(env, lang, 30, seed, Guards(), include_empty)
                single = [
                    estimate_generalization_probability(env, l, 30, seed, Guards(), include_empty)
                    for l in lang
                ]
                assert batch == single
                assert [(e.statement, e.successes, e.samples, e.seed) for e in batch] == [
                    (l, hits[l], 30, seed) for l in lang
                ], (env, include_empty, seed)
                checked += 1
    assert checked > 50


def test_estimates_check_statements_then_guard_then_space(env2):
    with pytest.raises(NotAStatement):
        estimate_generalization_probabilities(env2, [(0,), (0, 1)], 10, 0, Guards(max_task_language=4))
    with pytest.raises(TaskSpaceTooLarge):
        estimate_generalization_probabilities(env2, [(0,)], 10, 0, Guards(max_task_language=4))
    with pytest.raises(IndexOutOfRange):
        estimate_generalization_probabilities(mk_environment(1, []), [(), (0,)], 10, 0)
    with pytest.raises(EmptyTaskSpace):
        estimate_generalization_probabilities(mk_environment(1, []), [()], 10, 0)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True])
def test_estimates_refuse_a_sample_count_below_one(env2, monkeypatch, samples):
    # refused before any draw: a count of 0 would divide by zero in the
    # estimate, -3 would be reported as is, and 2.5 would fail in range()
    def draw(space, index):
        raise AssertionError("drew a task")

    monkeypatch.setattr(TaskSpace, "_walk", draw)
    with pytest.raises(InvalidSampleCount):
        estimate_generalization_probabilities(env2, [(0,)], samples, 1)
    with pytest.raises(InvalidSampleCount):
        estimate_generalization_probability(env2, (0,), samples, 1)


# --- sample efficiency ----------------------------------------------------------------

def test_sample_efficiency_self_is_zero(env2):
    w = weakness_proxy()
    assert sample_efficiency(env2, w, w) == 0


def test_sample_efficiency_antisymmetric(env2):
    w, s = weakness_proxy(), simplicity_proxy()
    r = random_proxy(1)
    for a, b in [(w, s), (w, r), (s, r)]:
        assert sample_efficiency(env2, a, b) == -sample_efficiency(env2, b, a)


def test_sample_efficiency_matches_pairwise_count(env2):
    # recompute the double sum directly from probabilities
    w, s = weakness_proxy(), simplicity_proxy()
    lang = enumerate_language(env2)
    probs = {l: generalization_probability(env2, l) for l in lang}

    def err(proxy):
        total = 0
        for a in lang:
            for b in lang:
                g = 1 if probs[a] < probs[b] else 0
                total += abs(g - (1 if proxy.holds(env2, a, b) else 0))
        return total

    assert sample_efficiency(env2, w, s) == err(w) - err(s)


def test_sample_efficiency_env2_value(env2):
    # weakness disagrees with the generalization order more often than
    # the simplicity baseline does on this fixture
    assert sample_efficiency(env2, weakness_proxy(), simplicity_proxy()) == 2


# --- proxies ------------------------------------------------------------------------------

def test_random_proxy_deterministic(env2):
    r = random_proxy(17)
    again = random_proxy(17)
    lang = enumerate_language(env2)
    for a in lang:
        for b in lang:
            assert r.holds(env2, a, b) == again.holds(env2, a, b)


def test_random_proxies_differ(env2):
    lang = enumerate_language(env2)
    r1, r2 = random_proxy(0), random_proxy(1)
    diff = sum(
        r1.holds(env2, a, b) != r2.holds(env2, a, b)
        for a in lang for b in lang
    )
    assert diff > 0


def test_proxy_by_name(tmp_path):
    assert proxy_by_name("weakness").name == "weakness"
    assert repr(proxy_by_name("random:05")) == "Proxy(random:5)"
    assert proxy_by_name("simplicity").name == "simplicity"
    assert proxy_by_name("random:5").name == "random:5"
    table = tmp_path / "rel.json"
    table.write_text('{"true_pairs": [[[0], [2]]]}')
    p = proxy_by_name(f"table:{table}")
    env = mk_environment(2, [{0}, {1}, {0, 1}])
    assert p.holds(env, (0,), (2,)) is True
    assert p.holds(env, (2,), (0,)) is False
    with pytest.raises(UnknownProxy):
        proxy_by_name("shortest")
    with pytest.raises(UnknownProxy):
        proxy_by_name("random:x")
    with pytest.raises(UnknownProxy):
        proxy_by_name("table:/no/such/file.json")


# every subset of four programs, paired by a fixed arithmetic rule; the
# rule lists some pairs (x, x) and leaves others out
_SUBSETS = [c for r in range(5) for c in combinations(range(4), r)]
ORACLE_TABLE = [
    (a, b) for a in _SUBSETS for b in _SUBSETS
    if (len(a) + 2 * sum(a) + 3 * sum(b)) % 4 == 0
]
ORACLE_PROXIES = ("weakness", "simplicity", "random:0", "random:17", "table:oracle")


def test_proxy_rows_match_pairwise_definition():
    checked = 0
    for env in all_environments(3, 4):
        lang = enumerate_language(env)
        assert list(lang) == brute_language(env)
        proxies, verdicts = {}, {}
        for name in ORACLE_PROXIES:
            holds = brute_relation(env, name, ORACLE_TABLE)
            expected = [[1 if holds(a, b) else 0 for b in lang] for a in lang]
            if name.startswith("table:"):
                proxy = table_proxy(name, ORACLE_TABLE)
            else:
                proxy = proxy_by_name(name)
            rows = proxy.rows(env, lang)
            got = [[row >> j & 1 for j in range(len(lang))] for row in rows]
            assert got == expected, (env, name)
            assert all(row >> len(lang) == 0 for row in rows), (env, name)
            proxies[name], verdicts[name] = proxy, expected
        for a, b in permutations(ORACLE_PROXIES, 2):
            if len(lang) < 2:  # one statement leaves no task
                with pytest.raises(EmptyTaskSpace):
                    sample_efficiency(env, proxies[a], proxies[b])
                continue
            expected = brute_sample_efficiency(env, verdicts[a], verdicts[b])
            assert sample_efficiency(env, proxies[a], proxies[b]) == expected, (env, a, b)
            checked += 1
    assert checked > 1000


def test_holds_answers_one_pair(env2):
    # weakness validates both statements, as its comparator does
    with pytest.raises(NotAStatement):
        weakness_proxy().holds(env2, (0, 1), (0,))
    with pytest.raises(NotAStatement):
        weakness_proxy().holds(env2, (0,), (0, 1))
    # a listed pair (x, x) holds; an unlisted one does not
    table = table_proxy("diagonal", [((0,), (0,))])
    assert table.holds(env2, (0,), (0,)) is True
    assert table.holds(env2, (1,), (1,)) is False
    # the answer does not depend on how a statement is spelled
    assert random_proxy(0).holds(env2, (0, 2), (1,)) is True
    assert random_proxy(0).holds(env2, (2, 0), (1,)) is True
    assert random_proxy(0).holds(env2, (0, 0, 2), (1, 1)) is True
    listed = table_proxy("t", [([0, 2], [1])])
    assert listed.holds(env2, (2, 0), (1,)) is True
    assert listed.holds(env2, (0, 2), (1,)) is True
    assert table_proxy("t", [([0, 0, 2], [1])]).holds(env2, (0, 2), (1,)) is True
    # and every proxy refuses a non-statement, as weakness does
    for proxy in (simplicity_proxy(), random_proxy(0), listed):
        with pytest.raises(NotAStatement):
            proxy.holds(env2, (0, 1), (0,))
        with pytest.raises(IndexOutOfRange):
            proxy.holds(env2, (0,), (3,))
    # defined on the class, where method tracing can wrap it
    assert "holds" in Proxy.__dict__


def test_holds_reads_each_statement_once(env2, monkeypatch):
    # the rows read the pair through ``LanguageIndex.read``; ``holds`` reads it no more
    import weakform.core
    import weakform.learning

    calls = []
    original = weakform.core.require_statement

    def counted(env, candidate):
        calls.append(candidate)
        return original(env, candidate)

    for module in (weakform.core, weakform.learning):
        monkeypatch.setattr(module, "require_statement", counted)
    for proxy in (weakness_proxy(), simplicity_proxy()):
        calls.clear()
        assert proxy.holds(env2, (0,), (2,)) is (proxy.name == "weakness")
        assert calls == [(0,), (2,)], proxy


# --- learning ---------------------------------------------------------------------------------

def test_learn_weakness(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert learn(t, weakness_proxy()) == (0,)


def test_learn_simplicity(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    assert learn(t, simplicity_proxy()) == (0,)


def test_learn_no_correct_policy(env2):
    t = mk_task(env2, [(2,)], [(0, 2), (1, 2)])
    with pytest.raises(NoCorrectPolicy):
        learn(t, weakness_proxy())


def test_learn_tie_breaks_canonically():
    # two branches with equally weak policies; the canonically smaller
    # statement wins the tie
    env = mk_environment(4, [{0}, {2}, {0, 1}, {2, 3}])
    t = mk_task(env, [(0,)], [])
    pols = [(1,), (3,), (1, 3)]
    sizes = [extension_size(env, p) for p in pols]
    assert sizes == [2, 2, 1]
    assert learn(t, weakness_proxy()) == (1,)
    with pytest.raises(AmbiguousMaximum):
        learn(t, weakness_proxy(), tie_break=False)


def test_learn_with_empty_relation_falls_back_to_canonical(env2):
    t = mk_task(env2, [(2,)], [(0, 2)])
    empty = table_proxy("empty", [])
    assert learn(t, empty) == (0,)
    with pytest.raises(AmbiguousMaximum):
        learn(t, empty, tie_break=False)


def test_learn_returns_member_of_policy_set(env2):
    from weakform.tasks import correct_policies

    w = weakness_proxy()
    checked = 0
    for t in enumerate_tasks(env2):
        pols = correct_policies(t)
        if not pols.members:
            continue
        got = learn(t, w)
        assert got in pols.members
        best = max(extension_size(env2, p) for p in pols.members)
        assert extension_size(env2, got) == best
        checked += 1
        if checked >= 300:
            break
    assert checked


def test_evaluate_generalization_examples(env2):
    child = mk_task(env2, [(2,)], [(0, 2)])
    parent = mk_task(env2, [(2,), (1,)], [(0, 2)])
    pi = learn(child, weakness_proxy())
    assert pi == (0,)
    assert evaluate_generalization(pi, parent) is True
    assert evaluate_generalization((1,), parent) is False
    no_policy = mk_task(env2, [(2,)], [(0, 2), (1, 2)])
    assert evaluate_generalization((0,), no_policy) is False


def test_learn_matches_pairwise_maximal_definition():
    # every ordered pair of distinct statements: each policy ranks above
    # every other, so no policy set of two or more has a maximal element
    cyclic_pairs = [(a, b) for a in _SUBSETS for b in _SUBSETS if a != b]
    proxies = {name: proxy_by_name(name) for name in ("weakness", "simplicity", "random:0")}
    proxies["table:cyclic"] = table_proxy("table:cyclic", cyclic_pairs)
    fallbacks = ambiguous = 0
    for env in all_environments(2, 3):
        relations = {name: brute_relation(env, name, cyclic_pairs) for name in proxies}
        for include_empty_outputs in (True, False):
            for task in enumerate_tasks(env, include_empty_outputs=include_empty_outputs):
                pols = brute_correct_policies(task)
                for name, proxy in proxies.items():
                    if not pols:
                        with pytest.raises(NoCorrectPolicy):
                            learn(task, proxy)
                        continue
                    holds = relations[name]
                    maximal = [p for p in pols if not any(holds(p, q) for q in pols)]
                    if not maximal:
                        maximal = pols
                        fallbacks += 1
                    assert learn(task, proxy) == min(maximal, key=lambda x: (len(x), x))
                    if len(maximal) > 1:
                        ambiguous += 1
                        with pytest.raises(AmbiguousMaximum):
                            learn(task, proxy, tie_break=False)
                    else:
                        assert learn(task, proxy, tie_break=False) == maximal[0]
    assert fallbacks and ambiguous


def test_weakness_counts_under_the_callers_guards(env2):
    # the statement (2,) holds in both states, over a max_truth_set of 1;
    # it is a correct policy of this task, as is (0, 2)
    guards = Guards(max_truth_set=1)
    task = mk_task(env2, [(0,)], [(0, 2)])
    weakness = weakness_proxy()
    assert learn(task, weakness) == (2,)
    with pytest.raises(TruthSetTooLarge):
        learn(task, weakness, guards)
    with pytest.raises(TruthSetTooLarge):
        weakness.holds(env2, (2,), (0, 2), guards)
    with pytest.raises(TruthSetTooLarge):
        sample_efficiency(env2, weakness, simplicity_proxy(), guards)
