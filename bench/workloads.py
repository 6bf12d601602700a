"""Workload inputs, unit runners and result checks.

Inputs are made here from the seed with plain Python (state tuples,
statement index tuples, candidate vocabularies); the library only ever
receives those generated inputs.  Each workload turns its inputs into a
list of *units*.  ``run_unit`` makes the library calls of one unit and
is what the benchmark times; ``check_unit`` runs afterwards, outside
the timed body, and returns an error message when an oracle disagrees.
Findings of the model (a bound not attained, a task without a correct
policy, a rival proxy beating weakness) are results, not failures.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from random import Random

import weakform
from weakform import bounds, learning, tasks


# --- plain-Python statement algebra (independent of the library) -------------

def canonical_programs(programs):
    """State tuples in the library's canonical program order."""
    return sorted((tuple(sorted(p)) for p in programs), key=lambda p: (len(p), p))


def language(state_count, programs):
    """Statements (index tuples over the canonical programs) in canonical
    order: by size, then lexicographically."""
    masks = [sum(1 << s for s in p) for p in canonical_programs(programs)]
    found = []

    def walk(prefix, truth, start):
        found.append(prefix)
        for j in range(start, len(masks)):
            t = truth & masks[j]
            if t:
                walk(prefix + (j,), t, j + 1)

    walk((), (1 << state_count) - 1, 0)
    found.sort(key=lambda x: (len(x), x))
    return found


def extension_sizes(lang):
    sets = [set(x) for x in lang]
    return [sum(1 for y in sets if x <= y) for x in sets]


def powerset_programs(state_count):
    """Every program over the states, in mask order (the empty one first)."""
    return [
        tuple(s for s in range(state_count) if (mask >> s) & 1)
        for mask in range(1 << state_count)
    ]


def stratified_sample(rng, items, key, share):
    """The same number of items from every stratum on every seed, so the
    work of a sample hardly depends on which seed drew it."""
    strata = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    picked = []
    for k in sorted(strata):
        group = strata[k]
        picked.extend(rng.sample(group, max(1, round(share * len(group)))))
    rng.shuffle(picked)
    return picked


def small_universe(max_states, max_programs):
    """(state_count, programs) for every environment with at most that many
    states and programs drawn from the full powerset."""
    out = []
    for n in range(1, max_states + 1):
        progs = powerset_programs(n)
        for size in range(max_programs + 1):
            for combo in combinations(progs, size):
                out.append((n, combo))
    return out


# --- task-stream ---------------------------------------------------------------

class TaskStream:
    """Count, then stream, the task space of small environments (C3 style)."""

    name = "task-stream"
    share = 0.06

    def generate(self, seed):
        universe = []
        for n, combo in small_universe(4, 4):
            size = len(language(n, combo))
            if size <= 8:
                universe.append((n, combo, size))
        picked = stratified_sample(Random(seed), universe, lambda u: u[2], self.share)
        return [weakform.mk_environment(n, combo) for n, combo, _ in picked]

    def run_unit(self, env):
        counted = tasks.count_tasks(env)
        streamed = 0
        for _ in tasks.enumerate_tasks(env):
            streamed += 1
        return streamed, (counted, streamed)

    def check_unit(self, env, record):
        counted, streamed = record
        if counted != streamed:
            return f"{env!r}: count_tasks={counted} but streamed {streamed}"
        return None


# --- proxy-order ---------------------------------------------------------------

class ProxyOrder:
    """Sample efficiency of weakness against simplicity and random rivals."""

    name = "proxy-order"
    share = 0.75
    rivals = 14

    def generate(self, seed):
        rng = Random(seed)
        universe = []
        for n, combo in small_universe(3, 4):
            lang = language(n, combo)
            if len(lang) >= 2:  # one statement leaves no task
                universe.append((n, combo, len(lang)))
        picked = stratified_sample(rng, universe, lambda u: u[2], self.share)
        return [
            (
                weakform.mk_environment(n, combo),
                (n, combo, size),
                tuple(rng.randrange(1 << 20) for _ in range(self.rivals)),
            )
            for n, combo, size in picked
        ]

    def run_unit(self, unit):
        env, (_, _, size), rival_seeds = unit
        weakness = learning.weakness_proxy()
        values = [learning.sample_efficiency(env, weakness, learning.simplicity_proxy())]
        for k in rival_seeds:
            values.append(
                learning.sample_efficiency(env, weakness, learning.random_proxy(k))
            )
        return 2 * size * size * len(values), values

    def check_unit(self, unit, values):
        env, (n, combo, _), _ = unit
        lang = language(n, combo)
        sizes = extension_sizes(lang)
        table = learning.generalization_table(env)
        if list(table.statements) != lang:
            return f"{env!r}: language differs from the plain enumeration"
        full = len(lang)
        closed = [
            (1 << full) - (1 << e) - 1 + (1 if e == full else 0) for e in sizes
        ]
        if list(table.numerators) != closed:
            return f"{env!r}: numerators {table.numerators} != closed form {closed}"
        expected = 0
        for i, a in enumerate(lang):
            for j, b in enumerate(lang):
                g = 1 if closed[i] < closed[j] else 0
                ew = 1 if sizes[i] < sizes[j] else 0
                es = 1 if len(a) > len(b) else 0
                expected += abs(g - ew) - abs(g - es)
        if values[0] != expected:
            return f"{env!r}: weakness vs simplicity {values[0]} != {expected}"
        if not all(isinstance(v, int) for v in values):
            return f"{env!r}: non-integer sample efficiency {values}"
        return None


# --- vocab-bound ---------------------------------------------------------------

def _random_base_task(rng, lang, k, max_outputs):
    """``k`` seeded inputs (never the empty statement) and fewer than
    ``max_outputs`` seeded outputs, a strict subset of their extension."""
    sets = [set(x) for x in lang]
    inputs = sorted(rng.sample(range(1, len(lang)), k))
    ext = [j for j, y in enumerate(sets) if any(sets[i] <= y for i in inputs)]
    outputs = sorted(rng.sample(ext, rng.randrange(0, min(max_outputs, len(ext)))))
    return tuple(lang[i] for i in inputs), tuple(lang[j] for j in outputs)


def _vocabularies(state_count):
    """All sub-vocabularies of the full powerset, smallest first, in the
    order the library's ``all_vocabularies`` yields them."""
    progs = canonical_programs(powerset_programs(state_count))
    return [combo for size in range(len(progs) + 1) for combo in combinations(progs, size)]


def _surviving_vocabularies(inputs, vocab_masks):
    """In how many vocabularies some input keeps all its programs: the
    instantiations that get past the empty-input check."""
    needs = [sum(1 << j for j in x) for x in inputs]
    return sum(1 for v in vocab_masks if any(m & v == m for m in needs))


class VocabBound:
    """Upper-bound recipe and utility maximality over base tasks (C6/C7 style)."""

    name = "vocab-bound"
    #: (states, {input count: tasks}, bound on the output count); two-state
    #: tasks with one input number only 15, so fewer of those are drawn
    shapes = ((2, {1: 12, 2: 24, 3: 24}, 6), (3, {1: 18, 2: 18}, 3))
    #: three-state tasks are drawn from a pool this many times larger
    pool = 8

    def generate(self, seed):
        rng = Random(seed)
        units = []
        for n, per_count, max_outputs in self.shapes:
            env = weakform.full_powerset_vocabulary(n)
            lang = language(n, powerset_programs(n))
            vocabs = _vocabularies(n)
            if n == 2:
                candidates = vocabs
            else:
                # the criterion-6 list: nonempty vocabularies of <= 12 statements
                candidates = [v for v in vocabs if v and len(language(n, v)) <= 12]
            programs = canonical_programs(powerset_programs(n))
            vocab_masks = [sum(1 << programs.index(p) for p in v) for v in vocabs]
            seen = set()
            for k, count in per_count.items():
                drawn = []
                target = count if n == 2 else count * self.pool
                while len(drawn) < target:
                    base = _random_base_task(rng, lang, k, max_outputs)
                    if base not in seen:
                        seen.add(base)
                        drawn.append(base)
                if n == 3:
                    # a three-state task costs about as much as the number of
                    # vocabularies its inputs survive in; one task from each of
                    # ``count`` equal slices of the pool sorted by that number
                    # keeps the work of a pass nearly the same on every seed
                    drawn.sort(key=lambda b: (_surviving_vocabularies(b[0], vocab_masks), len(b[1])))
                    drawn = [rng.choice(drawn[i * self.pool:(i + 1) * self.pool]) for i in range(count)]
                units.extend((env, base, candidates) for base in drawn)
        rng.shuffle(units)
        return units

    def run_unit(self, unit):
        env, (inputs, outputs), candidates = unit
        rho = bounds.mk_uninstantiated(tasks.mk_task(env, inputs, outputs))
        bound = bounds.verify_upper_bound(rho, candidates)
        maximal = bounds.verify_utility_maximal_at_P(rho)
        return len(candidates) + len(maximal.rows), (bound, maximal)

    def check_unit(self, unit, record):
        bound, maximal = record
        where = f"base task {unit[1]!r}"
        if bound.outcome not in ("attained", "not_attained", "no_candidate"):
            return f"{where}: unknown outcome {bound.outcome!r}"
        probs = [c.probability for c in bound.ranking]
        if any(a < b for a, b in zip(probs, probs[1:])):
            return f"{where}: ranking not sorted by probability"
        if bound.selected is not None:
            if bound.best != bound.ranking[0]:
                return f"{where}: best is not the top of the ranking"
            if bound.selected.probability > bound.best.probability:
                return f"{where}: selected probability exceeds the best"
        if len(maximal.rows) != 1 << (1 << unit[0].state_count):
            return f"{where}: maximality sweep skipped vocabularies"
        full = maximal.rows[-1].utility
        beaten = [
            r for r in maximal.rows
            if r.utility is not None and (full is None or r.utility > full)
        ]
        if maximal.holds == bool(beaten):
            return f"{where}: holds={maximal.holds} contradicts its rows"
        return None


WORKLOADS = {w.name: w for w in (TaskStream(), ProxyOrder(), VocabBound())}


# --- guard-limit -----------------------------------------------------------------

GUARD_LANGUAGE = 20


def guard_environment(seed):
    """A seeded 4-state, 6-program vocabulary whose language has exactly 20
    statements, the hard ceiling of ``max_task_language``."""
    rng = Random(seed)
    progs = [p for p in powerset_programs(4) if p]
    while True:
        vocab = canonical_programs(rng.sample(progs, 6))
        if len(language(4, vocab)) == GUARD_LANGUAGE:
            return [list(p) for p in vocab]


def guard_config(seed, experiment):
    """The configuration document of one guard-limit CLI experiment."""
    rng = Random(seed * 7919 + 17)
    doc = {
        "experiment": experiment,
        "environment": {"states": 4, "vocabulary": guard_environment(seed)},
        "guards": {"max_task_language": GUARD_LANGUAGE},
        "output": {"format": "csv"},
    }
    if experiment == "learn":
        doc.update(proxies=["weakness", "simplicity"], seeds=[rng.randrange(1000)], trials=4)
    elif experiment == "compare-proxies":
        doc.update(proxies=["weakness", "simplicity", f"random:{rng.randrange(1000)}"])
    elif experiment == "sample-gen":
        doc.update(seeds=[rng.randrange(1000)], samples=1000)
    return json.dumps(doc, indent=2, sort_keys=True)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
