"""Brute-force oracles used across the test modules.

Everything here works on plain Python sets with itertools, deliberately
avoiding the bit-mask machinery of the package under test, so the two
can disagree when one of them is wrong.  The exceptions are former fast
paths, kept as oracles of the ones that replaced them: the union table
(``table_unions``), built forward in canonical order; the table sampler
(``table_decode``), which tabulates the running task count along that
table; the mask stream (``mask_stream``), which decodes every input
set's masks afresh; and the per-draw hit count of the Monte Carlo
estimator (``per_draw_estimates``).
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from math import comb
from random import Random

from weakform import DEFAULT_GUARDS, Environment, Program, mk_environment, mk_task
from weakform.core import ExtensionSet
from weakform.errors import EmptyInstantiation, IndexOutOfRange, InvalidVocabulary
from weakform.tasks import Task


def brute_language(env: Environment) -> list[tuple[int, ...]]:
    """Every subset of vocabulary indices with a nonempty joint truth set."""
    progs = [set(p.states()) for p in env.programs]
    universe = set(range(env.state_count))
    out = []
    for r in range(len(progs) + 1):
        for combo in combinations(range(len(progs)), r):
            inter = set(universe)
            for j in combo:
                inter &= progs[j]
            if inter:
                out.append(tuple(combo))
    out.sort(key=lambda t: (len(t), t))
    return out


def brute_truth_set(env: Environment, x) -> set[int]:
    inter = set(range(env.state_count))
    for j in x:
        inter &= set(env.programs[j].states())
    return inter


def brute_extension(env: Environment, x) -> set[tuple[int, ...]]:
    xs = set(x)
    return {y for y in brute_language(env) if xs <= set(y)}


def brute_below(env: Environment, programs) -> list[tuple[int, ...]]:
    """The statements, in canonical order, whose programs all lie in the
    set of vocabulary indices ``programs``."""
    return [y for y in brute_language(env) if set(y) <= set(programs)]


def brute_ie_extension_size(env: Environment, x) -> int:
    """|extension(x)| by inclusion-exclusion over every nonempty subset S
    of x's truth set: the completions whose added programs are all true
    on S number 2^(programs outside x true on all of S)."""
    states = sorted(brute_truth_set(env, x))
    outside = [j for j in range(len(env.programs)) if j not in set(x)]
    total = 0
    for r in range(1, len(states) + 1):
        for subset in combinations(states, r):
            common = [j for j in outside if set(subset) <= set(env.programs[j].states())]
            total += (-1) ** (r + 1) * 2 ** len(common)
    return total


def brute_extension_of_set(env: Environment, xs) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for x in xs:
        out |= brute_extension(env, x)
    return out


def all_environments(max_states: int, max_vocab: int, min_vocab: int = 0):
    """Every environment with <= max_states states and <= max_vocab
    distinct programs, vocabulary drawn from the full powerset."""
    for n in range(1, max_states + 1):
        programs = [
            tuple(s for s in range(n) if (mask >> s) & 1)
            for mask in range(1 << n)
        ]
        for size in range(min_vocab, min(max_vocab, len(programs)) + 1):
            for combo in combinations(programs, size):
                yield mk_environment(n, combo)


def brute_correct_policies(task) -> list[tuple[int, ...]]:
    """Every statement whose completions of the task's inputs are exactly
    its correct outputs, by the set definition and in canonical order."""
    ext = brute_extension_of_set(task.env, task.inputs)
    outs = set(task.outputs_correct)
    return [
        pi for pi in brute_language(task.env)
        if {y for y in ext if set(pi) <= set(y)} == outs
    ]


@lru_cache(maxsize=None)
def _brute_input_sets(env: Environment) -> list:
    """Every input set, by size then canonical order, with its extension
    in canonical order."""
    lang = brute_language(env)
    return [
        (inputs, sorted(brute_extension_of_set(env, inputs), key=lambda y: (len(y), y)))
        for r in range(1, len(lang))
        for inputs in combinations(lang, r)
    ]


def brute_sample_index(env: Environment, index: int, include_empty_outputs: bool = True):
    """The (inputs, outputs) pair at a flat sampler index, by definition.

    Each input set takes one index per output set it admits; the
    ordinal of the output set (past the empty one when that is
    excluded) picks, bit by bit, members of the inputs' extension in
    canonical order.
    """
    skip = 0 if include_empty_outputs else 1
    for inputs, ext in _brute_input_sets(env):
        admits = max(2 ** len(ext) - 1 - skip, 0)
        if index < admits:
            ordinal = index + skip
            return inputs, tuple(y for bit, y in enumerate(ext) if ordinal >> bit & 1)
        index -= admits
    raise IndexError("index past the task count")


def table_weight(space, size: int) -> int:
    """The output sets strictly below an extension of ``size`` statements,
    less the empty one when the space excludes it."""
    return max((1 << size) - 1 - space._min_outputs, 0)


def input_masks(space):
    """The canonical order of a space's input sets, as masks."""
    bits = [1 << i for i in range(len(space.language))]
    return chain.from_iterable(map(sum, combinations(bits, k)) for k in range(1, len(bits)))


@lru_cache(maxsize=2)
def table_unions(space) -> array:
    """Every input set's union of extensions in canonical order, one size
    class at a time: the k-sets with first member s are s joined to the
    (k-1)-sets after s, the last C(n-1-s, k-1) of class k-1."""
    ext = space.ext_masks
    n = len(ext)
    unions = array("Q", ext if n > 1 else ())
    for k in range(2, n):
        end = len(unions)
        for s in range(n - k + 1):
            unions.extend(map(ext[s].__or__, unions[end - comb(n - 1 - s, k - 1):end]))
    return unions


def table_task_counts(space) -> list[int]:
    """The number of tasks of each input set, in canonical order, read
    off the union table."""
    return [table_weight(space, union.bit_count()) for union in table_unions(space)]


@lru_cache(maxsize=2)
def table_running_count(space) -> array:
    """The running task count along the canonical order: entry p counts
    the tasks whose input set sits at position p or before."""
    return array("Q", accumulate(table_task_counts(space)))


def table_unrank(space, pos: int) -> int:
    """The input mask at position ``pos`` of the canonical order, by the
    combinatorial number system: the size class first, then the
    lexicographic rank within it."""
    n = len(space.language)
    k = 1
    while pos >= comb(n, k):
        pos -= comb(n, k)
        k += 1
    imask = 0
    i = 0
    while k:
        # the k-subsets of positions i.. whose smallest member is i
        first = comb(n - 1 - i, k - 1)
        if pos < first:
            imask |= 1 << i
            k -= 1
        else:
            pos -= first
        i += 1
    return imask


def table_decode(space, index: int) -> tuple[int, int, int]:
    """The input mask, its union of extensions and the output mask of
    the task at a flat index, by the table sampler: bisect the running
    count for the position of the input set (a set that admits no task
    repeats its predecessor's count, so bisection never lands on it),
    read its union off the table, unrank the position, and pick the
    output set's members by the bits of its ordinal."""
    if not 0 <= index < space.total_count:
        raise IndexOutOfRange(f"task index {index} outside [0, {space.total_count})")
    cum = table_running_count(space)
    pos = bisect_right(cum, index)
    union = table_unions(space)[pos]
    ordinal = index - (cum[pos - 1] if pos else 0) + space._min_outputs
    members = [i for i in range(union.bit_length()) if union >> i & 1]
    omask = sum(1 << i for bit, i in enumerate(members) if ordinal >> bit & 1)
    return table_unrank(space, pos), union, omask


def per_draw_estimates(space, pmasks, samples: int, seed: int) -> list[int]:
    """The hits of each statement (given by its extension mask) over
    ``samples`` seeded draws, as the estimator counted them before it
    counted output masks per union: every draw is tested against every
    statement, a hit when ``union & pmask == omask``."""
    hits = [0] * len(pmasks)
    rng = Random(seed)
    for _ in range(samples):
        _, union, omask = space._decode(rng.randrange(space.total_count))
        for i, pmask in enumerate(pmasks):
            if union & pmask == omask:
                hits[i] += 1
    return hits


def mask_stream(space):
    """Every task of a space, as the stream built them before it took
    input tuples from ``combinations`` and one extension per run of
    equal unions: each input set's input and union masks are decoded
    through ``statements_of``, each gets a fresh ``ExtensionSet``, and
    ``tuple.__new__`` builds the tasks."""
    env = space.env
    statements_of = space.index.statements_of
    for imask, union in zip(input_masks(space), table_unions(space)):
        inputs = statements_of(imask)
        ext_statements = statements_of(union)
        ext = ExtensionSet._of_canonical(ext_statements)
        outs = chain.from_iterable(
            combinations(ext_statements, r) for r in range(space._min_outputs, len(ext_statements))
        )
        fields = zip(repeat(env), repeat(inputs), outs, repeat(ext))
        yield from map(tuple.__new__, repeat(Task), fields)


def brute_antichain_count(env: Environment, include_empty_outputs: bool = True) -> int:
    """The task count by a depth-first walk over the antichains of the
    statement order (x below y when y contains x).

    An input set I is fixed by its minimal members A, an antichain, and
    any subset of the rest of A's up-closure U, and its extension is U.
    So A stands for 2^(|U| - |A|) input sets of 2^|U| - 1 - m output sets
    each (m = 1 when empty outputs are excluded), less the whole
    language, which is no input set.
    """
    lang = brute_language(env)
    skip = 0 if include_empty_outputs else 1
    up = [brute_extension(env, x) for x in lang]
    comparable = [
        {y for y in lang if set(x) <= set(y) or set(y) <= set(x)} for x in lang
    ]

    def walk(start: int, size: int, closure: set, blocked: set) -> int:
        total = 0
        for i in range(start, len(lang)):
            if lang[i] in blocked:
                continue
            grown = closure | up[i]
            total += 2 ** (len(grown) - size - 1) * (2 ** len(grown) - 1 - skip)
            total += walk(i + 1, size + 1, grown, blocked | comparable[i])
        return total

    return walk(0, 0, set(), set()) - (2 ** len(lang) - 1 - skip)


def brute_relation(env: Environment, name: str, true_pairs=()):
    """``holds(l1, l2)`` of a built-in proxy, by its definition.

    ``name`` is weakness, simplicity, random:<seed> or table:<anything>;
    a table relation holds of exactly the listed ``true_pairs``.
    """
    if name == "weakness":
        sizes = {x: len(brute_extension(env, x)) for x in brute_language(env)}
        return lambda l1, l2: sizes[tuple(l1)] < sizes[tuple(l2)]
    if name == "simplicity":
        return lambda l1, l2: len(l1) > len(l2)
    if name.startswith("random:"):
        seed = int(name.split(":", 1)[1])

        def holds(l1, l2):
            key = "%d|{%s}|{%s}" % (seed, ",".join(map(str, l1)), ",".join(map(str, l2)))
            return hashlib.sha256(key.encode("utf-8")).digest()[0] & 1 == 1

        return holds
    if name.startswith("table:"):
        pairs = {(tuple(sorted(a)), tuple(sorted(b))) for a, b in true_pairs}
        return lambda l1, l2: (tuple(l1), tuple(l2)) in pairs
    raise ValueError(f"no oracle for proxy {name!r}")


def brute_sample_efficiency(env: Environment, verdicts_a, verdicts_b) -> int:
    """The double sum of |g - a| - |g - b| over ordered statement pairs.

    ``verdicts_x[i][j]`` is the proxy's verdict on the i-th and j-th
    statements of ``brute_language``; g compares the closed-form counts
    of tasks (empty outputs included) in which each is a correct policy.
    """
    lang = brute_language(env)
    n = len(lang)
    counts = []
    for x in lang:
        e = len(brute_extension(env, x))
        counts.append(2 ** n - 2 ** e - 1 + (1 if e == n else 0))
    total = 0
    for i in range(n):
        for j in range(n):
            g = 1 if counts[i] < counts[j] else 0
            total += abs(g - verdicts_a[i][j]) - abs(g - verdicts_b[i][j])
    return total


def brute_instantiate(rho, v_prime, guards=DEFAULT_GUARDS):
    """``bounds.instantiate`` by its state-tuple definition.

    Every candidate program must be a base program, and a state that is
    no int raises what ``mk_environment`` raises on it; the restricted
    environment is built from the candidate, and each base statement is
    carried over program by program, through the programs' state tuples,
    when all of its programs survive.  Outputs that complete no
    surviving input are dropped.
    """
    base_sets = rho.env.program_sets()
    sets = []
    for p in v_prime:
        states = p.states() if isinstance(p, Program) else tuple(p)
        if not all(isinstance(s, int) for s in states):
            mk_environment(rho.env.state_count, [states])  # names the state that is no int
        states = tuple(sorted(states))
        if states not in base_sets:
            raise InvalidVocabulary(
                f"program {{{','.join(map(str, states))}}} is not in the base vocabulary"
            )
        sets.append(states)
    env2 = mk_environment(rho.env.state_count, sets)
    kept = {p.states(): j for j, p in enumerate(env2.programs)}

    def remap(statements):
        out = set()
        for s in statements:
            members = [base_sets[j] for j in s]
            if all(m in kept for m in members):
                out.add(tuple(sorted(kept[m] for m in members)))
        return out

    inputs = remap(rho.base.inputs)
    if not inputs:
        raise EmptyInstantiation("no input statement survives this vocabulary")
    outs = [o for o in remap(rho.base.outputs_correct) if any(set(i) <= set(o) for i in inputs)]
    return mk_task(env2, inputs, outs, guards)
