"""Task utility and vocabulary comparison.

The utility of a task is the weakness of its weakest correct policy
minus the number of its correct outputs: how much room the vocabulary
leaves for weak (permissive) policies.  A task posed over the full
powerset vocabulary can be restricted to any sub-vocabulary by keeping
exactly the statements still expressible there; comparing utilities and
generalization probabilities across such restrictions is what the
verification reports in this module do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import lcm
from operator import and_, or_
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

from .core import (
    DEFAULT_GUARDS,
    Environment,
    ExtensionSet,
    Guards,
    Program,
    Statement,
    _bits,
    _index_cached,
    _program_positions,
    encode_statement,
    env_hash,
)
from .errors import (
    EmptyInstantiation,
    InputsNotStrictSubset,
    InvalidVocabulary,
    NoCorrectPolicy,
    OutputsNotStrict,
    StateSpaceTooLarge,
    TruthSetTooLarge,
    VocabularyTooLarge,
    WeakformError,
)
from .tasks import (
    Task,
    _class_counts,
    _ones,
    _policy_count,
    _programs,
    correct_policies,
)

__all__ = [
    "BoundReport",
    "MaximalityReport",
    "UninstantiatedTask",
    "UtilityReport",
    "all_vocabularies",
    "compare_vocabularies",
    "encode_vocabulary",
    "instantiate",
    "mk_uninstantiated",
    "restriction_is_strict_child",
    "utility",
    "verify_upper_bound",
    "verify_utility_maximal_at_P",
    "weakest_correct_policy",
]

#: Sweeping every sub-vocabulary reads 2^(2^states) restrictions, one per
#: subset of the 2^states programs of the full powerset vocabulary.
MAX_SWEEP_STATES = 3


# --- utility ---------------------------------------------------------------------

def utility(task: Task, guards: Guards = DEFAULT_GUARDS) -> int:
    """Extension size of the weakest correct policy, minus the number of
    correct outputs.  Undefined (raises) when no correct policy exists."""
    _, size = weakest_correct_policy(task, guards)
    return size - len(task.outputs_correct)


def weakest_correct_policy(task: Task, guards: Guards = DEFAULT_GUARDS) -> tuple[Statement, int]:
    """The weakest correct policy and its extension size; ties go to the
    canonically smallest statement."""
    # policies come in canonical order, so the first of the largest wins
    policies = correct_policies(task)
    if not policies:
        raise NoCorrectPolicy("the task has no correct policy")
    # the task's index was admitted when the task was built, as in ``correct_policies``
    sizes = _index_cached(task.env).extension_sizes(policies, guards)
    best = max(sizes)
    return policies[sizes.index(best)], best


# --- uninstantiated tasks -----------------------------------------------------------

class UninstantiatedTask:
    """A task over the full powerset vocabulary, awaiting a vocabulary;
    equal to another, and hashed, by its base task.

    It holds the base task over its own language index, from which each
    restriction to a sub-vocabulary B is read off without building it
    (``restrict``).  The restricted language is exactly the base
    statements whose programs all lie in B, the down-set ``L_B =
    below(B)``.  The restricted inputs, extension and outputs are the
    base ones ANDed with ``L_B``: a statement of ``L_B`` that completes a
    base input completes one inside ``L_B``, whose programs are a subset
    of its own.  The renumbering onto B is monotone, so base canonical
    order is the restricted canonical order; only ``instantiate`` and
    report strings need it.

    The restricted task space is counted off the same masks: its task
    counts are ``tasks._class_counts`` over ``L_B`` with the base
    extensions, and a policy's numerator is ``tasks._policy_count`` over
    ``L_B``.  Only the base task's own masks and its row memo live here;
    what depends on the environment alone, the sweeps' tables and memos,
    is its index's.

    The row memo (``rows``) keeps each restriction's outcome, keyed by
    the ``Guards`` a sweep ran under and then by the base program mask:
    the class of its error, or the first row built for it, with its
    restricted language and correct policies.  Every sweep over this
    base task reads it, so a candidate's row is built once however many
    reports, lists or orders ask for it; a reader renumbers the row and
    rewrites its ``vocabulary`` string to its own.  It holds at most one
    entry per distinct candidate mask per ``Guards``.
    """

    __slots__ = (
        "base", "index", "input_mask", "input_programs", "output_mask", "extension_mask", "rows",
    )

    def __init__(self, base: Task):
        self.base = base
        # the base task was admitted under its own guards
        self.index = index = _index_cached(base.env)
        position = index.position
        self.input_mask = sum(1 << position[x] for x in base.inputs)
        self.input_programs = tuple(map(_programs, base.inputs))
        self.output_mask = sum(1 << position[y] for y in base.outputs_correct)
        self.extension_mask = sum(1 << position[y] for y in base.extension)
        self.rows: dict[Guards, dict[int, type[WeakformError] | tuple]] = {}

    @property
    def env(self) -> Environment:
        return self.base.env

    def __eq__(self, other: object) -> bool:
        return type(other) is UninstantiatedTask and self.base == other.base

    def __hash__(self) -> int:
        return hash(self.base)

    def __repr__(self) -> str:
        return f"UninstantiatedTask({self.base.encode()})"

    def restrict(
        self, vocabulary: int, guards: Guards
    ) -> tuple[int, int, int, int] | type[WeakformError]:
        """The restricted language, inputs, extension and outputs, as masks
        over the base language, for the base program mask ``vocabulary``;
        or the class of the error the restriction raises: first
        ``EmptyInstantiation`` when no input survives, then what ``mk_task``
        raises on the restricted task, in its order.  A sweep records the
        class's name, so it builds no exception; ``instantiate`` raises it."""
        # an input survives when its programs lie in the vocabulary; most
        # candidates of a sweep keep none, so this is tested before the
        # down-set is built
        if all(q & ~vocabulary for q in self.input_programs):
            return EmptyInstantiation
        if vocabulary.bit_count() > guards.max_vocabulary:
            return VocabularyTooLarge
        language = self.index.below(vocabulary)
        inputs = self.input_mask & language
        if inputs == language:
            return InputsNotStrictSubset
        extension = self.extension_mask & language
        outputs = self.output_mask & language
        if outputs == extension:
            return OutputsNotStrict
        return language, inputs, extension, outputs


def mk_uninstantiated(base: Task) -> UninstantiatedTask:
    n = base.env.state_count
    if base.env.vocabulary_size != (1 << n):
        raise InvalidVocabulary(
            "the base task must be posed over the full powerset vocabulary"
        )
    return UninstantiatedTask(base)


def instantiate(
    rho: UninstantiatedTask,
    v_prime: Iterable,
    guards: Guards = DEFAULT_GUARDS,
) -> Task:
    """Restrict the base task to a sub-vocabulary of state-set iterables
    or Program values, each drawn from the base vocabulary.

    The candidate is read as ``mk_environment`` reads a vocabulary
    (``core._program_positions``).  Keeps exactly the inputs and correct
    outputs whose programs are all still present, and raises what
    building that task in the new environment would raise.  A kept
    output still completes a kept input: the input it completed has a
    subset of its programs.  Restriction by the full vocabulary is the
    identity.  The task is read off the base task's masks
    (``UninstantiatedTask.restrict``), as the vocabulary comparisons
    below read every restriction; the tests check it against a
    restriction by the programs' state tuples.
    """
    vocabulary = sum(1 << b for b in _program_positions(rho.env, v_prime))
    restricted = rho.restrict(vocabulary, guards)
    if isinstance(restricted, type):
        size = vocabulary.bit_count()
        raise restricted(_REFUSALS[restricted].format(size=size, guards=guards))
    # base canonical order, restricted, is the restricted canonical order
    programs = rho.env.programs
    env2 = Environment(rho.env.state_count, tuple(map(programs.__getitem__, _bits(vocabulary))))
    statements = rho.index.statements
    # the restricted language is dropped: the new environment has its own
    inputs, extension, outputs = (
        tuple(_renumbered(vocabulary, statements[i]) for i in _bits(mask))
        for mask in restricted[1:]
    )
    return Task((env2, inputs, outputs, ExtensionSet._of_canonical(extension)))


def restriction_is_strict_child(rho: UninstantiatedTask, restricted: Task) -> bool:
    """Whether the restriction relates to its base as a strict child
    (strictly fewer inputs, no new outputs), compared program-wise."""

    def family(env: Environment, statements: Sequence[Statement]) -> frozenset:
        return frozenset(
            frozenset(env.programs[j].mask for j in s) for s in statements
        )

    ia = family(restricted.env, restricted.inputs)
    iw = family(rho.env, rho.base.inputs)
    oa = family(restricted.env, restricted.outputs_correct)
    ow = family(rho.env, rho.base.outputs_correct)
    return ia < iw and oa <= ow


# --- candidate vocabularies -----------------------------------------------------------

def encode_vocabulary(programs: Iterable) -> str:
    """Each program as its sorted state set; a state that is no exact int
    is written by its ``repr``, so ``"0"`` or ``True`` never reads as 0 or 1."""
    parts = []
    for p in programs:
        p = p.states() if isinstance(p, Program) else tuple(p)
        try:
            p = sorted(set(p))
        except TypeError:  # a state that is no int may not sort or hash: kept as given
            pass
        parts.append(encode_statement(s if type(s) is int else repr(s) for s in p))
    return "[%s]" % ",".join(parts)


def all_vocabularies(env: Environment) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every subset of the environment's vocabulary, smallest first."""
    sets = env.program_sets()
    for size in range(len(sets) + 1):
        for combo in combinations(sets, size):
            yield combo


# --- reports ---------------------------------------------------------------------------

class VocabularyRow(NamedTuple):
    """One candidate vocabulary's outcome in a utility comparison; a
    named tuple, as a sweep builds one per candidate."""

    index: int
    vocabulary: str
    language_size: int | None
    utility: int | None
    witness_policy: str | None
    witness_extension_size: int | None
    strict_child: bool | None
    error: str | None

    def to_dict(self) -> dict:
        return self._asdict()


def _report_header(rho: UninstantiatedTask, rows: Sequence[VocabularyRow], guards: Guards) -> dict:
    from . import __version__

    return {
        "environment_hash": env_hash(rho.env),
        "states": rho.env.state_count,
        "base_task": rho.base.encode(),
        "guards": asdict(guards),
        "seeds": [],  # nothing in a report is random
        "version": __version__,
        "candidates": [r.vocabulary for r in rows],
    }


def _num_den(q: Fraction) -> str:
    """An exact rational as a report writes it, ``num/den`` even for an integer."""
    return f"{q.numerator}/{q.denominator}"


class _Report:
    """The one writer of a report: the keys of its first field, ``header``,
    then each other field by name, a record by its ``to_dict`` and a tuple
    of records as a list."""

    def to_json(self) -> str:
        doc = dict(self.header)
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = [r.to_dict() for r in value]
            doc[field.name] = value
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class UtilityReport(_Report):
    header: dict
    rows: tuple[VocabularyRow, ...]


#: The message ``instantiate`` raises each error of ``UninstantiatedTask.restrict`` with.
_REFUSALS = {
    EmptyInstantiation: "no input statement survives this vocabulary",
    VocabularyTooLarge: "|v| = {size} exceeds guard {guards.max_vocabulary}",
    InputsNotStrictSubset: "inputs cover the whole language",
    OutputsNotStrict: "outputs equal the whole input extension",
}


def _renumbered(vocabulary: int, statement: Statement) -> Statement:
    """A base statement inside the base program mask ``vocabulary``, in
    the restricted environment's indices: each program's rank in it."""
    return tuple((vocabulary & ((1 << b) - 1)).bit_count() for b in statement)


def _parsed(
    rho: UninstantiatedTask, candidates: Sequence[Iterable]
) -> Iterator[tuple[str, int | type[WeakformError]]]:
    """Each caller-supplied candidate's report string, with its base
    program mask or the class of the error ``core._program_positions``
    raises on it (as ``restrict`` gives its own); a candidate, or a
    program of it, that is no iterable is written as its ``repr``, with
    ``InvalidVocabulary``.  A candidate in canonical form, a tuple of base
    state tuples in base order whose states are exact ints, is parsed
    once per environment, into ``LanguageIndex.parsed``."""
    index = rho.index
    parsed, codes, sets = index.parsed, index.program_codes, rho.env.program_sets()
    for given in candidates:
        try:
            cand = tuple(given)  # read twice, so a one-shot iterator is read here once
            # only tuples of exact ints may look an entry up: True and 1.0 equal 1
            plain = all(type(p) is tuple for p in cand) and {int}.issuperset(
                map(type, chain.from_iterable(cand))
            )
            if not plain:  # each program is read twice as well, so it is frozen here once
                cand = tuple(p if isinstance(p, Program) else tuple(p) for p in cand)
        except TypeError:  # the candidate, or a program of it, is no iterable
            yield repr(given), InvalidVocabulary
            continue
        got = parsed.get(cand) if plain else None
        if got is not None:
            yield got
            continue
        try:
            found = _program_positions(rho.env, cand)
        except WeakformError as exc:
            yield encode_vocabulary(cand), type(exc)
            continue
        got = "[%s]" % ",".join(map(codes.__getitem__, found)), sum(1 << b for b in found)
        if plain and cand == tuple(map(sets.__getitem__, _bits(got[1]))):
            parsed[cand] = got
        yield got


def _vocabulary_rows(
    rho: UninstantiatedTask, candidates: Sequence[Iterable] | Literal["all"], guards: Guards
) -> list[tuple[VocabularyRow, int, int, int]]:
    """Each candidate's utility row, with its base program mask, its
    restricted language and its correct policies as masks over the base
    language (all 0 if the row has an error).  ``"all"`` reads every
    sub-vocabulary off the environment's sweep table
    (``LanguageIndex.swept``), parsing none; a list is parsed
    (``_parsed``); any other string raises ``InvalidVocabulary``.

    p is a correct policy when ``E_B ∩ ext(p) = O_B``: every output
    completes p and no other member of ``E_B`` does.  Transposed onto the
    environment's down table, the policies are
    ``L_B & AND_{o in O_B} down[o] & ~OR_{y in E_B - O_B} down[y]``.  A
    row's error is recorded by its class's name; none is raised.  A
    parsed mask's outcome is built once per base task and ``Guards``,
    into the row memo ``rho.rows``; a candidate the parse rejects is
    never memoised."""
    index = rho.index
    if candidates == "all":
        vocabularies = index.swept
    elif isinstance(candidates, str) or not isinstance(candidates, Iterable):
        raise InvalidVocabulary(f'candidates {candidates!r} is neither "all" nor a list')
    else:
        vocabularies = _parsed(rho, candidates)
    memo = rho.rows.setdefault(guards, {})
    statements, ext, down = index.statements, index.ext_masks, index.down.__getitem__
    too_wide = index.too_wide(guards)
    out = []
    for idx, (encoded, vocabulary) in enumerate(vocabularies):
        # a class is an error: the parse step's, or else the memoised
        # restriction's
        known = vocabulary if isinstance(vocabulary, type) else memo.get(vocabulary)
        if known is None:
            known = rho.restrict(vocabulary, guards)
            if not isinstance(known, type):
                language, inputs, extension, outputs = known
                policies = reduce(and_, map(down, _bits(outputs)), language) & ~reduce(
                    or_, map(down, _bits(extension & ~outputs)), 0
                )
                if not policies:
                    known = NoCorrectPolicy
                elif policies & too_wide:
                    known = TruthSetTooLarge
                else:
                    # policies in canonical order, so the first of the largest wins
                    members = _bits(policies)
                    sizes = [(ext[p] & language).bit_count() for p in members]
                    size = max(sizes)
                    witness = _renumbered(vocabulary, statements[members[sizes.index(size)]])
                    row = VocabularyRow(
                        idx,
                        encoded,
                        language.bit_count(),
                        size - outputs.bit_count(),
                        encode_statement(witness),
                        size,
                        inputs != rho.input_mask,
                        None,
                    )
                    known = (row, vocabulary, language, policies)
            memo[vocabulary] = known
        if isinstance(known, type):
            # a row with an error ranks none of its pairs
            row = VocabularyRow(idx, encoded, None, None, None, None, None, known.__name__)
            out.append((row, 0, 0, 0))
            continue
        row = known[0]
        if row.index != idx or row.vocabulary != encoded:
            # the memoised row, numbered and written as this caller's
            known = (VocabularyRow(idx, encoded, *row[2:]), *known[1:])
        out.append(known)
    return out


def compare_vocabularies(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable] | Literal["all"],
    guards: Guards = DEFAULT_GUARDS,
) -> UtilityReport:
    """One row per candidate vocabulary, or per sub-vocabulary for
    ``"all"``; per-row failures are recorded, never raised."""
    outcomes = _vocabulary_rows(rho, candidates, guards)
    rows = tuple(row for row, _, _, _ in outcomes)
    header = _report_header(rho, rows, guards)
    return UtilityReport(header, rows)


class CandidatePolicy(NamedTuple):
    """A (vocabulary, policy) pair with its generalization probability; a
    named tuple, as a bound report builds one per pair."""

    candidate_index: int
    vocabulary: str
    policy: str
    extension_size: int
    probability: Fraction

    def to_dict(self) -> dict:
        return {**self._asdict(), "probability": _num_den(self.probability)}


@dataclass(frozen=True)
class BoundReport(_Report):
    """Outcome of the max-utility-then-max-weakness selection recipe."""

    header: dict
    outcome: str                      # "attained" | "not_attained" | "no_candidate"
    selected: CandidatePolicy | None
    best: CandidatePolicy | None
    ranking: tuple[CandidatePolicy, ...]
    utility_rows: tuple[VocabularyRow, ...]

    @property
    def attained(self) -> bool | None:
        if self.outcome == "no_candidate":
            return None
        return self.outcome == "attained"


def verify_upper_bound(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable] | Literal["all"],
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> BoundReport:
    """Select the candidate maximising utility, then its weakest correct
    policy, and check that pair attains the best generalization
    probability over every instantiable (vocabulary, policy) pair.

    Every pair is read off the base task's masks, with nothing built per
    candidate: the probability of policy p over a candidate B is the
    restricted generalization table's, ``tasks._policy_count`` over the
    sum of ``tasks._class_counts`` for ``L_B``, and the pair's extension size
    is ``|ext[p] & L_B|``.  The environment's ``LanguageIndex`` keeps each
    ``(L_B, m)`` count and each canonical candidate's parse, so a later
    base task over the same environment redoes neither; the pivot
    count's memo serves one call, its fields sized by the largest
    ``L_B`` the call ranks.  The utility rows come from the base task's
    row memo (``UninstantiatedTask.rows``), which this call fills for
    its candidates under ``guards``, so a later sweep of the same base
    task, ``verify_utility_maximal_at_P`` among them, restricts only the
    candidates this one did not hold.
    """
    outcomes = _vocabulary_rows(rho, candidates, guards)
    rows = tuple(row for row, _, _, _ in outcomes)
    # a candidate whose restricted task space exceeds the task-language
    # guard ranks no pair; whether the guard should raise here instead
    # is an open decision.  No count is 0: a row with a policy keeps an
    # input and stops short of L_B, so |L_B| >= 2, and the one input
    # set {empty statement}, whose extension is all of L_B, admits
    # 2^|L_B| - 1 - m >= 2 tasks
    ranked = [
        (row, vocabulary, language, policies)
        for row, vocabulary, language, policies in outcomes
        if policies and language.bit_count() <= guards.max_task_language
    ]
    index = rho.index
    statements, ext = index.statements, index.ext_masks
    counts, memo = index.counts, {}
    ones = _ones(max((language.bit_count() for _, _, language, _ in ranked), default=0))
    m = 0 if include_empty_outputs else 1
    pairs: list[CandidatePolicy] = []
    for row, vocabulary, language, policies in ranked:
        denominator = counts.get((language, m))
        if denominator is None:
            denominator = counts[language, m] = sum(_class_counts(ext, language, memo, ones, m))
        for p in _bits(policies):
            pairs.append(
                CandidatePolicy(
                    row.index,
                    row.vocabulary,
                    encode_statement(_renumbered(vocabulary, statements[p])),
                    (ext[p] & language).bit_count(),
                    Fraction(_policy_count(index, p, language, m), denominator),
                )
            )

    return _select(_report_header(rho, rows, guards), rows, pairs)


def _select(
    header: dict, rows: tuple[VocabularyRow, ...], pairs: list[CandidatePolicy]
) -> BoundReport:
    """The selection recipe over the utility rows and every
    (vocabulary, policy) pair with its probability."""
    with_pairs = {p.candidate_index for p in pairs}
    defined = [r for r in rows if r.utility is not None and r.index in with_pairs]
    if not defined:
        return BoundReport(header, "no_candidate", None, None, (), rows)

    best_utility = max(r.utility for r in defined)
    chosen = next(r for r in defined if r.utility == best_utility)
    selected = next(
        p
        for p in pairs
        if p.candidate_index == chosen.index and p.policy == chosen.witness_policy
    )
    # highest probability first, ties by candidate, then policy code: a
    # stable sort on the tie-breaks, then a stable reverse sort on the
    # probability, which keeps tied pairs in tie-break order.  A
    # probability ranks as its numerator over the lcm of the call's
    # denominators, an exact int that compares faster than a Fraction
    denominators = {p.probability.denominator for p in pairs}
    scale = lcm(*denominators)
    factor = {d: scale // d for d in denominators}
    ranking = sorted(pairs, key=lambda p: (p.candidate_index, len(p.policy), p.policy))
    ranking.sort(
        key=lambda p: p.probability.numerator * factor[p.probability.denominator], reverse=True
    )
    best = ranking[0]
    outcome = "attained" if selected.probability == best.probability else "not_attained"
    return BoundReport(header, outcome, selected, best, tuple(ranking), rows)


@dataclass(frozen=True)
class MaximalityReport(_Report):
    """Whether the full vocabulary maximises utility for one base task."""

    header: dict
    holds: bool
    utility_at_full: int | None
    witness: VocabularyRow | None
    rows: tuple[VocabularyRow, ...]


def verify_utility_maximal_at_P(
    rho: UninstantiatedTask,
    guards: Guards = DEFAULT_GUARDS,
) -> MaximalityReport:
    """Sweep every sub-vocabulary and check none beats the full one.

    The rows are ``compare_vocabularies(rho, "all")``'s.  A candidate
    beats the full vocabulary with a larger utility, or with any utility
    when the full vocabulary has none; the witness is the one with the
    largest utility, the first of them on a tie.
    """
    n = rho.env.state_count
    if n > MAX_SWEEP_STATES:
        raise StateSpaceTooLarge(
            f"sweeping all vocabularies needs 2^(2^{n}) candidates; refuse beyond "
            f"{MAX_SWEEP_STATES} states"
        )
    report = compare_vocabularies(rho, "all", guards)
    full = report.rows[-1].utility  # the full vocabulary is the last subset
    witness = max(
        (r for r in report.rows if r.utility is not None and (full is None or r.utility > full)),
        key=lambda r: (r.utility, -r.index),
        default=None,
    )
    return MaximalityReport(report.header, witness is None, full, witness, report.rows)
