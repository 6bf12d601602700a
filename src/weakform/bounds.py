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
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations
from math import lcm
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    DEFAULT_GUARDS,
    Environment,
    ExtensionSet,
    Guards,
    Program,
    Statement,
    _bits,
    _index_cached,
    _Vocabularies,
    encode_statement,
    env_hash,
    extension_size,
    mk_environment,
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
    sizes = [extension_size(task.env, p, guards) for p in policies]
    best = max(sizes)
    return policies[sizes.index(best)], best


# --- uninstantiated tasks -----------------------------------------------------------

@dataclass(frozen=True)
class UninstantiatedTask:
    """A task over the full powerset vocabulary, awaiting a vocabulary."""

    base: Task

    @property
    def env(self) -> Environment:
        return self.base.env

    @cached_property
    def _masks(self) -> _BaseMasks:
        return _BaseMasks(self.base)

    def __repr__(self) -> str:
        return f"UninstantiatedTask({self.base.encode()})"


def mk_uninstantiated(base: Task) -> UninstantiatedTask:
    n = base.env.state_count
    if base.env.vocabulary_size != (1 << n):
        raise InvalidVocabulary(
            "the base task must be posed over the full powerset vocabulary"
        )
    return UninstantiatedTask(base)


def _positions(vocabularies: _Vocabularies, candidate: Iterable) -> list[int]:
    """The base positions of a candidate's programs, in its order: state-set
    iterables or Program values, each drawn from the base vocabulary.

    A program with a state that is no int (``"a"``, 1.0) is built by
    ``mk_environment`` before it is sorted, and raises its
    ``StateOutOfRange``.  Then a foreign program raises
    ``InvalidVocabulary``, as does a Program over another number of
    states, even when its states name a base program.  A candidate with
    a repeated program, or with an int state that is no plain int (True,
    an int subclass), is built by ``mk_environment`` too, which raises
    that vocabulary's own error; every other candidate skips the build."""
    position = vocabularies.position
    n = vocabularies.state_count
    sets = []
    for p in candidate:
        if isinstance(p, Program):
            if p.width != n:
                raise InvalidVocabulary(f"{p!r} is over {p.width} states, not {n}")
            states = p.states()
        else:
            states = tuple(p)
            if not all(isinstance(s, int) for s in states):
                mk_environment(n, [states])
            states = tuple(sorted(states))
        if states not in position:
            raise InvalidVocabulary(
                f"program {{{','.join(map(str, states))}}} is not in the base vocabulary"
            )
        sets.append(states)
    found = list(map(position.__getitem__, sets))
    if len(set(found)) < len(found) or not {int}.issuperset(map(type, chain.from_iterable(sets))):
        mk_environment(n, sets)
    return found


def instantiate(
    rho: UninstantiatedTask,
    v_prime: Iterable,
    guards: Guards = DEFAULT_GUARDS,
) -> Task:
    """Restrict the base task to a sub-vocabulary of state-set iterables
    or Program values, each drawn from the base vocabulary.

    Keeps exactly the inputs and correct outputs whose programs are all
    still present, and raises what building that task in the new
    environment would raise.  A kept output still completes a kept
    input: the input it completed has a subset of its programs.
    Restriction by the full vocabulary is the identity.  The task is read
    off the base task's masks (``_BaseMasks.restrict``), as the
    vocabulary comparisons below read every restriction; the tests check
    it against a restriction by the programs' state tuples.
    """
    masks = rho._masks
    vocabulary = sum(1 << b for b in _positions(masks.vocabularies, v_prime))
    restricted = masks.restrict(vocabulary, guards)
    if isinstance(restricted, type):
        size = vocabulary.bit_count()
        raise restricted(_REFUSALS[restricted].format(size=size, guards=guards))
    sets = masks.vocabularies.sets
    env2 = mk_environment(rho.env.state_count, map(sets.__getitem__, _bits(vocabulary)))
    statements = masks.index.statements
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
    parts = []
    for p in programs:
        p = p.states() if isinstance(p, Program) else tuple(p)
        try:
            p = sorted(p)
        except TypeError:  # a state that is no int may not sort: kept as given
            pass
        parts.append(encode_statement(p))
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


def _report_header(
    rho: UninstantiatedTask, rows: Sequence[VocabularyRow], guards: Guards, seeds: Sequence[int]
) -> dict:
    from . import __version__

    return {
        "environment_hash": env_hash(rho.env),
        "states": rho.env.state_count,
        "base_task": rho.base.encode(),
        "guards": asdict(guards),
        "seeds": list(seeds),
        "version": __version__,
        "candidates": [r.vocabulary for r in rows],
    }


@dataclass(frozen=True)
class UtilityReport:
    header: dict
    rows: tuple[VocabularyRow, ...]

    def to_json(self) -> str:
        doc = dict(self.header)
        doc["rows"] = [r.to_dict() for r in self.rows]
        return json.dumps(doc, indent=2, sort_keys=True)


class _BaseMasks:
    """The base task over its own language index, from which each
    restriction to a sub-vocabulary B is read off without building it.

    The restricted language is exactly the base statements whose
    programs all lie in B, the down-set ``L_B = below(B)``.  The
    restricted inputs, extension and outputs are the base ones ANDed
    with ``L_B``: a statement of ``L_B`` that completes a base input
    completes one inside ``L_B``, whose programs are a subset of its own.
    The renumbering onto B is monotone, so base canonical order is the
    restricted canonical order; only ``instantiate`` and report strings
    need it.

    The restricted task space is counted off the same masks: its task
    counts are ``tasks._class_counts`` over ``L_B`` with the base
    extensions, and a policy's numerator is ``tasks._policy_count`` over
    ``L_B``.  Only the base task's own masks live here; what depends on
    the environment alone is its index's ``_Vocabularies``.
    """

    def __init__(self, base: Task):
        # the base task was admitted under its own guards
        self.index = index = _index_cached(base.env)
        self.vocabularies = index.vocabularies
        position = index.position
        self.ext = index.ext_masks
        self.inputs = sum(1 << position[x] for x in base.inputs)
        self.input_programs = tuple(map(_programs, base.inputs))
        self.outputs = sum(1 << position[y] for y in base.outputs_correct)
        self.extension = sum(1 << position[y] for y in base.extension)

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
        inputs = self.inputs & language
        if inputs == language:
            return InputsNotStrictSubset
        extension = self.extension & language
        outputs = self.outputs & language
        if outputs == extension:
            return OutputsNotStrict
        return language, inputs, extension, outputs

    def task_count(self, language: int, memo: dict, m: int) -> int:
        """The size of the task space restricted to ``language = L_B``
        (``m`` is 1 when empty outputs are excluded); ``memo`` is keyed by
        base masks, so one serves every restriction of this environment."""
        return sum(_class_counts(self.ext, language, memo, _ones(len(self.ext)), m))


#: The message ``instantiate`` raises each error of ``_BaseMasks.restrict`` with.
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
) -> Iterator[tuple[str, int | WeakformError]]:
    """Each caller-supplied candidate's report string, with its base
    program mask or the error ``_positions`` raises on it.  A candidate
    in canonical form is parsed once per environment, into the memo of
    ``_Vocabularies.parsed``; every other one is parsed here."""
    vocabularies = rho._masks.vocabularies
    parsed, codes, sets = vocabularies.parsed, vocabularies.codes, vocabularies.sets
    for cand in candidates:
        cand = tuple(cand)  # read twice, so a one-shot iterator is read here once
        # only tuples of exact ints may look an entry up: True and 1.0 equal 1
        plain = all(type(p) is tuple for p in cand) and {int}.issuperset(
            map(type, chain.from_iterable(cand))
        )
        got = parsed.get(cand) if plain else None
        if got is not None:
            yield got
            continue
        if not plain:  # each program is read twice as well, so it is frozen here once
            cand = tuple(p if isinstance(p, Program) else tuple(p) for p in cand)
        try:
            found = _positions(vocabularies, cand)
        except WeakformError as exc:
            yield encode_vocabulary(cand), exc
            continue
        got = "[%s]" % ",".join(map(codes.__getitem__, found)), sum(1 << b for b in found)
        if plain and cand == tuple(map(sets.__getitem__, _bits(got[1]))):
            parsed[cand] = got
        yield got


def _vocabulary_rows(
    rho: UninstantiatedTask, vocabularies: Iterable[tuple[str, int | WeakformError]], guards: Guards
) -> list[tuple[VocabularyRow, int, int, int]]:
    """Each candidate's utility row, with its base program mask, its
    restricted language and its correct policies as masks over the base
    language (all 0 if the row has an error).

    p is a correct policy when ``E_B ∩ ext(p) = O_B``: every output
    completes p and no other member of ``E_B`` does.  Transposed onto the
    environment's down table, the policies are
    ``L_B & AND_{o in O_B} down[o] & ~OR_{y in E_B - O_B} down[y]``.  A
    row's error is recorded by its class's name; none is raised."""
    masks = rho._masks
    statements = masks.index.statements
    ext = masks.ext
    restrict = masks.restrict
    down = masks.vocabularies.down.__getitem__
    too_wide = masks.vocabularies.too_wide(guards)
    out = []
    for idx, (encoded, vocabulary) in enumerate(vocabularies):
        if isinstance(vocabulary, WeakformError):
            error = type(vocabulary)  # the parse step's error is the row's
        else:
            restricted = restrict(vocabulary, guards)
            error = restricted if isinstance(restricted, type) else None
        if error is None:
            language, inputs, extension, outputs = restricted
            policies = reduce(and_, map(down, _bits(outputs)), language) & ~reduce(
                or_, map(down, _bits(extension & ~outputs)), 0
            )
            if not policies:
                error = NoCorrectPolicy
            elif policies & too_wide:
                error = TruthSetTooLarge
        if error is not None:
            # a row with an error ranks none of its pairs
            row = VocabularyRow(idx, encoded, None, None, None, None, None, error.__name__)
            out.append((row, 0, 0, 0))
            continue
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
            inputs != masks.inputs,
            None,
        )
        out.append((row, vocabulary, language, policies))
    return out


def compare_vocabularies(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable],
    guards: Guards = DEFAULT_GUARDS,
    seeds: Sequence[int] = (),
) -> UtilityReport:
    """One row per candidate vocabulary; per-row failures are recorded,
    never raised."""
    outcomes = _vocabulary_rows(rho, _parsed(rho, candidates), guards)
    rows = tuple(row for row, _, _, _ in outcomes)
    header = _report_header(rho, rows, guards, seeds)
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
        return {
            "candidate_index": self.candidate_index,
            "vocabulary": self.vocabulary,
            "policy": self.policy,
            "extension_size": self.extension_size,
            "probability": f"{self.probability.numerator}/{self.probability.denominator}",
        }


@dataclass(frozen=True)
class BoundReport:
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

    def to_json(self) -> str:
        doc = dict(self.header)
        doc["outcome"] = self.outcome
        doc["selected"] = self.selected.to_dict() if self.selected else None
        doc["best"] = self.best.to_dict() if self.best else None
        doc["ranking"] = [c.to_dict() for c in self.ranking]
        doc["utility_rows"] = [r.to_dict() for r in self.utility_rows]
        return json.dumps(doc, indent=2, sort_keys=True)


def verify_upper_bound(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable],
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
    seeds: Sequence[int] = (),
) -> BoundReport:
    """Select the candidate maximising utility, then its weakest correct
    policy, and check that pair attains the best generalization
    probability over every instantiable (vocabulary, policy) pair.

    Every pair is read off the base task's masks, with nothing built per
    candidate: the probability of policy p over a candidate B is the
    restricted generalization table's, ``tasks._policy_count`` over
    ``_BaseMasks.task_count`` for ``L_B``, and the pair's extension size
    is ``|ext[p] & L_B|``.  The environment's ``_Vocabularies`` keeps each
    ``(L_B, m)`` count and each canonical candidate's parse, so a later
    base task over the same environment redoes neither; the pivot
    count's memo serves one call.
    """
    outcomes = _vocabulary_rows(rho, _parsed(rho, candidates), guards)
    rows = tuple(row for row, _, _, _ in outcomes)
    masks = rho._masks
    statements = masks.index.statements
    counts = masks.vocabularies.counts
    memo: dict = {}
    m = 0 if include_empty_outputs else 1
    pairs: list[CandidatePolicy] = []
    for row, vocabulary, language, policies in outcomes:
        if not policies:
            continue
        # a candidate whose restricted task space exceeds the task-language
        # guard, or is empty, ranks no pair; whether the guard should raise
        # here instead is an open decision
        if language.bit_count() > guards.max_task_language:
            continue
        denominator = counts.get((language, m))
        if denominator is None:
            denominator = counts[language, m] = masks.task_count(language, memo, m)
        if not denominator:
            continue
        for p in _bits(policies):
            pairs.append(
                CandidatePolicy(
                    row.index,
                    row.vocabulary,
                    encode_statement(_renumbered(vocabulary, statements[p])),
                    (masks.ext[p] & language).bit_count(),
                    Fraction(_policy_count(masks.index, p, language, m), denominator),
                )
            )

    return _select(_report_header(rho, rows, guards, seeds), rows, pairs)


def _select(
    header: dict, rows: tuple[VocabularyRow, ...], pairs: list[CandidatePolicy]
) -> BoundReport:
    """The selection recipe over the utility rows and every
    (vocabulary, policy) pair with its probability."""
    with_pairs = {p.candidate_index for p in pairs}
    defined = [r for r in rows if r.utility is not None and r.index in with_pairs]
    if not defined or not pairs:
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
class MaximalityReport:
    """Whether the full vocabulary maximises utility for one base task."""

    header: dict
    holds: bool
    utility_at_full: int | None
    witness: VocabularyRow | None
    rows: tuple[VocabularyRow, ...]

    def to_json(self) -> str:
        doc = dict(self.header)
        doc["holds"] = self.holds
        doc["utility_at_full"] = self.utility_at_full
        doc["witness"] = self.witness.to_dict() if self.witness else None
        doc["rows"] = [r.to_dict() for r in self.rows]
        return json.dumps(doc, indent=2, sort_keys=True)


def verify_utility_maximal_at_P(
    rho: UninstantiatedTask,
    guards: Guards = DEFAULT_GUARDS,
    seeds: Sequence[int] = (),
) -> MaximalityReport:
    """Sweep every sub-vocabulary and check none beats the full one.

    A candidate with defined utility while the full vocabulary has none
    counts as a violation and is returned as the witness.
    """
    n = rho.env.state_count
    if n > MAX_SWEEP_STATES:
        raise StateSpaceTooLarge(
            f"sweeping all vocabularies needs 2^(2^{n}) candidates; refuse beyond "
            f"{MAX_SWEEP_STATES} states"
        )
    # the sweep's candidates are base program masks, none parsed
    swept = rho._masks.vocabularies.swept
    rows = tuple(row for row, _, _, _ in _vocabulary_rows(rho, swept, guards))
    header = _report_header(rho, rows, guards, seeds)
    full_row = rows[-1]  # the full vocabulary is the last subset
    defined = [r for r in rows if r.utility is not None]
    if full_row.utility is None:
        if defined:
            worst = max(defined, key=lambda r: (r.utility, -r.index))
            return MaximalityReport(header, False, None, worst, rows)
        return MaximalityReport(header, True, None, None, rows)
    violators = [r for r in defined if r.utility > full_row.utility]
    if violators:
        worst = max(violators, key=lambda r: (r.utility, -r.index))
        return MaximalityReport(header, False, full_row.utility, worst, rows)
    return MaximalityReport(header, True, full_row.utility, None, rows)
