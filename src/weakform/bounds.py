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
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .core import (
    DEFAULT_GUARDS,
    Environment,
    Guards,
    Program,
    Statement,
    _bits,
    _index_cached,
    _truth_mask,
    encode_statement,
    env_hash,
    extension_size,
    mk_environment,
)
from .errors import (
    EmptyInstantiation,
    EmptyTaskSpace,
    InputsNotStrictSubset,
    InvalidVocabulary,
    NoCorrectPolicy,
    OutputsNotStrict,
    StateSpaceTooLarge,
    TruthSetTooLarge,
    VocabularyTooLarge,
    WeakformError,
)
from .learning import generalization_table
from .tasks import Task, _policy_bounds, _policy_mask, _programs, correct_policies, mk_task

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

#: Sweeping every sub-vocabulary costs 2^(2^states) instantiations.
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
    policies = correct_policies(task).members
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
    def _position(self) -> dict[tuple[int, ...], int]:
        """Each base program's state tuple -> its base position."""
        return {states: b for b, states in enumerate(self.env.program_sets())}

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


def instantiate(
    rho: UninstantiatedTask,
    v_prime: Iterable,
    guards: Guards = DEFAULT_GUARDS,
) -> Task:
    """Restrict the base task to a sub-vocabulary of state-set iterables
    or Program values, each drawn from the base vocabulary.

    Keeps exactly the inputs and correct outputs whose programs are all
    still present, and re-validates the result as a task of the new
    environment.  A kept output still completes a kept input: the input
    it completed has a subset of its programs.  Restriction by the full
    vocabulary is the identity.  The vocabulary comparisons below read
    the same restriction off the base task's masks without building it;
    this function is their reference.
    """
    position = rho._position
    sets = []
    for p in v_prime:
        states = tuple(sorted(p.states() if isinstance(p, Program) else p))
        if states not in position:
            raise InvalidVocabulary(
                f"program {{{','.join(map(str, states))}}} is not in the base vocabulary"
            )
        sets.append(states)
    env2 = mk_environment(rho.env.state_count, sets)
    # both vocabularies are in canonical order, so the kept programs keep
    # their base order: the renumbering is monotone and a renumbered
    # canonical statement stays canonical
    renumber = {b: j for j, b in enumerate(sorted(map(position.__getitem__, sets)))}

    def restrict(statements: Sequence[Statement]) -> list[Statement]:
        return [
            tuple(map(renumber.__getitem__, s))
            for s in statements
            if all(map(renumber.__contains__, s))
        ]

    inputs = restrict(rho.base.inputs)
    if not inputs:
        raise EmptyInstantiation("no input statement survives this vocabulary")
    return mk_task(env2, inputs, restrict(rho.base.outputs_correct), guards)


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
        parts.append(encode_statement(p.states() if isinstance(p, Program) else sorted(p)))
    return "[%s]" % ",".join(parts)


def all_vocabularies(env: Environment) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every subset of the environment's vocabulary, smallest first."""
    sets = env.program_sets()
    for size in range(len(sets) + 1):
        for combo in combinations(sets, size):
            yield combo


# --- reports ---------------------------------------------------------------------------

def _fraction_str(f: Fraction | None) -> str:
    if f is None:
        return ""
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class VocabularyRow:
    """One candidate vocabulary's outcome in a utility comparison."""

    index: int
    vocabulary: str
    language_size: int | None
    utility: int | None
    witness_policy: str | None
    witness_extension_size: int | None
    strict_child: bool | None
    error: str | None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "vocabulary": self.vocabulary,
            "language_size": self.language_size,
            "utility": self.utility,
            "witness_policy": self.witness_policy,
            "witness_extension_size": self.witness_extension_size,
            "strict_child": self.strict_child,
            "error": self.error,
        }


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


def _aligned(rows: list[tuple], header: tuple) -> str:
    table = [tuple(str(c) for c in header)] + [tuple(str(c) for c in r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass(frozen=True)
class UtilityReport:
    header: dict
    rows: tuple[VocabularyRow, ...]

    def to_json(self) -> str:
        doc = dict(self.header)
        doc["rows"] = [r.to_dict() for r in self.rows]
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        cols = ("index", "vocabulary", "|L|", "utility", "witness", "|E|", "strict_child", "error")
        body = [
            (
                r.index,
                r.vocabulary,
                "" if r.language_size is None else r.language_size,
                "" if r.utility is None else r.utility,
                r.witness_policy or "",
                "" if r.witness_extension_size is None else r.witness_extension_size,
                "" if r.strict_child is None else r.strict_child,
                r.error or "",
            )
            for r in self.rows
        ]
        head = "\n".join(f"{k}: {v}" for k, v in sorted(self.header.items()))
        return head + "\n\n" + _aligned(body, cols)


class _BaseMasks:
    """The base task over its own language index, from which each
    restriction to a sub-vocabulary B is read off without building it.

    The restricted language is exactly the base statements whose
    programs all lie in B, the down-set ``L_B = below(B)``.  The
    restricted inputs, extension and outputs are the base ones ANDed
    with ``L_B``: a statement of ``L_B`` that completes a base input
    completes one inside ``L_B``, whose programs are a subset of its own.
    The renumbering onto B is monotone, so base canonical order is the
    restricted canonical order; only report strings need it.
    """

    def __init__(self, base: Task):
        env = base.env
        # the base task was admitted under its own guards
        self.index = index = _index_cached(env)
        position = index.position
        statements = index.statements
        self.ext = tuple(map(index.extension_mask, statements))
        self.programs = tuple(map(_programs, statements))
        self.truth_sizes = tuple(_truth_mask(env, s).bit_count() for s in statements)
        self.codes = tuple(map(encode_statement, env.program_sets()))
        self.inputs = sum(1 << position[x] for x in base.inputs)
        self.outputs = sum(1 << position[y] for y in base.outputs_correct)
        self.extension = sum(1 << position[y] for y in base.extension)

    def restrict(self, vocabulary: int, guards: Guards) -> tuple[int, int]:
        """The restricted language and correct policies, as masks over
        the base language, for the base program mask ``vocabulary``.
        Raises what ``instantiate`` and ``correct_policies`` raise on a
        valid sub-vocabulary, in the same order."""
        language = self.index.below(vocabulary)
        inputs = self.inputs & language
        if not inputs:
            raise EmptyInstantiation("no input statement survives this vocabulary")
        if vocabulary.bit_count() > guards.max_vocabulary:
            raise VocabularyTooLarge(
                f"|v| = {vocabulary.bit_count()} exceeds guard {guards.max_vocabulary}"
            )
        if inputs == language:
            raise InputsNotStrictSubset("inputs cover the whole language")
        extension = self.extension & language
        outputs = self.outputs & language
        if outputs == extension:
            raise OutputsNotStrict("outputs equal the whole input extension")
        programs = self.programs.__getitem__
        bounds = _policy_bounds(
            map(programs, _bits(outputs)), map(programs, _bits(extension & ~outputs)), vocabulary
        )
        return language, _policy_mask(self.index, *bounds)

    def too_wide(self, guards: Guards) -> int:
        """The statements whose extension size the truth-set guard refuses."""
        return sum(1 << i for i, k in enumerate(self.truth_sizes) if k > guards.max_truth_set)


def _renumbered(vocabulary: int, statement: Statement) -> Statement:
    """A base statement inside the base program mask ``vocabulary``, in
    the restricted environment's indices: each program's rank in it."""
    return tuple((vocabulary & ((1 << b) - 1)).bit_count() for b in statement)


def _candidate_pass(rho: UninstantiatedTask, candidates: Sequence[Iterable], guards: Guards) -> list:
    """Each candidate's utility row, with its base program mask and its
    correct policies as a mask over the base language (0 if the row has
    an error)."""
    masks = rho._masks
    position = rho._position
    statements = masks.index.statements
    too_wide = masks.too_wide(guards)
    out = []
    for idx, cand in enumerate(candidates):
        cand = tuple(cand)  # read twice, so a one-shot iterator is read here once
        sets = [p.states() if isinstance(p, Program) else tuple(sorted(p)) for p in cand]
        found = list(map(position.get, sets))
        # a foreign or repeated program, or a state that only equals an
        # int (True, 1.0), is for instantiate to reject
        plain = (
            None not in found
            and len(set(found)) == len(found)
            and {int}.issuperset(map(type, chain.from_iterable(sets)))
        )
        if plain:
            encoded = "[%s]" % ",".join(map(masks.codes.__getitem__, found))
        else:
            encoded = encode_vocabulary(cand)
        vocabulary = policies = 0
        try:
            if not plain:
                instantiate(rho, cand, guards)
            vocabulary = sum(1 << b for b in found)
            language, policies = masks.restrict(vocabulary, guards)
            if not policies:
                raise NoCorrectPolicy("the task has no correct policy")
            if policies & too_wide:
                raise TruthSetTooLarge(
                    f"a correct policy's truth set exceeds guard {guards.max_truth_set}"
                )
            # policies in canonical order, so the first of the largest wins
            members = _bits(policies)
            sizes = [(masks.ext[p] & language).bit_count() for p in members]
            size = max(sizes)
            row = VocabularyRow(
                idx,
                encoded,
                language.bit_count(),
                size - (masks.outputs & language).bit_count(),
                encode_statement(_renumbered(vocabulary, statements[members[sizes.index(size)]])),
                size,
                masks.inputs & language != masks.inputs,
                None,
            )
        except WeakformError as exc:
            row = VocabularyRow(idx, encoded, None, None, None, None, None, type(exc).__name__)
            policies = 0  # a row with an error ranks none of its pairs
        out.append((row, vocabulary, policies))
    return out


def compare_vocabularies(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable],
    guards: Guards = DEFAULT_GUARDS,
    seeds: Sequence[int] = (),
) -> UtilityReport:
    """One row per candidate vocabulary; per-row failures are recorded,
    never raised."""
    rows = tuple(row for row, _, _ in _candidate_pass(rho, candidates, guards))
    header = _report_header(rho, rows, guards, seeds)
    return UtilityReport(header, rows)


@dataclass(frozen=True)
class CandidatePolicy:
    """A (vocabulary, policy) pair with its generalization probability."""

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
            "probability": _fraction_str(self.probability),
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

    def to_text(self) -> str:
        head = "\n".join(f"{k}: {v}" for k, v in sorted(self.header.items()))
        parts = [head, "", f"outcome: {self.outcome}"]
        if self.selected:
            parts.append(
                f"selected: {self.selected.vocabulary} {self.selected.policy} "
                f"p={_fraction_str(self.selected.probability)}"
            )
        if self.best:
            parts.append(
                f"best:     {self.best.vocabulary} {self.best.policy} "
                f"p={_fraction_str(self.best.probability)}"
            )
        body = [
            (c.candidate_index, c.vocabulary, c.policy, c.extension_size, _fraction_str(c.probability))
            for c in self.ranking
        ]
        parts.append("")
        parts.append(_aligned(body, ("index", "vocabulary", "policy", "|E|", "probability")))
        return "\n".join(parts)


def verify_upper_bound(
    rho: UninstantiatedTask,
    candidates: Sequence[Iterable],
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
    seeds: Sequence[int] = (),
) -> BoundReport:
    """Select the candidate maximising utility, then its weakest correct
    policy, and check that pair attains the best generalization
    probability over every instantiable (vocabulary, policy) pair."""
    outcomes = _candidate_pass(rho, candidates, guards)
    rows = tuple(row for row, _, _ in outcomes)
    masks = rho._masks
    programs = rho.env.programs
    pairs: list[CandidatePolicy] = []
    for row, vocabulary, policies in outcomes:
        if not policies:
            continue
        # the restricted environment keys the task count; the base
        # programs are in canonical order, so its vocabulary is too
        restricted = Environment(
            rho.env.state_count, tuple(map(programs.__getitem__, _bits(vocabulary)))
        )
        # a policy's position in the restricted language is its rank in L_B
        language = masks.index.below(vocabulary)
        try:
            table = generalization_table(restricted, guards, include_empty_outputs)
            if table.denominator == 0:
                raise EmptyTaskSpace("no tasks exist, generalization is undefined")
            for p in _bits(policies):
                pi = _renumbered(vocabulary, masks.index.statements[p])
                pairs.append(
                    CandidatePolicy(
                        row.index,
                        row.vocabulary,
                        encode_statement(pi),
                        extension_size(restricted, pi, guards),
                        Fraction(
                            table.numerators[(language & ((1 << p) - 1)).bit_count()],
                            table.denominator,
                        ),
                    )
                )
        except WeakformError:
            continue

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
    ranking = tuple(
        sorted(
            pairs,
            key=lambda p: (-p.probability, p.candidate_index, (len(p.policy), p.policy)),
        )
    )
    best = ranking[0]
    outcome = "attained" if selected.probability == best.probability else "not_attained"
    return BoundReport(header, outcome, selected, best, ranking, rows)


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

    def to_text(self) -> str:
        head = "\n".join(f"{k}: {v}" for k, v in sorted(self.header.items()))
        parts = [
            head,
            "",
            f"holds: {self.holds}",
            f"utility_at_full: {self.utility_at_full}",
        ]
        if self.witness:
            parts.append(
                f"beaten_by: {self.witness.vocabulary} utility={self.witness.utility}"
            )
        body = [
            (
                r.index,
                r.vocabulary,
                "" if r.utility is None else r.utility,
                r.error or "",
            )
            for r in self.rows
        ]
        parts.append("")
        parts.append(_aligned(body, ("index", "vocabulary", "utility", "error")))
        return "\n".join(parts)


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
    candidates = list(all_vocabularies(rho.env))
    report = compare_vocabularies(rho, candidates, guards, seeds)
    full_row = report.rows[-1]  # the full vocabulary is the last subset
    defined = [r for r in report.rows if r.utility is not None]
    if full_row.utility is None:
        if defined:
            worst = max(defined, key=lambda r: (r.utility, -r.index))
            return MaximalityReport(report.header, False, None, worst, report.rows)
        return MaximalityReport(report.header, True, None, None, report.rows)
    violators = [r for r in defined if r.utility > full_row.utility]
    if violators:
        worst = max(violators, key=lambda r: (r.utility, -r.index))
        return MaximalityReport(report.header, False, full_row.utility, worst, report.rows)
    return MaximalityReport(report.header, True, full_row.utility, None, report.rows)
