"""Finite environments and their statement algebra.

States are the integers ``0 .. state_count-1``.  A *program* is a set of
states, stored as a bit mask; it is "true" exactly in its member states.
A *vocabulary* is an ordered tuple of distinct programs.  A *statement*
is a set of vocabulary indices whose programs share at least one state
(the empty statement is admitted and is true everywhere).  The set of
all statements of an environment is its *language*.  The *extension* of
a statement x is the set of statements that contain x; its size is the
"weakness" of x.  A caller holding the language index reads it as the
popcount of the index's extension mask; ``extension_size`` computes it
without the index, by inclusion-exclusion over the truth set, so the two
paths can be checked against each other.

All values are immutable after construction and every operation is a
pure function of its arguments; results are cached per environment.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DuplicateProgram,
    IndexOutOfRange,
    NotAStatement,
    ParseError,
    StateOutOfRange,
    StateSpaceTooLarge,
    TruthSetTooLarge,
    VocabularyTooLarge,
)

__all__ = [
    "DEFAULT_GUARDS",
    "HARD_GUARD_LIMITS",
    "Environment",
    "ExtensionSet",
    "Guards",
    "LanguageIndex",
    "Program",
    "Statement",
    "VocabularyReorderedWarning",
    "canon_statement",
    "encode_statement",
    "encode_statement_set",
    "enumerate_language",
    "environment_to_dict",
    "env_hash",
    "equivalent",
    "extension",
    "extension_of_set",
    "extension_size",
    "full_powerset_vocabulary",
    "is_completion",
    "is_statement",
    "language_size",
    "load_environment",
    "mk_environment",
    "save_environment",
    "truth_set",
]

#: A statement is a sorted tuple of vocabulary indices.
Statement = tuple[int, ...]


class VocabularyReorderedWarning(UserWarning):
    """Emitted when a loaded vocabulary had to be put in canonical order."""


@dataclass(frozen=True)
class Guards:
    """Thresholds above which combinatorial operations refuse to run.

    Exceeding a guard raises, it never truncates silently.
    """

    max_vocabulary: int = 24      # 2^|v| language enumeration
    max_truth_set: int = 24       # |truth set|: at most 2^that inclusion-exclusion terms
    max_task_language: int = 16   # 2^|L_v| task-space paths
    max_powerset_states: int = 4  # full-powerset vocabulary construction


DEFAULT_GUARDS = Guards()

#: Hard ceilings a configuration may not raise guards beyond.
HARD_GUARD_LIMITS = Guards(
    max_vocabulary=30,
    max_truth_set=30,
    max_task_language=20,
    max_powerset_states=5,
)


@dataclass(frozen=True)
class Program:
    """A declarative program: the set of states in which it is true."""

    mask: int
    width: int

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.width and (self.mask >> state) & 1 == 1

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def states(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if (self.mask >> i) & 1)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        # canonical program order: cardinality first, then the state
        # list compared lexicographically
        return (self.size, self.states())

    def __repr__(self) -> str:
        return "Program({%s})" % ",".join(str(s) for s in self.states())


@dataclass(frozen=True)
class Environment:
    """A finite state space together with a canonically ordered vocabulary."""

    state_count: int
    programs: tuple[Program, ...]

    @property
    def vocabulary_size(self) -> int:
        return len(self.programs)

    @property
    def all_states_mask(self) -> int:
        return (1 << self.state_count) - 1

    def program_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.states() for p in self.programs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.state_count, self.programs))

    def __hash__(self) -> int:
        # every per-environment cache lookup hashes the environment; the
        # programs tuple is hashed once, not per lookup.  The value is the
        # dataclass's own field hash, of ints only, so it is the same in
        # every process and survives a pickle
        return self._hash

    def __repr__(self) -> str:
        progs = ",".join(repr(p) for p in self.programs)
        return f"Environment(states={self.state_count}, vocabulary=[{progs}])"


def _members(value: Iterable, error: type[Exception], what: str) -> tuple:
    """The members of ``value``, as a tuple; when it is no iterable, the
    reader's own ``error``, naming it, in place of a TypeError."""
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{what} {value!r} is no iterable") from None


def _mask_of(states: Iterable[int], state_count: int) -> int:
    mask = 0
    for s in _members(states, StateOutOfRange, "program"):
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < state_count:
            raise StateOutOfRange(
                f"state {s!r} outside [0, {state_count})"
            )
        mask |= 1 << s
    return mask


def _check_state_count(state_count: int) -> None:
    # bool is an int subclass, but True is no count of states
    if not isinstance(state_count, int) or isinstance(state_count, bool) or state_count < 1:
        raise StateOutOfRange(f"state_count must be an integer >= 1, got {state_count!r}")


def mk_environment(state_count: int, programs: Iterable[Iterable[int]]) -> Environment:
    """Validate and canonicalise an environment.

    Programs are reordered into canonical order (cardinality, then state
    list); two identical programs are an error, not a silent merge.
    """
    _check_state_count(state_count)
    masks = [_mask_of(p, state_count) for p in _members(programs, StateOutOfRange, "vocabulary")]
    seen: set[int] = set()
    for m in masks:
        if m in seen:
            dup = Program(m, state_count)
            raise DuplicateProgram(f"program {dup!r} appears twice")
        seen.add(m)
    canonical = sorted((Program(m, state_count) for m in masks), key=Program.sort_key)
    return Environment(state_count, tuple(canonical))


# --- serialisation -----------------------------------------------------------

def environment_to_dict(env: Environment) -> dict:
    return {
        "states": env.state_count,
        "vocabulary": [list(p.states()) for p in env.programs],
    }


def env_hash(env: Environment) -> str:
    """Stable 12-hex-digit fingerprint of the canonical environment."""
    blob = json.dumps(environment_to_dict(env), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _read_json(source: str | Path | dict, label: str):
    """The JSON document in the file at ``source``, or ``source`` itself if
    it is no path; a file holding no readable UTF-8 JSON raises ParseError."""
    if not isinstance(source, (str, Path)):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"cannot read {label} {source}: {exc}") from None


def _list_of_lists(doc: dict, key: str) -> list:
    """``doc[key]`` if it is a list of lists, the shape JSON gives a
    vocabulary or a statement set (their readers check the members)."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ParseError(f"{key!r} must be a list of lists")
    return value


def load_environment(source: str | Path | dict) -> Environment:
    """Load ``{"states": n, "vocabulary": [[state...], ...]}`` JSON by the
    config's rules: a vocabulary that is no list of lists is a ParseError.

    Warns if the stored program order differs from canonical order.
    """
    doc = _read_json(source, "environment file")
    if not isinstance(doc, dict):
        raise ParseError("an environment document must be a JSON object")
    missing = [key for key in ("states", "vocabulary") if key not in doc]
    if missing:
        raise ParseError(f"environment document has no {' or '.join(map(repr, missing))}")
    env = mk_environment(doc["states"], _list_of_lists(doc, "vocabulary"))
    loaded = [tuple(sorted(set(p))) for p in doc["vocabulary"]]
    if loaded != list(env.program_sets()):
        warnings.warn(
            "vocabulary was reordered into canonical order on load",
            VocabularyReorderedWarning,
            stacklevel=2,
        )
    return env


def save_environment(env: Environment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(environment_to_dict(env), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- statements ---------------------------------------------------------------

def canon_statement(env: Environment, indices: Iterable[int]) -> Statement:
    """Range-check in the caller's order, deduplicate and sort a statement."""
    indices = _members(indices, IndexOutOfRange, "statement")
    for j in indices:
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < env.vocabulary_size:
            raise IndexOutOfRange(
                f"index {j!r} outside [0, {env.vocabulary_size})"
            )
    return tuple(sorted(set(indices)))


def encode_statement(x: Iterable[int]) -> str:
    return "{%s}" % ",".join(str(j) for j in x)


def encode_statement_set(xs: Iterable[Statement]) -> str:
    ordered = sorted(xs, key=_stmt_order)
    return "{%s}" % ",".join(encode_statement(s) for s in ordered)


def _truth_mask(env: Environment, x: Statement) -> int:
    # empty intersection convention: the empty statement is true in
    # every state
    mask = env.all_states_mask
    for j in x:
        mask &= env.programs[j].mask
    return mask


def truth_set(env: Environment, l: Iterable[int]) -> frozenset[int]:
    """States in which every member program of ``l`` is true."""
    x = canon_statement(env, l)
    mask = _truth_mask(env, x)
    return frozenset(i for i in range(env.state_count) if (mask >> i) & 1)


def is_statement(env: Environment, candidate: Iterable[int]) -> bool:
    """True iff the candidate's joint truth set is nonempty."""
    x = canon_statement(env, candidate)
    return _truth_mask(env, x) != 0


def require_statement(env: Environment, candidate: Iterable[int]) -> Statement:
    x = canon_statement(env, candidate)
    if _truth_mask(env, x) == 0:
        raise NotAStatement(f"{encode_statement(x)} has an empty truth set")
    return x


def _require_statements(env: Environment, xs: Iterable[Iterable[int]]) -> list[Statement]:
    """``require_statement`` of each member of the statement set ``xs``."""
    return [require_statement(env, x) for x in _members(xs, IndexOutOfRange, "statement set")]


def is_completion(y: Iterable[int], x: Iterable[int]) -> bool:
    """True iff statement ``y`` contains statement ``x``."""
    return set(_members(x, IndexOutOfRange, "statement")) <= set(
        _members(y, IndexOutOfRange, "statement")
    )


# --- language enumeration ------------------------------------------------------

def _stmt_order(x: Statement) -> tuple[int, Statement]:
    return (len(x), x)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first (linear time)."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks that lie inside no other one."""
    maximal: list[int] = []
    # a strict superset is the larger number, so it comes first
    for m in sorted(set(masks), reverse=True):
        for k in maximal:
            if not m & ~k:
                break
        else:
            maximal.append(m)
    return maximal


def _enumerate_statements(env: Environment) -> tuple[Statement, ...]:
    # depth-first over vocabulary indices; adding a program can only
    # shrink the truth set, so empty intersections prune whole branches
    nv = env.vocabulary_size
    masks = [p.mask for p in env.programs]
    found: list[Statement] = []

    def walk(prefix: tuple[int, ...], truth: int, start: int) -> None:
        found.append(prefix)
        for j in range(start, nv):
            t = truth & masks[j]
            if t:
                walk(prefix + (j,), t, j + 1)

    walk((), env.all_states_mask, 0)
    found.sort(key=_stmt_order)
    return tuple(found)


class LanguageIndex:
    """The canonical language of one environment; a set of statements is
    a bit mask whose bit ``i`` stands for ``statements[i]``.

    A program's mask holds the statements containing it, and the
    extension of ``x`` is the AND of the masks of its programs.  Its other
    tables are built on first read, per statement or, ``true_at``, per state.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.statements = _enumerate_statements(env)
        # the vocabulary sweeps' memos (``bounds``): ``parsed`` stores only
        # canonical candidates, at most 2^|v| entries; ``counts`` holds at
        # most 2 * 2^|v| restricted task counts, one per ``(L_B, m)``
        self.parsed: dict[tuple, tuple[str, int]] = {}
        self.counts: dict[tuple[int, int], int] = {}

    @staticmethod
    def of(env: Environment, guards: Guards = DEFAULT_GUARDS) -> LanguageIndex:
        """The shared index of ``env``, built once; refuses a vocabulary
        above ``guards.max_vocabulary``."""
        if env.vocabulary_size > guards.max_vocabulary:
            raise VocabularyTooLarge(
                f"|v| = {env.vocabulary_size} exceeds guard {guards.max_vocabulary}"
            )
        return _index_cached(env)

    @cached_property
    def position(self) -> dict[Statement, int]:
        return {s: i for i, s in enumerate(self.statements)}

    @cached_property
    def _program_masks(self) -> tuple[int, ...]:
        # one '0'/'1' digit per position, then int(digits, 2): OR-ing one
        # bit at a time into a wide mask copies it per bit
        width = len(self.statements)
        digits = [["0"] * width for _ in range(self.env.vocabulary_size)]
        for pos, s in zip(range(width - 1, -1, -1), self.statements):
            for j in s:
                digits[j][pos] = "1"
        return tuple(int("".join(d) or "0", 2) for d in digits)

    def extension_mask(self, x: Statement) -> int:
        """The statements that contain ``x``; 0 when ``x`` is no statement."""
        program_masks = self._program_masks
        mask = (1 << len(self.statements)) - 1
        for j in x:
            mask &= program_masks[j]
        return mask

    @cached_property
    def ext_masks(self) -> tuple[int, ...]:
        """Each statement's extension mask, in canonical order."""
        return tuple(map(self.extension_mask, self.statements))

    @cached_property
    def ext_sizes(self) -> tuple[int, ...]:
        """Each statement's extension size, the popcount of its extension
        mask, read without keeping the |L|^2 bits of ``ext_masks``."""
        return tuple(self.extension_mask(s).bit_count() for s in self.statements)

    @cached_property
    def truth_masks(self) -> tuple[int, ...]:
        """Each statement's truth set, as a state mask."""
        return tuple(_truth_mask(self.env, s) for s in self.statements)

    @cached_property
    def true_at(self) -> tuple[int, ...]:
        """Each state's statements, ``below`` the programs true there.  Two
        statements share a completion exactly when their truth sets meet,
        so x's compatible statements are the OR of these over x's truth set,
        and ANDed with a down-set ``below(B)``, those of the restricted
        language: a common completion of two of its statements is their
        union of programs, which lies in ``below(B)``."""
        programs = self.env.programs
        return tuple(
            self.below(sum(1 << j for j, p in enumerate(programs) if p.mask >> s & 1))
            for s in range(self.env.state_count)
        )

    def below(self, programs: int) -> int:
        """The statements whose programs all lie in the program mask
        ``programs``: ``full & ~OR_{j not in programs} P_j``."""
        outside = 0
        for j, mask in enumerate(self._program_masks):
            if not programs >> j & 1:
                outside |= mask
        return ((1 << len(self.statements)) - 1) & ~outside

    @cached_property
    def program_position(self) -> dict[tuple[int, ...], int]:
        """Each program's state tuple, mapped to its vocabulary position."""
        return {states: b for b, states in enumerate(self.env.program_sets())}

    @cached_property
    def program_codes(self) -> tuple[str, ...]:
        """Each program's code in a report's ``vocabulary`` column."""
        return tuple(map(encode_statement, self.env.program_sets()))

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Each statement y's down-set ``below(programs(y))``, the
        statements that y completes: |L| masks of |L| bits.  A
        restriction's correct policies are read off it
        (``bounds._vocabulary_rows``)."""
        return tuple(self.below(sum(map((1).__lshift__, s))) for s in self.statements)

    @cached_property
    def swept(self) -> tuple[tuple[str, int], ...]:
        """Every sub-vocabulary's report string and program mask, 2^|v|
        of them in ``all_vocabularies`` order, built only for a caller's
        ``"all"``."""
        codes = self.program_codes
        positions = range(len(codes))
        return tuple(
            ("[%s]" % ",".join(map(codes.__getitem__, combo)), sum(map((1).__lshift__, combo)))
            for size in range(len(codes) + 1)
            for combo in combinations(positions, size)
        )

    def read(self, xs: Iterable[Iterable[int]]) -> Sequence[Statement]:
        """``require_statement`` of each of ``xs``; the index's own language
        passed whole (``is``, since ``(True,) == (1,)``) reads as it stands."""
        return xs if xs is self.statements else _require_statements(self.env, xs)

    def extension_sizes(self, xs: Iterable[Iterable[int]], guards: Guards = DEFAULT_GUARDS) -> list[int]:
        """|extension(x)| of each statement ``x`` of ``xs``, read by ``read``,
        from ``ext_sizes``.  A statement whose truth set exceeds
        ``guards.max_truth_set`` is refused, the first one in ``xs`` named,
        as ``extension_size`` refuses it."""
        rows = list(map(self.position.__getitem__, self.read(xs)))
        # a truth set holds at most every state
        if self.env.state_count > guards.max_truth_set:
            truth_masks = self.truth_masks
            for i in rows:
                size = truth_masks[i].bit_count()
                if size > guards.max_truth_set:
                    raise TruthSetTooLarge(
                        f"|truth set| = {size} exceeds guard {guards.max_truth_set}"
                    )
        return list(map(self.ext_sizes.__getitem__, rows))

    def too_wide(self, guards: Guards) -> int:
        """The statements whose extension size the truth-set guard refuses."""
        limit = guards.max_truth_set
        return sum(1 << i for i, t in enumerate(self.truth_masks) if t.bit_count() > limit)

    def extension_of_set(self, xs: Iterable[Statement]) -> ExtensionSet:
        """The union of the extensions of the canonical statements ``xs``."""
        mask = 0
        for x in xs:
            mask |= self.extension_mask(x)
        return ExtensionSet._of_canonical(self.statements_of(mask))

    def statements_of(self, mask: int) -> tuple[Statement, ...]:
        return tuple(self.statements[i] for i in _bits(mask))


@lru_cache(maxsize=None)
def _index_cached(env: Environment) -> LanguageIndex:
    return LanguageIndex(env)


def enumerate_language(env: Environment, guards: Guards = DEFAULT_GUARDS) -> tuple[Statement, ...]:
    """All statements of the environment, in canonical order.

    Canonical order is by statement size, then lexicographically on the
    index tuple; the result is identical across runs and platforms.
    """
    return LanguageIndex.of(env, guards).statements


def language_size(env: Environment, guards: Guards = DEFAULT_GUARDS) -> int:
    """|L_v| without materialising the language (counts via inclusion-exclusion)."""
    return extension_size(env, (), guards)


# --- extensions ----------------------------------------------------------------

class ExtensionSet(tuple):
    """An immutable set of statements, held once as a tuple in canonical
    order.

    ``ExtensionSet(iterable)`` sorts and deduplicates its input.  Being
    canonical, two sets of the same statements are equal tuples; a set
    also equals a ``set`` or ``frozenset`` of its statements and hashes
    like that frozenset, but it equals no plain tuple.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[Statement]):
        return tuple.__new__(cls, sorted(set(members), key=_stmt_order))

    @classmethod
    def _of_canonical(cls, members: Iterable[Statement]) -> ExtensionSet:
        """The set of ``members`` that are already in canonical order and
        free of duplicates, as ``LanguageIndex.statements_of`` yields them."""
        return tuple.__new__(cls, members)

    members = property(tuple, doc="The statements as a plain tuple.")
    size = property(tuple.__len__)

    def as_set(self) -> frozenset[Statement]:
        return frozenset(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtensionSet):
            return tuple.__eq__(self, other)
        if isinstance(other, (set, frozenset)):
            return other == frozenset(self)
        # a plain tuple would otherwise answer with tuple equality
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # inverts __eq__: tuple's own finds an equal plain tuple equal

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"ExtensionSet({encode_statement_set(self)})"


def extension(env: Environment, x: Iterable[int]) -> ExtensionSet:
    """All statements that contain ``x`` (including ``x`` itself)."""
    xs = require_statement(env, x)
    return LanguageIndex.of(env).extension_of_set((xs,))


def extension_size(env: Environment, x: Iterable[int], guards: Guards = DEFAULT_GUARDS) -> int:
    """|extension(x)| by inclusion-exclusion, without enumerating it or
    building the language index.

    Must agree exactly with ``len(extension(env, x))`` and with
    ``LanguageIndex.extension_sizes``; the test suite sweeps the paths
    against each other.
    """
    xs = require_statement(env, x)
    truth = _truth_mask(env, xs)
    states = _bits(truth)
    if len(states) > guards.max_truth_set:
        raise TruthSetTooLarge(
            f"|truth set| = {len(states)} exceeds guard {guards.max_truth_set}"
        )
    # a completion of x adds programs that are all true at one state of
    # x's truth set: for each state, the programs outside x true there.
    # States with equal masks collapse in the inclusion-exclusion, and a
    # mask inside another adds nothing, so only the maximal ones count
    x_bits = sum(1 << j for j in xs)
    containing = _maximal(
        sum(1 << j for j, p in enumerate(env.programs) if (p.mask >> s) & 1) & ~x_bits
        for s in states
    )

    # alternating sum over nonempty subsets S of those masks: each term
    # counts the completions whose added programs lie in all of S
    total = 0

    def walk(acc: int, depth: int, sign: int) -> None:
        nonlocal total
        for i in range(depth, len(containing)):
            cur = acc & containing[i]
            total += sign * (1 << cur.bit_count())
            walk(cur, i + 1, -sign)

    walk((1 << env.vocabulary_size) - 1, 0, 1)
    return total


def extension_of_set(env: Environment, xs: Iterable[Iterable[int]]) -> ExtensionSet:
    """Union of the extensions of every statement in ``xs``."""
    return LanguageIndex.of(env).extension_of_set(_require_statements(env, xs))


def equivalent(env: Environment, x: Iterable[int], y: Iterable[int]) -> bool:
    """True iff the two statements have identical extensions."""
    ex = extension(env, x)
    ey = extension(env, y)
    return ex == ey


# --- full powerset vocabulary ----------------------------------------------------

def full_powerset_vocabulary(state_count: int, guards: Guards = DEFAULT_GUARDS) -> Environment:
    """The environment whose vocabulary is every program over the states."""
    _check_state_count(state_count)
    if state_count > guards.max_powerset_states:
        raise StateSpaceTooLarge(
            f"|states| = {state_count} exceeds guard {guards.max_powerset_states}"
        )
    programs = [
        [s for s in range(state_count) if (mask >> s) & 1]
        for mask in range(1 << state_count)
    ]
    return mk_environment(state_count, programs)
