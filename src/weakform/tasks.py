"""Tasks over a finite language: validity, policies, inference and the
task space.

A task pairs a set of input statements with a set of designated correct
outputs drawn from (but never equal to) the inputs' extension.  The task
space of an environment is every such pair; it is counted from the
statements' extensions alone (a memoised pivot recursion over the
statement order) and enumerated explicitly, and the two must agree.
Sampling is exactly uniform: a single random index into the counted
space is decoded back into a task by the same count, size class first
and then one member of the input set at a time.  The stream is a
pipeline of C iterators that holds at most one run's output sets
(``TaskSpace.tasks``); nothing here keeps a table of input sets.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, repeat, starmap
from math import comb
from operator import and_, itemgetter, or_
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Sequence

from .core import (
    DEFAULT_GUARDS,
    Environment,
    ExtensionSet,
    Guards,
    LanguageIndex,
    Statement,
    _bits,
    _index_cached,
    _maximal,
    _read_json,
    _stmt_order,
    canon_statement,
    encode_statement,
    encode_statement_set,
    environment_to_dict,
    load_environment,
    require_statement,
)
from .errors import (
    EmptyInputs,
    EmptyTaskSpace,
    EnvironmentMismatch,
    IndexOutOfRange,
    InputNotInTask,
    InputsNotStrictSubset,
    InvalidSampleCount,
    NoOutput,
    OutputsNotInExtension,
    OutputsNotStrict,
    ParseError,
    TaskSpaceTooLarge,
)

__all__ = [
    "PolicySet",
    "Task",
    "TaskSpace",
    "correct_policies",
    "count_tasks",
    "enumerate_tasks",
    "hierarchy_level",
    "infer",
    "is_child",
    "is_correct_policy",
    "load_task",
    "mk_task",
    "outputs",
    "sample_task",
    "task_space",
    "task_to_dict",
]

class Task(tuple):
    """Inputs, correct outputs, and the cached input extension.

    A slotted tuple ``(env, inputs, outputs_correct, extension)`` with
    read-only fields, built from one iterable as a tuple is: the task
    space streams millions of tasks, and the type call, mapped over each
    input set's output sets, builds each in C with no Python frame per
    task (``mk_task`` is the validated constructor).  Two tasks are equal
    when their environment, inputs and correct outputs are (the extension
    follows from the inputs), and the hash agrees.  A task equals only
    another ``Task``: never a plain tuple of the same fields.
    """

    __slots__ = ()

    env = property(itemgetter(0))
    inputs = property(itemgetter(1))
    outputs_correct = property(itemgetter(2))
    extension = property(itemgetter(3))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self[:3] == other[:3]
        # a plain tuple would otherwise answer with tuple equality
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__; tuple's own compares all four fields

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def input_set(self) -> frozenset[Statement]:
        return frozenset(self.inputs)

    @property
    def output_set(self) -> frozenset[Statement]:
        return frozenset(self.outputs_correct)

    def key(self) -> tuple[tuple[Statement, ...], tuple[Statement, ...]]:
        return (self.inputs, self.outputs_correct)

    def encode(self) -> str:
        return "I=%s;O=%s" % (
            encode_statement_set(self.inputs),
            encode_statement_set(self.outputs_correct),
        )

    def __repr__(self) -> str:
        return f"Task({self.encode()})"


def _canon_statement_tuple(env: Environment, xs: Iterable[Iterable[int]]) -> tuple[Statement, ...]:
    out = {require_statement(env, x) for x in xs}
    return tuple(sorted(out, key=_stmt_order))


def mk_task(
    env: Environment,
    inputs: Iterable[Iterable[int]],
    outputs: Iterable[Iterable[int]],
    guards: Guards = DEFAULT_GUARDS,
) -> Task:
    """Validate a task: nonempty inputs below the whole language, and
    outputs a strict subset of the inputs' extension."""
    ins = _canon_statement_tuple(env, inputs)
    outs = _canon_statement_tuple(env, outputs)
    if not ins:
        raise EmptyInputs("a task needs at least one input statement")
    index = LanguageIndex.of(env, guards)
    if len(ins) >= len(index.statements):
        raise InputsNotStrictSubset("inputs cover the whole language")
    ext = index.extension_of_set(ins)
    members = ext.as_set()  # one set per call: membership on the tuple is a scan
    for o in outs:
        if o not in members:
            raise OutputsNotInExtension(
                f"{encode_statement(o)} completes none of the inputs"
            )
    if len(outs) == ext.size:
        raise OutputsNotStrict("outputs equal the whole input extension")
    return Task((env, ins, outs, ext))


def outputs(task: Task) -> ExtensionSet:
    """The extension of the task's inputs: everything it could emit."""
    return task.extension


# --- serialisation -----------------------------------------------------------

def task_to_dict(task: Task, inline_env: bool = True) -> dict:
    doc = {
        "inputs": [list(x) for x in task.inputs],
        "outputs": [list(x) for x in task.outputs_correct],
    }
    if inline_env:
        doc["env"] = environment_to_dict(task.env)
    return doc


def load_task(source: str | Path | dict, env: Environment | None = None) -> Task:
    """Load ``{"env": ..., "inputs": [...], "outputs": [...]}`` JSON and
    re-validate against the environment."""
    doc = _read_json(source, "task file")
    if not isinstance(doc, dict):
        raise ParseError("a task document must be a JSON object")
    needed = ("inputs", "outputs") if env is not None else ("env", "inputs", "outputs")
    missing = [key for key in needed if key not in doc]
    if missing:
        raise ParseError(f"task document has no {' or '.join(map(repr, missing))}")
    if env is None:
        env = load_environment(doc["env"])
    return mk_task(env, doc["inputs"], doc["outputs"])


# --- policies and inference ----------------------------------------------------

def _programs(x: Statement) -> int:
    return sum(map((1).__lshift__, x))


def _task_bounds(task: Task) -> tuple[int, list[int]]:
    # p is correct when E & ext[p] == O for the inputs' extension E and
    # the outputs O: p lies in ``common``, the programs of every output,
    # and in no rival, the programs of another member of E (within
    # common).  A p inside a rival is inside every rival above it, so
    # the maximal rivals decide.  Statements come as program masks
    outs = task.output_set
    common = reduce(and_, map(_programs, outs), (1 << task.env.vocabulary_size) - 1)
    return common, _maximal({_programs(y) & common for y in task.extension if y not in outs})


def _policy_mask(index: LanguageIndex, common: int, maximal: Iterable[int]) -> int:
    """The statements inside ``common`` and inside no maximal rival, as
    one mask of down-sets."""
    return index.below(common) & ~reduce(or_, map(index.below, maximal), 0)


def is_correct_policy(task: Task, pi: Iterable[int]) -> bool:
    """True iff completing inputs under ``pi`` lands exactly on the
    correct outputs."""
    p = _programs(require_statement(task.env, pi))
    common, maximal = _task_bounds(task)
    return not p & ~common and all(p & ~b for b in maximal)


class PolicySet(tuple):
    """All correct policies of one task, held once as a tuple in
    canonical order."""

    __slots__ = ()

    members = property(tuple, doc="The policies as a plain tuple.")


def correct_policies(task: Task) -> PolicySet:
    """The statements inside every output and inside no maximal rival
    (see ``_task_bounds``)."""
    # the task's index was admitted when the task was built, perhaps
    # under raised guards, so it is not checked against the defaults again
    index = _index_cached(task.env)
    return PolicySet(index.statements_of(_policy_mask(index, *_task_bounds(task))))


def infer(task: Task, pi: Iterable[int], input_stmt: Iterable[int], seed: int) -> tuple[Statement, bool]:
    """Complete one input under a policy.

    The output is drawn uniformly (seeded) from the completions shared
    by the input and the policy; the flag reports membership in the
    task's correct outputs.
    """
    env = task.env
    p = require_statement(env, pi)
    x = canon_statement(env, input_stmt)
    if x not in task.input_set:
        raise InputNotInTask(f"{encode_statement(x)} is not an input of this task")
    # the task's index was admitted when the task was built, perhaps
    # under raised guards, so it is not checked against the defaults again
    index = _index_cached(env)
    shared = index.extension_mask(p) & index.extension_mask(x)
    if not shared:
        raise NoOutput(
            f"policy {encode_statement(p)} admits no completion of {encode_statement(x)}"
        )
    choices = index.statements_of(shared)
    out = choices[Random(seed).randrange(len(choices))]
    return out, out in task.output_set


# --- the generational hierarchy ---------------------------------------------------

def is_child(alpha: Task, omega: Task) -> bool:
    """Strictly fewer inputs, no new outputs."""
    if alpha.env != omega.env:
        raise EnvironmentMismatch("tasks live in different environments")
    return alpha.input_set < omega.input_set and alpha.output_set <= omega.output_set


# --- the task space -----------------------------------------------------------------

def _subsets_in_order(items: Sequence) -> Iterator[tuple]:
    """The canonical order of input sets over ``items``: the k-subsets for
    k = 1..n-1, by size, then positions."""
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items)))


def _reach(ext: tuple[int, ...], q: int) -> int:
    """The OR of ``ext`` over the positions in ``q``."""
    r = 0
    while q:
        low = q & -q
        r |= ext[low.bit_length() - 1]
        q ^= low
    return r


def _ones(n: int) -> tuple[int, ...]:
    """``(1 + z)^a`` for a = 0..n, each packed into one int with the
    coefficient of ``z^r`` in bits ``[r w, (r + 1) w)``, ``w = 2n + 2``;
    uncached, as it takes microseconds for n <= 20."""
    width = 2 * n + 2
    ones = [1]
    for _ in range(n):
        ones.append(ones[-1] + (ones[-1] << width))
    return tuple(ones)


def _union_power_sum(ext: tuple[int, ...], p: int, c: int, memo: dict, ones: tuple[int, ...]) -> int:
    """``G(P, C)``, size-graded: the coefficient of ``z^r`` is the sum
    over the r-subsets T of the positions in P of ``2^|up(T) & C|``, where
    ``up(x) = ext[x]`` and ``up(T)`` is their OR; ``ones`` is ``_ones(n)``,
    n no less than |P| and |C| in any call that shares ``memo``.

    The polynomial is packed into one int (Kronecker substitution), with
    fields of ``w = 2n + 2`` bits, read off ``len(ones)``.  A coefficient
    sums at most ``C(n, r) <= 2^n`` powers of at most ``2^n``, so it is at
    most ``2^(2n) < 2^w``, and so is every coefficient of the partial sums
    and products below: no field ever carries into the next, and adding,
    multiplying and shifting the ints adds, multiplies and scales the
    polynomials exactly.

    Pivot on the lowest position x of P, which is minimal in P
    (statements are ordered by size, so no other member of P lies below
    x).  The subsets without x give ``G(P - x, C)``.  A subset with x
    counts all of ``up(x) & C``, takes the other members of
    ``P & up(x)`` freely (their extensions lie inside x's, so they add
    to the size only, a factor ``(1 + z)`` each), and leaves
    ``G(P - up(x), C - up(x))``: one multiply and one shift.  Positions
    of C that no member of P reaches are never counted, so each step
    drops them: C stays inside the reach of P (an empty P comes with an
    empty C), and ``memo`` stays small, at most 215 states over every
    vocabulary of up to five programs on four states with |L| <= 20,
    where the subsets number up to 2^20.
    """
    if not c:
        return ones[p.bit_count()]
    got = memo.get((p, c))
    if got is None:
        low = p & -p
        up = ext[low.bit_length() - 1]
        rest = p ^ low
        far = p & ~up
        reach_far = _reach(ext, far)
        with_x = _union_power_sum(ext, far, c & ~up & reach_far, memo, ones) * ones[(p & up).bit_count() - 1]
        got = _union_power_sum(ext, rest, c & (reach_far | _reach(ext, rest & up)), memo, ones) + (
            with_x << (2 * len(ones) + (up & c).bit_count())
        )
        memo[p, c] = got
    return got


def _fields(ext: tuple[int, ...], p: int, c: int, memo: dict, ones: tuple[int, ...]) -> tuple[int, ...]:
    """``G(P, C)`` unpacked: one coefficient per subset size 0..|P|."""
    width = 2 * len(ones)
    g = _union_power_sum(ext, p, c, memo, ones)
    return tuple(g >> width * r & (1 << width) - 1 for r in range(p.bit_count() + 1))


def _class_counts(
    ext: tuple[int, ...], language: int, memo: dict, ones: tuple[int, ...], m: int
) -> tuple[int, ...]:
    """The task count of each size class k = 1..n-1 of the task space
    over the positions in ``language`` (n of them), each statement's
    extension taken inside ``language``; ``m`` is 1 when empty outputs are
    excluded, and ``memo`` and ``ones`` are ``_union_power_sum``'s.

    An input set of k statements admits ``2^|union| - 1 - m`` output
    sets; a nonempty union holds its own inputs, so none is negative,
    and class k sums them over its C(n, k) sets.  With ``language`` the
    down-set ``below(B)`` of a program mask B, these are the counts of
    the task space restricted to the sub-vocabulary B, read off the base
    extension masks: its statements are ``L_B`` and their extensions
    ``ext & L_B``.
    """
    n = language.bit_count()
    fields = _fields(ext, language, language, memo, ones)
    return tuple(fields[k] - (1 + m) * comb(n, k) for k in range(1, n))


def _policy_count(index: LanguageIndex, p: int, language: int, m: int) -> int:
    """In how many tasks over the positions in ``language`` the statement
    at position p (one of them) is a correct policy, each extension taken
    inside ``language``; ``m`` is 1 when empty outputs are excluded.

    p is a correct policy for exactly one output set per input set I,
    namely ``E_I & E`` for p's extension E.  That output set is
    inadmissible when it is all of E_I, that is when I lies inside E (``2^|E| - 1`` sets, one
    fewer when E is the whole language, since I = L is no input set),
    and, with empty outputs excluded, when it is empty, that is when I
    holds only statements incompatible with p (D of them, ``2^|D| - 1``
    sets).  Of the ``2^n - 2`` input sets that leaves
    ``2^n - 2^|E| - 1 + [E = L]``, less ``2^|D| - 1`` when m is 1.  As
    with ``_class_counts``, ``language = below(B)`` gives the count of
    the restriction to the sub-vocabulary B.
    """
    extension = index.ext_masks[p] & language
    count = (1 << language.bit_count()) - (1 << extension.bit_count()) - 1 + (extension == language)
    if m:
        count -= (1 << (index.incompatible[p] & language).bit_count()) - 1
    return count


# A run of input sets whose extension has at most this many statements
# replays one tuple of its output sets (at most 2^10 - 1 = 1,023 of them,
# about 0.1 MiB).  A longer extension may belong to a single input set with
# up to 2^|L| - 1 output sets, so buffering it would only cost memory.
_SHARED_OUTPUTS = 10


class TaskSpace:
    """Counted, enumerable, uniformly sampleable space of all tasks.

    Input sets come in one canonical order (``_subsets_in_order``: by
    size, then positions) that enumeration and sampling share; the
    index->task mapping of ``sample_index`` is a contract.
    ``total_count`` and the task count of each size class are read off
    the size-graded pivot count of the statements' extension masks
    (``_union_power_sum``).  A draw decodes its index
    with the same count: the size class from the class totals, then
    each member of the input set in turn, from the task count of each
    block of the canonical order (the sets that share a prefix of
    members).  The draws share one row per position (``_rows``) and
    the memo of the count behind them, kept on the space.
    ``include_empty_outputs`` keeps or drops tasks whose correct output
    set is empty (kept by default).
    """

    def __init__(
        self,
        env: Environment,
        guards: Guards = DEFAULT_GUARDS,
        include_empty_outputs: bool = True,
    ):
        self.env = env
        self.include_empty_outputs = include_empty_outputs
        self.index = LanguageIndex.of(env, guards)
        self.language = self.index.statements  # an alias, not a copy
        n = len(self.language)
        if n > guards.max_task_language:
            raise TaskSpaceTooLarge(
                f"|L_v| = {n} exceeds guard {guards.max_task_language}"
            )
        # each statement's extension as a mask over language positions
        self.ext_masks = self.index.ext_masks

        m = self._min_outputs = 0 if include_empty_outputs else 1
        self._ones = _ones(n)
        self._class_counts = _class_counts(self.ext_masks, (1 << n) - 1, {}, self._ones, m)
        self.total_count = sum(self._class_counts)

    @cached_property
    def _memo(self) -> dict:
        """The memo of ``_union_power_sum`` that every draw shares, begun
        on the first draw, so a space that only counts keeps none."""
        return {}

    @cached_property
    def _rows(self) -> list[tuple]:
        """Per position i: its bit and extension, the positions after it,
        ``(1+m) C(n-1-i, k)`` for each k, and ``G(after, c)`` unpacked for
        each c the draws reach."""
        n = len(self.ext_masks)
        return [
            (1 << i, up, ((1 << n) - 1) ^ ((2 << i) - 1),
             tuple((1 + self._min_outputs) * comb(n - 1 - i, k) for k in range(n - i)), {})
            for i, up in enumerate(self.ext_masks)
        ]

    def task_from_masks(self, imask: int, omask: int) -> Task:
        """The task with input set ``imask`` and output set ``omask``, both
        masks over canonical language positions (as ``sample_index``
        returns them).  The masks are checked as ``mk_task`` checks a
        task: nonempty inputs short of the whole language, and outputs
        strictly inside their extension.  A mask must be an ``int``: ``True``
        or ``1.0`` names no set, though each equals 1."""
        if type(imask) is not int:
            raise InputsNotStrictSubset(f"input mask {imask!r} is no int")
        if not imask:
            raise EmptyInputs("a task needs at least one input statement")
        if imask < 0 or imask >= (1 << len(self.language)) - 1:
            raise InputsNotStrictSubset(f"input mask {imask:#x} is no proper subset of the language")
        if type(omask) is not int:
            raise OutputsNotInExtension(f"output mask {omask!r} is no int")
        ext = _reach(self.ext_masks, imask)
        if omask & ~ext:
            raise OutputsNotInExtension(f"output mask {omask:#x} leaves the extension {ext:#x}")
        if omask == ext:
            raise OutputsNotStrict("outputs equal the whole input extension")
        statements_of = self.index.statements_of
        return Task((
            self.env,
            statements_of(imask),
            statements_of(omask),
            ExtensionSet._of_canonical(statements_of(ext)),
        ))

    # -- enumeration -------------------------------------------------------

    def tasks(self) -> Iterator[Task]:
        """Every task exactly once: input sets by size then encoding,
        output sets likewise within each input set.

        The stream is a pipeline of C iterators: ``chain.from_iterable``
        flattens a ``map`` that makes one Python call per input set, and
        that call returns a ``map`` of the ``Task`` type call over the
        set's output sets, so no Python frame runs per task.  A run of
        consecutive input sets with one union shares one ``ExtensionSet``
        and, when the extension has at most ``_SHARED_OUTPUTS`` statements,
        one tuple of its output sets, built once and replayed for each
        input set of the run.  So the stream holds at most one run's
        output sets, at most 1,023 of them; a longer extension's output
        sets are drawn lazily from ``combinations`` per input set.
        """
        env = self.env
        statements = self.language
        m = self._min_outputs
        last = ext = shared = None

        def output_sets(extension: ExtensionSet) -> Iterator[tuple]:
            # by size, then positions, short of the whole extension
            return chain.from_iterable(map(combinations, repeat(extension), range(m, len(extension))))

        def input_set_tasks(inputs: tuple, union: int) -> Iterator[Task]:
            nonlocal last, ext, shared
            if union != last:
                last = union
                ext = ExtensionSet._of_canonical(map(statements.__getitem__, _bits(union)))
                shared = tuple(output_sets(ext)) if len(ext) <= _SHARED_OUTPUTS else None
            outs = output_sets(ext) if shared is None else shared
            return map(Task, zip(repeat(env), repeat(inputs), outs, repeat(ext)))

        # each input set's union of extensions, ORed in the same order
        unions = map(reduce, repeat(or_), _subsets_in_order(self.ext_masks))
        return chain.from_iterable(map(input_set_tasks, _subsets_in_order(statements), unions))

    def __iter__(self) -> Iterator[Task]:
        return self.tasks()

    # -- exact uniform sampling ----------------------------------------------

    def _decode(self, index: int) -> tuple[int, int, int]:
        """The input mask, its union of extensions and the output mask of
        the task at a flat index in [0, total_count).

        Input sets come in canonical order, each with its tasks in a
        run, and the index falls into the first set whose running task
        count exceeds it.  Counting finds it: the size class from the
        class totals; then, with union U of the members chosen and k
        more after the next, the sets whose next member is i hold
        ``2^|U | up(i)| * G(after i, ~(U | up(i)))[k] - (1+m) C(n-1-i, k)``
        tasks (read off ``_rows``), which the index enters or skips.  A set
        that admits no task adds nothing, so no index lands on it.  The
        remainder's bits pick the output set among U's members."""
        if type(index) is not int:
            raise IndexOutOfRange(f"task index {index!r} is no int")
        if not 0 <= index < self.total_count:
            raise IndexOutOfRange(f"task index {index} outside [0, {self.total_count})")
        k = 0  # the members still to choose after the next one
        while index >= self._class_counts[k]:
            index -= self._class_counts[k]
            k += 1
        imask = union = 0
        for bit, up, after, losses, fields_of in self._rows:
            joined = union | up
            c = after & ~joined
            fields = fields_of.get(c)
            if fields is None:
                fields = fields_of[c] = _fields(self.ext_masks, after, c, self._memo, self._ones)
            block = (fields[k] << joined.bit_count()) - losses[k]
            if index < block:
                imask |= bit
                union = joined
                if not k:
                    break
                k -= 1
            else:
                index -= block
        ordinal = index + self._min_outputs  # skip the empty output set if excluded
        omask = 0  # the ordinal's bits, one run of consecutive members at a time
        members = union
        while ordinal:
            low = members & -members
            run = members & ~(members + low)
            omask |= (ordinal & run // low) * low
            ordinal >>= run.bit_count()
            members ^= run
        return imask, union, omask

    def sample_index(self, index: int) -> tuple[int, int]:
        """Decode a flat index in [0, total_count) into task masks."""
        imask, _, omask = self._decode(index)
        return imask, omask

    def sample(self, seed: int) -> Task:
        return next(self.sample_many(seed, 1))

    def sample_many(self, seed: int, count: int) -> Iterator[Task]:
        """``count`` tasks drawn from one ``Random(seed)``, lazily; the
        count and the space are checked on the call, before any draw."""
        if type(count) is not int or count < 0:
            raise InvalidSampleCount(f"count must be an int >= 0, not {count!r}")
        if self.total_count == 0:
            raise EmptyTaskSpace("this environment admits no task")
        indices = map(Random(seed).randrange, repeat(self.total_count, count))
        return starmap(self.task_from_masks, map(self.sample_index, indices))

    # -- hierarchy levels --------------------------------------------------------

    def level(self, task: Task) -> int:
        """Length of the longest strictly ascending chain of parents.

        Every parent has at least one more input, and adding one input
        at a time always yields a parent (keep the outputs, or add one
        when empty outputs are excluded), so the longest chain stops one
        short of the whole language: ``|L| - 1 - |inputs|``.
        """
        if task.env != self.env:
            raise EnvironmentMismatch("task belongs to a different environment")
        return len(self.language) - 1 - len(task.inputs)


@lru_cache(maxsize=None)
def _space_cached(env: Environment, guards: Guards, include_empty_outputs: bool) -> TaskSpace:
    return TaskSpace(env, guards, include_empty_outputs)


def task_space(
    env: Environment,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> TaskSpace:
    return _space_cached(env, guards, include_empty_outputs)


def count_tasks(
    env: Environment,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> int:
    """Exact size of the task space, counted from the statements'
    extensions."""
    return task_space(env, guards, include_empty_outputs).total_count


def enumerate_tasks(
    env: Environment,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> Iterator[Task]:
    """Stream every task exactly once, in canonical order."""
    return task_space(env, guards, include_empty_outputs).tasks()


def sample_task(
    env: Environment,
    seed: int,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> Task:
    """Draw one task exactly uniformly from the task space."""
    return task_space(env, guards, include_empty_outputs).sample(seed)


def hierarchy_level(task: Task, space: TaskSpace) -> int:
    """Largest number of strictly ascending parent steps above the task.

    A child sits strictly lower than each of its parents, so its level
    exceeds theirs.
    """
    return space.level(task)
