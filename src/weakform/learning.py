"""Proxies, policy learning and the generalization order.

A proxy is a deterministic 0/1 relation on statements used to pick one
correct policy out of many.  It is given by its rows: for a sequence of
statements, each read by ``LanguageIndex.read``, one bit mask per
statement holding the statements it ranks below.  The built-in proxies
are weakness (compare extension sizes), simplicity (fewer member
programs ranks higher), fixed random relations, and explicit tables.
Weakness and simplicity are key orders, so their rows come from one
sort.  The generalization order ranks statements by how often they are
a correct policy for a task drawn uniformly from the task space; sample
efficiency scores a proxy by how well its verdicts match that order
over all ordered statement pairs, a popcount of the XOR of the two
orders' rows.  Learning keeps the correct policies whose row over the
policy set is empty.

Each of those counts is closed-form in the statement's extension and
the statements true at its states: ``tasks._policy_count`` over the whole
language, which the vocabulary sweeps of ``bounds`` share.  The tests
check it against enumerating tasks.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_, xor
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Sequence

from .core import (
    DEFAULT_GUARDS,
    Environment,
    Guards,
    LanguageIndex,
    Statement,
    _index_cached,
    _members,
    _read_json,
    _require_statements,
    encode_statement,
    require_statement,
)
from .errors import (
    AmbiguousMaximum,
    EmptyTaskSpace,
    IndexOutOfRange,
    InvalidSampleCount,
    NoCorrectPolicy,
    ParseError,
    UnknownProxy,
)
from .tasks import Task, _policy_count, correct_policies, is_correct_policy, task_space

__all__ = [
    "GeneralizationEstimate",
    "GeneralizationTable",
    "Proxy",
    "estimate_generalization_probabilities",
    "estimate_generalization_probability",
    "evaluate_generalization",
    "gen_cmp",
    "generalization_probability",
    "generalization_table",
    "learn",
    "proxy_by_name",
    "random_proxy",
    "sample_efficiency",
    "simplicity_cmp",
    "simplicity_proxy",
    "table_proxy",
    "weakness_cmp",
    "weakness_proxy",
]


# --- comparators ----------------------------------------------------------------

def weakness_cmp(env: Environment, l1: Iterable[int], l2: Iterable[int],
                 guards: Guards = DEFAULT_GUARDS) -> bool:
    """True iff ``l1`` has the strictly smaller extension: the weakness
    proxy's relation."""
    return weakness_proxy().holds(env, l1, l2, guards)


def simplicity_cmp(l1: Iterable[int], l2: Iterable[int]) -> bool:
    """True iff ``l1`` has strictly more member programs than ``l2``.

    Fewer constraints count as simpler, so maximising this relation
    selects the shortest statement.  A form-based baseline, nothing more:
    the simplicity proxy's relation, on index sets (no environment checks them).
    """
    return len(set(_members(l1, IndexOutOfRange, "statement"))) > len(
        set(_members(l2, IndexOutOfRange, "statement"))
    )


def _key_rows(keys: Sequence) -> list[int]:
    """The rows of a key order: bit j of row i is set when
    ``keys[i] < keys[j]``.

    One sort, then a walk from the largest key down: every key class
    gets the OR of the positions of the strictly larger classes.
    """
    rows = [0] * len(keys)
    above = 0  # positions of the classes already passed
    current = 0  # positions of the class being walked
    last = None
    for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        if current and keys[i] < last:
            above |= current
            current = 0
        rows[i] = above
        current |= 1 << i
        last = keys[i]
    return rows


@dataclass(frozen=True)
class Proxy:
    """A named deterministic 0/1 relation on statements, given by its rows.

    ``rows(env, statements, guards)`` returns one mask per statement:
    bit j of row i is set when the relation holds of
    ``(statements[i], statements[j])``; weakness counts extensions
    under the guards.  Every proxy reads them by ``LanguageIndex.read``, off
    the index their task, table or pair admitted, perhaps under raised guards.
    """

    name: str
    rows: Callable[[Environment, Sequence[Statement], Guards], list[int]]

    def holds(self, env: Environment, l1: Statement, l2: Statement, guards=DEFAULT_GUARDS) -> bool:
        """Whether the relation holds of ``(l1, l2)``, read by the rows as
        statements of ``env``, so the answer does not depend on their
        spelling; the index the rows read is admitted under ``guards`` first."""
        LanguageIndex.of(env, guards)
        return bool(self.rows(env, (l1, l2), guards)[0] >> 1 & 1)

    def __repr__(self) -> str:
        return f"Proxy({self.name})"


def weakness_proxy() -> Proxy:
    return Proxy(
        "weakness",
        lambda env, xs, guards=DEFAULT_GUARDS: _key_rows(_index_cached(env).extension_sizes(xs, guards)),
    )


def simplicity_proxy() -> Proxy:
    return Proxy(
        "simplicity",
        lambda env, xs, guards=DEFAULT_GUARDS: _key_rows([-len(s) for s in _index_cached(env).read(xs)]),
    )


def random_proxy(seed: int) -> Proxy:
    """A fixed random relation: the same pair always gets the same bit.

    The bit of ``(l1, l2)`` is the low bit of the first byte of the
    SHA-256 of ``"{seed}|{l1}|{l2}"``, so the relation is stable across
    runs, platforms and environments.  Each row hashes its shared
    prefix once and extends a copy per column.
    """

    def rows(env: Environment, statements: Sequence[Statement], guards=DEFAULT_GUARDS) -> list[int]:
        codes = [encode_statement(s) for s in _index_cached(env).read(statements)]
        tails = [code.encode("utf-8") for code in codes]
        out = []
        for code in codes:
            prefix = hashlib.sha256(f"{seed}|{code}|".encode("utf-8"))
            row = 0
            for j, tail in enumerate(tails):
                h = prefix.copy()
                h.update(tail)
                row |= (h.digest()[0] & 1) << j
            out.append(row)
        return out

    return Proxy(f"random:{seed}", rows)


def table_proxy(name: str, true_pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> Proxy:
    """A relation given extensionally: listed ordered pairs are 1, each
    side in canonical form (``[0, 0, 2]`` is ``(0, 2)``), as ``Proxy.holds``
    reads its arguments."""
    successors: dict[Statement, set[Statement]] = {}

    def canonical(side: Iterable[int]) -> Statement:
        indices = _members(side, IndexOutOfRange, "statement")
        for j in indices:
            # bool is an int subclass, but True is no vocabulary index
            if not isinstance(j, int) or isinstance(j, bool):
                raise IndexOutOfRange(f"index {j!r} is no int")
        return tuple(sorted(set(indices)))

    for pair in _members(true_pairs, IndexOutOfRange, "pair list"):
        sides = _members(pair, IndexOutOfRange, "pair")
        if len(sides) != 2:
            raise IndexOutOfRange(f"pair {pair!r} is not two sides")
        a, b = map(canonical, sides)
        successors.setdefault(a, set()).add(b)

    def rows(env: Environment, statements: Sequence[Statement], guards=DEFAULT_GUARDS) -> list[int]:
        keys = _index_cached(env).read(statements)
        columns: dict[Statement, int] = {}
        for j, key in enumerate(keys):
            columns[key] = columns.get(key, 0) | 1 << j
        return [
            reduce(or_, (columns.get(b, 0) for b in successors.get(key, ())), 0)
            for key in keys
        ]

    return Proxy(name, rows)


def proxy_by_name(name: str, base_dir: str | Path | None = None) -> Proxy:
    """Resolve weakness | simplicity | random:<seed> | table:<path>."""
    if name == "weakness":
        return weakness_proxy()
    if name == "simplicity":
        return simplicity_proxy()
    if name.startswith("random:"):
        try:
            return random_proxy(int(name.split(":", 1)[1]))
        except ValueError:
            raise UnknownProxy(f"bad random proxy seed in {name!r}") from None
    if name.startswith("table:"):
        path = Path(name.split(":", 1)[1])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            pairs = _read_json(path, "proxy table")["true_pairs"]
            # the JSON shape only: a side "" or {} would read as the empty statement
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and all(isinstance(side, list) for side in pair)
                for pair in pairs
            ):
                raise ValueError("true_pairs must be a list of pairs, each side a list")
            return table_proxy(name, pairs)
        except ParseError as exc:  # its message names the file
            raise UnknownProxy(str(exc)) from None
        except (OSError, KeyError, ValueError, TypeError, IndexOutOfRange) as exc:
            raise UnknownProxy(f"cannot load proxy table {path}: {exc}") from None
    raise UnknownProxy(f"unknown proxy {name!r}")


# --- the generalization order -------------------------------------------------------

@dataclass(frozen=True)
class GeneralizationTable:
    """For every statement: in how many tasks it is a correct policy.

    The denominator is the total task count, shared by all rows; all
    arithmetic is exact.
    """

    env: Environment
    include_empty_outputs: bool
    statements: tuple[Statement, ...]
    numerators: tuple[int, ...]
    denominator: int

    def numerator(self, l: Iterable[int]) -> int:
        # the table's index was admitted when the table was built, perhaps
        # under raised guards, so it is not checked against the defaults again
        return self.numerators[_index_cached(self.env).position[require_statement(self.env, l)]]

    def probability(self, l: Iterable[int]) -> Fraction:
        if self.denominator == 0:
            raise EmptyTaskSpace("no tasks exist, generalization is undefined")
        return Fraction(self.numerator(l), self.denominator)


@lru_cache(maxsize=None)
def _table_cached(env: Environment, guards: Guards, include_empty_outputs: bool) -> GeneralizationTable:
    space = task_space(env, guards, include_empty_outputs)
    language = (1 << len(space.language)) - 1
    m = 0 if include_empty_outputs else 1
    numerators = tuple(_policy_count(space.index, p, language, m) for p in range(len(space.language)))
    return GeneralizationTable(env, include_empty_outputs, space.language, numerators, space.total_count)


def generalization_table(
    env: Environment,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> GeneralizationTable:
    return _table_cached(env, guards, include_empty_outputs)


def generalization_probability(
    env: Environment,
    l: Iterable[int],
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> Fraction:
    """Exact probability that ``l`` is a correct policy of a task drawn
    uniformly from the task space."""
    return generalization_table(env, guards, include_empty_outputs).probability(l)


def gen_cmp(
    env: Environment,
    l1: Iterable[int],
    l2: Iterable[int],
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> bool:
    """True iff ``l1`` generalizes strictly less probably than ``l2``."""
    table = generalization_table(env, guards, include_empty_outputs)
    # same denominator, so the numerators decide
    return table.numerator(l1) < table.numerator(l2)


@dataclass(frozen=True)
class GeneralizationEstimate:
    """Monte Carlo estimate of a generalization probability."""

    statement: Statement
    successes: int
    samples: int
    seed: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.successes, self.samples)

    def stderr(self) -> float:
        p = self.successes / self.samples
        return (p * (1.0 - p) / self.samples) ** 0.5

    def interval(self, z: float = 3.0) -> tuple[float, float]:
        p = self.successes / self.samples
        half = z * self.stderr()
        return (max(0.0, p - half), min(1.0, p + half))


def estimate_generalization_probabilities(
    env: Environment,
    statements: Iterable[Iterable[int]],
    samples: int,
    seed: int,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> list[GeneralizationEstimate]:
    """Estimate each statement's probability by uniform task sampling.

    All statements share one stream of ``samples`` draws from
    ``Random(seed)``, each walked once (``TaskSpace._walk``: the union
    and output mask, no input set), so every estimate equals that
    statement's own call.  A draw is a hit for ``p`` when
    ``union & pmask == omask``: ``E ∩ ext(p) = O``, the identity that
    ``correct_policies`` states as down-sets.  The drawn output masks
    are counted per union, so ``p``'s hits are the sum over the drawn
    unions of the count of ``union & pmask``.  Each estimate carries its
    sample count and seed so the binomial error is reconstructible."""
    if type(samples) is not int or samples < 1:
        raise InvalidSampleCount(f"samples must be an int >= 1, not {samples!r}")
    xs = _require_statements(env, statements)
    space = task_space(env, guards, include_empty_outputs)
    if space.total_count == 0:
        raise EmptyTaskSpace("no tasks exist, generalization is undefined")
    position = space.index.position
    pmasks = [space.ext_masks[position[x]] for x in xs]
    drawn: defaultdict[int, Counter] = defaultdict(Counter)
    rng = Random(seed)
    for _ in range(samples):
        union, omask, *_ = space._walk(rng.randrange(space.total_count))
        drawn[union][omask] += 1
    hits = [sum(omasks.get(union & pmask, 0) for union, omasks in drawn.items()) for pmask in pmasks]
    return [GeneralizationEstimate(x, h, samples, seed) for x, h in zip(xs, hits)]


def estimate_generalization_probability(
    env: Environment,
    l: Iterable[int],
    samples: int,
    seed: int,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> GeneralizationEstimate:
    """Estimate by uniform task sampling: the one-statement case of
    ``estimate_generalization_probabilities``."""
    (est,) = estimate_generalization_probabilities(
        env, (l,), samples, seed, guards, include_empty_outputs
    )
    return est


# --- sample efficiency -----------------------------------------------------------------

def sample_efficiency(
    env: Environment,
    a: Proxy,
    b: Proxy,
    guards: Guards = DEFAULT_GUARDS,
    include_empty_outputs: bool = True,
) -> int:
    """Error of proxy ``a`` minus error of proxy ``b`` against the
    generalization order, summed over all ordered statement pairs.

    Every term is a bit, so a row's error is the popcount of its XOR
    with the generalization order's row ``{j : num_i < num_j}``, and the
    double sum is ``a``'s total error minus ``b``'s.  Negative means ``a``
    is the more sample-efficient proxy.
    """
    error_a, error_b = _proxy_errors(env, (a, b), guards, include_empty_outputs)
    return error_a - error_b


def _proxy_errors(
    env: Environment, proxies: Sequence[Proxy], guards: Guards, include_empty_outputs: bool
) -> list[int]:
    """Each proxy's error against the generalization order, summed over
    all ordered statement pairs; each proxy's rows are built once."""
    table = generalization_table(env, guards, include_empty_outputs)
    if table.denominator == 0:
        raise EmptyTaskSpace("no tasks exist, sample efficiency is undefined")
    g = _key_rows(table.numerators)
    return [
        sum(map(int.bit_count, map(xor, g, p.rows(env, table.statements, guards))))
        for p in proxies
    ]


# --- learning ------------------------------------------------------------------------------

def learn(
    child: Task,
    proxy: Proxy,
    guards: Guards = DEFAULT_GUARDS,
    tie_break: bool = True,
) -> Statement:
    """The proxy-maximal correct policy of the child task.

    Maximal means no other correct policy ranks above it.  Ties break to
    the canonically smallest statement; with tie-breaking disabled, ties
    raise.  A cyclic relation leaves no maximal element, in which case
    the tie set is the whole policy set.  The maximal policies are those
    whose row over the policy set is empty.
    """
    pols = correct_policies(child)
    if not pols:
        raise NoCorrectPolicy("the task has no correct policy")
    maximal = [p for p, row in zip(pols, proxy.rows(child.env, pols, guards)) if not row]
    if not maximal:
        maximal = list(pols)
    if len(maximal) > 1 and not tie_break:
        raise AmbiguousMaximum(
            f"{len(maximal)} policies are proxy-maximal under {proxy.name}"
        )
    return maximal[0]  # policies come in canonical order


def evaluate_generalization(pi: Iterable[int], parent: Task) -> bool:
    """True iff the statement is a correct policy of the parent task."""
    return is_correct_policy(parent, pi)
