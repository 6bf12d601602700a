"""Span tracing for the traced benchmark run.

Only a traced child imports this module, so timed runs carry no
wrappers.  ``Tracer.install`` replaces every public function of the
traced ``weakform`` modules, plus a few methods, at every place the
function is bound: its defining module and each module that imported it
by name.  (The benchmark's own code calls the library through module
attributes, so it sees the wrappers too.)  Each call records one
span (name, start, end, busy time, parent span, unit id) in flat arrays
kept in memory; ``dump`` writes them out once the body has run, and
``summarize`` turns the spans of one or more children into per-function
counts and self time (busy time minus the busy time of child spans).
A generator's span covers the time spent inside its ``next`` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("core", "tasks", "learning", "bounds", "config", "harness", "cli")
METHODS = (
    ("tasks", "TaskSpace", "__init__"),
    ("tasks", "TaskSpace", "tasks"),
    ("tasks", "TaskSpace", "sample_index"),
    ("learning", "Proxy", "holds"),
)
_FIELDS = (("name", "H"), ("parent", "q"), ("unit", "q"), ("start", "d"), ("end", "d"), ("busy", "d"))


def _label(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__init__', 'init')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in _FIELDS}
        self.counters: dict[str, int] = {}
        self.unit = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _open(self, label: str):
        """Return a pair of callables that open and close spans of ``label``."""
        name_id = self.names.index(label) if label in self.names else len(self.names)
        if name_id == len(self.names):
            self.names.append(label)
        s = self.spans
        names, parents, units = s["name"], s["parent"], s["unit"]
        starts, ends, busys = s["start"], s["end"], s["busy"]
        stack = self._stack

        def enter() -> int:
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            units.append(self.unit)
            starts.append(0.0)
            ends.append(0.0)
            busys.append(0.0)
            stack.append(idx)
            return idx

        def leave(idx: int, t0: float, t1: float, busy: float) -> None:
            stack.pop()
            if not starts[idx]:
                starts[idx] = t0
            ends[idx] = t1
            busys[idx] += busy

        return enter, leave

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, label: str, before=None, after=None):
        enter, leave = self._open(label)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            yielded = f"{label}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                count = 0
                idx = None
                try:
                    while True:
                        if idx is None:
                            idx = enter()
                        else:
                            self._stack.append(idx)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            t1 = clock()
                            leave(idx, t0, t1, t1 - t0)
                        count += 1
                        yield item
                finally:
                    inner.close()
                    self._count(yielded, count)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                leave(idx, t0, t1, t1 - t0)
            if after:
                after(token, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"weakform.{short}") for short in MODULES}
        learning = modules["learning"]
        seen_keys: set = set()

        def table_misses(args, kwargs):
            return learning._table_cached.cache_info().misses

        def table_builds(token, args, kwargs, result):
            self._count("learning.generalization_table.builds",
                        learning._table_cached.cache_info().misses - token)

        def instantiate_key(args, kwargs):
            # before the call, so calls that raise count too
            vocab = args[1] if len(args) > 1 else kwargs.get("v_prime")
            key = (args[0].base.key(), tuple(
                p.states() if hasattr(p, "states") else tuple(sorted(p)) for p in vocab
            ))
            if key not in seen_keys:
                seen_keys.add(key)
                self._count("bounds.instantiate.distinct", 1)

        def policy_hits(token, args, kwargs, result):
            self._count("tasks.correct_policies.hits", len(result.members))

        def report_bytes(token, args, kwargs, result):
            self._count("harness.render_report.bytes", len(result.encode("utf-8")))

        hooks = {
            "learning.generalization_table": (table_misses, table_builds),
            "bounds.instantiate": (instantiate_key, None),
            "tasks.correct_policies": (None, policy_hits),
            "harness.render_report": (None, report_bytes),
        }

        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    label = _label(short, attr)
                    before, after = hooks.get(label, (None, None))
                    replacements[id(fn)] = self.wrap(fn, label, before, after)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, _label(short, f"{cls_name}.{attr}")))

        sites = [m for n, m in sys.modules.items() if n == "weakform" or n.startswith("weakform.")]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.spans["name"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _ in _FIELDS:
                self.spans[field].tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for field, code in _FIELDS:
            spans[field] = array(code)
            spans[field].fromfile(fh, header["spans"])
    return header, spans


def summarize(paths) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per-function ``calls`` and ``self_s`` over the spans of every file,
    plus the summed counters and the number of policy tests made by
    ``correct_policies``."""
    stats: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {"trace.spans": 0}
    for path in paths:
        header, spans = load(path)
        names = header["names"]
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
        name_ids, parents, busys = spans["name"], spans["parent"], spans["busy"]
        n = len(name_ids)
        counters["trace.spans"] += n
        child_busy = [0.0] * n
        tested = 0
        cp = names.index("tasks.correct_policies") if "tasks.correct_policies" in names else -1
        icp = names.index("tasks.is_correct_policy") if "tasks.is_correct_policy" in names else -1
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_busy[p] += busys[i]
                if name_ids[i] == icp and name_ids[p] == cp:
                    tested += 1
        counters["tasks.correct_policies.tested"] = (
            counters.get("tasks.correct_policies.tested", 0) + tested
        )
        for i in range(n):
            entry = stats.setdefault(names[name_ids[i]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += busys[i] - child_busy[i]
    return stats, counters
