"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of every ``cosetchar``
submodule (``__all__`` where a module has one), and the public and
arithmetic methods of its public classes.  Each wrapper replaces every
binding that callers look up: module globals (``minimal.euler_product`` and
``affine.euler_product`` are both rebindings of ``series.euler_product``),
values of module-level dicts such as the CLI dispatch table, and class
attributes (``__rmul__`` is the same function as ``__mul__``).
``Tracer.uninstall`` puts every original object back and proves it.

Spans live in memory as ``[name, parent index, start, end]``.  A hook may
run after a call to count something about its arguments or result; the
tracer's clock stops and no span is recorded while it runs, so hooks add to
the traced run's wall time but to no span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# arithmetic dunders, which callers reach through the type; comparisons are
# left out because dataclasses generate them for every label class
ARITHMETIC = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
_MARK = "__perfbench_original__"


def package_modules(package: str) -> list[types.ModuleType]:
    return sorted(
        (m for name, m in sys.modules.items()
         if m is not None and (name == package or name.startswith(package + "."))),
        key=lambda m: m.__name__,
    )


def _public_names(module: types.ModuleType) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
    return list(names)


def public_targets(package: str) -> dict[object, str]:
    """Original function object -> span name ``<submodule>.<qualname>``."""
    targets: dict[object, str] = {}
    for module in package_modules(package):
        if module.__name__ == package:
            continue
        short = module.__name__.rsplit(".", 1)[-1]
        for name in _public_names(module):
            obj = getattr(module, name, None)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                targets[obj] = f"{short}.{obj.__qualname__}"
            elif isinstance(obj, type):
                for attr, value in vars(obj).items():
                    if isinstance(value, types.FunctionType) and (
                        not attr.startswith("_") or attr in ARITHMETIC
                    ):
                        targets[value] = f"{short}.{value.__qualname__}"
    return targets


class Tracer:
    def __init__(self, package: str, hooks: dict):
        self.package = package
        self.hooks = hooks  # span name -> hook(args, result)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._muted = False  # set while a hook runs: its own calls are not traced
        self._bindings: list[tuple[object, str, object, str]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self.clock(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = self.clock()
        self._stack.pop()

    def run(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own (the harness's op spans)."""
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                start = time.perf_counter()
                self._muted = True
                try:
                    hook(args, result)
                finally:
                    self._muted = False
                    self._paused += time.perf_counter() - start
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installing and restoring ---------------------------------------------------

    def _containers(self):
        """(kind, container) for every place a caller can look a function up."""
        for module in package_modules(self.package):
            yield "attr", module
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, dict):
                    yield "item", value
                elif isinstance(value, type) and value.__module__.startswith(self.package):
                    yield "attr", value

    def install(self) -> int:
        """Wrap every public target at every binding; returns the number of bindings."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = public_targets(self.package)
        wrappers = {id(fn): (fn, self._wrap(fn, name)) for fn, name in targets.items()}
        seen = set()
        for kind, container in self._containers():
            if id(container) in seen:
                continue
            seen.add(id(container))
            entries = container.items() if kind == "item" else vars(container).items()
            for key, value in list(entries):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is not value:
                    continue
                self._bindings.append((container, key, value, kind))
                if kind == "item":
                    container[key] = wrapper
                else:
                    setattr(container, key, wrapper)
        return len(self._bindings)

    def uninstall(self) -> list[str]:
        """Restore every binding; returns a list of problems (empty when all is restored)."""
        for container, key, original, kind in reversed(self._bindings):
            if kind == "item":
                container[key] = original
            else:
                setattr(container, key, original)
        problems = []
        for container, key, original, kind in self._bindings:
            now = container[key] if kind == "item" else vars(container).get(key)
            if now is not original:
                problems.append(f"{key} not restored")
        for kind, container in self._containers():
            entries = container.items() if kind == "item" else vars(container).items()
            problems += [f"wrapper left at {key}" for key, value in list(entries)
                         if hasattr(value, _MARK)]
        self._bindings = []
        return problems

    def dump(self, fh) -> None:
        """Write the spans as JSON: a name table and [name index, parent, start, end] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], parent, round(start, 7), round(end, 7)]
                for name, parent, start, end in self.spans]
        json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


# -- aggregation -------------------------------------------------------------------


def group_stats(spans: list[list], groups: dict[str, set[str]]) -> dict[str, dict]:
    """Per group of span names: calls, s and self_s.

    calls and s count the group's outermost spans (calls into the group from
    outside it) and the time under them; self_s is that time minus the time
    spent in spans of other groups or names directly beneath a group span.
    """
    group_of = {name: group for group, names in groups.items() for name in names}
    stats = {group: {"calls": 0, "s": 0.0, "self_s": 0.0} for group in groups}
    span_group = [group_of.get(span[0]) for span in spans]
    # groups owning some proper ancestor of each span
    enclosing: list[frozenset] = []
    for i, (name, parent, start, end) in enumerate(spans):
        group = span_group[i]
        outer = frozenset()
        if parent >= 0:
            outer = enclosing[parent]
            parent_group = span_group[parent]
            if parent_group is not None and parent_group not in outer:
                outer = outer | {parent_group}
            if parent_group is not None and parent_group != group:
                stats[parent_group]["self_s"] -= end - start
        enclosing.append(outer)
        if group is not None and group not in outer:
            g = stats[group]
            g["calls"] += 1
            g["s"] += end - start
            g["self_s"] += end - start
    return stats
