"""Span tracer that instruments liarclust from outside the package.

The tracer replaces public names with wrappers that record one span per
call: (name, start, end, parent).  Spans stay in memory, in flat arrays,
until the run ends; self time is then a span's duration minus the time its
direct children cover.  A name is patched wherever its callers look it up:
every ``liarclust`` module attribute that is the original function object
is replaced, so ``liarclust.game.k_inseparable`` is traced as well as
``liarclust.coloring.k_inseparable``.  Methods are patched on their class.
A name that no longer exists is recorded in ``absent`` instead of raising.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "liarclust"


class SpanTracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _intern(self, span: str) -> int:
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def wrap(self, span: str, fn, on_return=None):
        """Return fn wrapped in a span; on_return(span index, args, result) runs after it."""
        nid = self._intern(span)
        stack, start, end = self._stack, self.start, self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = start.append, end.append
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return traced

    def _package_modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, replacement) -> None:
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _lookup(self, module: str, qualname: str):
        """(owner, attribute, original) or None when the name is gone."""
        owner = sys.modules.get(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        return None if original is None else (owner, attr, original)

    def patch(self, span: str, module: str, qualname: str, on_return=None) -> None:
        """Trace module.qualname, a function or a Class.method."""
        found = self._lookup(module, qualname)
        if found is None:
            self.absent.append(f"{module}.{qualname}")
            return
        owner, attr, original = found
        wrapper = self.wrap(span, original, on_return)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            self._replace_everywhere(original, wrapper)

    def patch_factory(self, span: str, module: str, qualname: str, on_return=None) -> None:
        """Trace the callables a factory such as robustify returns."""
        found = self._lookup(module, qualname)
        if found is None:
            self.absent.append(f"{module}.{qualname}")
            return
        original = found[2]

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self.wrap(span, original(*args, **kwargs), on_return)

        self._replace_everywhere(original, factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name_id[p]]

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, self seconds, total seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            nid = name_id[i]
            d = end[i] - start[i]
            calls[nid] += 1
            total_s[nid] += d
            self_s[nid] += d - child[i]
        return {
            name: (calls[i], self_s[i], total_s[i]) for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span, gzip-compressed, one line each: name id, parent, start, end.

        Line i (after the header) is span i; parent -1 marks a root span;
        times are microseconds from the first span's start.
        """
        t0 = self.start[0] if self.start else 0.0
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# names {json.dumps(self.names)}\n# name\tparent\tstart_us\tend_us\n")
            for i in range(len(start)):
                fh.write(
                    f"{name_id[i]}\t{parent[i]}\t"
                    f"{(start[i] - t0) * 1e6:.3f}\t{(end[i] - t0) * 1e6:.3f}\n"
                )
