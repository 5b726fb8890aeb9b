"""Span tracer that wraps the package's public functions from outside.

Each wrapper replaces a name where its callers look it up (every
``hte_bandit`` module that holds the same function object, or the class
attribute for a method), records one span per call (name, start, end,
parent) in flat arrays, and hands arguments and results to an optional
hook.  Hooks that do real work run inside a ``bench.*`` span, so their time
is charged to no layer of the program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """Return fn wrapped in a span; hook(args, kwargs, result) runs after it."""
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def run_spanned(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside its own span (for benchmark-side work)."""
        return self.span(name, fn)(*args)

    # -- installation ---------------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       hook: Optional[Hook] = None) -> None:
        """Wrap module.attr in every hte_bandit module that holds that object."""
        original = getattr(module, attr)
        wrapped = self.span(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hte_bandit"
                                   or mod_name.startswith("hte_bandit.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str,
                     hook: Optional[Hook] = None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, hook))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return name_of, parent, start, end

    def totals(self):
        """Per span name: (self seconds, total seconds, call count)."""
        name_of, parent, start, end = self.arrays()
        dur = end - start
        n = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size) if dur.size else dur
        self_t = dur - child
        out = {}
        sums_self = np.bincount(name_of, weights=self_t, minlength=n)
        sums_tot = np.bincount(name_of, weights=dur, minlength=n)
        counts = np.bincount(name_of, minlength=n)
        for i, name in enumerate(self.names):
            out[name] = (float(sums_self[i]), float(sums_tot[i]), int(counts[i]))
        return out

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 start=start, end=end)
