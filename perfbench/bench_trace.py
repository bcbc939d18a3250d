"""Call tracing for poa_lab, installed from outside the package.

A traced function is replaced by a wrapper in every ``poa_lab`` module
namespace that bound it: ``equilibria``, ``sweeps``, ``smoothness``,
``harness`` and the package ``__init__`` all import functions by name
(``from .mechanisms import run_auction``), so patching the defining module
alone would miss their calls.  A class target is traced by wrapping its
``__init__``, which counts construction plus ``__post_init__`` validation
wherever the class is called from.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end).  Calls are single-threaded, so a span's index order is its start
order and its parent is the innermost traced call still open when it began.

numpy is imported where it is used, so that importing this module leaves
the first set-up of a benchmark run to pay for numpy's import.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "poa_lab"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def patch(module: str, name: str, make_wrapper):
    """Replace ``poa_lab.<module>.<name>`` in every namespace that bound it.

    ``make_wrapper(original)`` returns the replacement.  For a class, the
    class's ``__init__`` is replaced instead.  Returns a callable that
    restores every binding it changed.
    """
    home = sys.modules[f"{PACKAGE}.{module}"]
    original = getattr(home, name)
    if isinstance(original, type):
        init = original.__dict__["__init__"]
        original.__init__ = make_wrapper(init)

        def restore_init():
            original.__init__ = init
        return restore_init

    wrapper = make_wrapper(original)
    changed = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                changed.append((mod, attr))

    def restore():
        for mod, attr in changed:
            setattr(mod, attr, original)
    return restore


class SpanStore:
    """In-memory spans of one traced region, with parent links."""

    def __init__(self, names):
        self.names = list(names)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name: str, fn):
        """Wrapper for ``fn`` that records one span named ``name`` per call."""
        nid = self.names.index(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
        return traced

    def record(self, name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span directly; returns its index."""
        self.name_id.append(self.names.index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def self_times(self) -> array:
        """Each span's duration minus the part its children's union covers."""
        n = len(self.start)
        parent, start, end = self.parent, self.start, self.end
        covered = array("d", bytes(8 * n))
        covered_to = array("d", start)
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            e = end[i]
            reach = covered_to[p]
            if e > reach:
                s = start[i]
                covered[p] += e - (s if s > reach else reach)
                covered_to[p] = e
        return array("d", (end[i] - start[i] - covered[i] for i in range(n)))

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


class Tracer:
    """Installs span wrappers on ``targets`` for the duration of a block.

    ``targets`` is a sequence of ``(module, name)`` pairs; spans are named
    ``"<module>.<name>"``.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.store = SpanStore(f"{m}.{n}" for m, n in self.targets)
        self._restore = []

    def __enter__(self) -> SpanStore:
        try:
            for module, name in self.targets:
                span = f"{module}.{name}"
                self._restore.append(patch(
                    module, name,
                    lambda fn, span=span: self.store.wrap(span, fn)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.store

    def __exit__(self, exc_type, exc, tb):
        while self._restore:
            self._restore.pop()()


def summarize(store: SpanStore) -> dict:
    """Per span name: calls, self time, inclusive time, the duration of
    each call, and how many calls of each other name it made directly."""
    import numpy as np

    n_names = len(store.names)
    ids = np.frombuffer(store.name_id, dtype=np.int32)
    parents = np.frombuffer(store.parent, dtype=np.int32)
    dur = (np.frombuffer(store.end, dtype=np.float64)
           - np.frombuffer(store.start, dtype=np.float64))
    self_s = np.frombuffer(store.self_times(), dtype=np.float64)
    calls = np.bincount(ids, minlength=n_names)
    self_total = np.bincount(ids, weights=self_s, minlength=n_names)
    incl_total = np.bincount(ids, weights=dur, minlength=n_names)
    nested = parents >= 0
    pairs = np.bincount(ids[parents[nested]] * n_names + ids[nested],
                        minlength=n_names * n_names).reshape(n_names, n_names)
    out = {}
    for nid, name in enumerate(store.names):
        out[name] = {
            "calls": int(calls[nid]),
            "self_s": float(self_total[nid]),
            "total_s": float(incl_total[nid]),
            "durations_s": dur[ids == nid],
            "children": {store.names[c]: int(pairs[nid, c])
                         for c in np.flatnonzero(pairs[nid])},
        }
    return out
