"""Span recording around the public functions of the ``nlv`` modules.

The benchmark traces the program from outside: :meth:`Tracer.install`
replaces every public function of each layer module with a wrapper, in
every ``nlv.*`` namespace that binds it, and :meth:`Tracer.uninstall` puts
the originals back.  A wrapper records a span only while a request is in
flight (between :meth:`Tracer.begin` and :meth:`Tracer.end`), so the
benchmark's own output checks are never traced.

A span is a plain tuple, see :data:`FIELDS`.  Its name is
``<owner>.<function>@<binding>``: the module that defines the function
(the layer the span belongs to) and the namespace the call went through,
so ``quantum.climb_family@synchronous`` is the hill-climb as called by the
synchronous search.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import pkgutil
import threading
import time
import types

# The layers are the src/nlv modules; nlv.errors holds no functions of note.
LAYERS = ("cli", "game", "classical", "quantum", "synchronous", "linalg",
          "moments", "tm", "protocols", "rng")

# Called on nearly every matrix the program builds, or once per machine
# step: a span each would cost more than the work it wraps.
UNTRACED = frozenset({
    "linalg.dagger", "linalg.frobenius", "linalg.as_complex", "linalg.identity",
    "tm.step",
})

# Small facts kept from a function's result, for the counts and yields.
NOTES = {
    "game.game_value": float,
    "quantum.entangled_lower_bound": lambda result: float(result[0]),
    "synchronous.sync_value_lower_bound": lambda result: float(result[0]),
    "tm.run": lambda result: (result.steps, len(result.trace)),
    "moments.enumerate_monomials": len,
}

FIELDS = ("id", "parent", "name", "request", "thread", "t0", "t1", "c0", "c1", "note")


class Tracer:
    """Records spans for one run.  One client thread issues requests; the
    program's pool threads may open spans too, and a span opened on a
    thread with no open span of its own is a child of the innermost open
    span of the request thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.installed: set[str] = set()
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, request: int) -> None:
        """Mark ``request`` as in flight; call on the request thread."""
        self._local.stack = self._anchor
        self.request = request

    def end(self) -> None:
        self.request = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                anchor = self._anchor
                parent = anchor[-1] if anchor else 0
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                kept = None
                if note is not None and result is not None:
                    try:
                        kept = note(result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        pass  # a refactor changed the result's shape; keep no note
                self.spans.append((span_id, parent, name, request,
                                   threading.get_ident(), t0, t1, c0, c1, kept))
        return wrapper

    def install(self) -> None:
        """Wrap each public function of every layer module that exists, in
        every ``nlv`` namespace that binds it.  Functions a refactor has
        deleted are simply not found."""
        package = importlib.import_module("nlv")
        modules = {"nlv": package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(f"nlv.{info.name}")
        owners = {}
        for layer in LAYERS:
            module = modules.get(layer)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                qualified = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and qualified not in UNTRACED):
                    owners[id(obj)] = (obj, qualified)
        for binding, module in modules.items():
            for attr, obj in list(vars(module).items()):
                found = owners.get(id(obj))
                if found is None:
                    continue
                name = f"{found[1]}@{binding}"
                setattr(module, attr, self._wrap(obj, name, NOTES.get(found[1])))
                self._patches.append((module, attr, obj))
                self.installed.add(name)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
