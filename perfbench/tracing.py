"""In-memory call spans around the public functions of every lne module.

`install` replaces each function named in a module's ``__all__`` with a
wrapper at every place an lne module binds it (``lne.lne``,
``lne.entropy.log_norm``, ``lne.crossent.escort``, ...), so calls
between modules are recorded as well as calls from the benchmark.
Nothing under ``src/`` changes: the wrappers live only in this process.

A span is (id, parent id, op id, name, start, end).  Spans stay in
memory until `write` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, parent, op, name, start, end)
        self._stack = []
        self._op = -1

    def begin_op(self, op_id):
        self._op = op_id

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public function of every loaded lne module at every
        lne binding site; returns the number of bindings replaced."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lne" or n.startswith("lne.")]
        names = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        replaced = 0
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    replaced += 1
        return replaced

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)  # reserve the id; filled on exit
        t._stack.append(self.sid)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else None
        t.spans[self.sid] = (self.sid, parent, t._op, self.name, self.start, end)
        return False


def module_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-module self time (s) and per-function call counts.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap (one thread), so that is
    the duration minus the sum of the children's durations.
    """
    child_time = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for sid, _parent, _op, name, start, end in spans:
        self_time[module_of(name)] += (end - start) - child_time[sid]
        calls[name] += 1
    return dict(self_time), dict(calls)
