"""Span recorder for the traced benchmark pass.

Every public function of the nlasim layers (and the ``__post_init__`` of
every public dataclass, which is where state validation runs) is wrapped
for the duration of one ``with SpanRecorder(...)`` block. Each call
records a span: name, op id, parent span, start and end. Spans opened on
a thread that has no open span of its own (the ``_pool_map`` workers)
attach to the innermost span open on the thread that started the op, so
pool work is charged to the table function that dispatched it. On exit
every wrapped name is restored to the original object.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time

LAYERS = ("cli", "experiments", "applications", "verification", "nla", "optics", "fock")


def _fidelity_kind(args, kwargs, density_cls):
    mixed = [isinstance(x, density_cls) for x in (args + tuple(kwargs.values()))[:2]]
    if all(mixed):
        return "mixed"
    return "pure_mixed" if any(mixed) else "pure"


class SpanRecorder:
    """Wraps the layers' public names while active and keeps every span
    in memory; ``summary()`` turns them into per-name metrics."""

    def __init__(self, package):
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches = []  # (owner, attribute, original)
        self._op_thread = None
        self._op_stack = None
        self.op_id = None
        self.spans = []  # (name, op_id, span_id, parent_id, start, end)
        self.counters = {}

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        try:
            self._patch_layers()
        except BaseException:
            self.restore()
            raise
        return self

    def _patch_layers(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == self._package or n.startswith(self._package + ".")]
        density_cls = sys.modules[self._package + ".fock"].DensityOperator
        for layer in LAYERS:
            mod = sys.modules[f"{self._package}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrapper = self._wrap(qual, obj, self._classifier(qual, density_cls))
                    for owner in modules:
                        for name, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, name, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    counter = _density_bytes if obj is density_cls else None
                    self._patch(obj, "__post_init__",
                                self._wrap(qual, original, None, counter))

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched_names(self):
        return [(owner, name) for owner, name, _ in self._patches]

    @staticmethod
    def _classifier(qual, density_cls):
        if qual == "fock.fidelity":
            return lambda a, k: _fidelity_kind(a, k, density_cls)
        if qual == "nla.physical_circuit":
            return lambda a, k: f"N{k.get('arm_count', a[1] if len(a) > 1 else '?')}"
        return None

    def _wrap(self, qual, fn, classify, counter=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qual if classify is None else f"{qual}.{classify(args, kwargs)}"
            if counter is not None:
                rec._count(name, counter(args))
            span = rec._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._exit(span)

        return wrapper

    # -- recording --------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()

    def end_op(self):
        self.op_id = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][2]
        elif threading.get_ident() != self._op_thread and self._op_stack:
            parent = self._op_stack[-1][2]
        else:
            parent = None
        span = [name, self.op_id, next(self._ids), parent, time.perf_counter(), None]
        stack.append(span)
        return span

    def _exit(self, span):
        span[5] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(tuple(span))

    def _count(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s (union of the name's intervals) and
        self_s (each span's length minus the union of its children's
        intervals); per layer the same over all its names."""
        children = {}
        for span in self.spans:
            children.setdefault(span[3], []).append((span[4], span[5]))
        by_name, by_layer = {}, {}
        for name, _, span_id, _, start, end in self.spans:
            kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
            own = (end - start) - _union_length(kids)
            for key, table in ((name, by_name), (name.split(".", 1)[0], by_layer)):
                entry = table.setdefault(key, {"calls": 0, "self_s": 0.0, "intervals": []})
                entry["calls"] += 1
                entry["self_s"] += own
                entry["intervals"].append((start, end))
        out = {}
        for table in (by_name, by_layer):
            for key, entry in table.items():
                out[f"{key}.calls"] = entry["calls"]
                out[f"{key}.self_s"] = entry["self_s"]
                out[f"{key}.busy_s"] = _union_length(entry["intervals"])
        for name, amount in self.counters.items():
            out[f"{name}.bytes"] = amount
        return out


def _density_bytes(args):
    """Computed size of the complex128 matrix being validated: 16 * dim**2."""
    return 16 * math.prod(int(c) for c in args[0].basis_cutoffs) ** 2


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
