"""Outside-in span tracer for the `ude` package.

`Tracer.installed()` replaces the public functions of the traced modules,
and the public methods and `__call__` of their public classes, with timing
wrappers, and restores the originals on exit. Nothing under `src/` knows
about it.

A function imported by name into another module (`pipeline` binds
`mate.encode` as `mate_encode`, `utt` imports `encode`) is a second
reference to the same object, so every `ude.*` module namespace is scanned
and every reference is replaced; patching only the defining module would
silently miss those calls.

Spans are aggregated in memory per name: calls, total seconds, and self
seconds (total minus the time covered by child spans). A full per-call
event log is not kept because a training epoch makes about a million op
calls. A few spans also feed work counters (rows fed, tokens out, bytes
read), computed from the call's arguments or result.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time

TRACED_MODULES = ("numerics", "nn", "mate", "utt", "mq", "dmd", "metrics",
                  "checkpoint", "dataset", "pipeline")


# span -> (counter, function of the call's positional args and result giving
# the increment)
COUNTERS = {
    # rows the encoder is fed: condition plus token prefix
    "utt.forward_logits": ("utt.forward_logits.rows",
                           lambda args, result: args[1].length + len(args[2])),
    "utt.generate_tokens": ("utt.generate_tokens.tokens",
                            lambda args, result: int(result.size)),
    "checkpoint.load_checkpoint": ("checkpoint.load_checkpoint.bytes",
                                   lambda args, result: os.path.getsize(args[0])),
}


def _public_callables(module):
    """(owner, attribute, span name, function) for everything traced in
    one module: its public functions, and the public methods plus
    `__call__` of its public classes. A class's `__call__` span is named
    after the class."""
    short = module.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, f"{short}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not inspect.isfunction(member):
                    continue
                if attr == "__call__":
                    out.append((obj, attr, f"{short}.{name}", member))
                elif not attr.startswith("_"):
                    out.append((obj, attr, f"{short}.{name}.{attr}", member))
    return out


class Tracer:
    """Span statistics for one traced region of a run."""

    def __init__(self):
        self.spans: dict = {}      # name -> [calls, total_s, self_s]
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.op_spans: set = set()  # spans of the numerics module functions
        self._stack: list = []     # child seconds accumulated per open span

    def _wrap(self, span: str, fn):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        counter, count = COUNTERS.get(span, (None, None))
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counters[counter] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced callable and every reference to it in the
        loaded `ude` modules; restore all of them on exit."""
        modules = [importlib.import_module(f"ude.{m}") for m in TRACED_MODULES]
        numerics = sys.modules["ude.numerics"]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "ude" or name.startswith("ude.")) and m is not None]
        undo = []
        for module in modules:
            for owner, attr, span, fn in _public_callables(module):
                wrapper = self._wrap(span, fn)
                if owner is numerics:
                    self.op_spans.add(span)
                if inspect.isclass(owner):
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            undo.append((ns, name, fn))
                            setattr(ns, name, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0])[0]

    def op_calls(self) -> int:
        """Calls of the public module-level functions of `numerics` (the
        autodiff ops), excluding Tensor and Adam methods."""
        return sum(self.spans[span][0] for span in self.op_spans)
