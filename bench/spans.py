"""In-memory span tracer that wraps the package's public functions.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in every namespace that holds a reference to it (the
package root re-exports names, ``analysis`` imports ``form_diagonal``,
``forms`` imports ``act``, ...).  ``uninstall`` puts the originals back, so
one process can alternate untraced and traced passes.

Each call records a span (id, parent id, job id, name, start, end).  A
span's self time is its duration minus the time covered by its child
spans.  Spans stay in memory, capped, and are written out at the end.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("exact", "modules", "filtrations", "forms", "analysis", "cli")

SPAN_CAP = 50_000


def public_functions(module):
    """The functions a layer module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        name: obj for name in names
        if inspect.isfunction(obj := getattr(module, name))
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Span recorder with per-name self time, inclusive time and call counts."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    def reset(self) -> None:
        """Clear the aggregates; recorded spans are kept until written out."""
        for table in (self.calls, self.self_s, self.incl_s, self.counts):
            table.clear()

    def wrap(self, name: str, fn, on_return=None):
        """Return fn wrapped in a span; on_return(result, parent_name) may add counts."""
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [name, 0.0, tracer._next_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                tracer.incl_s[name] += dur
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], parent[2] if parent else 0, tracer.job,
                                  name, t0, t1))
            if on_return is not None:
                on_return(result, parent[0] if parent else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every loaded layer module of ``package``."""
        prefix = package.__name__ + "."
        namespaces = [package] + [
            m for name, m in sorted(vars(package).items())
            if inspect.ismodule(m) and m.__name__.startswith(prefix)
        ]
        hooks = self._hooks()
        replacement = {}
        for module in namespaces:
            layer = module.__name__[len(prefix):]
            if layer not in LAYERS:
                continue
            for fname, fn in public_functions(module).items():
                qualified = f"{layer}.{fname}"
                replacement[id(fn)] = self.wrap(qualified, fn, hooks.get(qualified))
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _hooks(self):
        counts = self.counts

        def ratio_bits(value, _parent):
            ratio = value.ratio_to_reference
            if ratio is not None:
                counts["forms.ratio_bits"] += (
                    ratio.numerator.bit_length() + ratio.denominator.bit_length()
                )

        def window_vectors(window, parent):
            counts["modules.basis_window.vectors"] += len(window)
            if parent == "analysis.definiteness":
                counts["analysis.definiteness.scan_vectors"] += len(window)

        return {"forms.form_diagonal": ratio_bits, "modules.basis_window": window_vectors}

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }


def write_spans(path, spans) -> None:
    """One JSON list per line: [id, parent id, job id, name, start s, end s]."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")
