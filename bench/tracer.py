"""Layer tracing and call counting, installed on raagmcg from outside.

``Tracer`` wraps the public functions and methods named in ``LAYERS`` in
span recorders.  A module that did ``from .words import normalize``
holds its own binding of the function, so the tracer replaces every
binding of each target in every ``raagmcg`` module namespace; methods
are replaced once, on their class.  ``install`` and ``uninstall`` swap
the bindings, so untraced passes run the original code.

Spans are (name, start_ns, end_ns, parent index) tuples kept in memory;
a layer's self time is its span durations minus those of its direct
child spans.
"""

from __future__ import annotations

import sys
import time

# (module, qualified name): one span name "<module>.<qualified name>".
LAYERS = (
    ("words", "normalize"),
    ("words", "multiply"),
    ("words", "invert"),
    ("words", "power"),
    ("words", "parse_word"),
    ("words", "minimal_representatives"),
    ("words", "oracle_min_syllables"),
    ("syllables", "syllable_order"),
    ("syllables", "SyllableOrder.covering_pairs"),
    ("syllables", "cyclically_reduce"),
    ("syllables", "is_cyclically_reduced"),
    ("syllables", "power_shift_map"),
    ("subsurface_map", "syllable_subsurface_map"),
    ("subsurface_map", "make_certificate"),
    ("subsurface_map", "check_order_embedding"),
    ("subsurface_map", "MappedSubsurface.equivalent"),
    ("defining_graph", "DefiningGraph.complement"),
    ("defining_graph", "DefiningGraph.components"),
    ("defining_graph", "DefiningGraph.from_json"),
    ("realization", "build_standard_realization"),
    ("realization", "validate_realization"),
    ("realization", "fill"),
    ("classification", "classify"),
    ("classification", "verify_power_properties"),
)
LAYER_NAMES = tuple(f"{module}.{qualname}" for module, qualname in LAYERS)
REPS_COUNTER = "words.reps_enumerated"
OP_SPAN = "op"


class Tracer:
    def __init__(self, package):
        self.spans = []
        self._stack = []
        self.reps_enumerated = 0
        self._patches = []  # (owner, attribute, original, replacement)
        prefix = package.__name__
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")
        ]
        for module_name, qualname in LAYERS:
            module = sys.modules[f"{prefix}.{module_name}"]
            span_name = f"{module_name}.{qualname}"
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(span_name, original.__func__))
                else:
                    replacement = self._wrap(span_name, original)
                self._patches.append((owner, attribute, original, replacement))
                continue
            original = getattr(module, qualname)
            replacement = self._wrap(span_name, original)
            for namespace in namespaces:
                for attribute, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attribute, original, replacement))

    def _wrap(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_reps = name == "words.minimal_representatives"

        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_reps:
                self.reps_enumerated += len(result)
            return result

        span.__wrapped__ = function
        return span

    def install(self):
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.reps_enumerated = 0

    def run_op(self, function):
        """Run one benchmark operation under a root span, so every span of
        the operation descends from it."""
        return self._wrap(OP_SPAN, function)()

    def layer_totals(self):
        """{layer: (calls, self_ns)} over the spans recorded since reset."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                self_ns[parent] -= end - start
        totals = {name: [0, 0] for name in LAYER_NAMES}
        for (name, _, _, _), own in zip(self.spans, self_ns):
            if name != OP_SPAN:
                totals[name][0] += 1
                totals[name][1] += own
        return totals


def count_calls(function):
    """Run ``function`` and return (result or raised exception, number of
    Python calls plus C calls it made), counted with sys.setprofile."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = function()
    except Exception as err:  # the caller decides which errors are failures
        result = err.with_traceback(None)
    finally:
        sys.setprofile(None)
    return result, calls
