"""Span recorder that the benchmark installs into the btseq modules.

Every public function of a layer module, and every public method of a
class defined there, is replaced by a wrapper that records one span per
call: name, start, end, parent span and request id. The wrapper is bound
under every name that any btseq module holds for the function, so calls
across modules (checks -> fastfixed -> intops) are attributed as well as
calls inside one module. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "btseq"
LAYERS = ("recurrences", "fastfixed", "intops", "series", "checks", "softfloat", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info = None

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request]


def _arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _size(args, kwargs, result):
    return _arg(args, kwargs, "n")


def _size_and_trips(args, kwargs, result):
    counters = result[-1] if isinstance(result, tuple) else None
    return _arg(args, kwargs, "n"), getattr(counters, "loop_trips", None)


def _numerator_bits(args, kwargs, result):
    return _arg(args, kwargs, "num").bit_length()


# Calls whose arguments or results carry a count the metrics need.
PROBES = {
    "recurrences.tangent_numbers": _size_and_trips,
    "recurrences.secant_numbers": _size_and_trips,
    "recurrences.atkinson_tangent_secant": _size_and_trips,
    "fastfixed.fast_tangent_numbers": _size,
    "fastfixed.fast_secant_numbers": _size,
    "intops.round_nearest_div": _numerator_bits,
}

# packed engine -> in-place engine; compared when one request runs both at one n
ENGINE_PAIRS = {
    "fastfixed.fast_tangent_numbers": "recurrences.tangent_numbers",
    "fastfixed.fast_secant_numbers": "recurrences.secant_numbers",
}
COUNTED = ("recurrences.tangent_numbers", "recurrences.secant_numbers", "recurrences.atkinson_tangent_secant")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.pass_starts: list[int] = []  # index of each traced pass's first span
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, probe = self.spans, self._stack, time.perf_counter, PROBES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._set(module, name, wrapper)

    def _wrap_methods(self, prefix, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(f"{prefix}.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", member))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)


def summarize(spans: list[Span], first: int, last: int, requests: list[list[str]]) -> dict:
    """Per-layer figures for the spans of one pass, spans[first:last].

    Self time is a span's duration minus that of its direct children.
    """
    own = spans[first:last]
    child = defaultdict(float)
    for span in own:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    self_s = defaultdict(float)
    calls = Counter()
    for index, span in enumerate(own, start=first):
        self_s[span.name] += span.end - span.start - child[index]
        calls[span.name] += 1
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds

    trips = 0
    max_bits = 0
    trip_faults = []
    trip_checks = 0
    durations = defaultdict(list)  # (request, name, n) -> inclusive seconds
    for span in own:
        if span.name in COUNTED:
            n, count = span.info
            trips += count or 0
            argv = requests[span.request]
            if span.name == "recurrences.tangent_numbers" and argv[0] == "tangent" and n == int(argv[2]) and count is not None:
                trip_checks += 1
                if count != n * (n - 1) // 2:
                    trip_faults.append(f"request {span.request}: tangent_numbers({n}) made {count} trips")
        elif span.name == "intops.round_nearest_div":
            max_bits = max(max_bits, span.info)
        if span.name in ENGINE_PAIRS or span.name in ENGINE_PAIRS.values():
            n = span.info[0] if isinstance(span.info, tuple) else span.info
            durations[span.request, span.name, n].append(span.end - span.start)

    fast_s = recurrence_s = 0.0
    for (request, name, n), packed in durations.items():
        if name in ENGINE_PAIRS:
            inplace = durations.get((request, ENGINE_PAIRS[name], n), [])
            pairs = min(len(packed), len(inplace))
            fast_s += sum(packed[:pairs])
            recurrence_s += sum(inplace[:pairs])

    figures = {f"{name}.self_s": seconds for name, seconds in self_s.items()}
    figures.update({f"{name}.calls": count for name, count in calls.items()})
    figures.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    figures.update(
        {
            "recurrences.loop_trips": trips,
            "intops.round_nearest_div.max_num_bits": max_bits,
            "fastfixed.fast_over_recurrence": fast_s / recurrence_s if recurrence_s else 0.0,
            "fastfixed.fast_over_recurrence.fast_s": fast_s,
            "fastfixed.fast_over_recurrence.recurrence_s": recurrence_s,
            "trace.spans": len(own),
        }
    )
    return {"figures": figures, "trip_checks": trip_checks, "trip_faults": trip_faults}


def median_figures(per_pass: list[dict]) -> dict:
    """Median of each figure over the traced passes (absent counts as 0)."""
    names = set().union(*per_pass)
    return {name: statistics.median(p.get(name, 0) for p in per_pass) for name in names}
