"""Per-layer tracing by rebinding the program's public functions.

The layers are the modules of the ``mccwe`` package.  `Tracer.install`
wraps every public function a layer module defines and rebinds the wrapper
in every ``mccwe.*`` namespace that holds the original, so calls between
modules go through it; `Tracer.uninstall` puts the originals back.  Nothing
in the program's source changes.  Each call records one span (layer,
function, start, end, parent span, market id, note) in memory.  A few
functions also leave a note taken from their arguments or result: the LP
shape, enumeration states charged to the oracle budget, mechanism moves,
verifier violations, bytes parsed.  The per-layer metrics are derived from
the spans afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "mccwe"

# Helper modules, not layers: their time stays with the layer that called them.
UNTRACED_MODULES = frozenset({"bits", "errors"})

# Called once per number while parsing or writing; their time stays in the
# parse or write entry point that called them.
PER_VALUE_HELPERS = frozenset({"parse_rational", "format_rational"})

PARSERS = frozenset({"parse_instance", "parse_outcome", "parse_allocation"})
DEMAND_QUERIES = frozenset({"demand_query", "relative_demand_query"})

# Span fields, in order.
LAYER, NAME, START, END, PARENT, MARKET, NOTE = range(7)


def _argument(params, args, kwargs, name):
    if name in kwargs:
        return kwargs[name]
    index = params.index(name)
    return args[index] if index < len(args) else None


class Tracer:
    """Spans of every traced call, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.market = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if module.__name__ == PACKAGE or layer in UNTRACED_MODULES:
                continue
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in PER_VALUE_HELPERS
                    and not inspect.isgeneratorfunction(value)
                ):
                    wrappers[value] = self._wrap(layer, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fn):
        name = fn.__name__
        params = list(inspect.signature(fn).parameters)
        note = _note_taker(name, params, fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, name, 0, 0, stack[-1] if stack else -1, self.market, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                if note is None:
                    return fn(*args, **kwargs)
                result, span[NOTE] = note(args, kwargs)
                return result
            finally:
                span[END] = perf_counter_ns()
                stack.pop()

        return traced


def write_spans(path: str, passes) -> None:
    """Write the spans of each traced pass as JSON lines."""
    keys = ("layer", "name", "start_ns", "end_ns", "parent", "market", "note")
    with open(path, "w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for index, span in enumerate(spans):
                record = dict(zip(keys, span), id=index, traced_pass=number)
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _note_taker(name, params, fn):
    """A call that also returns the note this function's span keeps, or None."""
    if name == "solve_lp":
        def call(args, kwargs):
            lp = _argument(params, args, kwargs, "lp")
            return fn(*args, **kwargs), (len(lp.objective), len(lp.constraints))
    elif "budget" in params and "OracleBudget" in fn.__globals__:
        budget_type = fn.__globals__["OracleBudget"]

        def call(args, kwargs):
            budget = _argument(params, args, kwargs, "budget")
            if budget is None:
                budget = kwargs["budget"] = budget_type()
            before = budget.used
            return fn(*args, **kwargs), budget.used - before
    elif "trace" in params:
        def call(args, kwargs):
            trace = _argument(params, args, kwargs, "trace")
            before = len(trace.steps) if trace is not None else 0
            result = fn(*args, **kwargs)
            return result, (len(trace.steps) - before if trace is not None else 0)
    elif name in PARSERS:
        def call(args, kwargs):
            text = args[0] if args else next(iter(kwargs.values()))
            size = len(text.encode("utf-8")) if isinstance(text, str) else 0
            return fn(*args, **kwargs), size
    elif name == "verify":
        def call(args, kwargs):
            report = fn(*args, **kwargs)
            return report, len(report.violations)
    elif name == "is_mccwe_allocation":
        def call(args, kwargs):
            result = fn(*args, **kwargs)
            return result, bool(result)
    else:
        return None
    return call


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            covered = min(span[END], outer[END]) - max(span[START], outer[START])
            own[parent] -= max(covered, 0)
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self time (seconds) and work counts over the given spans."""
    own = self_times(spans)
    self_ns = defaultdict(int)
    count = defaultdict(int)
    total = defaultdict(int)
    for span, ns in zip(spans, own):
        layer, name, note = span[LAYER], span[NAME], span[NOTE]
        parent = span[PARENT]
        parent_layer = spans[parent][LAYER] if parent >= 0 else None
        self_ns[layer] += ns
        count[name] += 1
        if parent_layer != layer:  # an entry into the layer from outside it
            count[layer + ".entries"] += 1
            if isinstance(note, int) and not isinstance(note, bool):
                total[layer + ".entry_notes"] += note
        if note is None:  # the call raised before its note was taken
            continue
        if name == "solve_lp":
            total["lp.columns"] += note[0]
            total["lp.rows"] += note[1]
        elif name == "is_mccwe_allocation" and parent_layer == "oracle":
            count["oracle.probes"] += 1
            total["oracle.probe_hits"] += note
        elif name == "verify":
            total["equilibria.violations"] += note
    probes = count["oracle.probes"]
    metrics = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    metrics.update({
        "oracle.states": total["oracle.entry_notes"],
        "oracle.lp_probes": probes,
        "oracle.probe_hit_ratio": total["oracle.probe_hits"] / probes if probes else 0.0,
        "lp.calls": count["solve_lp"],
        "lp.columns": total["lp.columns"],
        "lp.rows": total["lp.rows"],
        "configlp.calls": count["configlp.entries"],
        "valuations.tables": count["value_table"],
        "valuations.demand_queries": sum(count[name] for name in DEMAND_QUERIES),
        "market.reduced_tables": count["reduced_value_table"],
        "instances.bytes_parsed": total["instances.entry_notes"],
        "mechanisms.calls": count["mechanisms.entries"],
        "mechanisms.moves": total["mechanisms.entry_notes"],
        "equilibria.calls": count["equilibria.entries"],
        "equilibria.violations": total["equilibria.violations"],
    })
    return metrics
