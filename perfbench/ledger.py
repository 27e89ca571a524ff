"""The traced run's span recorder, layer wrappers and per-layer ledger.

Spans are recorded only from this file: :class:`Instrumentation` wraps
the program's public entry points into each layer (class methods and
module functions) for the duration of one traced op and restores the
originals afterwards.  Nothing in ``src/`` changes.

A span is ``(name, start, end, parent, op)`` on ``time.perf_counter``;
spans live in flat arrays in memory and are written out once, when the
run ends.  A layer's self time is its spans' time minus the time
covered by their child spans, so within one op the self times of all
layers plus the benchmark's own share add up to the op's time exactly.

High-frequency inner calls get counters only, never spans: network
relationship classification (about 140k per ``fig4-hs1`` op) and
render-cache lookups (counted and timed, but charged to the frontend's
span).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .catalogue import LAYERS

_now = time.perf_counter

#: Name of the root span that wraps one whole op.
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = []
        self.current_op = -1
        #: per-op counters, reset by :meth:`begin_op`.
        self.counts: Dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    def begin_op(self, op_index: int) -> int:
        self.current_op = op_index
        self.counts = defaultdict(float)
        return self.open(OP_SPAN)

    def end_op(self, span: int) -> Dict[str, float]:
        self.close(span)
        self.current_op = -1
        return dict(self.counts)

    def durations(self, name: str, ops: Iterable[int]) -> List[float]:
        """Seconds of every span called ``name`` in the given ops."""
        wanted = self._name_ids.get(name)
        ops = set(ops)
        return [
            end - start
            for name_id, start, end, op in zip(self.name_id, self.start, self.end, self.op)
            if name_id == wanted and op in ops
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end, parent, op]``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            out.writelines(
                f"[{n}, {s!r}, {e!r}, {p}, {o}]\n"
                for n, s, e, p, o in zip(
                    self.name_id, self.start, self.end, self.parent, self.op
                )
            )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _spanned(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    on_result: Optional[Callable[[Any], None]] = None,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs and removes the benchmark's layer wrappers.

    Wrappers replace attributes on the program's classes and modules
    (so objects an op creates, such as a fresh ``CrawlClient``, are
    covered too) and :meth:`uninstall` puts the originals back, so
    untraced ops run the unmodified program.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        self._patch(owner, attr, _spanned(self.tracer, name, getattr(owner, attr), **kw))

    def _count(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, _counted(self.tracer, name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from repro.colgen.serve import ColumnarNetwork
        from repro.core import profiler
        from repro.core.profiler import HighSchoolProfiler
        from repro.crawler import client as client_module
        from repro.crawler import engine as engine_module
        from repro.crawler.client import CrawlClient
        from repro.crawler.engine import CrawlScheduler, TurnDispatcher
        from repro.osn import pages
        from repro.osn.errors import RateLimitedError
        from repro.osn.frontend import HtmlFrontend
        from repro.osn.network import SocialNetwork
        from repro.osn.ratelimit import RateLimiter
        from repro.osn.rendercache import RenderCache
        from repro.telemetry.runtime import Telemetry

        tracer = self.tracer
        # osn.frontend: one span per GET and per POST.
        self._span(HtmlFrontend, "get", "osn.frontend.get")
        self._span(HtmlFrontend, "post", "osn.frontend.post")

        # osn.network and its columnar twin colgen.serve: read verbs get
        # spans and call counts, relationship classification a counter,
        # writes a count.
        for cls, layer in ((SocialNetwork, "osn.network"), (ColumnarNetwork, "colgen.serve")):
            for verb in ("view_profile", "friend_page", "school_search", "graph_search"):
                counted = _counted(tracer, f"{layer}.{verb}_calls", getattr(cls, verb))
                self._patch(cls, verb, _spanned(tracer, layer, counted))
            self._count(cls, "relationship", f"{layer}.relationship_calls")
            for verb in ("send_message", "send_friend_request", "respond_to_friend_request"):
                if verb in cls.__dict__:
                    self._count(cls, verb, f"{layer}.write_calls")

        # osn.pages: every template render and every parse.
        def rendered(page: str) -> None:
            tracer.counts["osn.pages.render_bytes"] += len(page)

        for name in dir(pages):
            if name.startswith("render_"):
                self._span(pages, name, "osn.pages.render", on_result=rendered)
        # Action confirmations (POST replies) are parsed too, but are not
        # pages the crawl fetched, so they stay out of ``parse_calls``.
        for module in (client_module, engine_module):
            for name in list(vars(module)):
                if name == "parse_action_page":
                    self._span(module, name, "osn.pages.parse_action")
                elif name.startswith("parse_"):
                    self._span(module, name, "osn.pages.parse")

        # osn.rendercache: lookups are counted and timed, not spanned.
        lookup = RenderCache.get

        def timed_lookup(cache: Any, key: Any) -> Any:
            start = _now()
            page = lookup(cache, key)
            tracer.counts["osn.rendercache.lookup_s"] += _now() - start
            return page

        self._patch(RenderCache, "get", timed_lookup)

        # osn.ratelimit: every admission check, and the ones refused.
        check = RateLimiter.check

        def counted_check(limiter: Any, account_id: int) -> None:
            tracer.counts["osn.ratelimit.checks"] += 1
            try:
                check(limiter, account_id)
            except Exception as exc:
                tracer.counts["osn.ratelimit.rejections"] += 1
                if isinstance(exc, RateLimitedError):
                    tracer.counts["crawler.client.throttle_retries"] += 1
                raise

        self._patch(RateLimiter, "check", counted_check)

        # crawler.client: one span per logical fetch, by kind.
        for method, kind in (
            ("collect_seeds", "seeds"),
            ("fetch_profile", "profile"),
            ("fetch_friend_list", "friend_list"),
            ("fetch_school", "school"),
            ("send_message", "message"),
            ("send_friend_request", "friend_request"),
        ):
            self._span(CrawlClient, method, f"crawler.client.{kind}")

        # crawler.engine: the scheduler run, and each dispatcher sleep.
        self._span(CrawlScheduler, "run", "crawler.engine")
        self._count(TurnDispatcher, "sleep", "crawler.engine.turns")

        # core: the profiler run and its scoring and filtering calls.
        def scored(table: Any) -> None:
            tracer.counts["core.scoring.candidates"] += len(table)

        def filtered(dropped: Dict[int, str]) -> None:
            tracer.counts["core.filtering.dropped"] += len(dropped)

        self._span(HighSchoolProfiler, "run", "core.profiler")
        self._span(profiler, "score_candidates", "core.scoring", on_result=scored)
        self._span(profiler, "apply_filters", "core.filtering", on_result=filtered)

        # telemetry: every published event.
        self._span(Telemetry, "emit", "telemetry.emit")


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
_LAYER_NAMES = sorted((layer for layer, _, _ in LAYERS), key=len, reverse=True)


def layer_of(span_name: str) -> str:
    """The catalogue layer a span name belongs to (longest prefix)."""
    for layer in _LAYER_NAMES:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no catalogue layer")


def op_span_times(tracer: Tracer) -> Dict[int, Dict[str, Tuple[float, float, int]]]:
    """Per traced op: span name -> (inclusive s, self s, count).

    Self time is each span's duration minus its direct children's; the
    root op span's self time is the benchmark's own share.
    """
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = list(durations)
    for index, parent in enumerate(tracer.parent):
        if parent >= 0:
            own[parent] -= durations[index]
    table: Dict[int, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0.0, 0])
    )
    names = tracer.names
    for index, op in enumerate(tracer.op):
        if op < 0:
            continue
        row = table[op][names[tracer.name_id[index]]]
        row[0] += durations[index]
        row[1] += own[index]
        row[2] += 1
    return {
        op: {name: (row[0], row[1], int(row[2])) for name, row in spans.items()}
        for op, spans in table.items()
    }


def layer_self_times(spans: Dict[str, Tuple[float, float, int]]) -> Dict[str, float]:
    """One op's self seconds per catalogue layer (``bench`` = the root)."""
    layers: Dict[str, float] = defaultdict(float)
    for name, (_, own, _) in spans.items():
        layers[layer_of(name)] += own
    return dict(layers)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(
    tracer: Tracer,
    traced_ops: Dict[int, Dict[str, float]],
    setups: List[Dict[str, float]],
    overhead: float,
) -> Dict[str, float]:
    """Every catalogue per-layer metric from one traced run.

    ``traced_ops`` maps op index -> that op's counters (the wrappers'
    plus the workload's own program-state counters); ``setups`` are the
    per-set-up phase timings.
    """
    spans = op_span_times(tracer)
    ops = sorted(traced_ops)
    values: Dict[str, float] = {}

    def per_op(fn: Callable[[int], float]) -> float:
        return _mean(fn(op) for op in ops)

    def span_field(name: str, field: int) -> float:
        return per_op(lambda op: spans.get(op, {}).get(name, (0.0, 0.0, 0))[field])

    def total_count(name: str) -> float:
        return sum(traced_ops[op].get(name, 0.0) for op in ops)

    for name in ("worldgen.build_world_s", "colgen.generate_s", "colgen.frontend_s"):
        found = [setup[name] for setup in setups if name in setup]
        values[name] = statistics.median(found) if found else 0.0

    for layer in ("colgen.serve", "osn.network"):
        values[f"{layer}.self_s"] = span_field(layer, 1)
    values["osn.pages.render_calls"] = span_field("osn.pages.render", 2)
    values["osn.pages.render_s"] = span_field("osn.pages.render", 0)
    values["osn.pages.parse_calls"] = span_field("osn.pages.parse", 2)
    values["osn.pages.parse_s"] = span_field("osn.pages.parse", 0)
    values["osn.frontend.get_calls"] = span_field("osn.frontend.get", 2)
    values["osn.frontend.post_calls"] = span_field("osn.frontend.post", 2)
    values["osn.frontend.self_s"] = span_field("osn.frontend.get", 1) + span_field(
        "osn.frontend.post", 1
    )
    gets_us = [1e6 * seconds for seconds in tracer.durations("osn.frontend.get", ops)]
    values["osn.frontend.get_us_p50"] = statistics.median(gets_us) if gets_us else 0.0
    values["osn.frontend.get_us_p99"] = (
        statistics.quantiles(gets_us, n=100)[98] if len(gets_us) > 1 else 0.0
    )
    client_self = 0.0
    for kind in ("seeds", "profile", "friend_list", "school", "message", "friend_request"):
        name = f"crawler.client.{kind}"
        values[f"{name}_calls"] = span_field(name, 2)
        values[f"{name}_s"] = span_field(name, 0)
        client_self += span_field(name, 1)
    values["crawler.client.self_s"] = client_self
    get_attempts = sum(spans.get(op, {}).get("osn.frontend.get", (0, 0, 0))[2] for op in ops)
    parsed = sum(spans.get(op, {}).get("osn.pages.parse", (0, 0, 0))[2] for op in ops)
    values["crawler.client.useful_ratio"] = parsed / get_attempts if get_attempts else 0.0
    values["crawler.engine.self_s"] = span_field("crawler.engine", 1)
    values["core.profiler.run_s"] = span_field("core.profiler", 0)
    values["core.profiler.self_s"] = span_field("core.profiler", 1)
    values["core.scoring.score_candidates_calls"] = span_field("core.scoring", 2)
    values["core.scoring.score_candidates_s"] = span_field("core.scoring", 0)
    values["core.filtering.apply_filters_s"] = span_field("core.filtering", 0)
    values["telemetry.emit_s"] = span_field("telemetry.emit", 0)
    values["bench.self_s"] = span_field(OP_SPAN, 1)
    values["bench.tracing_overhead"] = overhead

    relationships = total_count("osn.network.relationship_calls")
    values["osn.network.relationships_per_get"] = (
        relationships / get_attempts if get_attempts else 0.0
    )
    hits = total_count("osn.rendercache.hits")
    lookups = hits + total_count("osn.rendercache.misses")
    values["osn.rendercache.hit_ratio"] = hits / lookups if lookups else 0.0

    for layer, metrics, _ in LAYERS:
        for name, _, _ in metrics:
            if name not in values:
                values[name] = per_op(lambda op: traced_ops[op].get(name, 0.0))
    return values


def exercised_layers(values: Dict[str, float]) -> List[str]:
    """Layers with any non-zero metric in this run."""
    return [
        layer
        for layer, metrics, _ in LAYERS
        if any(values.get(name) for name, _, _ in metrics if name != "bench.tracing_overhead")
    ]


def ledger_lines(
    workload: str,
    tracer: Tracer,
    values: Dict[str, float],
    op_seconds: Dict[int, float],
    untraced_pps: float,
    traced_pps: float,
) -> List[str]:
    """The per-layer table for one workload, self times included."""
    spans = op_span_times(tracer)
    ops = sorted(spans)
    mean_op = _mean(op_seconds[op] for op in ops)
    self_by_layer: Dict[str, float] = defaultdict(float)
    for op in ops:
        for layer, own in layer_self_times(spans[op]).items():
            self_by_layer[layer] += own / len(ops)
    lines = [
        f"per-layer ledger: {workload}, {len(ops)} traced ops, "
        f"mean traced op {mean_op * 1e3:.1f} ms",
        f"{'layer':<20} {'self ms/op':>11} {'share':>7}  metrics (per op unless a ratio)",
    ]
    for layer in exercised_layers(values):
        metrics = next(m for name, m, _ in LAYERS if name == layer)
        shown = ", ".join(
            f"{name[len(layer) + 1:]}={_fmt(values[name])}"
            for name, _, _ in metrics
            if values.get(name)
        )
        if layer in self_by_layer:
            own = self_by_layer[layer]
            timing = f"{own * 1e3:>11.2f} {(own / mean_op if mean_op else 0.0):>6.1%}"
        else:  # counted only, or set-up time: its time is in another row
            timing = f"{'-':>11} {'-':>6}"
        lines.append(f"{layer:<20} {timing}  {shown}")
    total = sum(self_by_layer.values())
    lines.append(
        f"{'sum of self times':<20} {total * 1e3:>11.2f} "
        f"{(total / mean_op if mean_op else 0.0):>6.1%}  (adds up to the op time)"
    )
    lines.append(
        f"tracing overhead: pages_per_s untraced {untraced_pps:.1f}, traced "
        f"{traced_pps:.1f} ({values['bench.tracing_overhead']:+.1%})"
    )
    return lines


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"
