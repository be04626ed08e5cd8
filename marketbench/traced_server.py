"""Launch the shipped HTTP gateway with span recorders around each layer.

Usage: ``python traced_server.py --spans OUT.json -- <gateway flags>``

The gateway process keeps its deployed shape: this launcher wraps the
*public* entry points of every layer (gateway, service, façade, metadata,
profiler, store, discovery, planner, engines, arbiter) with span recorders
and then calls ``repro.platform.http.main`` with the remaining flags.  No
tracing code lives in the program itself.  Spans are aggregated in memory
and written to ``--spans`` when the server exits (SIGINT).

A span's *self time* is its duration minus the durations of its children,
so the self times of one request's span tree sum exactly to the duration of
its root (``MarketGateway.handle``).  Writes run on the service's writer
thread: ``MarketService.submit`` opens a detached ``service.ticket`` span
that the handler thread closes when ``WriteTicket.result`` returns, and the
writer thread's spans become its children, so a write's tree also sums to
its root.  ``service.ticket`` self time is then the queue wait plus the
hand-back to the handler thread.

A ``GET /healthz?phase=<name>`` request switches the phase that later root
spans are recorded under, so the benchmark separates preload, warm-up and
the timed phase.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

#: (method, first path segment) -> op type
_OPS = {
    ("POST", "datasets"): "register",
    ("PUT", "datasets"): "update",
    ("POST", "search"): "search",
    ("POST", "plan"): "plan",
    ("POST", "wtp"): "wtp",
    ("POST", "rounds"): "round",
    ("POST", "participants"): "participant",
    ("GET", "healthz"): "healthz",
}

_now = time.perf_counter_ns


class Span:
    __slots__ = ("name", "parent", "phase", "op", "start", "children_ns")

    def __init__(self, name, parent, phase, op):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.op = op
        self.start = _now()
        self.children_ns = 0


class Tracer:
    """Per-thread span stacks feeding per-(phase, op, span) aggregates."""

    def __init__(self):
        self.phase = "boot"
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (phase, op, span name) -> [calls, total ns, self ns]
        self.spans: dict[tuple, list[int]] = {}
        #: (phase, name) -> list of values (durations in ns, or counts)
        self.samples: dict[tuple, list] = {}
        #: phase -> plan-cache counters when the phase began
        self.cache_marks: dict[str, dict] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None, op=None) -> Span:
        parent = parent if parent is not None else self.current()
        if parent is None:
            return Span(name, None, self.phase, op or "other")
        return Span(name, parent, parent.phase, parent.op)

    def close(self, span: Span) -> int:
        duration = _now() - span.start
        with self._lock:
            agg = self.spans.setdefault((span.phase, span.op, span.name), [0, 0, 0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - span.children_ns
            if span.parent is not None:
                span.parent.children_ns += duration
        return duration

    def sample(self, phase, name, value) -> None:
        with self._lock:
            self.samples.setdefault((phase, name), []).append(value)

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            stack = tracer._stack()
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                duration = tracer.close(span)
            if on_return is not None:
                on_return(span, duration, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # -- dump ----------------------------------------------------------------
    def dump(self, path: Path) -> None:
        with self._lock:
            out = {
                "spans": [
                    {"phase": p, "op": o, "name": n,
                     "calls": c, "total_ns": t, "self_ns": s}
                    for (p, o, n), (c, t, s) in sorted(self.spans.items())
                ],
                "samples": [
                    {"phase": p, "name": n, "values": v}
                    for (p, n), v in sorted(self.samples.items())
                ],
                "cache_marks": self.cache_marks,
            }
        path.write_text(json.dumps(out))


def _cache_stats(market) -> dict:
    stats = market.plan_cache_stats
    return {
        "hits": stats.hits, "misses": stats.misses,
        "invalidations": stats.invalidations,
        "lru_evictions": stats.lru_evictions,
    }


def install(tracer: Tracer) -> None:
    from repro.discovery import metadata as metadata_module
    from repro.discovery.metadata import MetadataEngine
    from repro.discovery.search import DiscoveryEngine
    from repro.integration.dod import DoDEngine
    from repro.market.arbiter import Arbiter
    from repro.market.revenue import RevenueAllocationEngine
    from repro.platform import market as market_module
    from repro.platform.http import MarketGateway
    from repro.platform.results import PlanResult
    from repro.platform.service import MarketService, WriteTicket
    from repro.platform.store import MarketStore
    from repro.relation.engines import ColumnarEngine
    from repro.wtp import WTPFunction

    DataMarket = market_module.DataMarket

    # -- gateway: the root span of every request, labelled with its op ------
    original_handle = MarketGateway.handle

    @functools.wraps(original_handle)
    def handle(self, method, target, headers, body, client):
        parts = urlsplit(target)
        segments = parts.path.strip("/").split("/")
        op = _OPS.get((method, segments[0]), "other")
        if op == "healthz" and parts.query:
            phase = parse_qs(parts.query).get("phase")
            if phase:
                tracer.cache_marks[phase[-1]] = _cache_stats(self.service.market)
                tracer.phase = phase[-1]
        span = tracer.open("http.handle", op=op)
        stack = tracer._stack()
        stack.append(span)
        try:
            return original_handle(self, method, target, headers, body, client)
        finally:
            stack.pop()
            tracer.close(span)

    MarketGateway.handle = handle

    # -- service: detached ticket span around each queued write --------------
    original_submit = MarketService.submit

    @functools.wraps(original_submit)
    def submit(self, op, label="op"):
        ticket_span = tracer.open("service.ticket")
        submitted = ticket_span.start

        def traced_op():
            started = _now()
            tracer.sample(
                ticket_span.phase, f"service.queue_wait_ns.{ticket_span.op}",
                started - submitted,
            )
            span = tracer.open("service.write", parent=ticket_span)
            stack = tracer._stack()
            stack.append(span)
            try:
                return op()
            finally:
                stack.pop()
                tracer.close(span)

        ticket = original_submit(self, traced_op, label)
        ticket._bench_span = ticket_span
        return ticket

    MarketService.submit = submit

    original_result = WriteTicket.result

    @functools.wraps(original_result)
    def result(self, timeout=None):
        try:
            return original_result(self, timeout)
        finally:
            span = self.__dict__.pop("_bench_span", None)
            if span is not None:
                tracer.close(span)

    WriteTicket.result = result

    def read_wait(span, duration, args, kwargs, result):
        tracer.sample(span.phase, f"service.read_wait_ns.{span.op}",
                      duration - span.children_ns)

    tracer.wrap(MarketService, "search", "service.read", read_wait)
    tracer.wrap(MarketService, "plan", "service.read", read_wait)

    # -- façade --------------------------------------------------------------
    def write_hold(span, duration, args, kwargs, result):
        tracer.sample(span.phase, "service.write_hold_ns", duration)
        tracer.sample(span.phase, "index.candidates",
                      len(args[0].index.dataset_candidates(result.dataset)))

    for attr in ("register_dataset", "update_dataset"):
        tracer.wrap(DataMarket, attr, "market.write", write_hold)

    def plan_stats(span, duration, args, kwargs, result):
        stats = args[0].planner_stats
        tracer.sample(span.phase, "plan.states_expanded", stats.states_expanded)
        tracer.sample(span.phase, "plan.plans_built", stats.plans_built)
        for estimate, actual in stats.cardinality_estimates:
            high, low = max(estimate, 1.0), max(float(actual), 1.0)
            tracer.sample(span.phase, "plan.q_error",
                          max(high, low) / min(high, low))

    tracer.wrap(DataMarket, "search", "market.read")
    tracer.wrap(DataMarket, "plan", "market.read", plan_stats)
    for attr in ("submit_wtp", "run_round", "register_participant"):
        tracer.wrap(DataMarket, attr, "market.trade")

    # -- ingest: metadata/index, profiler, store -----------------------------
    tracer.wrap(MetadataEngine, "register", "index.patch")

    def profiled(span, duration, args, kwargs, result):
        tracer.sample(span.phase, "profile.rows", len(args[0]))

    tracer.wrap(metadata_module, "profile_table", "profile", profiled)
    tracer.wrap(MarketStore, "persist_dataset", "store.persist")

    # -- reads: discovery, planner, engines ----------------------------------
    tracer.wrap(DiscoveryEngine, "search_schema", "search")
    tracer.wrap(DoDEngine, "build_mashups", "plan.build")

    def rows_out(span, duration, args, kwargs, result):
        tracer.sample(span.phase, "engine.rows_out",
                      sum(len(r) for r in result))

    tracer.wrap(PlanResult, "collect", "engine.collect", rows_out)
    tracer.wrap(ColumnarEngine, "execute", "engine.execute")

    # -- market round --------------------------------------------------------
    def deliveries(span, duration, args, kwargs, result):
        tracer.sample(span.phase, "round.deliveries", len(result.deliveries))

    tracer.wrap(Arbiter, "run_round", "round.arbiter", deliveries)
    tracer.wrap(WTPFunction, "evaluate_batch", "round.wtp_eval")
    tracer.wrap(RevenueAllocationEngine, "split_batch", "round.split")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("gateway_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    gateway_args = args.gateway_args
    if gateway_args[:1] == ["--"]:
        gateway_args = gateway_args[1:]

    from repro.platform import http

    tracer = Tracer()
    install(tracer)
    try:
        return http.main(gateway_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
