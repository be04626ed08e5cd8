"""Market benchmark: seller -> buyer -> round over the shipped HTTP gateway.

Run from the repository root::

    python3 marketbench/run.py --workload shop --seed 1 --seconds 10 --trace 0

Each run starts the shipped server (``python -m repro.platform.http``) as a
subprocess over a fresh store, drives it from this process through
``repro.platform.MarketClient`` in a closed loop (one request at a time),
checks every answer against an in-process ``DataMarket`` fed the same
ops, and prints a report followed by one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced trials with trials
against the span-recording launcher (``traced_server.py``) and reports the
per-layer metrics plus the tracing overhead.  The exit status is 1 when any
op failed or any answer differed from the reference.

Workloads (see ``workload.py`` for the generators):

* ``onboard`` - an empty market; one seller registers a corpus of tall and
  wide datasets and then updates half of it, with four buyer steps and a
  round in between.  The ingest path works (gateway decode, profiler, index
  patch, store commit); planner, engines and arbiter do a little.
* ``shop`` - a preloaded corpus of independent domains; buyers search and
  plan (collect) Zipf-drawn attribute sets from a pool larger than the plan
  cache, book WTPs and settle rounds, and every 16 buyer steps the seller
  registers or updates a dataset.  The read path works; ingest and store do
  a little.

Each layer the per-layer metrics cover does some work on both workloads, so
no per-layer figure is zero by construction.

Everything a run sends is generated from ``--seed`` before the first server
starts.  This process and every server it starts share one fixed
``PYTHONHASHSEED`` (this process re-executes itself to get it; see
``HASH_SEED``).  Each trial pins its client and servers to one CPU; an
untraced run runs two trials at once, one per CPU, in forked workers (see
``CPUS``).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("onboard", "shop")
#: the PYTHONHASHSEED of this process and of every server it starts.  Hash
#: randomisation moves timings by up to 30% between processes, and it also
#: breaks ties between equal-cost plans: under different hash seeds the
#: planner can pick a different one of two datasets that yield the same
#: rows, so the in-process reference must share the servers' hash seed
HASH_SEED = "1"
#: trials per run.  Each trial sets up its own server and runs the whole op
#: sequence, so op i does the same work in every trial, and the op timings
#: come from each op's best latency over the trials.  On a shared 2-vCPU VM
#: each vCPU flips between a fast and a ~60% slower mode every second or so,
#: and the share of time spent fast drifts over minutes, at times to none
#: for a whole run.  Over 8 seeds in such a drift, the spread of shop's
#: ops_per_s was 13% with the best of twelve trials against 20% with their
#: median (onboard in a steady phase, over 6 seeds with ten trials: 6%
#: against 4%).  Twelve fit the time limit of the runs.
TRIALS = 12
#: kill -> replay -> /healthz restarts per trial (restart_s is the median
#: over the run); a traced run restarts its first untraced trial
#: TRACE_RESTARTS times instead
RESTARTS_PER_TRIAL = 1
TRACE_RESTARTS = 5
#: untraced/traced trial pairs of a traced run; the tracing overhead is the
#: median over the pairs, since one pair mostly measures the host's phase
TRACE_PAIRS = 3
#: the CPUs trials run on.  Within a trial the client and the servers it
#: starts share one CPU: left free to migrate, whole runs came out up to 40%
#: slower at random.  On a shared 2-vCPU VM each vCPU flips between a fast
#: and a ~60% slower mode every second or so, largely on its own, and a busy
#: vCPU does not slow the other.  So an untraced run keeps one closed loop
#: busy on each of two CPUs at once, which gives each op twice the samples
#: in the same time, from both vCPUs; a traced run takes the CPUs in turn
CPUS = sorted(os.sched_getaffinity(0))[:2]
SERVER_START_TIMEOUT = 120.0
CURVE = ((0.2, 10.0), (0.6, 30.0))

#: ops generated per CPU-second of timed phase.  A trial gets
#: --seconds * len(CPUS) / TRIALS of them, so the timed phases of a run take
#: about --seconds of wall time on a 2-vCPU host; the op count, not the
#: clock, ends a run
ONBOARD_DOMAINS_PER_S = 2.4
SHOP_STEPS_PER_S = 21


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def tail_supported(n: int, q: float) -> bool:
    """A tail percentile is reported only with >= 10 samples beyond it."""
    return n * (1.0 - q) >= 10


def calibrate_ms() -> float:
    """A fixed pure-Python loop that allocates as it goes, as the market
    does: a host-phase diagnostic, never a divisor."""
    start = time.perf_counter()
    table = {}
    for i in range(50_000):
        table[str(i)] = (i, i * i % 7)
    sorted(table.items(), key=lambda item: item[1])
    return (time.perf_counter() - start) * 1e3


def loadavg() -> str:
    try:
        return "/".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "n/a"


def rows_digest(relation) -> int:
    return hash(relation.rows)


# ---------------------------------------------------------------------------
# the server subprocess
# ---------------------------------------------------------------------------

class Server:
    """The shipped gateway (or the traced launcher) over one store."""

    def __init__(self, workdir: Path, store: Path, tokens: dict[str, str],
                 spans: Path | None = None):
        cmd = [sys.executable, "-u"]
        if spans is None:
            cmd += ["-m", "repro.platform.http"]
        else:
            cmd += [str(BENCH / "traced_server.py"), "--spans", str(spans), "--"]
        cmd += ["--store", str(store), "--port", "0"]
        for token, principal in tokens.items():
            cmd += ["--token", f"{token}={principal}"]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
        self.store = store
        self._stderr = open(workdir / "server.err", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.url = self._read_url()
        except BaseException:
            self.kill()
            raise

    def _read_url(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0, left))
            if not ready:
                raise RuntimeError("server did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening"
                )
            line += chunk
        prefix = b"market gateway listening on "
        if not line.startswith(prefix):
            raise RuntimeError(f"unexpected server banner {line!r}")
        return line[len(prefix):].strip().decode()

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS for the server process")

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def stop(self) -> None:
        """Graceful stop (SIGINT): the server drains and closes its store."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def kill(self) -> None:
        """Hard kill (SIGKILL): no flush courtesy, the store must cope."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()


def store_bytes(store: Path) -> int:
    return sum(
        p.stat().st_size
        for p in (store, Path(f"{store}-wal"))
        if p.exists()
    )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class Inputs:
    """Every op of one run, generated from the seed before any server."""

    def __init__(self, workload: str, seed: int, seconds: int):
        from repro.relation import Column, Relation, Schema

        start = time.perf_counter()
        if workload == "onboard":
            # at least 8 domains (109 ops a trial), so a trial's op p90 has
            # 10 samples beyond it
            n_domains = max(8, round(
                seconds * len(CPUS) * ONBOARD_DOMAINS_PER_S / TRIALS))
            self.corpus = W.make_corpus(seed, n_domains)
            self.preload: list = []
            self.timed = W.onboard_ops(seed, self.corpus)
        else:
            self.corpus = W.make_corpus(seed, W.N_DOMAINS)
            held = W.shop_held_back(self.corpus)
            self.preload = [("register", ds) for ds in self.corpus.datasets
                            if ds not in held]
            # at least 32 steps (>100 ops a trial) for a trial's op p90
            steps = max(32, round(
                seconds * len(CPUS) * SHOP_STEPS_PER_S / TRIALS))
            self.timed = W.shop_ops(seed, self.corpus, steps)
        self.participants = [
            ("participant", b, W.BUYER_FUNDING) for b in W.BUYERS
        ]
        self.warmup = W.warmup_ops(seed)
        #: corpus generation, the part of set-up shared by every trial
        self.corpus_s = time.perf_counter() - start
        # relations are built up front so client-side construction is not
        # inside any op's latency
        self._relations: dict[int, object] = {}
        for op in self.preload + self.warmup + self.timed:
            if op[0] in ("register", "update"):
                ds = op[1]
                self._relations[id(ds)] = Relation(
                    ds.name, Schema([Column(n, t) for n, t in ds.columns]),
                    list(ds.rows),
                )

    def relation(self, dataset):
        return self._relations[id(dataset)]

    def wire_bytes(self) -> int:
        """JSON bytes of every relation payload sent to one server."""
        from repro.platform.http import relation_to_payload

        return sum(
            len(json.dumps(relation_to_payload(self.relation(op[1]))).encode())
            for op in self.preload + self.warmup + self.timed
            if op[0] in ("register", "update")
        )


# ---------------------------------------------------------------------------
# executing ops: over HTTP, and in-process for the reference answers
# ---------------------------------------------------------------------------

def _wtp(op):
    from repro.wtp import PriceCurve, QueryCompletenessTask, WTPFunction

    _, buyer, attrs, key, wanted = op
    return WTPFunction(
        buyer=buyer,
        task=QueryCompletenessTask(
            wanted_keys=wanted, attributes=attrs, key=key
        ),
        curve=PriceCurve(CURVE),
        key=key,
    )


def _write_summary(r) -> tuple:
    return ("write", r.dataset, r.seller, r.version, r.rows, r.created, r.as_of)


def _search_summary(r) -> tuple:
    return ("search", r.as_of, tuple(
        (h.dataset, h.score, tuple(
            (m.requested, m.dataset, m.column, m.score) for m in h.matches))
        for h in r.hits
    ))


def _round_summary(index, deliveries, rejections, as_of) -> tuple:
    return ("round", index, tuple(deliveries), tuple(rejections), as_of)


class HttpDriver:
    """Runs ops over HTTP, one ``MarketClient`` per principal."""

    def __init__(self, url: str, principals):
        from repro.platform import MarketClient

        self.clients = {
            p: MarketClient(url, token=f"{p}-token", timeout=120.0)
            for p in principals
        }

    def run(self, inputs: Inputs, op) -> tuple:
        kind = op[0]
        seller = self.clients[W.SELLER]
        if kind == "register":
            return _write_summary(
                seller.register_dataset(inputs.relation(op[1])))
        if kind == "update":
            return _write_summary(
                seller.update_dataset(inputs.relation(op[1])))
        if kind == "search":
            return _search_summary(seller.search(op[1]))
        if kind == "plan":
            r = seller.plan(op[1], key=op[2])
            return ("plan", r.as_of, tuple(
                (m.datasets, m.matched, m.missing,
                 m.relation.schema.names, rows_digest(m.relation))
                for m in r.mashups
            ))
        if kind == "wtp":
            r = self.clients[op[1]].submit_wtp(_wtp(op))
            return ("wtp", r.buyer, r.attributes, r.queued, r.as_of)
        if kind == "round":
            r = seller.run_round()
            return _round_summary(
                r.round_index,
                [(d.transaction_id, d.buyer, d.datasets, d.satisfaction,
                  d.bid, d.price_paid, d.arbiter_fee, d.seller_shares)
                 for d in r.deliveries],
                r.rejections, r.as_of,
            )
        if kind == "participant":
            r = seller.register_participant(op[1], funding=op[2])
            return ("participant", r["participant"], r["as_of"])
        raise ValueError(f"unknown op {kind!r}")


class ReferenceDriver:
    """The same ops against an in-process ``DataMarket`` (default config).

    Reads are memoized per (graph version, request): at one graph version
    the answer is fixed, which keeps the reference pass short."""

    def __init__(self):
        from repro import DataMarket

        self.market = DataMarket()
        self._memo: dict = {}

    def run(self, inputs: Inputs, op) -> tuple:
        from repro.platform.client import relation_from_wire
        from repro.platform.http import relation_to_payload

        m = self.market
        kind = op[0]
        if kind in ("search", "plan"):
            memo_key = (m.graph_version, op)
            if memo_key in self._memo:
                return self._memo[memo_key]
        if kind == "register":
            out = _write_summary(
                m.register_dataset(inputs.relation(op[1]), W.SELLER))
        elif kind == "update":
            out = _write_summary(
                m.update_dataset(inputs.relation(op[1]), W.SELLER))
        elif kind == "search":
            out = _search_summary(m.search(op[1]))
        elif kind == "plan":
            r = m.plan(op[1], key=op[2])
            mashups = []
            for mashup, rel in zip(r.mashups, r.collect()):
                wire = relation_from_wire(json.loads(
                    json.dumps(relation_to_payload(rel), default=str)))
                mashups.append((
                    tuple(mashup.plan.sources()),
                    tuple((a, tuple(src)) for a, src in sorted(mashup.matched.items())),
                    tuple(mashup.missing), wire.schema.names, rows_digest(wire),
                ))
            out = ("plan", r.as_of, tuple(mashups))
        elif kind == "wtp":
            r = m.submit_wtp(_wtp(op))
            out = ("wtp", r.buyer, r.attributes, r.queued, r.as_of)
        elif kind == "round":
            r = m.run_round()
            out = _round_summary(
                r.round_index,
                [(d.transaction_id, d.buyer, tuple(d.mashup.plan.sources()),
                  d.satisfaction, d.bid, d.price_paid, d.split.arbiter_fee,
                  tuple(sorted(d.split.dataset_shares.items())))
                 for d in r.deliveries],
                [(x.buyer, x.reason) for x in r.rejections], r.as_of,
            )
        elif kind == "participant":
            m.register_participant(op[1], funding=op[2])
            # the gateway reads graph_version after the write, which can
            # settle a pending lazy index rebuild; read it here too
            out = ("participant", op[1], m.graph_version)
        else:
            raise ValueError(f"unknown op {kind!r}")
        if kind in ("search", "plan"):
            self._memo[memo_key] = out
        return out


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _normalize(summary):
    """A summary as the wire would carry it (tuples, JSON scalars)."""
    return _tuplify(json.loads(json.dumps(summary, default=str)))


# ---------------------------------------------------------------------------
# one measured pass
# ---------------------------------------------------------------------------

class ByteCounter:
    """Counts request and response body bytes of ``MarketClient`` traffic
    (traced runs, both trials) by substituting a counting ``HTTPConnection``."""

    def __init__(self):
        from http.client import HTTPConnection

        from repro.platform import client as client_module

        counter = self
        self.sent = self.received = 0

        class CountingConnection(HTTPConnection):
            def request(self, method, url, body=None, headers={}, **kw):
                counter.sent = len(body or b"")
                return super().request(method, url, body=body,
                                       headers=headers, **kw)

            def getresponse(self, *a, **kw):
                response = super().getresponse(*a, **kw)
                counter.received = int(response.getheader("Content-Length") or 0)
                return response

        client_module.HTTPConnection = CountingConnection

    def last(self) -> tuple[int, int]:
        return self.sent, self.received


class Trial:
    """One server lifetime: set-up, warm-up, timed phase, restarts."""

    def __init__(self, inputs: Inputs, workdir: Path, traced: bool,
                 counter: ByteCounter | None):
        self.inputs = inputs
        self.workdir = workdir
        self.traced = traced
        self.counter = counter
        self.tokens = {
            f"{p}-token": p for p in (W.SELLER,) + W.BUYERS
        }
        #: (op, latency s, summary, sent bytes, received bytes)
        self.records: list[tuple] = []
        self.warmup_records: list[tuple] = []
        self.errors: list[str] = []
        self.restart_s: list[float] = []
        self.server: Server | None = None

    def setup(self) -> None:
        workdir = self.workdir
        workdir.mkdir()
        start = time.perf_counter()
        self.server = Server(
            workdir, workdir / "market.db", self.tokens,
            workdir / "spans.json" if self.traced else None,
        )
        self.http = HttpDriver(self.server.url, (W.SELLER,) + W.BUYERS)
        for op in self.inputs.participants + self.inputs.preload:
            self.http.run(self.inputs, op)
        self.setup_s = time.perf_counter() - start

    def _mark(self, phase: str) -> None:
        if self.traced:
            self.http.clients[W.SELLER]._request(
                "GET", "/healthz", query={"phase": phase})

    def _execute(self, op, sink: list) -> None:
        start = time.perf_counter()
        try:
            summary = self.http.run(self.inputs, op)
        except Exception as exc:  # recorded as a failed op, never retried
            sink.append((op, time.perf_counter() - start, None, 0, 0))
            self.errors.append(f"{op[0]}: {type(exc).__name__}: {exc}")
            return
        latency = time.perf_counter() - start
        sent, received = self.counter.last() if self.counter else (0, 0)
        sink.append((op, latency, summary, sent, received))

    def warmup(self) -> None:
        for op in self.inputs.warmup:
            self._execute(op, self.warmup_records)

    def timed(self) -> None:
        gc.collect()
        self._mark("timed")
        start = time.perf_counter()
        for op in self.inputs.timed:
            self._execute(op, self.records)
        self.wall_s = time.perf_counter() - start
        self.rss_mb = self.server.rss_mb()
        self._mark("after")

    def restarts(self, count: int) -> None:
        self.store = self.server.store
        self.store_bytes = store_bytes(self.store)
        health = self.http.clients[W.SELLER].healthz()
        self.final_version = health["graph_version"]
        for _ in range(count):
            start = time.perf_counter()
            self.server.kill()
            self.server = Server(self.workdir, self.store, self.tokens)
            health = HttpDriver(self.server.url, (W.SELLER,)).clients[
                W.SELLER].healthz()
            self.restart_s.append(time.perf_counter() - start)
            if health.get("graph_version") != self.final_version:
                self.errors.append(
                    f"restart: replayed graph_version "
                    f"{health.get('graph_version')} != {self.final_version}"
                )

    def close(self) -> None:
        """Stop the server: gracefully when traced (the launcher writes its
        spans on the way out), otherwise with a kill."""
        if self.server is not None:
            (self.server.stop if self.traced else self.server.kill)()
            self.server = None

    def detach(self) -> "Trial":
        """Drop the references to the inputs and the connections, with each
        record naming its op by position, so the trial pickles small."""
        for name, ops in (("warmup_records", self.inputs.warmup),
                          ("records", self.inputs.timed)):
            records = getattr(self, name)
            assert all(r[0] is op for r, op in zip(records, ops))
            setattr(self, name, [(i,) + r[1:] for i, r in enumerate(records)])
        self.inputs = self.http = self.counter = None
        return self

    def attach(self, inputs: Inputs) -> "Trial":
        self.inputs = inputs
        for name, ops in (("warmup_records", inputs.warmup),
                          ("records", inputs.timed)):
            setattr(self, name,
                    [(ops[r[0]],) + r[1:] for r in getattr(self, name)])
        return self


def measure(inputs: Inputs, workdir: Path, restarts: int, cpu: int,
            traced: bool = False, counter: ByteCounter | None = None) -> Trial:
    # the client and the servers it starts share one CPU (see CPUS)
    os.sched_setaffinity(0, {cpu})
    trial = Trial(inputs, workdir, traced, counter)
    try:
        trial.setup()
        trial.warmup()
        trial.timed()
        trial.restarts(restarts)
    finally:
        trial.close()
    return trial


def _trial_worker(conn, inputs: Inputs, workdir: Path, cpu: int,
                  ks: range) -> None:
    try:
        conn.send([
            measure(inputs, workdir / f"trial{k}", RESTARTS_PER_TRIAL,
                    cpu).detach()
            for k in ks
        ])
    except BaseException as exc:
        conn.send(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        conn.close()


def measure_parallel(inputs: Inputs, workdir: Path) -> list[Trial]:
    """``TRIALS`` untraced trials, split over one forked worker per CPU of
    ``CPUS``; the workers run at once, each trial on its worker's CPU."""
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for w, cpu in enumerate(CPUS):
            receiver, sender = context.Pipe(duplex=False)
            proc = context.Process(
                target=_trial_worker,
                args=(sender, inputs, workdir, cpu,
                      range(w, TRIALS, len(CPUS))),
            )
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        trials = []
        for proc, receiver in workers:
            try:
                batch = receiver.recv()
            except EOFError:
                batch = f"worker exited with {proc.join() or proc.exitcode}"
            if isinstance(batch, str):
                raise RuntimeError(f"trial worker failed: {batch}")
            trials += [t.attach(inputs) for t in batch]
        return trials
    finally:
        for proc, receiver in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receiver.close()


def replay_seconds(store: Path, scratch: Path, repeats: int,
                   expected_version: int) -> list[float]:
    """``DataMarket(store=copy)`` in-process: the store replay half of a
    restart, without the interpreter start and imports."""
    from repro import DataMarket

    times = []
    for i in range(repeats):
        target = scratch / f"replay{i}"
        target.mkdir()
        for suffix in ("", "-wal", "-shm"):
            source = Path(f"{store}{suffix}")
            if source.exists():
                shutil.copyfile(source, target / f"market.db{suffix}")
        start = time.perf_counter()
        market = DataMarket(store=str(target / "market.db"))
        times.append(time.perf_counter() - start)
        if market.graph_version != expected_version:
            raise RuntimeError(
                f"in-process replay reached graph_version "
                f"{market.graph_version}, the server had {expected_version}")
    return times


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Expected:
    """The in-process reference's answer to every op a trial sends."""

    def __init__(self, inputs: Inputs):
        ref = ReferenceDriver()
        for op in inputs.participants + inputs.preload:
            ref.run(inputs, op)
        self.warmup = [_normalize(ref.run(inputs, op)) for op in inputs.warmup]
        self.timed = [_normalize(ref.run(inputs, op)) for op in inputs.timed]

    def check(self, trial: Trial) -> tuple[int, list[str]]:
        """(mismatched ops, messages) for one trial's answers."""
        messages: list[str] = []
        bad = 0
        for records, wanted in ((trial.warmup_records, self.warmup),
                                (trial.records, self.timed)):
            for (op, _lat, got, _s, _r), want in zip(records, wanted):
                if got is None:
                    continue  # already counted as failed
                if _normalize(got) != want:
                    bad += 1
                    if len(messages) < 3:
                        messages.append(
                            f"{op[0]} answer differs from the in-process "
                            f"market: {str(_normalize(got))[:200]} != "
                            f"{str(want)[:200]}")
        return bad, messages


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}

    def add(self, name, value, unit, samples, exported=False):
        self.lines.append(f"  {name:<28} {value:>14.4f} {unit:<7} (n={samples})")
        if exported:
            self.metrics[name] = {"value": value, "unit": unit}


def latency_metrics(report: Report, records, ops_by_metric) -> None:
    for metric, kinds in ops_by_metric:
        lat = [r[1] * 1e3 for r in records if r[0][0] in kinds and r[2] is not None]
        if not lat:
            continue
        report.add(f"{metric}.p50", percentile(lat, 0.5), "ms", len(lat))
        if tail_supported(len(lat), 0.9):
            report.add(f"{metric}.p90", percentile(lat, 0.9), "ms", len(lat))


def end_to_end(report: Report, trials: list[Trial]) -> None:
    """ops_per_s and the op percentiles come from each op's best latency over
    the trials (see ``TRIALS``): ops_per_s is the op count over the sum of
    those latencies, the closed loop's rate with the host out of the way.
    Set-up time, restart time and memory are medians over the trials.  The
    per-trial and per-op-type figures below them are printed for diagnosis
    only."""
    records = [r for t in trials for r in t.records]
    ok = [r for r in records if r[2] is not None]
    answered = [i for i in range(len(trials[0].records))
                if all(t.records[i][2] is not None for t in trials)]
    best = [min(t.records[i][1] for t in trials) * 1e3 for i in answered]
    if not tail_supported(len(best), 0.9):
        raise RuntimeError("too few timed ops for a p90")
    ops_per_s = len(best) / (sum(best) / 1e3)
    p50, p90 = percentile(best, 0.5), percentile(best, 0.9)
    per_trial = []
    for t in trials:
        lat = [r[1] * 1e3 for r in t.records if r[2] is not None]
        per_trial.append((len(t.records) / t.wall_s, percentile(lat, 0.5),
                          percentile(lat, 0.9)))
    report.add("setup_s", trials[0].inputs.corpus_s
               + statistics.median(t.setup_s for t in trials), "s",
               len(trials), exported=True)
    report.add("timed_phase_s", sum(t.wall_s for t in trials), "s",
               len(records))
    report.lines.append("  per trial (ops_per_s, op_ms.p50, op_ms.p90): " + "  ".join(
        f"{a:.2f} {b:.2f} {c:.2f}" for a, b, c in per_trial))
    report.lines.append("  per trial set-up (s): " + " ".join(
        f"{t.setup_s:.3f}" for t in trials))
    report.add("ops_per_s", ops_per_s, "ops/s", len(records), exported=True)
    report.add("op_ms.p50", p50, "ms", len(records), exported=True)
    report.add("op_ms.p90", p90, "ms", len(records), exported=True)
    latency_metrics(report, records, (
        ("register_ms", ("register",)), ("update_ms", ("update",)),
        ("search_ms", ("search",)), ("plan_ms", ("plan",)),
    ))
    rounds = [r[1] * 1e3 for r in ok if r[0][0] == "round"]
    if rounds:
        report.add("round_ms.p50", percentile(rounds, 0.5), "ms", len(rounds))
    ingest = [r for r in ok if r[0][0] in ("register", "update")]
    if ingest:
        rows = sum(len(r[0][1].rows) for r in ingest)
        report.add("ingest_rows_per_s", rows / sum(r[1] for r in ingest),
                   "rows/s", len(ingest))
    restarts = [s for t in trials for s in t.restart_s]
    report.lines.append("  restarts (s): " + " ".join(f"{s:.3f}" for s in restarts))
    report.add("restart_s", statistics.median(restarts), "s", len(restarts),
               exported=True)
    report.add("server_rss_mb", statistics.median(t.rss_mb for t in trials),
               "MB", len(trials), exported=True)


OP_TYPES = ("register", "update", "search", "plan", "wtp", "round")

#: layer -> span names whose self time it owns (see traced_server.py)
LAYERS = {
    "http": ("http.handle",),
    "service": ("service.ticket", "service.write", "service.read"),
    "market": ("market.write", "market.read", "market.trade"),
    "index": ("index.patch",),
    "profile": ("profile",),
    "store": ("store.persist",),
    "search": ("search",),
    "plan": ("plan.build",),
    "engine": ("engine.collect", "engine.execute"),
    "round": ("round.arbiter", "round.wtp_eval", "round.split"),
}


def per_layer(report: Report, inputs: Inputs, run: Trial, trace: dict,
              overhead: float, replay: list[float],
              untraced_restart: float) -> None:
    phase = "timed"
    spans = [s for s in trace["spans"] if s["phase"] == phase]
    samples = {s["name"]: s["values"] for s in trace["samples"]
               if s["phase"] == phase}
    records = [r for r in run.records if r[2] is not None]

    def span_sum(name, key="total_ns", op=None):
        return sum(s[key] for s in spans
                   if s["name"] == name and (op is None or s["op"] == op))

    def span_calls(name, op=None):
        return sum(s["calls"] for s in spans
                   if s["name"] == name and (op is None or s["op"] == op))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def add(name, value, unit, n):
        report.add(name, float(value), unit, n, exported=True)

    # -- gateway, per op type -------------------------------------------------
    report.lines.append("  per op type: server time = sum of layer self times")
    for op in OP_TYPES:
        mine = [r for r in records if r[0][0] == op]
        calls = span_calls("http.handle", op)
        handle_ms = span_sum("http.handle", op=op) / 1e6
        add(f"http.handle_ms.{op}",
            span_sum("http.handle", "self_ns", op) / 1e6 / calls if calls else 0.0,
            "ms", calls)
        client_ms = sum(r[1] for r in mine) * 1e3
        add(f"http.gap_ms.{op}",
            (client_ms - handle_ms) / len(mine) if mine and calls else 0.0,
            "ms", len(mine))
        add(f"http.req_kb.{op}", mean([r[3] for r in mine]) / 1024, "KB", len(mine))
        add(f"http.resp_kb.{op}", mean([r[4] for r in mine]) / 1024, "KB", len(mine))
        if calls:
            parts = {
                layer: sum(span_sum(n, "self_ns", op) for n in names) / 1e6
                for layer, names in LAYERS.items()
            }
            attributed = sum(parts.values())
            shown = " ".join(f"{k}={v / calls:.3f}" for k, v in parts.items() if v)
            report.lines.append(
                f"    {op:<8} server {handle_ms / calls:9.3f} ms/op = {shown} "
                f"(unattributed {(handle_ms - attributed) / calls:.6f})"
            )

    # -- service ----------------------------------------------------------------
    waits = [v / 1e6 for k, vs in samples.items()
             if k.startswith("service.queue_wait_ns.")
             and k.rsplit(".", 1)[1] in ("register", "update")
             for v in vs]
    add("service.queue_wait_ms", mean(waits), "ms", len(waits))
    add("service.queue_wait_ms.p90",
        percentile(waits, 0.9) if waits else 0.0, "ms", len(waits))
    reads = [v / 1e6 for k, vs in samples.items()
             if k.startswith("service.read_wait_ns.") for v in vs]
    add("service.read_wait_ms", mean(reads), "ms", len(reads))
    add("service.read_wait_ms.p90",
        percentile(reads, 0.9) if reads else 0.0, "ms", len(reads))
    holds = [v / 1e6 for v in samples.get("service.write_hold_ns", [])]
    add("service.write_hold_ms", mean(holds), "ms", len(holds))

    # -- ingest -----------------------------------------------------------------
    profile_calls = span_calls("profile")
    profile_ms = span_sum("profile") / 1e6
    profiled_rows = sum(samples.get("profile.rows", []))
    add("profile.ms", profile_ms / profile_calls if profile_calls else 0.0,
        "ms", profile_calls)
    add("profile.rows_per_s",
        profiled_rows / (profile_ms / 1e3) if profile_ms else 0.0,
        "rows/s", profile_calls)
    add("profile.rows", profiled_rows, "count", profile_calls)
    patch_calls = span_calls("index.patch")
    add("index.patch_ms",
        span_sum("index.patch", "self_ns") / 1e6 / patch_calls if patch_calls else 0.0,
        "ms", patch_calls)
    candidates = samples.get("index.candidates", [])
    add("index.candidates", sum(candidates), "count", len(candidates))
    persist_calls = span_calls("store.persist")
    add("store.persist_ms",
        span_sum("store.persist") / 1e6 / persist_calls if persist_calls else 0.0,
        "ms", persist_calls)
    add("store.bytes_per_user_byte", run.store_bytes / inputs.wire_bytes(),
        "ratio", 1)
    add("store.replay_s", statistics.median(replay), "s", len(replay))
    add("restart.import_s", untraced_restart - statistics.median(replay),
        "s", len(replay))

    # -- reads ------------------------------------------------------------------
    search_calls = span_calls("search")
    add("search.ms", span_sum("search") / 1e6 / search_calls if search_calls else 0.0,
        "ms", search_calls)
    build_calls = span_calls("plan.build")
    add("plan.build_ms",
        span_sum("plan.build", "self_ns") / 1e6 / build_calls if build_calls else 0.0,
        "ms", build_calls)
    marks = trace["cache_marks"]
    delta = {k: marks["after"][k] - marks["timed"][k] for k in marks["timed"]}
    lookups = delta["hits"] + delta["misses"]
    add("plan.cache_hit_ratio", delta["hits"] / lookups if lookups else 0.0,
        "ratio", lookups)
    add("plan.cache_hits", delta["hits"], "count", lookups)
    add("plan.cache_misses", delta["misses"], "count", lookups)
    add("plan.cache_invalidations", delta["invalidations"], "count", lookups)
    for name in ("plan.states_expanded", "plan.plans_built"):
        values = samples.get(name, [])
        add(name, sum(values), "count", len(values))
    q_errors = samples.get("plan.q_error", [])
    add("plan.q_error.p50", percentile(q_errors, 0.5) if q_errors else 0.0,
        "ratio", len(q_errors))
    collect_calls = span_calls("engine.collect")
    add("engine.collect_ms",
        span_sum("engine.collect") / 1e6 / collect_calls if collect_calls else 0.0,
        "ms", collect_calls)
    rows_out = samples.get("engine.rows_out", [])
    add("engine.rows_out", sum(rows_out), "count", len(rows_out))

    # -- rounds -----------------------------------------------------------------
    for metric, span in (("round.arbiter_ms", "round.arbiter"),
                         ("round.wtp_eval_ms", "round.wtp_eval"),
                         ("round.split_ms", "round.split")):
        calls = span_calls(span)
        add(metric, span_sum(span) / 1e6 / calls if calls else 0.0, "ms", calls)
    deliveries = samples.get("round.deliveries", [])
    add("round.deliveries", sum(deliveries), "count", len(deliveries))

    add("trace.overhead_ratio", overhead, "ratio", TRACE_PAIRS)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "platform" / "http.py").is_file():
        print(f"error: the market sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(SRC), str(BENCH)]
    global W
    import workload as W

    started = time.time()
    calib_before = calibrate_ms()
    load_before = loadavg()
    build = ROOT / ".bench_build"
    workdir = build / f"marketbench-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = Inputs(args.workload, args.seed, args.seconds)
        report = Report()
        if args.trace:
            # alternating untraced and traced trials, all counting wire
            # bytes, so a pair differs only in the server's span recorders;
            # the first pair gives the layer figures
            counter = ByteCounter()
            pairs = [
                (measure(inputs, workdir / f"untraced{k}",
                         TRACE_RESTARTS if k == 0 else 0, CPUS[k % len(CPUS)],
                         counter=counter),
                 measure(inputs, workdir / f"traced{k}", 0,
                         CPUS[k % len(CPUS)], traced=True, counter=counter))
                for k in range(TRACE_PAIRS)
            ]
            trials = [t for pair in pairs for t in pair]
            base, traced = pairs[0]
            replay = replay_seconds(base.store, workdir, TRACE_RESTARTS,
                                    base.final_version)
            trace = json.loads((workdir / "traced0" / "spans.json").read_text())
            overhead = statistics.median(
                1.0 - (b.wall_s / t.wall_s) for b, t in pairs)
            per_layer(report, inputs, traced, trace, overhead, replay,
                      statistics.median(base.restart_s))
        else:
            trials = measure_parallel(inputs, workdir)
            end_to_end(report, trials)
        expected = Expected(inputs)
        attempted = failed = 0
        notes: list[str] = []
        for t in trials:
            bad, messages = expected.check(t)
            attempted += (len(t.warmup_records) + len(t.records)
                          + len(t.restart_s))
            failed += len(t.errors) + bad
            notes += t.errors[:3] + messages
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            build.rmdir()
        except OSError:
            pass
    calib_after = calibrate_ms()

    print(f"marketbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  host: start={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(started))} "
          f"calibration_ms before={calib_before:.1f} after={calib_after:.1f} "
          f"loadavg before={load_before} after={loadavg()}")
    print("\n".join(report.lines))
    print(f"  {'ops_failed_ratio':<28} {failed / attempted:>14.4f} {'ratio':<7} "
          f"(n={attempted})")
    for note in notes:
        print(f"  check: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
