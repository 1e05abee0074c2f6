"""The served-sqlite workload: HTTP traffic against a PlatformServer child.

The server runs in its own process (``served_child.py``) on the SQLite
backend.  This process is the traffic generator: one asyncio loop with at
most ``nproc`` keep-alive connections and no other threads.

* **Open loop** — requests arrive on a seeded Poisson schedule at a fixed
  offered rate below saturation, plus a ``POST /step`` platform round and
  a ``GET /healthz`` probe at a fixed cadence.  A dispatcher hands each
  request, when due, to the next free connection; latency is measured from
  the *due* time, so a stall also charges the requests queued behind it.
  How late the dispatcher itself woke is reported as generator lateness (a
  validity check).
* **Closed loop** — the connections send the same mix back to back for a
  fixed number of requests; the median rate over windows of completed
  requests is the saturated throughput.

A failed request (non-2xx including 429/503, a connection error, a body
that does not parse) is attempted-and-failed and reads as missing every
latency limit (``MISSED_MS``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from common import BENCH_DIR, WORK_DIR, median, metric, nproc, tail
from layers import as_metrics, per_layer_values

#: Latency a failed request is charged with (it missed every limit).
MISSED_MS = 1e12
#: Closed-loop completions per throughput window (``saturated_rps`` is
#: the median window rate).
CLOSED_WINDOW = 100
#: Seconds a child may take to become ready or to finish.
CHILD_TIMEOUT_S = 150.0


#: Interest declarations per result (team result or micro-task completion)
#: in the moderation-dense workload: the ratio of its run notes
#: ``interest_declared`` / ``results`` summed over seeds 1-10.
INTEREST_PER_RESULT = 45.8


@dataclass(frozen=True)
class ServedWorkload:
    name: str = "served-sqlite"
    n_workers: int = 2000
    items: int = 4
    setups: int = 3
    #: Offered open-loop rate, about 15% of the closed-loop saturation on
    #: the reference container: at higher load the tail percentile sits
    #: on the knee of the queueing curve and swings with machine speed.
    rate_rps: float = 30.0
    step_every_s: float = 1.0
    #: Share of ``--seconds`` spent in the open loop.
    open_share: float = 0.8
    #: Closed-loop request count per remaining second of ``--seconds``.
    closed_per_s: float = 200.0
    max_connections: int = 2
    #: Relative request weights.  The write mix is the moderation-dense
    #: simulation's own: its workers declare interest
    #: ``INTEREST_PER_RESULT`` times per result they submit, and one answer
    #: POST stands for one result.  Assumed, not measured: a worker loads
    #: its page once before each interest declaration.
    mix: tuple[tuple[str, float], ...] = (
        ("answer", 1.0),
        ("interest", INTEREST_PER_RESULT),
        ("page", INTEREST_PER_RESULT),
    )

    def connections(self) -> int:
        return max(1, min(self.max_connections, nproc()))

    def params(self) -> dict[str, Any]:
        params = asdict(self)
        del params["name"]
        params["connections"] = self.connections()
        params["backend"] = "sqlite"
        params["affinity_max_neighbors"] = 8
        return params


SERVED_SQLITE = ServedWorkload()


@dataclass(frozen=True)
class Request:
    kind: str  # "write" or "read"
    method: str
    path: str
    body: dict[str, Any] | None = None


#: A platform round and a health probe, each sent once per
#: ``step_every_s`` (the probe's cadence is assumed, like a load
#: balancer's).
STEP = Request("write", "POST", "/step", {})
HEALTHZ = Request("read", "GET", "/healthz")


class Traffic:
    """Seeded request maker over the ids the server published."""

    def __init__(self, workload: ServedWorkload, seed: int, info: dict[str, Any]) -> None:
        self.rng = random.Random(f"perfbench-served-{seed}")
        self.seed = seed
        self.workload = workload
        self.project_id = info["project_id"]
        self.workers = info["workers"]
        self.pairs = sorted(
            (task, worker) for task, workers in info["eligible"].items() for worker in workers
        )
        if not self.pairs:
            raise RuntimeError("the served platform derived no eligible pairs")
        self.kinds = [kind for kind, _ in workload.mix]
        self.weights = [weight for _, weight in workload.mix]
        self.answers = 0

    def next(self) -> Request:
        kind = self.rng.choices(self.kinds, self.weights)[0]
        if kind == "answer":
            self.answers += 1
            return Request(
                "write",
                "POST",
                f"/projects/{self.project_id}/answers",
                {
                    "predicate": "moderate",
                    "key_values": {"item": f"gen-{self.seed}-{self.answers:06d}"},
                    "fill_values": {"verdict": self.rng.random() < 0.5},
                },
            )
        if kind == "interest":
            task, worker = self.rng.choice(self.pairs)
            return Request("write", "POST", f"/tasks/{task}/interest", {"worker_id": worker})
        return Request("read", "GET", f"/workers/{self.rng.choice(self.workers)}/page")

    def open_schedule(self, seconds: float) -> list[tuple[float, Request]]:
        """(due offset, request): Poisson arrivals plus the step and probe
        cadence."""
        out = []
        due = self.rng.expovariate(self.workload.rate_rps)
        while due < seconds:
            out.append((due, self.next()))
            due += self.rng.expovariate(self.workload.rate_rps)
        every = self.workload.step_every_s
        step_at = every
        while step_at < seconds:
            out.append((step_at, STEP))
            out.append((step_at - every / 2, HEALTHZ))
            step_at += every
        out.sort(key=lambda item: item[0])
        return out

    def closed_requests(self, count: int) -> list[Request]:
        """The same mix, with a step and a probe as often as the open loop
        has them."""
        every = max(2, round(self.workload.rate_rps * self.workload.step_every_s))
        cadence = {every // 2 - 1: HEALTHZ, every - 1: STEP}
        return [cadence.get(i % every) or self.next() for i in range(count)]


async def send(client, request: Request) -> str | None:
    """Issue one request; the failure description, or None when it
    succeeded and its body parsed."""
    try:
        response = await client.request(
            request.method, request.path, json_body=request.body
        )
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        await client.close()
        return f"{request.method} {request.path}: {type(exc).__name__}"
    if not 200 <= response.status < 300:
        return f"{request.method} {request.path}: HTTP {response.status}"
    if request.path.endswith("/page"):
        text = response.body.decode("utf-8", "replace")
        return None if "<html" in text.lower() else f"GET {request.path}: not a page"
    try:
        body = response.parsed_json()
    except ValueError:
        return f"{request.method} {request.path}: unparsable body"
    if request.kind == "write" and not (isinstance(body, dict) and body.get("ok")):
        return f"{request.method} {request.path}: not ok"
    if request.path == "/healthz" and body.get("status") != "serving":
        return f"GET /healthz: {body.get('status')}"
    return None


async def drive(port: int, schedule, closed: list[Request], connections: int) -> dict:
    """Both phases over ``connections`` keep-alive connections."""
    from repro.serving.http import HttpClient

    loop = asyncio.get_running_loop()
    clients = [HttpClient("127.0.0.1", port) for _ in range(connections)]
    samples: list[tuple[float, str, float, bool]] = []
    lateness: list[float] = []
    failures: list[str] = []
    writes_ok = 0
    try:
        for client in clients:
            await client.connect()

        queue: asyncio.Queue = asyncio.Queue()
        start = loop.time() + 0.05

        async def dispatch() -> None:
            for due, request in schedule:
                at = start + due
                delay = at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(loop.time() - at)
                queue.put_nowait((at, request))
            for _ in clients:
                queue.put_nowait(None)

        async def open_worker(client) -> None:
            nonlocal writes_ok
            while (item := await queue.get()) is not None:
                at, request = item
                failure = await send(client, request)
                samples.append((at, request.kind, loop.time() - at, failure is None))
                if failure:
                    failures.append(failure)
                elif request.kind == "write":
                    writes_ok += 1

        await asyncio.gather(dispatch(), *(open_worker(c) for c in clients))

        pending = iter(closed)
        done_at: list[float] = []

        async def closed_worker(client) -> None:
            nonlocal writes_ok
            for request in pending:
                failure = await send(client, request)
                if failure:
                    failures.append(failure)
                else:
                    done_at.append(loop.time())
                    writes_ok += request.kind == "write"

        started = loop.time()
        await asyncio.gather(*(closed_worker(c) for c in clients))
        closed_wall = loop.time() - started
    finally:
        for client in clients:
            await client.close()
    return {
        "samples": samples,
        "lateness": lateness,
        "failures": failures,
        "closed_completed": len(done_at),
        "closed_wall_s": closed_wall,
        "closed_window_rps": window_rates(started, done_at),
        "writes_ok": writes_ok,
        "requests": len(schedule) + len(closed),
    }


def window_rates(started: float, done_at: list[float]) -> list[float]:
    """Completions per second over consecutive windows of
    ``CLOSED_WINDOW`` completions (a trailing partial window is dropped;
    fewer completions than one window make one short window)."""
    if not done_at:
        return [0.0]
    window = min(CLOSED_WINDOW, len(done_at))
    rates = []
    previous = started
    for end in range(window, len(done_at) + 1, window):
        rates.append(window / (done_at[end - 1] - previous))
        previous = done_at[end - 1]
    return rates


class Child:
    """One server process; ``setup_s`` is spawn → ``READY`` (imports,
    platform build, bind)."""

    def __init__(self, workload: ServedWorkload, seed: int, tag: str, trace: bool) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        stem = WORK_DIR / f"served-{os.getpid()}-{tag}"
        self.db = stem.with_suffix(".sqlite")
        self.ready = stem.with_suffix(".ready.json")
        self.out = stem.with_suffix(".out.json")
        self._cleanup()
        command = [
            sys.executable,
            str(BENCH_DIR / "served_child.py"),
            "--db", str(self.db),
            "--ready", str(self.ready),
            "--out", str(self.out),
            "--seed", str(seed),
            "--workers", str(workload.n_workers),
            "--items", str(workload.items),
        ]
        if trace:
            command.append("--trace")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._readline(started + CHILD_TIMEOUT_S)
            if not line.startswith("READY "):
                raise RuntimeError(f"server child did not start: {line!r}")
            self.setup_s = time.perf_counter() - started
            self.port = int(line.split()[1])
            self.info = json.loads(self.ready.read_text())
        except BaseException:
            self.kill()
            raise

    def _readline(self, deadline: float) -> str:
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("server child did not become ready")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                return self.proc.stdout.readline()

    def stop(self, command: str) -> dict[str, Any]:
        """Send ``abort`` or ``finish`` and wait for the child to end."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.close()
            code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"server child exited with {code}")
            return json.loads(self.out.read_text())
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._cleanup()

    def _cleanup(self) -> None:
        for path in (self.ready, self.out):
            path.unlink(missing_ok=True)
        for suffix in ("", "-wal", "-shm"):
            Path(str(self.db) + suffix).unlink(missing_ok=True)


def shutdown_checks(server: dict[str, Any], writes_ok: int) -> list[str]:
    """Failed output checks on the child's shutdown report."""
    failures = []
    if not server["applied_equals_admitted"]:
        failures.append("serving: applied != admitted after drain")
    acknowledged = server["serving"]["applied"] - server["serving"]["op_errors"]
    if acknowledged != writes_ok:
        failures.append(
            f"serving: {acknowledged} writes applied, {writes_ok} acknowledged"
        )
    if not server["recovered_equal"]:
        failures.append("recovery: reopened dump differs from the dump before close")
    return failures


def session(
    workload: ServedWorkload, seed: int, seconds: float, trace: bool, setups: int
) -> dict[str, Any]:
    """``setups`` timed set-ups (all but the last only timed), then both
    traffic phases and the shutdown checks against the last one."""
    setup_s = []
    for i in range(setups - 1):
        child = Child(workload, seed, f"setup{i}", trace=False)
        setup_s.append(child.setup_s)
        child.stop("abort")
    child = Child(workload, seed, "main", trace)
    setup_s.append(child.setup_s)
    try:
        traffic = Traffic(workload, seed, child.info)
        open_s = workload.open_share * seconds
        schedule = traffic.open_schedule(open_s)
        closed = traffic.closed_requests(
            int(workload.closed_per_s * (seconds - open_s))
        )
        load = asyncio.run(drive(child.port, schedule, closed, workload.connections()))
    except BaseException:
        child.kill()
        raise
    server = child.stop("finish")
    failures = load["failures"] + shutdown_checks(server, load["writes_ok"])
    return {"setup_s": setup_s, "load": load, "server": server, "failures": failures}


def _latencies_ms(samples, kind: str | None = None) -> list[float]:
    """Latencies in due-time order, a failed request as ``MISSED_MS``."""
    return [
        1000.0 * latency if ok else MISSED_MS
        for _, sample_kind, latency, ok in sorted(samples)
        if kind is None or sample_kind == kind
    ]


def run(workload: ServedWorkload, seed: int, seconds: float) -> dict[str, Any]:
    result = session(workload, seed, seconds, trace=False, setups=workload.setups)
    load, server, failures = result["load"], result["server"], result["failures"]
    attempted = load["requests"] + 3  # requests plus the three shutdown checks
    detail: dict[str, Any] = {"setup_s": metric(median(result["setup_s"]), "s")}
    notes: dict[str, Any] = {}
    for kind in ("write", "read", None):
        values = _latencies_ms(load["samples"], kind)
        label = kind or "all"
        tail_ms, pct, count = tail(values)
        detail[f"{label}_p50_ms"] = metric(median(values), "ms")
        detail[f"{label}_tail_ms"] = metric(tail_ms, "ms")
        notes[f"{label}_tail_percentile"] = pct
        notes[f"{label}_samples"] = count
    detail["saturated_rps"] = metric(median(load["closed_window_rps"]), "1/s")
    detail["recover_s"] = metric(median(server["recover_s"]), "s")
    detail["peak_rss_mb"] = metric(server["peak_rss_mb"], "MB")
    detail["error_rate"] = metric(len(failures) / attempted, "ratio")
    lateness = load["lateness"]
    notes["gen_lateness_p50_ms"] = 1000.0 * median(lateness)
    notes["gen_lateness_max_ms"] = 1000.0 * max(lateness)
    notes["closed_requests"] = load["closed_completed"]
    notes["affinity"] = "AffinityWeights(max_neighbors=8), as in the scenario packs"
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "detail": detail,
        "notes": notes,
        "contract": {
            "setup_s": detail["setup_s"],
            "latency_p50_ms": detail["all_p50_ms"],
            "throughput_per_s": detail["saturated_rps"],
            "peak_rss_mb": detail["peak_rss_mb"],
        },
    }


def run_traced(workload: ServedWorkload, seed: int, seconds: float) -> dict[str, Any]:
    """An untraced session, then a traced one; tracing overhead is the
    difference of their closed-loop walls (same requests)."""
    plain = session(workload, seed, seconds, trace=False, setups=1)
    traced = session(workload, seed, seconds, trace=True, setups=1)
    server, load = traced["server"], traced["load"]
    trace = server.pop("trace")
    serving = server["serving"]
    read_cache = server["read_cache"]
    fetches = read_cache["hits"] + read_cache["misses"] + read_cache["invalidations"]
    lateness = load["lateness"]
    values = per_layer_values(
        trace["by_name"],
        basis_s=server["cpu_s"],
        overhead_s=load["closed_wall_s"] - plain["load"]["closed_wall_s"],
        assignment_attempts=server["platform"]["assignment_attempts"],
        assignments_skipped=server["platform"]["assignments_skipped"],
        **server["engine"],
        **{
            "storage.backend.bytes": server["backend_bytes"],
            "storage.backend.bytes_per_write": server["backend_bytes"]
            / max(1, load["writes_ok"]),
            "storage.cache.hit_rate": read_cache["hits"] / fetches if fetches else 0.0,
            "storage.cache.evictions": server["query_cache"]["evictions"],
            "serving.coalescing_x": serving["coalescing_x"],
            "serving.queue_depth_max": serving["max_queue_depth"],
            "serving.rejected": serving["rejected_depth"]
            + serving["rejected_lag"]
            + serving["rejected_closed"],
            "serving.tick_latency_max_ms": 1000.0 * serving["tick_latency_max_s"],
            "gen.lateness_p50_ms": 1000.0 * median(lateness),
            "gen.lateness_max_ms": 1000.0 * max(lateness),
        },
    )
    failures = plain["failures"] + traced["failures"]
    return {
        "attempted": plain["load"]["requests"] + load["requests"] + 6,
        "failed": len(failures),
        "failures": failures[:20],
        "layers": as_metrics(values),
        "trace": trace,
    }
