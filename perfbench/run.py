#!/usr/bin/env python3
"""End-to-end serving benchmark: SQL dashboards through ``python -m repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload paid_warm|reuse_hot|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One run generates the seeded inputs (``gen.py``), then boots
``serve --async --workers 2 --state <fresh db>`` with BLAS pinned to one
thread and drives its stdin/stdout line protocol from this process as a
closed loop with one request outstanding: a tenant is a caller waiting for
its reply.  One outstanding request, not two, because two requests in the
server contend for the GIL: on a 2-core host that lowered answers/s by
about a fifth and made it vary about three times as much between runs.

* ``--trace 0`` boots the server ``SETUPS`` times, each with its own seeded
  request stream, and runs an equal share of the timed loop after each
  boot (``setup_s`` is the median boot-to-last-warm-up-reply time); it
  prints the end-to-end metrics.
* ``--trace 1`` runs the timed loop twice for half the time each, untraced
  and then under the span launcher (``tracing.py``), and prints the
  per-layer metrics plus the tracing overhead between the two.

Every reply is checked (labels, spend, reuse, ledger, error against the
identity-strategy baseline); a failed check makes the run exit 1.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import re
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench-runs"
SETUPS = 3
WORKERS = 2
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Upper bound on the timed request rate; the stream is generated up front.
MAX_RATE = 100
#: Every paid answer persists a release of about 4.7 MB; a ``paid_warm``
#: run keeps about 1 GB on disk until it ends.
MIN_FREE_BYTES = 4 << 30
#: Hard wall-clock limit of one invocation.
DEADLINE_S = 170
#: Tolerance of the error check, in standard deviations of the baseline MSE.
BASELINE_SIGMAS = 5.0

END_TO_END = {
    "answers_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb_per_paid": "MB",
    "rmse_vs_identity": "ratio",
    "answered_frac": "ratio",
}
PER_LAYER = {
    "serve.handle_ms": "ms",
    "serve.wait_ms": "ms",
    "session.open_ms": "ms",
    "session.self_ms": "ms",
    "session.reuse_ratio": "ratio",
    "sql.compile_ms": "ms",
    "sql.rows_per_req": "rows",
    "planner.fingerprint_ms": "ms",
    "planner.lookup_ms": "ms",
    "planner.cold_builds": "count",
    "design.build_ms": "ms",
    "design.eigen_ms": "ms",
    "design.weighting_ms": "ms",
    "design.strategy_ms": "ms",
    "design.pricing_ms": "ms",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.evictions": "count",
    "plan_cache.entries": "count",
    "accountant.charge_ms": "ms",
    "accountant.commit_ms": "ms",
    "store.ledger_ms": "ms",
    "store.save_release_ms": "ms",
    "store.save_plan_ms": "ms",
    "mechanism.inference_ms": "ms",
    "mechanism.support_ms": "ms",
    "mechanism.support_calls_per_paid": "count",
    "mechanism.noise_ms": "ms",
    "mechanism.noise_scale_calls_per_paid": "count",
    "derive.ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (environment or server failure)."""


@dataclass
class Exchange:
    request: gen.Request
    reply: dict
    latency: float
    #: ``time.perf_counter()`` when the reply was read.
    finished: float = 0.0


@dataclass
class Loop:
    """One boot of ``serve``: its warm-up, timed loop and checks."""

    setup: float
    warm: list[Exchange]
    timed: list[Exchange]
    rate: float
    rss_mb: float
    stats_line: str
    problems: list[str]
    store_mb_per_paid: float


# ------------------------------------------------------------------ server
class Serve:
    """One ``serve`` subprocess, driven over its line protocol."""

    def __init__(self, workdir: Path, inputs: tuple[Path, Path], seed: int, spans: Path | None):
        csv_path, schema_path = inputs
        self.state = workdir / "state.db"
        self.stderr_path = workdir / "serve.stderr"
        arguments = [
            "serve", "--async", "--workers", str(WORKERS), "--seed", str(seed),
            "--state", str(self.state), "--schema", str(schema_path), "--data", str(csv_path),
            "--budget-epsilon", str(gen.BUDGET[0]), "--budget-delta", str(gen.BUDGET[1]),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *arguments]
        else:
            command = [sys.executable, str(Path(tracing.__file__)), str(spans), *arguments]
        env = {**os.environ, **BLAS_PIN}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self._stderr = open(self.stderr_path, "w")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True, bufsize=1,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
        )

    def drive(self, requests, deadline: float | None = None) -> tuple[list[Exchange], float]:
        """Send ``requests`` one at a time, each after the previous reply.

        No request is sent after ``deadline``.  Returns the exchanges and
        the loop's start time.
        """
        exchanges: list[Exchange] = []
        started = time.perf_counter()
        for request in requests:
            sent = time.perf_counter()
            self.process.stdin.write(request.line() + "\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            now = time.perf_counter()
            if not line:
                raise BenchError(f"serve exited early; see {self.tail()}")
            exchanges.append(Exchange(request, json.loads(line), now - sent, now))
            if deadline is not None and now >= deadline:
                break
        return exchanges, started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE).group(1))
        return kib / 1024.0

    def finish(self) -> str:
        """EOF, wait for a clean exit, and return the final stats line."""
        self.process.stdin.close()
        leftover = self.process.stdout.read()
        code = self.process.wait(timeout=60)
        self._stderr.close()
        if code != 0 or leftover.strip():
            raise BenchError(f"serve exited with code {code}; {self.tail()}")
        return self.tail()

    def tail(self) -> str:
        lines = self.stderr_path.read_text().strip().splitlines()
        return lines[-1] if lines else "(no stderr)"

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout, self._stderr):
            try:
                stream.close()
            except OSError:
                pass

    def store_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in (self.state, self.state.with_name(self.state.name + "-wal"))
            if path.exists()
        )


# ------------------------------------------------------------------ checks
def answered(reply: dict) -> bool:
    return "answers" in reply and "error" not in reply


def check_replies(exchanges: list[Exchange]) -> list[str]:
    """Per-reply output checks: labels, spend, reuse."""
    problems = []
    for exchange in exchanges:
        request, reply = exchange.request, exchange.reply
        where = f"request {request.key}"
        if not answered(reply):
            problems.append(f"{where}: not answered: {reply.get('error', reply)!r}"[:300])
            continue
        labels = request.dashboard.labels()
        if reply.get("labels") != labels or len(reply["answers"]) != len(labels):
            problems.append(f"{where}: expected one answer per label ({len(labels)} labels)")
        if reply.get("tenant") != request.tenant:
            problems.append(f"{where}: reply for tenant {reply.get('tenant')!r}")
        if request.free:
            if reply.get("served_from_release") is not True or reply.get("spent") is not None:
                problems.append(f"{where}: expected a free answer from an earlier release")
        elif reply.get("spent") != {"epsilon": request.epsilon, "delta": request.delta}:
            problems.append(f"{where}: spent {reply.get('spent')!r}, requested {request.epsilon}")
    return problems


def check_ledger(state: Path, paid: dict[str, int]) -> list[str]:
    """The durable ledger: one SPENT row per paid answer, no tenant over budget."""
    connection = sqlite3.connect(f"file:{state}?mode=ro", uri=True)
    try:
        rows = connection.execute(
            "SELECT tenant, state, COUNT(*), SUM(epsilon), SUM(delta) FROM ledger GROUP BY tenant, state"
        ).fetchall()
    finally:
        connection.close()
    problems = []
    spent: dict[str, list[float]] = {}
    settled: dict[str, int] = {}
    for tenant, state, count, epsilon, delta in rows:
        if state != "VOIDED":
            totals = spent.setdefault(tenant, [0.0, 0.0])
            totals[0] += epsilon
            totals[1] += delta
        if state == "SPENT":
            settled[tenant] = count
    for tenant, (epsilon, delta) in spent.items():
        if epsilon > gen.BUDGET[0] + 1e-9 or delta > gen.BUDGET[1] + 1e-15:
            problems.append(f"tenant {tenant} over budget: epsilon {epsilon}, delta {delta}")
    if settled != {tenant: n for tenant, n in paid.items() if n}:
        problems.append("ledger SPENT rows do not match the paid answers")
    return problems


def check_stats(line: str, exchanges: list[Exchange]) -> list[str]:
    """``serve``'s final stderr line agrees with the replies."""
    match = re.match(r"\[served (\d+) answers for (\d+) tenant\(s\); plan cache: (.*)\]$", line)
    if match is None:
        return [f"unexpected final stats line: {line!r}"]
    served, tenants = int(match.group(1)), int(match.group(2))
    good = [e for e in exchanges if answered(e.reply)]
    problems = []
    if served != len(good):
        problems.append(f"server reports {served} answers, client received {len(good)}")
    if tenants != len({e.request.tenant for e in exchanges}):
        problems.append(f"server reports {tenants} tenants")
    return problems


def plan_cache_stats(line: str) -> dict:
    return ast.literal_eval(line.rsplit("plan cache: ", 1)[1].rstrip("]"))


def error_stats(exchanges: list[Exchange], counts: np.ndarray) -> tuple[float, float, float]:
    """``(rmse, identity rmse, identity bound)`` over the answered exchanges.

    The identity RMSE is the one the identity strategy has in expectation
    at each answer's privacy cost, from the Gaussian-noise formula ``sigma
    = sqrt(2 ln(2 / delta)) / epsilon`` (identity has L2 sensitivity 1, so
    a query over ``k`` cells has noise variance ``k sigma^2``).  The bound
    adds ``BASELINE_SIGMAS`` standard deviations of the realised mean
    squared error.  Answers derived from one release share its noise draw,
    so the variance is summed per release, not per answer.
    """
    squared, rows = 0.0, 0
    mean, variance = 0.0, 0.0
    grams: dict = {}
    releases: dict[str, np.ndarray] = {}
    for exchange in exchanges:
        if not answered(exchange.reply):
            continue
        request = exchange.request
        dashboard = request.dashboard
        error = np.asarray(exchange.reply["answers"]) - dashboard.exact(counts)
        squared += float(error @ error)
        rows += len(error)
        sigma2 = 2.0 * math.log(2.0 / request.delta) / request.epsilon**2
        if dashboard not in grams:
            matrix = dashboard.matrix()
            grams[dashboard] = matrix.T @ matrix
        gram = sigma2 * grams[dashboard]
        mean += float(np.trace(gram))
        if request.free:
            releases[request.tenant] = releases.get(request.tenant, 0.0) + gram
        else:
            variance += 2.0 * float(np.sum(gram * gram))
    variance += sum(2.0 * float(np.sum(g * g)) for g in releases.values())
    rows = max(rows, 1)
    bound = (mean + BASELINE_SIGMAS * math.sqrt(variance)) / rows
    return math.sqrt(squared / rows), math.sqrt(mean / rows), math.sqrt(bound)


# ----------------------------------------------------------------- helpers
def answer_rate(exchanges: list[Exchange], started: float) -> float:
    """Answered replies per second of the loop that produced ``exchanges``."""
    return sum(answered(e.reply) for e in exchanges) / (exchanges[-1].finished - started)


def stamp(seed: int) -> str:
    import scipy

    return (
        f"# nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} git={git_sha()} seed={seed} "
        f"blas_pin={','.join(f'{k}={v}' for k, v in BLAS_PIN.items())}"
    )


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -------------------------------------------------------------------- runs
class Run:
    """One workload at one seed: its inputs, scratch directory and servers."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = RUNS_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True)
        csv_path, schema_path, self.counts = gen.write_inputs(self.workdir, seed)
        self.inputs = (csv_path, schema_path)
        self.servers: list[Serve] = []

    def loop(self, seconds: float, spans: Path | None = None, stream: int | None = None) -> Loop:
        """Boot and warm up, run the timed loop for ``seconds``, EOF, check.

        ``setup`` runs from spawning ``serve`` to the last warm-up reply.
        ``stream`` picks the request stream (default: one per boot).
        """
        boot = len(self.servers)
        requests = gen.stream(
            self.workload, self.seed, int(seconds * MAX_RATE) + 16, boot if stream is None else stream
        )
        workdir = self.workdir / f"boot{boot}"
        workdir.mkdir()
        started = time.perf_counter()
        server = Serve(workdir, self.inputs, self.seed, spans)
        self.servers.append(server)
        warm, _ = server.drive(requests.warmup)
        setup = time.perf_counter() - started
        timed, started = server.drive(requests.timed, time.perf_counter() + seconds)
        if len(timed) == len(requests.timed):
            raise BenchError("the pre-generated request stream ran out; raise MAX_RATE")
        rate, rss = answer_rate(timed, started), server.peak_rss_mb()
        stats_line = server.finish()
        everything = warm + timed
        paid: dict[str, int] = {}
        for exchange in everything:
            if answered(exchange.reply) and not exchange.request.free:
                paid[exchange.request.tenant] = paid.get(exchange.request.tenant, 0) + 1
        problems = check_replies(everything)
        problems += check_stats(stats_line, everything)
        problems += check_ledger(server.state, paid)
        rmse, _, bound = error_stats(timed, self.counts)
        if not rmse <= bound:
            problems.append(f"answer RMSE {rmse:.3f} above the identity-strategy bound {bound:.3f}")
        store_mb_per_paid = server.store_bytes() / 1e6 / max(sum(paid.values()), 1)
        shutil.rmtree(workdir)
        return Loop(setup, warm, timed, rate, rss, stats_line, problems, store_mb_per_paid)

    def end_to_end(self) -> tuple[dict, list[str], int, int, list[str]]:
        """``SETUPS`` boots, each followed by an equal share of the timed loop.

        Spreading the measured time over every boot samples the host over
        the whole invocation instead of its last stretch; per-boot figures
        are reported as their median, latency quantiles over all replies.
        """
        loops = [self.loop(self.seconds / SETUPS) for _ in range(SETUPS)]
        timed = [exchange for run in loops for exchange in run.timed]
        problems = [problem for run in loops for problem in run.problems]
        latencies = [1e3 * e.latency for e in timed]
        good = sum(answered(e.reply) for e in timed)
        rmse, identity, _ = error_stats(timed, self.counts)
        values = {
            "answers_per_s": statistics.median(run.rate for run in loops),
            "p50_ms": np.quantile(latencies, 0.50),
            "p95_ms": np.quantile(latencies, 0.95),
            "setup_s": statistics.median(run.setup for run in loops),
            "peak_rss_mb": statistics.median(run.rss_mb for run in loops),
            "store_mb_per_paid": statistics.median(run.store_mb_per_paid for run in loops),
            "rmse_vs_identity": rmse / identity,
            "answered_frac": good / len(timed),
        }
        metrics = {name: metric(value, END_TO_END[name]) for name, value in values.items()}
        beyond = sum(latency > values["p95_ms"] for latency in latencies)
        notes = [
            f"samples={len(timed)} beyond_p95={beyond} setups={['%.3f' % run.setup for run in loops]} "
            f"rates={['%.3f' % run.rate for run in loops]}",
            f"failed_frac={1 - good / len(timed):.4f} answer_rmse={rmse:.4f} identity_rmse={identity:.4f}",
            f"serve: {loops[-1].stats_line}",
        ]
        return metrics, problems, len(timed), len(timed) - good, notes

    def per_layer(self) -> tuple[dict, list[str], int, int, list[str]]:
        spans = self.workdir / "spans.json"
        untraced = self.loop(self.seconds / 2.0, stream=0)
        traced = self.loop(self.seconds / 2.0, spans, stream=0)
        profile = tracing.request_profile(json.loads(spans.read_text())["spans"])
        metrics = layer_metrics(profile, traced.timed, [e.request.key for e in traced.warm], traced.stats_line)
        metrics["trace.overhead"] = metric(1.0 - traced.rate / untraced.rate, PER_LAYER["trace.overhead"])
        good = sum(answered(e.reply) for e in traced.timed)
        notes = [
            f"samples={len(traced.timed)} untraced_answers_per_s={untraced.rate:.3f} "
            f"traced_answers_per_s={traced.rate:.3f}",
            f"serve: {traced.stats_line}",
        ]
        problems = untraced.problems + traced.problems
        return metrics, problems, len(traced.timed), len(traced.timed) - good, notes

    def cleanup(self) -> None:
        """Stop every server still running, then delete the run's files."""
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


def layer_metrics(profile: dict, timed: list[Exchange], warm_keys: list[str], stats_line: str) -> dict:
    """Per-layer metrics from the span profile of one traced run.

    ``_ms`` values are mean self time per timed request; ``design.*`` are
    per cold plan build over the whole run (``paid_warm`` builds only in its
    warm-up), with ``design.build_ms`` the inclusive build time.
    """
    missing = [e.request.key for e in timed if e.request.key not in profile]
    if missing:
        raise BenchError(f"no span tree for timed requests {missing[:5]}")
    entries = [profile[e.request.key] for e in timed]
    n = len(entries)

    def total(name: str, field: str = "self", among=entries) -> float:
        return sum(entry[field].get(name, 0) for entry in among)

    def per_request_ms(*names: str) -> float:
        return 1e3 * sum(total(name) for name in names) / n

    everything = entries + [profile[key] for key in warm_keys if key in profile]
    builds = total("design.build", "calls", everything)

    def per_build_ms(name: str, field: str = "self") -> float:
        return 1e3 * total(name, field, everything) / builds if builds else 0.0

    paid = sum(1 for e in timed if answered(e.reply) and not e.request.free)
    handle = [entry["duration"] for entry in entries]
    cache = plan_cache_stats(stats_line)
    lookups = cache["hits"] + cache["misses"]
    out = {
        "serve.handle_ms": 1e3 * sum(handle) / n,
        "serve.wait_ms": 1e3 * sum(e.latency - d for e, d in zip(timed, handle)) / n,
        "session.open_ms": per_request_ms("session.open"),
        "session.self_ms": per_request_ms("session.ask"),
        "session.reuse_ratio": sum(bool(e.reply.get("served_from_release")) for e in timed) / n,
        "sql.compile_ms": per_request_ms("sql.compile"),
        "sql.rows_per_req": sum(len(e.reply.get("answers", ())) for e in timed) / n,
        "planner.fingerprint_ms": per_request_ms("planner.fingerprint"),
        "planner.lookup_ms": per_request_ms("planner.plan"),
        "planner.cold_builds": total("design.build", "calls"),
        "design.build_ms": per_build_ms("design.build", "total"),
        "design.eigen_ms": per_build_ms("design.eigen"),
        "design.weighting_ms": per_build_ms("design.weighting"),
        "design.strategy_ms": per_build_ms("design.strategy"),
        "design.pricing_ms": per_build_ms("design.pricing"),
        "plan_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "plan_cache.evictions": cache["evictions"],
        "plan_cache.entries": cache["entries"],
        "accountant.charge_ms": per_request_ms("accountant.charge"),
        "accountant.commit_ms": per_request_ms("accountant.commit"),
        "store.ledger_ms": per_request_ms("store.ledger"),
        "store.save_release_ms": per_request_ms("store.save_release"),
        "store.save_plan_ms": per_request_ms("store.save_plan"),
        "mechanism.inference_ms": per_request_ms("mechanism.run"),
        "mechanism.support_ms": per_request_ms("mechanism.support"),
        "mechanism.support_calls_per_paid": total("mechanism.support", "calls") / paid if paid else 0.0,
        "mechanism.noise_ms": per_request_ms("mechanism.noise", "mechanism.noise_scale"),
        "mechanism.noise_scale_calls_per_paid": (
            total("mechanism.noise_scale", "calls") / paid if paid else 0.0
        ),
        "derive.ms": per_request_ms("derive"),
        "trace.coverage": sum(entry["covered"] for entry in entries) / sum(handle),
    }
    return {name: metric(value, PER_LAYER[name]) for name, value in out.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    try:
        metrics, problems, attempted, failed, notes = (run.per_layer() if trace else run.end_to_end())
    finally:
        run.cleanup()
    print(f"== {workload} (seed {seed}, {seconds:g}s, trace {int(trace)})")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.4f} {entry['unit']:6s} n={attempted}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        print(f"error: {free / 2**30:.1f} GiB free, need {MIN_FREE_BYTES / 2**30:.0f} GiB", file=sys.stderr)
        return 2

    def _expired(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S}s per workload")

    def _terminated(signum, frame):
        raise BenchError("terminated")

    workloads = gen.WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    signal.signal(signal.SIGTERM, _terminated)
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(DEADLINE_S * len(workloads))
    print(stamp(arguments.seed))
    try:
        results = {w: run_one(w, arguments.seed, arguments.seconds, bool(arguments.trace)) for w in workloads}
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
