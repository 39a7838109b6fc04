"""In-memory request spans for the serving benchmark, and their arithmetic.

Run as a launcher, this module wraps the engine's layer entry points with
spans and then hands over to ``repro.cli.main``::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json serve --schema ...

Each wrapped callable records ``(name, start, end, parent, tag)`` on a
per-thread stack, so nesting follows the call stack of the thread that does
the work; nothing is shared between threads while the server runs.  The
spans are written to ``SPANS.json`` when ``serve`` returns.  The root span is
``Server.handle_request``; its tag is the request line, so the benchmark can
tell warm-up requests from timed ones.

A span's *self time* is its duration minus the time its child spans cover.
The program itself is not modified: every wrapper is installed at the
attribute its caller looks up (a module global for functions imported by
name, the class attribute for methods).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

ROOT = "serve.handle"

#: ``(module, class or None, attribute, span name)``.
WRAPS = (
    ("repro.engine.server", "Server", "handle_request", ROOT),
    ("repro.engine.server", "Server", "open_session", "session.open"),
    ("repro.engine.session", "Session", "ask", "session.ask"),
    ("repro.engine.session", None, "workload_from_sql", "sql.compile"),
    ("repro.engine.planner", None, "workload_fingerprint", "planner.fingerprint"),
    ("repro.engine.planner", "Planner", "plan", "planner.plan"),
    ("repro.engine.planner", "Planner", "_build_plan", "design.build"),
    ("repro.core.eigen_design", None, "eigen_queries", "design.eigen"),
    ("repro.core.eigen_design", None, "solve_weighting", "design.weighting"),
    ("repro.core.eigen_design", None, "build_weighted_strategy", "design.strategy"),
    ("repro.engine.mechanism", "StrategyMechanism", "expected_error", "design.pricing"),
    ("repro.mechanisms.accountant", "PrivacyAccountant", "charge", "accountant.charge"),
    ("repro.mechanisms.accountant", "PrivacyAccountant", "commit", "accountant.commit"),
    ("repro.engine.store", "StateStore", "ledger_begin", "store.ledger"),
    ("repro.engine.store", "StateStore", "ledger_settle", "store.ledger"),
    ("repro.engine.store", "StateStore", "save_release", "store.save_release"),
    ("repro.engine.store", "StateStore", "save_plan", "store.save_plan"),
    ("repro.mechanisms.matrix_mechanism", "MatrixMechanism", "run", "mechanism.run"),
    ("repro.core.strategy", "Strategy", "supports", "mechanism.support"),
    ("repro.mechanisms.gaussian", "GaussianMechanism", "answer", "mechanism.noise"),
    ("repro.mechanisms.gaussian", "GaussianMechanism", "noise_scale", "mechanism.noise_scale"),
    ("repro.core.workload", "Workload", "answer", "derive"),
)


class Tracer:
    """Spans kept in per-thread lists; a thread registers its list once."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._buffers.append(state[0])
        return state

    def wrap(self, function, name: str, tag_arg: int | None = None):
        """``function`` recording a span named ``name`` around each call.

        ``tag_arg`` names a positional argument stored as the span's tag.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            tag = args[tag_arg] if tag_arg is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, wraps=WRAPS) -> None:
        for module_name, class_name, attribute, name in wraps:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            tag_arg = 1 if name == ROOT else None  # handle_request(self, line)
            setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, tag_arg))

    def spans(self) -> list[list]:
        """All spans as ``[name, start, end, parent, tag]``; parents re-indexed."""
        with self._lock:
            buffers = list(self._buffers)
        out: list[list] = []
        for buffer in buffers:
            offset = len(out)
            for name, start, end, parent, tag in list(buffer):
                out.append([name, start, end, parent + offset if parent >= 0 else -1, tag])
        return out


# --------------------------------------------------------------- arithmetic
def self_times(spans) -> tuple[list[float], list[int]]:
    """Per span: self time (duration minus its children's) and root index.

    Parents precede their children in ``spans`` (spans are appended when
    they open), and a thread's children run one after another, so the time
    they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    roots = list(range(len(spans)))
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
            roots[index] = roots[parent]
    return own, roots


def request_profile(spans) -> dict[str, dict]:
    """Per request tag: duration, children's coverage, and per-name self time,
    inclusive time and calls.

    Only trees rooted at a ``ROOT`` span count; a root's tag is its
    request line, reduced to the request's ``req`` key when it has one.
    """
    own, roots = self_times(spans)
    out: dict[int, dict] = {}
    for index, (name, start, end, parent, tag) in enumerate(spans):
        root = roots[index]
        if spans[root][0] != ROOT:
            continue
        entry = out.setdefault(root, {"self": {}, "total": {}, "calls": {}})
        if index == root:
            entry["duration"] = end - start
            entry["covered"] = end - start - own[index]
        entry["self"][name] = entry["self"].get(name, 0.0) + own[index]
        entry["total"][name] = entry["total"].get(name, 0.0) + end - start
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
    return {_request_key(spans[root][4]): entry for root, entry in out.items()}


def _request_key(line) -> str:
    try:
        payload = json.loads(line)
    except (TypeError, ValueError):
        return str(line)
    return str(payload.get("req", line)) if isinstance(payload, dict) else str(line)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json <repro cli arguments...>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump({"spans": tracer.spans()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
