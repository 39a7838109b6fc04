"""The line-protocol front-end: one loop, with an admission bound set by the input.

``python -m repro serve`` answers a live stream (a pipe or a terminal) as
lines arrive, with at most ``queue_depth`` requests in flight; input that is
already in memory (a list, ``--requests FILE``, stdin redirected from a
file) is admitted whole, because rejecting it would free no memory.  The
``--async`` flag is accepted and does nothing.
"""

from __future__ import annotations

import io
import json
import os
import select
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.privacy import PrivacyParams
from repro.engine import Server
from repro.relational.relation import Relation
from repro.relational.vectorize import infer_schema, sample_relation

SCHEMA_JSON = '{"gender": "categorical", "gpa": [1.0, 2.0, 3.0, 3.5, 4.0]}'
DATA_CSV = "gender,gpa\n" + "\n".join(
    f"{'M' if i % 2 else 'F'},{1.0 + (i % 30) / 10:.1f}" for i in range(200)
)
MARGINAL = "SELECT COUNT(*) FROM people GROUP BY gender"
FOLLOW_UP = "SELECT COUNT(*) FROM people WHERE gender = 'F'"

#: More distinct tenants than the default live-stream bound of a two-worker
#: server (16 x 2 = 32), so a bound wrongly applied to in-memory input shows.
TENANTS = 100


def _request(tenant: str, sql: str = MARGINAL) -> str:
    return json.dumps({"tenant": tenant, "sql": sql})


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(SCHEMA_JSON)
    data = tmp_path / "people.csv"
    data.write_text(DATA_CSV + "\n")
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "".join(_request(f"t{i}") + "\n" for i in range(TENANTS))
        + _request("t0", FOLLOW_UP)
        + "\n"
    )
    return schema, data, requests


def _serve_argv(schema, data, *extra, workers: int = 2) -> list[str]:
    return [
        "serve", "--schema", str(schema), "--data", str(data),
        "--workers", str(workers), "--seed", "0", *extra,
    ]


def _popen_serve(argv, stdin):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _assert_all_answered(replies, count: int) -> None:
    assert len(replies) == count
    rejected = [reply for reply in replies if reply.get("rejected")]
    assert rejected == []
    assert all("answers" in reply for reply in replies)


@pytest.mark.timeout(120)
def test_live_stream_replies_before_eof(files):
    """A request on an open pipe is answered without waiting for EOF."""
    schema, data, _ = files
    process = _popen_serve(_serve_argv(schema, data), subprocess.PIPE)
    try:
        process.stdin.write(_request("live") + "\n")
        process.stdin.flush()
        ready, _, _ = select.select([process.stdout], [], [], 60.0)
        assert ready, "no reply arrived while stdin was held open"
        reply = json.loads(process.stdout.readline())
        assert reply["tenant"] == "live" and reply["spent"] is not None
        process.stdin.close()
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
        process.stderr.close()


def test_requests_file_is_admitted_whole(files):
    schema, data, requests = files
    out = io.StringIO()
    argv = _serve_argv(schema, data, "--async", "--requests", str(requests))
    assert main(argv, out=out) == 0
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    _assert_all_answered(replies, TENANTS + 1)
    # Per-tenant order held: t0's follow-up reused its own release.
    assert replies[-1]["served_from_release"] and replies[-1]["spent"] is None


@pytest.fixture
def cold_shapes(tmp_path):
    """Distinct range shapes, one per tenant: every request plans cold, so
    a stream bound wrongly applied to a file would reject a backlog."""
    edges = [round(1.0 + 0.05 * i, 2) for i in range(61)]
    schema = tmp_path / "cold_schema.json"
    schema.write_text(json.dumps({"gender": "categorical", "gpa": edges}))
    data = tmp_path / "people.csv"
    data.write_text(DATA_CSV + "\n")
    requests = tmp_path / "cold_requests.jsonl"
    lines = []
    for i in range(60):
        low = 1.0 + 0.05 * (i % 50)
        high = low + 0.5 + 0.3 * (i // 50)
        sql = (
            f"SELECT COUNT(*) FROM people WHERE gpa BETWEEN {low:.2f} AND {high:.2f} "
            "GROUP BY gender"
        )
        lines.append(_request(f"t{i}", sql) + "\n")
    requests.write_text("".join(lines))
    return schema, data, requests, len(lines)


@pytest.mark.timeout(240)
def test_stdin_redirected_from_a_file_is_admitted_whole(cold_shapes):
    schema, data, requests, count = cold_shapes
    for flags in ((), ("--async",)):
        with open(requests) as stdin:
            process = _popen_serve(_serve_argv(schema, data, *flags), stdin)
            stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        replies = [json.loads(line) for line in stdout.splitlines()]
        _assert_all_answered(replies, count)


def test_async_flag_does_nothing(files):
    """``--async`` stays accepted for old callers and changes no reply."""
    schema, data, requests = files
    outputs = []
    for flags in ((), ("--async",)):
        out = io.StringIO()
        # One worker keeps even ``plan_cache_hit`` (which tenant builds the
        # shared plan first) deterministic, so the replies compare whole.
        argv = _serve_argv(schema, data, *flags, "--requests", str(requests), workers=1)
        assert main(argv, out=out) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    _assert_all_answered([json.loads(line) for line in outputs[0].splitlines()], TENANTS + 1)


class TestAdmissionBoundFollowsTheInput:
    LINES = [
        json.dumps({"tenant": f"t{i}", "sql": "SELECT COUNT(*) FROM t GROUP BY color"})
        for i in range(40)
    ]

    @staticmethod
    def _server(**options):
        schema = infer_schema(
            Relation({"color": ["red", "blue"] * 8}), {"color": "categorical"}
        )
        return Server(
            PrivacyParams(2.0, 1e-4),
            schema=schema,
            data=sample_relation(schema, 200, random_state=0),
            workers=2,
            default_epsilon=0.5,
            random_state=0,
            **options,
        )

    def test_in_memory_input_ignores_the_stream_bound(self):
        for method in ("serve", "serve_async"):
            with self._server(queue_depth=0) as server:
                replies = getattr(server, method)(self.LINES)
            _assert_all_answered(replies, len(self.LINES))

    def test_live_stream_is_bounded_by_the_server_queue_depth(self):
        with self._server(queue_depth=0) as server:
            replies = server.serve(iter(self.LINES))
            assert server.stats()["answers_served"] == 0
        assert len(replies) == len(self.LINES)
        for reply in replies:
            assert reply["rejected"] is True and reply["retry_after"] > 0

    def test_explicit_bound_applies_to_in_memory_input(self):
        with self._server() as server:
            replies = server.serve(self.LINES, queue_depth=0)
        assert all(reply["rejected"] is True for reply in replies)
