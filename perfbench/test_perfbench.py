"""Tests of the serving benchmark's own code: generator, span arithmetic, checks.

Run with ``python -m pytest perfbench -q``; nothing here starts a server.
"""

from __future__ import annotations

import sqlite3
import threading

import numpy as np
import pytest

import gen
import run
import tracing


# --------------------------------------------------------------- generator
def test_generator_is_deterministic_per_seed(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory in (first, second, other):
        directory.mkdir()
    _, _, counts_a = gen.write_inputs(first, 7)
    _, _, counts_b = gen.write_inputs(second, 7)
    _, _, counts_c = gen.write_inputs(other, 8)
    for name in ("people.csv", "schema.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "people.csv").read_bytes() != (other / "people.csv").read_bytes()
    assert np.array_equal(counts_a, counts_b) and counts_a.sum() == gen.ROWS
    for workload in gen.WORKLOADS:
        a, b = gen.stream(workload, 7, 50), gen.stream(workload, 7, 50)
        lines = [r.line() for r in a.warmup + a.timed]
        assert lines == [r.line() for r in b.warmup + b.timed]
        for other_seed, boot in ((8, 0), (7, 1)):
            other = gen.stream(workload, other_seed, 50, boot)
            assert lines != [r.line() for r in other.warmup + other.timed]
        assert [list(r.dashboard.exact(counts_a)) for r in a.timed] == [
            list(r.dashboard.exact(counts_b)) for r in b.timed
        ]


def test_exact_counts_match_the_rows():
    age, income, sex = gen.relation(3, rows=5_000)
    counts = gen.histogram(age, income, sex)
    dashboard = gen.dashboards(np.random.default_rng(0), 1)[0]
    a0, a1 = dashboard.params[:2]
    expected = np.sum((age >= gen.AGE_EDGES[a0]) & (age < gen.AGE_EDGES[a1]))
    exact = dashboard.exact(counts)
    assert exact[0] == expected
    assert len(exact) == len(dashboard.labels()) == 98
    cells = [(b.a1 - b.a0) * (b.i1 - b.i0) * len(b.sexes) for _, b in dashboard.rows()]
    assert dashboard.matrix().sum(axis=1).tolist() == cells


# ------------------------------------------------------------- span algebra
def _span(name, start, end, parent=-1, tag=None):
    return [name, start, end, parent, tag]


def test_self_time_and_coverage_on_a_hand_built_tree():
    spans = [
        _span(tracing.ROOT, 0.0, 10.0, tag='{"req": "t0"}'),
        _span("session.ask", 1.0, 9.0, 0),
        _span("sql.compile", 1.5, 4.0, 1),
        _span("derive", 5.0, 6.0, 1),
        _span("derive", 6.5, 7.0, 1),
        _span("mechanism.noise", 2.0, 3.0, -1),  # another thread's root: not a request
    ]
    own, roots = tracing.self_times(spans)
    assert own == pytest.approx([2.0, 4.0, 2.5, 1.0, 0.5, 1.0])
    assert roots == [0, 0, 0, 0, 0, 5]
    profile = tracing.request_profile(spans)
    assert list(profile) == ["t0"]
    entry = profile["t0"]
    assert entry["duration"] == pytest.approx(10.0)
    assert entry["covered"] == pytest.approx(8.0)
    assert entry["self"]["derive"] == pytest.approx(1.5)
    assert entry["total"]["session.ask"] == pytest.approx(8.0)
    assert entry["calls"]["derive"] == 2


def test_tracer_nests_per_thread():
    tracer = tracing.Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "inner")

    def outer(line):
        return traced_inner() + traced_inner()

    traced_outer = tracer.wrap(outer, tracing.ROOT, tag_arg=0)
    threads = [threading.Thread(target=traced_outer, args=(f'{{"req": "r{k}"}}',)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    profile = tracing.request_profile(tracer.spans())
    assert sorted(profile) == ["r0", "r1"]
    assert all(entry["calls"] == {tracing.ROOT: 1, "inner": 2} for entry in profile.values())


# ------------------------------------------------------------------ checks
@pytest.fixture(scope="module")
def setting():
    age, income, sex = gen.relation(5, rows=20_000)
    counts = gen.histogram(age, income, sex)
    stream = gen.stream("reuse_hot", 5, 4)
    paid = gen.stream("paid_warm", 5, 4).timed[0]
    return counts, paid, stream.timed[0]


def _reply(request, counts, **changes):
    exact = request.dashboard.exact(counts)
    reply = {
        "tenant": request.tenant,
        "labels": request.dashboard.labels(),
        "answers": list(exact + np.random.default_rng(0).normal(0, 1, len(exact))),
        "spent": None if request.free else {"epsilon": request.epsilon, "delta": request.delta},
        "served_from_release": request.free,
    }
    reply.update(changes)
    return run.Exchange(request, reply, 0.1)


def test_good_replies_pass(setting):
    counts, paid, free = setting
    exchanges = [_reply(paid, counts), _reply(free, counts)]
    assert run.check_replies(exchanges) == []
    rmse, identity, bound = run.error_stats(exchanges, counts)
    assert rmse < identity < bound


@pytest.mark.parametrize(
    "which, changes",
    [
        ("paid", {"labels": ["only one"]}),
        ("paid", {"answers": [1.0]}),
        ("paid", {"spent": {"epsilon": 0.2, "delta": 1e-6}}),
        ("paid", {"error": "boom", "refused": True}),
        ("free", {"served_from_release": False}),
        ("free", {"spent": {"epsilon": 0.5, "delta": 1e-5}}),
    ],
)
def test_doctored_reply_trips_a_check(setting, which, changes):
    counts, paid, free = setting
    request = paid if which == "paid" else free
    assert run.check_replies([_reply(request, counts, **changes)])


def test_error_above_the_identity_baseline_trips(setting):
    counts, paid, _ = setting
    good = _reply(paid, counts)
    bad = _reply(paid, counts, answers=list(np.asarray(good.reply["answers"]) + 1e4))
    rmse, _, bound = run.error_stats([bad], counts)
    assert rmse > bound


def _ledger(path, rows):
    connection = sqlite3.connect(path)
    connection.execute(
        "CREATE TABLE ledger (tenant TEXT, label TEXT, epsilon REAL, delta REAL, state TEXT)"
    )
    connection.executemany("INSERT INTO ledger VALUES (?, '', ?, ?, ?)", rows)
    connection.commit()
    connection.close()


def test_ledger_checks(tmp_path):
    fine = tmp_path / "fine.db"
    _ledger(fine, [("a", 0.5, 1e-5, "SPENT"), ("a", 0.9, 1e-5, "VOIDED"), ("b", 1.0, 1e-4, "SPENT")])
    assert run.check_ledger(fine, {"a": 1, "b": 1}) == []
    over = tmp_path / "over.db"
    _ledger(over, [("a", 0.6, 1e-5, "SPENT"), ("a", 0.6, 1e-5, "PENDING")])
    assert any("over budget" in p for p in run.check_ledger(over, {"a": 1}))
    assert run.check_ledger(fine, {"a": 2, "b": 1})


def test_stats_line_check(setting):
    counts, paid, _ = setting
    exchanges = [_reply(paid, counts)]
    line = "[served 1 answers for 1 tenant(s); plan cache: {'entries': 1, 'hits': 0, 'misses': 1, 'evictions': 0, 'warmed': 0}]"
    assert run.check_stats(line, exchanges) == []
    assert run.plan_cache_stats(line)["misses"] == 1
    assert run.check_stats(line.replace("served 1", "served 2"), exchanges)
    assert run.check_stats("garbage", exchanges)
