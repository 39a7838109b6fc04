"""Seeded inputs for the serving benchmark: relation, schema, request streams.

Everything here is a pure function of the workload seed.  The server under
test receives only the files and request lines produced here; the exact
counts the benchmark checks answers against are computed from the
generated rows with NumPy, never through ``repro``.

The relation ``people(age, income, sex)`` is bucketed into 16 age buckets
of 5 years, 16 income buckets of 10 000 and 2 sexes: 512 cells.  Every
request is a bucket-aligned SQL dashboard of 6 statements (98 query rows).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROWS = 100_000
AGE_EDGES = tuple(5 * i for i in range(17))
INCOME_EDGES = tuple(10_000 * i for i in range(17))
SEXES = ("F", "M")
SHAPE = (len(AGE_EDGES) - 1, len(INCOME_EDGES) - 1, len(SEXES))
CELLS = int(np.prod(SHAPE))
TABLE = "people"

#: Per-tenant budget passed to ``serve`` and the privacy slices requests ask
#: for.  A paid dashboard spends ``PAID``; a ``reuse_hot`` tenant spends
#: ``RELEASE`` once on the full table and derives everything else from it.
BUDGET = (1.0, 1e-4)
PAID = (0.1, 1e-6)
RELEASE = (0.5, 1e-5)

WORKLOADS = ("paid_warm", "reuse_hot")
#: ``paid_warm``: dashboard shapes whose plans are built during warm-up.  A
#: build takes 0.15-2.5 s; four per boot keeps three boots per run inside
#: the benchmark's time budget.  The shapes come from the fixed
#: ``SHAPE_SEED``, not the run's seed, and requests cycle through them in
#: seeded order: a few percent of random dashboards get a rank-deficient
#: strategy whose answers take ten times longer, and with per-seed shapes
#: and picks whether (and how often) a run met one decided its p95 latency.
#: The fixed set holds one such shape of 12, so one paid answer in 12 takes
#: the slow path, clear of the 5% that p95 leaves above it.
PAID_SHAPES = 4
SHAPE_SEED = 0
#: ``reuse_hot``: tenants that each buy one full-table release in warm-up
#: (eight independent releases keep the run-to-run spread of the measured
#: error small), and the pool of dashboards they then derive for free.
HOT_TENANTS = 8
HOT_POOL = 256


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), *purpose.encode()])


# ---------------------------------------------------------------- relation
def relation(seed: int, rows: int = ROWS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(age, income, sex)`` integer columns; ``sex`` indexes ``SEXES``."""
    rng = _rng(seed, "relation")
    young = rng.random(rows) < 0.55
    age = np.where(young, rng.normal(30, 9, rows), rng.normal(58, 12, rows))
    age = np.clip(np.rint(age), 0, AGE_EDGES[-1] - 1).astype(np.int64)
    income = rng.lognormal(np.log(25_000 + 700 * age), 0.6)
    income = np.clip(np.rint(income), 0, INCOME_EDGES[-1] - 1).astype(np.int64)
    sex = (rng.random(rows) < 0.47 + 0.002 * age).astype(np.int64)
    return age, income, sex


def histogram(age: np.ndarray, income: np.ndarray, sex: np.ndarray) -> np.ndarray:
    """Exact cell counts, shape ``SHAPE`` (age bucket, income bucket, sex)."""
    cell = (age // AGE_EDGES[1]) * SHAPE[1] * SHAPE[2] + (income // INCOME_EDGES[1]) * SHAPE[2] + sex
    return np.bincount(cell, minlength=CELLS).reshape(SHAPE).astype(float)


def write_inputs(directory: Path, seed: int, rows: int = ROWS) -> tuple[Path, Path, np.ndarray]:
    """Write ``people.csv`` and ``schema.json``; return their paths and the histogram."""
    age, income, sex = relation(seed, rows)
    csv_path = directory / "people.csv"
    body = "\n".join(
        f"{a},{i},{s}" for a, i, s in zip(age.tolist(), income.tolist(), np.array(SEXES)[sex].tolist())
    )
    csv_path.write_text("age,income,sex\n" + body + "\n")
    schema_path = directory / "schema.json"
    schema_path.write_text(
        json.dumps({"age": list(AGE_EDGES), "income": list(INCOME_EDGES), "sex": list(SEXES)})
    )
    return csv_path, schema_path, histogram(age, income, sex)


# --------------------------------------------------------------- dashboards
@dataclass(frozen=True)
class Box:
    """Bucket ranges ``[a0, a1) x [i0, i1)`` over the sexes ``sexes``."""

    a0: int
    a1: int
    i0: int
    i1: int
    sexes: tuple[int, ...] = (0, 1)


# ``serve`` labels a GROUP BY row by its buckets; schema edges are floats.
def _age_label(a: int) -> str:
    return f"age in [{float(AGE_EDGES[a])}, {float(AGE_EDGES[a + 1])})"


def _income_label(i: int) -> str:
    return f"income in [{float(INCOME_EDGES[i])}, {float(INCOME_EDGES[i + 1])})"


def _sex_label(s: int) -> str:
    return f"sex = {SEXES[s]!r}"


@dataclass(frozen=True)
class Dashboard:
    """Six bucket-aligned counting statements; ``params`` fixes every range.

    ``params`` is ``(a0, a1, i0, i1, j0, j1, b0, b1, c0, c1, s, t)``: five
    bucket ranges and two sex indexes.  The full-table dashboard (one
    ``GROUP BY age, income, sex``) has ``params == ()``.
    """

    params: tuple[int, ...]

    def statements(self) -> list[str]:
        if not self.params:
            return [f"SELECT COUNT(*) FROM {TABLE} GROUP BY age, income, sex"]
        a0, a1, i0, i1, j0, j1, b0, b1, c0, c1, s, t = self.params
        where = f"SELECT COUNT(*) FROM {TABLE} WHERE"
        return [
            f"{where} age BETWEEN {AGE_EDGES[a0]} AND {AGE_EDGES[a1]}",
            f"{where} income BETWEEN {INCOME_EDGES[i0]} AND {INCOME_EDGES[i1]} AND sex = '{SEXES[s]}'",
            f"{where} income BETWEEN {INCOME_EDGES[j0]} AND {INCOME_EDGES[j1]} GROUP BY age, sex",
            f"{where} age BETWEEN {AGE_EDGES[b0]} AND {AGE_EDGES[b1]} GROUP BY income, sex",
            f"{where} sex = '{SEXES[t]}' GROUP BY age",
            f"{where} age BETWEEN {AGE_EDGES[c0]} AND {AGE_EDGES[c1]} GROUP BY income",
        ]

    def rows(self) -> list[tuple[str, Box]]:
        """``(label, box)`` per query row, in the order ``serve`` answers them."""
        ages, incomes, sexes = range(SHAPE[0]), range(SHAPE[1]), range(SHAPE[2])
        if not self.params:
            return [
                (f"{_age_label(a)} AND {_income_label(i)} AND {_sex_label(s)}", Box(a, a + 1, i, i + 1, (s,)))
                for a in ages
                for i in incomes
                for s in sexes
            ]
        a0, a1, i0, i1, j0, j1, b0, b1, c0, c1, s, t = self.params
        text = self.statements()
        out = [(text[0], Box(a0, a1, 0, SHAPE[1])), (text[1], Box(0, SHAPE[0], i0, i1, (s,)))]
        out += [(f"{_age_label(a)} AND {_sex_label(x)}", Box(a, a + 1, j0, j1, (x,))) for a in ages for x in sexes]
        out += [(f"{_income_label(i)} AND {_sex_label(x)}", Box(b0, b1, i, i + 1, (x,))) for i in incomes for x in sexes]
        out += [(_age_label(a), Box(a, a + 1, 0, SHAPE[1], (t,))) for a in ages]
        out += [(_income_label(i), Box(c0, c1, i, i + 1)) for i in incomes]
        return out

    def labels(self) -> list[str]:
        return [label for label, _ in self.rows()]

    def exact(self, counts: np.ndarray) -> np.ndarray:
        """Exact answers against the histogram ``counts``."""
        return np.array(
            [counts[b.a0 : b.a1, b.i0 : b.i1, list(b.sexes)].sum() for _, b in self.rows()]
        )

    def matrix(self) -> np.ndarray:
        """The 0/1 query matrix over the cells, for the identity-noise baseline."""
        rows = self.rows()
        out = np.zeros((len(rows), *SHAPE))
        for k, (_, b) in enumerate(rows):
            out[k, b.a0 : b.a1, b.i0 : b.i1, list(b.sexes)] = 1.0
        return out.reshape(len(rows), CELLS)


FULL_TABLE = Dashboard(())


def _range(rng: np.random.Generator, buckets: int) -> tuple[int, int]:
    lo, hi = sorted(rng.choice(buckets + 1, size=2, replace=False).tolist())
    return lo, hi


def dashboards(rng: np.random.Generator, count: int) -> list[Dashboard]:
    """``count`` distinct random dashboards (distinct ranges: distinct workloads)."""
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < count:
        params = (
            *_range(rng, SHAPE[0]), *_range(rng, SHAPE[1]), *_range(rng, SHAPE[1]),
            *_range(rng, SHAPE[0]), *_range(rng, SHAPE[0]),
            int(rng.integers(2)), int(rng.integers(2)),
        )
        seen.setdefault(params)
    return [Dashboard(params) for params in seen]


# ----------------------------------------------------------------- streams
@dataclass(frozen=True)
class Request:
    """One request line and what its reply must look like."""

    key: str
    tenant: str
    dashboard: Dashboard
    epsilon: float
    delta: float
    #: ``True``: must be answered from an earlier release (spends nothing).
    free: bool = False

    def line(self) -> str:
        return json.dumps(
            {
                "tenant": self.tenant,
                "sql": self.dashboard.statements(),
                "epsilon": self.epsilon,
                "delta": self.delta,
                "req": self.key,
            }
        )


@dataclass(frozen=True)
class Stream:
    """A workload: untimed warm-up requests, then the timed request stream."""

    warmup: list[Request]
    timed: list[Request]


def stream(workload: str, seed: int, timed: int, boot: int = 0) -> Stream:
    """The request stream of ``workload``: warm-up plus ``timed`` timed requests.

    Each ``boot`` of the server in one run gets its own stream, with its own
    dashboards and tenants, so the boots of a run sample more shapes and
    draw independent noise.
    """
    rng = _rng(seed, f"{workload}/{boot}")
    prefix = f"b{boot}."
    if workload == "paid_warm":
        shapes = dashboards(_rng(SHAPE_SEED, f"{workload}/{boot}"), PAID_SHAPES)
        warmup = [Request(f"w{k}", f"{prefix}warm{k}", shape, *PAID) for k, shape in enumerate(shapes)]
        cycles = -(-timed // PAID_SHAPES)
        picks = np.concatenate([rng.permutation(PAID_SHAPES) for _ in range(cycles)])[:timed]
        return Stream(
            warmup, [Request(f"t{k}", f"{prefix}paid{k}", shapes[p], *PAID) for k, p in enumerate(picks)]
        )
    if workload == "reuse_hot":
        pool = dashboards(rng, HOT_POOL)
        tenants = [f"{prefix}hot{k}" for k in range(HOT_TENANTS)]
        warmup = [Request(f"w{k}", tenant, FULL_TABLE, *RELEASE) for k, tenant in enumerate(tenants)]
        warmup += [
            Request(f"w{HOT_TENANTS + k}", tenant, pool[k], *RELEASE, free=True)
            for k, tenant in enumerate(tenants)
        ]
        picks = rng.integers(HOT_POOL, size=timed)
        return Stream(
            warmup,
            [
                Request(f"t{k}", tenants[k % HOT_TENANTS], pool[p], *RELEASE, free=True)
                for k, p in enumerate(picks)
            ],
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
