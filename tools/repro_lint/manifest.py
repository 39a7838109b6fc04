"""The lock-ownership manifest: one source of truth for docs and enforcement.

Each :class:`LockRule` names a piece of state that crosses session (or
thread) boundaries, the lock that owns it, and the prose for the
architecture document's lock table.  The table in
``docs/architecture.md`` §6 is *generated* from this list
(:func:`render_lock_table`), and ``tools/check_docs.py`` verifies the
rendered table appears verbatim in the document — so the doc and the
enforcement regime cannot drift apart.

Entries with ``attributes`` are mechanically enforced by the
``lock-discipline`` checker: every write to a listed attribute in the
owning module must sit lexically inside ``with <lock>:``.  Entries without
``attributes`` are doc-only — their guard is structural (a re-entrant lock
spanning whole call sequences) and beyond a lexical check, but they still
belong in the table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LockRule:
    #: Row text for the architecture table.
    doc_state: str
    doc_guard: str
    doc_granularity: str
    #: Dotted module owning the state (``None`` for doc-only rows).
    module: str | None = None
    #: Class whose ``self.<attr>`` writes are checked; ``None`` = module
    #: globals (bare-name writes to the listed attributes).
    owner: str | None = None
    #: Attribute / global names whose writes require the lock.
    attributes: tuple[str, ...] = ()
    #: Lock expression that must govern the write (``ast.unparse`` form).
    lock: str | None = None

    @property
    def checkable(self) -> bool:
        return bool(self.module and self.attributes and self.lock)


LOCK_MANIFEST: tuple[LockRule, ...] = (
    LockRule(
        doc_state="`PrivacyAccountant` spent counters",
        doc_guard="the accountant's lock, via atomic `charge`/`refund`",
        doc_granularity="per tenant",
        module="repro.mechanisms.accountant",
        owner="PrivacyAccountant",
        attributes=("spent_epsilon", "spent_delta", "history", "_open_charges"),
        lock="self._lock",
    ),
    LockRule(
        doc_state=(
            "`BoundedMemo` entries + LRU order + counters: the `PlanCache`, the "
            "worker plan memo, the factor-`eigh` memo, the Krylov recycler "
            "registry, each `PreparedStrategy` support memo"
        ),
        doc_guard=(
            "one mutex per memo (`stats` reads are lock-free); values are computed "
            "outside it (`setdefault`: first writer wins); each recycler also has "
            "its own lock for its mutable Krylov state"
        ),
        doc_granularity="per memo",
        module="repro.utils.memo",
        owner="BoundedMemo",
        attributes=("_entries", "hits", "misses", "evictions", "bytes"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="in-flight work: cold plan builds (`Planner`), coalesced requests (`Server`)",
        doc_guard=(
            "`SingleFlight`: one mutex over the key -> future map; the leader runs "
            "outside it and followers share its result or exception"
        ),
        doc_granularity="per workload shape / per request identity",
        module="repro.utils.memo",
        owner="SingleFlight",
        attributes=("_inflight", "leaders", "followers"),
        lock="self._lock",
    ),
    LockRule(
        doc_state=(
            "`Strategy` prepared state (validated matrix, sensitivities, "
            "least-squares solver)"
        ),
        doc_guard="module build lock `_PREPARE_LOCK`: built once, read-only after",
        doc_granularity="per strategy, shared by every session running its cached plan",
        module="repro.core.strategy",
        owner="Strategy",
        attributes=("_prepared",),
        lock="_PREPARE_LOCK",
    ),
    LockRule(
        doc_state="`Session` releases, history, seed stream",
        doc_guard=(
            "per-session re-entrant lock; planning and mechanism execution "
            "run outside it"
        ),
        doc_granularity="per tenant",
    ),
    LockRule(
        doc_state="`ArrivalRecorder` epoch counts + pending store deltas",
        doc_guard="per-recorder lock",
        doc_granularity="per tenant",
        module="repro.engine.forecast",
        owner="ArrivalRecorder",
        attributes=("_counts", "_pending", "recorded"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`ForecastEngine` shape exemplars, recorders, accuracy counters",
        doc_guard="the engine's lock; store writes and pre-planning run outside it",
        doc_granularity="per server",
        module="repro.engine.forecast",
        owner="ForecastEngine",
        attributes=(
            "_recorders",
            "_shapes",
            "_shapes_persisted",
            "_predicted",
            "_mix",
            "_epoch",
            "hits",
            "misses",
            "epochs_rolled",
            "preplan_runs",
            "preplan_failures",
            "_closed",
        ),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`PrePlanner` pre-warm counters",
        doc_guard="per-pre-planner lock (background pre-plans race `tick`)",
        doc_granularity="per server",
        module="repro.engine.forecast",
        owner="PrePlanner",
        attributes=(
            "prewarm_planned",
            "prewarm_already_warm",
            "prewarm_failures",
            "union_preplans",
        ),
        lock="self._lock",
    ),
)


def render_lock_table() -> str:
    """The §6 lock table, exactly as ``docs/architecture.md`` must carry it."""
    rows = ["| shared state | guard | granularity |", "|---|---|---|"]
    for rule in LOCK_MANIFEST:
        rows.append(f"| {rule.doc_state} | {rule.doc_guard} | {rule.doc_granularity} |")
    return "\n".join(rows)


def checkable_rules() -> list[LockRule]:
    return [rule for rule in LOCK_MANIFEST if rule.checkable]
