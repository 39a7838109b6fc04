"""The pluggable array-backend seam (`repro.utils.backend`).

Covers the seam's contract without requiring any optional runtime:

* selection machinery — lazy env init, ``set_backend``/``backend_scope``
  restore, unknown names rejected loudly, the JAX import guard;
* the generic (non-default) kernel paths, driven by a numpy-masquerading
  backend so they run everywhere: ``kron_apply``/``kron_row_block``, the
  batched PCG, Hutch++, the lockstep dual-ascent batch and the server's
  sharded derivation must all match the default path's answers;
* backend identity in the trace-recycler content key — a backend switch
  mid-process must never replay another backend's Krylov state.

When jax *is* installed, the `backend` fixture in conftest.py additionally
runs the dense-oracle suites against it; nothing here depends on that.
"""

import numpy as np
import pytest

import repro.core.error as error_module
import repro.utils.backend as backend_module
from repro.core.privacy import PrivacyParams
from repro.engine import Server
from repro.exceptions import ReproError
from repro.utils.backend import (
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    backend_scope,
    get_backend,
    resolve_backend,
    set_backend,
)
from repro.utils.linalg import hutchpp_trace, pcg_solve
from repro.utils.memo import BoundedMemo
from repro.utils.operators import (
    EigenDiagOperator,
    KroneckerOperator,
    kron_apply,
    kron_row_block,
)
from repro.workloads import all_range_queries


class MirrorBackend(NumpyBackend):
    """Numpy masquerading as a non-default backend.

    ``is_default=False`` forces every kernel down its generic
    (backend-dispatched) path while the arithmetic stays numpy, so the
    generic code is exercised — and oracle-checked — without jax.
    """

    name = "mirror"
    is_default = False


class TestSelection:
    def test_default_is_zero_overhead_numpy(self):
        backend = get_backend()
        assert backend.name == "numpy"
        assert backend.is_default
        assert backend.xp is np
        assert backend.dtype_name == "float64"
        # jit is the identity; vmap is a plain batched loop.
        fn = backend.jit(lambda v: v * 2)
        np.testing.assert_array_equal(fn(np.arange(3)), np.arange(3) * 2)
        batched = backend.vmap(lambda v: v.sum())
        np.testing.assert_array_equal(
            batched(np.arange(6.0).reshape(3, 2)), np.array([1.0, 5.0, 9.0])
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            set_backend("tpu9000")
        # A failed set leaves the active backend untouched.
        assert get_backend().name == "numpy"

    def test_bad_environment_value_raises_not_silently_falls_back(self, monkeypatch):
        monkeypatch.setenv(backend_module.BACKEND_ENV_VAR, "definitely-not-a-backend")
        monkeypatch.setattr(backend_module, "_active_backend", None)
        with pytest.raises(BackendUnavailableError):
            get_backend()

    def test_environment_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(backend_module.BACKEND_ENV_VAR, "numpy")
        monkeypatch.setattr(backend_module, "_active_backend", None)
        assert get_backend().name == "numpy"

    def test_jax_import_guard(self):
        if "jax" in available_backends():
            backend = resolve_backend("jax")
            assert backend.name == "jax" and not backend.is_default
            # x64 on by default: the documented tolerances assume float64.
            assert backend.dtype_name == "float64"
        else:
            with pytest.raises(BackendUnavailableError, match="pip install jax"):
                resolve_backend("jax")

    def test_backend_scope_restores(self):
        before = get_backend()
        with backend_scope(MirrorBackend()) as active:
            assert get_backend() is active
            assert active.name == "mirror"
        assert get_backend() is before

    def test_resolve_backend(self):
        assert resolve_backend(None) is get_backend()
        mirror = MirrorBackend()
        assert resolve_backend(mirror) is mirror
        assert resolve_backend("numpy").name == "numpy"

    def test_available_backends_always_has_numpy_first(self):
        names = available_backends()
        assert names[0] == "numpy"


def random_kron_factors(rng, sizes):
    return [rng.normal(size=(size, size)) for size in sizes]


class TestGenericKernelPaths:
    """The non-default kernel paths must match the default path's answers."""

    def test_kron_apply_matches_default(self, rng):
        factors = random_kron_factors(rng, [3, 4, 2])
        vectors = rng.normal(size=(24, 5))
        expected = kron_apply(factors, vectors)
        with backend_scope(MirrorBackend()):
            mirrored = kron_apply(factors, vectors)
        assert isinstance(mirrored, np.ndarray)
        np.testing.assert_allclose(mirrored, expected, atol=1e-12)
        transposed = kron_apply(factors, vectors, transpose=True)
        with backend_scope(MirrorBackend()):
            mirrored_t = kron_apply(factors, vectors, transpose=True)
        np.testing.assert_allclose(mirrored_t, transposed, atol=1e-12)

    def test_kron_row_block_matches_default(self, rng):
        factors = random_kron_factors(rng, [3, 4])
        indices = np.array([0, 2, 7, 11])
        expected = kron_row_block(factors, indices)
        with backend_scope(MirrorBackend()):
            mirrored = kron_row_block(factors, indices)
        np.testing.assert_allclose(mirrored, expected, atol=1e-12)

    def test_pcg_solve_matches_default(self, rng):
        matrix = rng.normal(size=(40, 40))
        matrix = matrix @ matrix.T + np.eye(40)
        rhs = rng.normal(size=(40, 3))
        oracle = np.linalg.solve(matrix, rhs)
        default_stats, mirror_stats = {}, {}
        solved = pcg_solve(lambda v: matrix @ v, rhs, stats=default_stats)
        with backend_scope(MirrorBackend()):
            mirrored = pcg_solve(lambda v: matrix @ v, rhs, stats=mirror_stats)
        assert isinstance(mirrored, np.ndarray)
        np.testing.assert_allclose(solved, oracle, atol=1e-8)
        np.testing.assert_allclose(mirrored, oracle, atol=1e-8)
        assert mirror_stats["column_iterations"] == default_stats["column_iterations"]

    def test_hutchpp_trace_matches_default(self, rng):
        matrix = rng.normal(size=(30, 30))
        matrix = matrix @ matrix.T + np.eye(30)
        expected = hutchpp_trace(
            lambda v: matrix @ v, 30, samples=24, rng=np.random.default_rng(7)
        )
        with backend_scope(MirrorBackend()):
            mirrored = hutchpp_trace(
                lambda v: matrix @ v, 30, samples=24, rng=np.random.default_rng(7)
            )
        # Probes and sketch basis are always drawn in numpy, so the estimate
        # is backend-independent (up to contraction round-off).
        assert mirrored == pytest.approx(expected, rel=1e-9)

    def test_batched_dual_ascent_matches_default(self, rng):
        from repro.optimize import WeightingProblem
        from repro.optimize.dual_ascent import solve_dual_ascent_batch

        problems = []
        for _ in range(5):
            k, r = 30, int(rng.integers(3, 7))
            constraints = np.abs(rng.normal(size=(k, r)))
            problems.append(
                WeightingProblem(
                    costs=np.abs(rng.normal(size=r)), constraints=constraints
                )
            )
        default = solve_dual_ascent_batch(problems)
        with backend_scope(MirrorBackend()):
            mirrored = solve_dual_ascent_batch(problems)
        for lhs, rhs in zip(default, mirrored):
            assert lhs.iterations == rhs.iterations
            np.testing.assert_allclose(lhs.weights, rhs.weights, atol=1e-12)


class TestRecyclerBackendIdentity:
    def make_pair(self, rng):
        gram = rng.normal(size=(5, 5))
        workload_op = KroneckerOperator([gram.T @ gram], symmetric=True)
        basis = workload_op.eigenbasis()
        strategy_op = EigenDiagOperator(
            basis,
            rng.uniform(0.5, 2.0, size=basis.size),
            rng.uniform(0.1, 1.0, size=basis.size),
        )
        return workload_op, strategy_op

    def test_backend_switch_never_reuses_krylov_state(self, monkeypatch, rng):
        monkeypatch.setattr(
            error_module, "_TRACE_RECYCLERS", BoundedMemo(error_module._TRACE_RECYCLER_LIMIT)
        )
        workload_op, strategy_op = self.make_pair(rng)
        error_module._stochastic_completed_trace(workload_op, strategy_op)
        assert len(error_module._TRACE_RECYCLERS) == 1
        # Same content, different backend name: a fresh recycler, cold start.
        with backend_scope(MirrorBackend()):
            error_module._stochastic_completed_trace(workload_op, strategy_op)
        assert len(error_module._TRACE_RECYCLERS) == 2
        assert not error_module.STOCHASTIC_TRACE_LAST["recycled_sketch"]

    def test_same_backend_still_recycles(self, monkeypatch, rng):
        monkeypatch.setattr(
            error_module, "_TRACE_RECYCLERS", BoundedMemo(error_module._TRACE_RECYCLER_LIMIT)
        )
        workload_op, strategy_op = self.make_pair(rng)
        error_module._stochastic_completed_trace(workload_op, strategy_op)
        error_module._stochastic_completed_trace(workload_op, strategy_op)
        assert len(error_module._TRACE_RECYCLERS) == 1
        assert error_module.STOCHASTIC_TRACE_LAST["recycled_sketch"]


class TestServerBackend:
    def test_stats_mirror_the_backend(self):
        server = Server(PrivacyParams(1.0, 1e-4))
        try:
            assert server.stats()["backend"] == "numpy"
        finally:
            server.close()

    def test_unavailable_backend_fails_at_construction(self):
        with pytest.raises(ReproError):
            Server(PrivacyParams(1.0, 1e-4), backend="not-a-backend")

    def test_sharded_answers_match_unsharded_on_mirror(self, rng):
        workload = all_range_queries([8, 4])
        estimate = rng.normal(size=workload.column_count)
        expected = workload.answer(estimate)
        server = Server(
            PrivacyParams(1.0, 1e-4),
            workers=2,
            shards=2,
            shard_min_rows=1,
            backend=MirrorBackend(),
        )
        try:
            assert server.stats()["backend"] == "mirror"
            sharded = server.sharded_answers(workload, estimate)
        finally:
            server.close()
        np.testing.assert_allclose(sharded, expected, atol=1e-10)


class TestCliBackendFlag:
    def test_missing_jax_exits_cleanly(self, capsys):
        if "jax" in available_backends():
            pytest.skip("jax installed; the unavailable path is not reachable")
        from repro.cli import main

        # Backend validation runs before any file I/O, so dummy paths are
        # never touched.
        code = main(
            [
                "query",
                "--schema",
                "does-not-exist.json",
                "--data",
                "does-not-exist.csv",
                "--sql",
                "SELECT COUNT(*) FROM t",
                "--backend",
                "jax",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "jax" in captured.err
        assert "Traceback" not in captured.err
