import numpy as np
import pytest

from pacok import stepping
from pacok.errors import BlowupError, ConfigError, EnergyIncreaseError, MppViolationError
from pacok.experiments import run_with_snapshots
from pacok.grid import GridField, PeriodicGrid
from pacok.physics import (
    FKind,
    ModelParams,
    NonlinearSpec,
    W_prime,
    f_eval,
    f_prime,
)
from pacok.spectral import LongRangeOp, estimate_linf_norm
from pacok.stepping import (
    ConditionReport,
    SchemeState,
    check_conditions,
    run,
    step,
)

from test_spectral import dense_laplacian

CUBIC = NonlinearSpec(FKind.CUBIC_HERMITE)
LINEAR = NonlinearSpec(FKind.LINEAR)


def dense_step_oracle(phi, params, spec, op_is_inverse_laplacian=True):
    """Reference step: dense stencil matrix, dense pseudo-inverse, direct solve."""
    g = phi.grid
    L = dense_laplacian(g)
    G = np.linalg.pinv(-L)
    v = phi.values.ravel()
    tau, eps = params.tau, params.epsilon
    rhs = (1 + tau * params.kappa / eps) * v - (tau / eps) * W_prime(v)
    mismatch = f_eval(CUBIC, v) - params.omega
    if op_is_inverse_laplacian:
        rhs -= tau * params.gamma * (G @ mismatch) * f_prime(CUBIC, v)
    vol = g.cell_measure * np.sum(mismatch)
    rhs -= tau * params.M * vol * f_prime(CUBIC, v)
    A = (1 + tau * params.kappa / eps) * np.eye(g.num_cells) - tau * eps * L
    return np.linalg.solve(A, rhs).reshape(g.shape)


class TestCheckConditions:
    def test_local_only_arithmetic(self):
        # gamma = M = 0, eps = 0.1, tau = 1e-3: bounds rhs = 360 < 1/tau = 1000,
        # so kappa = 0 already certifies the bounds.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        r = check_conditions(p, CUBIC, LongRangeOp.inverse_laplacian(), g)
        assert r.mpp_rhs == pytest.approx(360.0)
        assert r.mpp_lhs == pytest.approx(1000.0)
        assert r.mpp_ok
        assert r.kappa_min_mpp == 0.0

    def test_energy_needs_kappa_36(self):
        # gamma = M = 0: energy condition reduces to kappa >= L_W'' = 36.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        r = check_conditions(p, CUBIC, LongRangeOp.inverse_laplacian(), g)
        assert r.kappa_min_es == pytest.approx(36.0)
        assert not r.es_ok
        p36 = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=36.0, tau=1e-3)
        assert check_conditions(p36, CUBIC, LongRangeOp.inverse_laplacian(), g).es_ok

    def test_paper_2d_setup_reported_consistently(self):
        # omega = 0.15, gamma = 1000, M = 1e4, |T^2| = 4, kappa = 2000: the
        # checker decides from the computed operator norm; whatever it
        # reports must be internally consistent.
        g = PeriodicGrid((64, 64), (1.0, 1.0))
        p = ModelParams(epsilon=0.078125, gamma=1000.0, M=1e4, omega=0.15, kappa=2000.0, tau=2e-4)
        r = check_conditions(p, CUBIC, LongRangeOp.inverse_laplacian(), g)
        assert p.omega_tilde == 0.85
        assert r.mpp_ok == (r.mpp_lhs >= r.mpp_rhs)
        assert r.es_ok == (r.es_lhs >= r.es_rhs)
        expected_rhs = 36.0 / p.epsilon + 0.85 * 6.0 * (1000.0 * r.op_norm + 1e4 * 4.0)
        assert r.mpp_rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_es_implies_mpp(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = ModelParams(
                epsilon=rng.uniform(0.05, 0.5),
                gamma=rng.uniform(0.0, 500.0),
                M=rng.uniform(0.0, 2000.0),
                omega=rng.uniform(0.05, 0.95),
                kappa=rng.uniform(0.0, 5000.0),
                tau=10.0 ** rng.uniform(-4, -2),
            )
            r = check_conditions(p, CUBIC, LongRangeOp.inverse_laplacian(), g)
            if r.es_ok:
                assert r.mpp_ok

    def test_linear_f_never_certified(self):
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=1e6, tau=1e-3)
        r = check_conditions(p, LINEAR, LongRangeOp.inverse_laplacian(), g)
        assert not r.mpp_ok and not r.es_ok
        assert r.es_lhs >= r.es_rhs  # arithmetic alone would pass

    def test_solvation_conditions_use_potential_norm(self):
        g = PeriodicGrid((64,), (5.0,))
        p = ModelParams(epsilon=0.5, gamma=0.0, M=0.0, omega=0.5, kappa=2000.0, tau=1e-4)
        u = GridField.constant(g, -7.0)
        r = check_conditions(p, CUBIC, LongRangeOp.none(), g, potential=u)
        assert r.op_norm == 7.0
        assert r.mpp_rhs == pytest.approx(36.0 / 0.5 + 6.0 * 7.0)
        assert r.mpp_ok and r.es_ok


class TestStep:
    def make_params(self, **kwargs):
        base = dict(epsilon=0.1, gamma=100.0, M=50.0, omega=0.3, kappa=100.0, tau=1e-3)
        base.update(kwargs)
        return ModelParams(**base)

    def test_pure_phases_are_fixed_points(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        p = self.make_params()
        op = LongRangeOp.inverse_laplacian()
        for c in (0.0, 1.0):
            s0 = SchemeState.initial(GridField.constant(g, c))
            s1 = step(s0, p, CUBIC, op)
            assert np.max(np.abs(s1.phi.values - c)) <= 1e-13
            assert s1.step_index == 1
            assert s1.time == pytest.approx(p.tau)

    def test_half_is_fixed_without_interactions(self):
        g = PeriodicGrid((32,), (1.0,))
        p = self.make_params(gamma=0.0, M=0.0)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        s1 = step(s0, p, CUBIC, LongRangeOp.inverse_laplacian())
        assert np.max(np.abs(s1.phi.values - 0.5)) <= 1e-14

    def test_matches_dense_oracle_8x8(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        p = self.make_params()
        op = LongRangeOp.inverse_laplacian()
        rng = np.random.default_rng(55)
        for _ in range(5):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            expected = dense_step_oracle(phi, p, CUBIC)
            got = step(SchemeState.initial(phi), p, CUBIC, op)
            assert np.max(np.abs(got.phi.values - expected)) <= 1e-10

    def test_deterministic(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        p = self.make_params()
        rng = np.random.default_rng(56)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        op = LongRangeOp.inverse_laplacian()
        a = step(SchemeState.initial(phi), p, CUBIC, op)
        b = step(SchemeState.initial(phi), p, CUBIC, op)
        assert np.array_equal(a.phi.values, b.phi.values)

    def test_blowup_names_step_index(self):
        g = PeriodicGrid((16,), (1.0,))
        p = self.make_params(epsilon=1e-8, tau=10.0, kappa=0.0, gamma=0.0, M=0.0)
        rng = np.random.default_rng(57)
        state = SchemeState.initial(GridField(g, rng.uniform(0.4, 0.6, size=g.shape)))
        with pytest.raises(BlowupError) as exc_info:
            for _ in range(10_000):
                state = step(state, p, CUBIC, LongRangeOp.inverse_laplacian())
        assert str(exc_info.value.step_index) in str(exc_info.value)


class TestRun:
    def test_consistent_constant_stops_immediately(self):
        # omega = 0.5 makes phi = 0.5 an exact equilibrium: f(0.5) = 0.5 and
        # W'(0.5) = 0, so the first increment is 0 and the stopping
        # criterion fires at the first check.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.5, kappa=100.0, tau=1e-3)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        final, records = run(s0, p, CUBIC, LongRangeOp.inverse_laplacian(), t_max=1.0, tol=1e-3)
        assert final.step_index == 1
        assert final.last_increment_linf <= 1e-14
        assert records[0].n == 0 and records[-1].n == 1

    def test_records_and_time_grid(self):
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.2, gamma=10.0, M=10.0, omega=0.3, kappa=50.0, tau=1e-2)
        rng = np.random.default_rng(58)
        s0 = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        final, records = run(s0, p, CUBIC, LongRangeOp.inverse_laplacian(), t_max=0.1, tol=0.0)
        assert final.step_index == 10
        assert final.time == pytest.approx(0.1)
        assert [r.n for r in records] == list(range(11))
        assert records[3].t == pytest.approx(3 * p.tau)

    def test_record_cadence(self):
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.2, gamma=10.0, M=10.0, omega=0.3, kappa=50.0, tau=1e-2)
        rng = np.random.default_rng(59)
        s0 = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        _, records = run(
            s0, p, CUBIC, LongRangeOp.inverse_laplacian(), t_max=0.1, tol=0.0, record_every=4
        )
        assert [r.n for r in records] == [0, 4, 8, 10]

    def test_mpp_battery_small(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        op_norm = estimate_linf_norm(op, g)
        eps, tau, gamma, M, omega = 0.1, 1e-3, 100.0, 100.0, 0.3
        rhs = 36.0 / eps + max(omega, 1 - omega) * 6.0 * (gamma * op_norm + M * g.measure)
        kappa = max(0.0, eps * (rhs - 1.0 / tau)) + 1.0
        p = ModelParams(epsilon=eps, gamma=gamma, M=M, omega=omega, kappa=kappa, tau=tau)
        r = check_conditions(p, CUBIC, op, g)
        assert r.mpp_ok
        rng = np.random.default_rng(60)
        for trial in range(10):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            final, records = run(state, p, CUBIC, op, t_max=20 * tau, tol=0.0, report=r)
            assert all(-1e-10 <= rec.phi_min and rec.phi_max <= 1 + 1e-10 for rec in records)

    def test_energy_decay_battery_small(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        p0 = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3)
        r0 = check_conditions(p0, CUBIC, op, g)
        p = ModelParams(
            epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=r0.kappa_min_es + 1.0, tau=1e-3
        )
        r = check_conditions(p, CUBIC, op, g)
        assert r.es_ok
        rng = np.random.default_rng(61)
        for trial in range(5):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            final, records = run(state, p, CUBIC, op, t_max=20 * p.tau, tol=0.0, report=r)
            energies = [rec.energy for rec in records]
            for a, b in zip(energies, energies[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_negative_control_linear_f_escapes(self):
        # kappa = 0 with tau/eps large violates the bounds condition; with
        # the linear indicator the volume penalty keeps pushing at the pure
        # phases and random initials leave [0, 1] by more than 1e-3.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.02, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=2e-2)
        op = LongRangeOp.inverse_laplacian()
        r = check_conditions(p, LINEAR, op, g)
        assert not r.mpp_ok
        rng = np.random.default_rng(62)
        worst = 0.0
        for trial in range(20):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            try:
                state, records = run(state, p, LINEAR, op, t_max=50 * p.tau, tol=0.0, report=r)
                lo = min(rec.phi_min for rec in records)
                hi = max(rec.phi_max for rec in records)
            except BlowupError:
                worst = np.inf
                break
            worst = max(worst, -lo, hi - 1.0)
        assert worst > 1e-3

    def test_monitor_raises_on_forced_violation(self):
        # A report that (falsely) certifies the bounds for violating
        # parameters must trigger the hard monitor failure.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.02, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=2e-2)
        op = LongRangeOp.inverse_laplacian()
        honest = check_conditions(p, CUBIC, op, g)
        assert not honest.mpp_ok
        forged = ConditionReport(
            op_norm=honest.op_norm,
            mpp_lhs=honest.mpp_lhs,
            mpp_rhs=honest.mpp_rhs,
            mpp_ok=True,
            es_lhs=honest.es_lhs,
            es_rhs=honest.es_rhs,
            es_ok=False,
            kappa_min_mpp=honest.kappa_min_mpp,
            kappa_min_es=honest.kappa_min_es,
            continuous_mpp_lhs=honest.continuous_mpp_lhs,
            continuous_mpp_ok=False,
        )
        rng = np.random.default_rng(63)
        state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        with pytest.raises(MppViolationError):
            run(state, p, CUBIC, op, t_max=100 * p.tau, tol=0.0, report=forged)

    def test_rejects_bad_arguments(self):
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        with pytest.raises(ConfigError):
            run(s0, p, CUBIC, LongRangeOp.none(), t_max=0.0)
        with pytest.raises(ConfigError):
            run(s0, p, CUBIC, LongRangeOp.none(), t_max=1.0, record_every=0)

    def test_nonfinite_energy_is_blowup(self):
        # A finite field whose energy overflows: W(P) ~ P^4 is inf at 1e90.
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=10.0, M=10.0, omega=0.3, kappa=50.0, tau=1e-2)
        s0 = SchemeState.initial(GridField.constant(g, 1e90))
        with pytest.raises(BlowupError, match="energy") as exc_info:
            run(s0, p, CUBIC, LongRangeOp.inverse_laplacian(), t_max=0.1, tol=0.0)
        assert exc_info.value.step_index == 0


class TestResumedRun:
    """run_with_snapshots runs one segment per snapshot time."""

    @staticmethod
    def certified_setup():
        g = PeriodicGrid((32,), (1.0,))
        op = LongRangeOp.inverse_laplacian()
        p0 = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3)
        kappa = check_conditions(p0, CUBIC, op, g).kappa_min_es + 1.0
        p = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=kappa, tau=1e-3)
        report = check_conditions(p, CUBIC, op, g)
        assert report.es_ok
        rng = np.random.default_rng(64)
        state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        return state, p, op, report

    def run_segments(self, state, p, op, report):
        return run_with_snapshots(
            state, p, CUBIC, op, t_end=10 * p.tau, tol=0.0,
            snapshot_times=(5 * p.tau,), record_every=1, report=report,
        )

    def test_segments_record_like_one_run(self):
        state, p, op, report = self.certified_setup()
        _, segmented = self.run_segments(state, p, op, report)
        _, whole = run(state, p, CUBIC, op, t_max=10 * p.tau, tol=0.0, report=report)
        assert segmented == whole

    def test_energy_rise_after_a_snapshot_raises(self, monkeypatch):
        # Replace the field after the first step of the second segment by a
        # grid-scale oscillation inside [0, 1]: the energy jumps while the
        # bounds hold, so only the decay check across the snapshot sees it.
        state, p, op, report = self.certified_setup()
        real_step = stepping.step
        rough = np.where(np.arange(state.phi.grid.sizes[0]) % 2 == 0, 0.0, 1.0)

        def step_with_rise(state, *args, **kwargs):
            new = real_step(state, *args, **kwargs)
            if new.step_index == 6:
                new = stepping.SchemeState(
                    GridField(new.phi.grid, rough), new.step_index, new.time,
                    new.last_increment_linf,
                )
            return new

        monkeypatch.setattr(stepping, "step", step_with_rise)
        with pytest.raises(EnergyIncreaseError, match="step 6"):
            self.run_segments(state, p, op, report)
