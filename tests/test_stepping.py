import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacok import experiments, stepping
from pacok.energy import problem_energy
from pacok.errors import (
    BlowupError, ConfigError, EnergyIncreaseError, GridMismatchError, MppViolationError,
)
from pacok.config import RunConfig
from pacok.experiments import coarsening_preset, initial_random_piecewise, run_config
from pacok.grid import GridField, PeriodicGrid
from pacok.physics import FKind, ModelParams, NonlinearSpec, Problem
from pacok.spectral import LongRangeOp, impulse_response_norm, multiplier_array
from pacok.stepping import (
    ConditionReport,
    SchemeState,
    StepRecord,
    check_conditions,
    run,
    step,
    steps_to,
)

from oracles import W_prime, f_eval, f_prime
from test_spectral import dense_laplacian, random_even_table, table_from_dict

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
        r = check_conditions(Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()))
        assert r.mpp_rhs == pytest.approx(360.0)
        assert r.mpp_lhs == pytest.approx(1000.0)
        assert r.mpp_ok
        assert r.kappa_min_mpp == 0.0

    def test_energy_needs_kappa_36(self):
        # gamma = M = 0: energy condition reduces to kappa >= L_W'' = 36.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        r = check_conditions(Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()))
        assert r.kappa_min_es == pytest.approx(36.0)
        assert not r.es_ok
        p36 = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=36.0, tau=1e-3)
        assert check_conditions(Problem(g, p36, CUBIC, LongRangeOp.inverse_laplacian())).es_ok

    def test_paper_2d_setup_reported_consistently(self):
        # omega = 0.15, gamma = 1000, M = 1e4, |T^2| = 4, kappa = 2000: the
        # checker decides from the computed operator norm; whatever it
        # reports must be internally consistent.
        g = PeriodicGrid((64, 64), (1.0, 1.0))
        p = ModelParams(epsilon=0.078125, gamma=1000.0, M=1e4, omega=0.15, kappa=2000.0, tau=2e-4)
        r = check_conditions(Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()))
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
            r = check_conditions(Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()))
            if r.es_ok:
                assert r.mpp_ok

    def test_linear_f_never_certified(self):
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=1e6, tau=1e-3)
        r = check_conditions(Problem(g, p, LINEAR, LongRangeOp.inverse_laplacian()))
        assert not r.mpp_ok and not r.es_ok
        assert r.es_lhs >= r.es_rhs  # arithmetic alone would pass

    def test_solvation_conditions_use_potential_norm(self):
        g = PeriodicGrid((64,), (5.0,))
        p = ModelParams(epsilon=0.5, gamma=0.0, M=0.0, omega=0.5, kappa=2000.0, tau=1e-4)
        u = GridField.constant(g, -7.0)
        r = check_conditions(Problem(g, p, CUBIC, LongRangeOp.none(), u.values))
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
            s1 = step(s0, Problem(g, p, CUBIC, op))
            assert np.max(np.abs(s1.phi.values - c)) <= 1e-13
            assert s1.step_index == 1
            assert s1.time == pytest.approx(p.tau)

    def test_half_is_fixed_without_interactions(self):
        g = PeriodicGrid((32,), (1.0,))
        p = self.make_params(gamma=0.0, M=0.0)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        s1 = step(s0, Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()))
        assert np.max(np.abs(s1.phi.values - 0.5)) <= 1e-14

    def test_matches_dense_oracle_8x8(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        p = self.make_params()
        op = LongRangeOp.inverse_laplacian()
        rng = np.random.default_rng(55)
        for _ in range(5):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            expected = dense_step_oracle(phi, p, CUBIC)
            got = step(SchemeState.initial(phi), Problem(g, p, CUBIC, op))
            assert np.max(np.abs(got.phi.values - expected)) <= 1e-10

    def test_deterministic(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        p = self.make_params()
        rng = np.random.default_rng(56)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        op = LongRangeOp.inverse_laplacian()
        a = step(SchemeState.initial(phi), Problem(g, p, CUBIC, op))
        b = step(SchemeState.initial(phi), Problem(g, p, CUBIC, op))
        assert np.array_equal(a.phi.values, b.phi.values)

    def test_blowup_names_step_index(self):
        g = PeriodicGrid((16,), (1.0,))
        p = self.make_params(epsilon=1e-8, tau=10.0, kappa=0.0, gamma=0.0, M=0.0)
        rng = np.random.default_rng(57)
        state = SchemeState.initial(GridField(g, rng.uniform(0.4, 0.6, size=g.shape)))
        problem = Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian())
        with pytest.raises(BlowupError) as exc_info:
            for _ in range(10_000):
                state = step(state, problem)
        assert str(exc_info.value.step_index) in str(exc_info.value)

    def test_rejects_a_state_on_another_grid_than_the_problem(self):
        p = self.make_params()
        op = LongRangeOp.inverse_laplacian()
        state = SchemeState.initial(GridField.constant(PeriodicGrid((16,), (1.0,)), 0.3))
        for other in (PeriodicGrid((32,), (1.0,)), PeriodicGrid((16,), (2.0,))):
            with pytest.raises(GridMismatchError):
                step(state, Problem(other, p, CUBIC, op))

    @pytest.mark.parametrize(
        "op", [LongRangeOp.inverse_laplacian(), LongRangeOp.none()]
    )
    def test_shared_problem_never_writes_a_returned_state(self, op):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        p = self.make_params()
        rng = np.random.default_rng(58)
        problem = Problem(g, p, CUBIC, op)
        first = step(SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, g.shape))), problem)
        saved = first.phi.values.copy()
        state = first
        for _ in range(3):
            state = step(state, problem)
        assert not first.phi.values.flags.writeable
        assert np.array_equal(first.phi.values, saved)
        again = step(first, Problem(g, p, CUBIC, op))   # a fresh problem gives the same step
        assert np.array_equal(again.phi.values, step(first, problem).phi.values)


class TestStepMemory:
    """A step allocates, of grid size, only the field its state owns."""

    @staticmethod
    def setup(n):
        if n == 256:
            preset = coarsening_preset("g1000_2d", "paper")
            g, p = preset.build_grid(), preset.build_params()
        else:
            g = PeriodicGrid((n, n), (1.0, 1.0))
            p = ModelParams(epsilon=0.15625, gamma=200.0, M=1000.0, omega=0.3,
                            kappa=4500.0, tau=1e-3)
        return SchemeState.initial(initial_random_piecewise(g, 0.0, 0.8, 8, seed=3)), p

    @pytest.mark.parametrize("n", [128, 256])
    def test_step_after_the_first_peaks_below_1_05_fields(self, n, monkeypatch):
        # The new field; the spectra and every transform's scratch are the
        # problem's.  run makes only its first step through step, so this
        # measures step itself, called with the run's problem.
        state0, p = self.setup(n)
        op = LongRangeOp.inverse_laplacian()
        real_step = stepping.step
        growth = []

        def measured_step(state, problem):
            new = real_step(state, problem)
            if new.step_index == 1:
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    real_step(new, problem)
                    growth.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
                new = real_step(state, problem)   # the problem holds step 1 again
            return new

        monkeypatch.setattr(stepping, "step", measured_step)
        run(state0, Problem(state0.phi.grid, p, CUBIC, op), t_max=2 * p.tau, tol=0.0)
        field_bytes = 8 * n * n
        assert len(growth) == 1
        assert growth[0] <= 1.05 * field_bytes


class TestRun:
    def test_consistent_constant_stops_immediately(self):
        # omega = 0.5 makes phi = 0.5 an exact equilibrium: f(0.5) = 0.5 and
        # W'(0.5) = 0, so the first increment is 0 and the stopping
        # criterion fires at the first check.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.5, kappa=100.0, tau=1e-3)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        final, records = run(s0, Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()), t_max=1.0,
                             tol=1e-3)
        assert final.step_index == 1
        assert final.last_increment_linf <= 1e-14
        assert records[0].n == 0 and records[-1].n == 1

    def test_records_and_time_grid(self):
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.2, gamma=10.0, M=10.0, omega=0.3, kappa=50.0, tau=1e-2)
        rng = np.random.default_rng(58)
        s0 = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        final, records = run(s0, Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()), t_max=0.1,
                             tol=0.0)
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
            s0, Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()), t_max=0.1, tol=0.0,
            record_every=4,
        )
        assert [r.n for r in records] == [0, 4, 8, 10]

    def test_mpp_battery_small(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        op_norm = impulse_response_norm(multiplier_array(op, g), g)
        eps, tau, gamma, M, omega = 0.1, 1e-3, 100.0, 100.0, 0.3
        rhs = 36.0 / eps + max(omega, 1 - omega) * 6.0 * (gamma * op_norm + M * g.measure)
        kappa = max(0.0, eps * (rhs - 1.0 / tau)) + 1.0
        p = ModelParams(epsilon=eps, gamma=gamma, M=M, omega=omega, kappa=kappa, tau=tau)
        problem = Problem(g, p, CUBIC, op)
        r = check_conditions(problem)
        assert r.mpp_ok
        rng = np.random.default_rng(60)
        for trial in range(10):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            final, records = run(state, problem, t_max=20 * tau, tol=0.0)
            assert all(-1e-10 <= rec.phi_min and rec.phi_max <= 1 + 1e-10 for rec in records)

    def test_energy_decay_battery_small(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        p0 = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3)
        r0 = check_conditions(Problem(g, p0, CUBIC, op))
        p = ModelParams(
            epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=r0.kappa_min_es + 1.0, tau=1e-3
        )
        problem = Problem(g, p, CUBIC, op)
        r = check_conditions(problem)
        assert r.es_ok
        rng = np.random.default_rng(61)
        for trial in range(5):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            final, records = run(state, problem, t_max=20 * p.tau, tol=0.0)
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
        problem = Problem(g, p, LINEAR, op)
        r = check_conditions(problem)
        assert not r.mpp_ok
        rng = np.random.default_rng(62)
        worst = 0.0
        for trial in range(20):
            state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
            try:
                state, records = run(state, problem, t_max=50 * p.tau, tol=0.0)
                lo = min(rec.phi_min for rec in records)
                hi = max(rec.phi_max for rec in records)
            except BlowupError:
                worst = np.inf
                break
            worst = max(worst, -lo, hi - 1.0)
        assert worst > 1e-3

    def test_monitor_raises_on_forced_violation(self, monkeypatch):
        # A report that (falsely) certifies the bounds for violating
        # parameters must trigger the hard monitor failure.
        g = PeriodicGrid((32,), (1.0,))
        p = ModelParams(epsilon=0.02, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=2e-2)
        op = LongRangeOp.inverse_laplacian()
        problem = Problem(g, p, CUBIC, op)
        honest = check_conditions(problem)
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
        monkeypatch.setattr(stepping, "check_conditions", lambda _: forged)
        with pytest.raises(MppViolationError):
            run(state, problem, t_max=100 * p.tau, tol=0.0)

    def test_rejects_bad_arguments(self):
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        s0 = SchemeState.initial(GridField.constant(g, 0.5))
        with pytest.raises(ConfigError):
            run(s0, Problem(g, p, CUBIC, LongRangeOp.none()), t_max=0.0)
        with pytest.raises(ConfigError):
            run(s0, Problem(g, p, CUBIC, LongRangeOp.none()), t_max=1.0, record_every=0)

    def test_rejects_a_start_on_another_grid_than_the_problem(self, monkeypatch):
        # The grids are compared before row 0, so no energy is taken.
        monkeypatch.setattr(stepping, "problem_energy", None)
        p = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.3, kappa=0.0, tau=1e-3)
        s0 = SchemeState.initial(GridField.constant(PeriodicGrid((16,), (1.0,)), 0.5))
        for other in (PeriodicGrid((32,), (1.0,)), PeriodicGrid((16,), (2.0,))):
            with pytest.raises(GridMismatchError):
                run(s0, Problem(other, p, CUBIC, LongRangeOp.inverse_laplacian()), t_max=0.01)

    def test_nonfinite_energy_is_blowup(self):
        # A finite field whose energy overflows: W(P) ~ P^4 is inf at 1e90.
        g = PeriodicGrid((16,), (1.0,))
        p = ModelParams(epsilon=0.1, gamma=10.0, M=10.0, omega=0.3, kappa=50.0, tau=1e-2)
        s0 = SchemeState.initial(GridField.constant(g, 1e90))
        with pytest.raises(BlowupError, match="energy") as exc_info:
            run(s0, Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian()), t_max=0.1, tol=0.0)
        assert exc_info.value.step_index == 0


def certified_config(**changes):
    """A 1D config to T = 10 tau whose run certifies both bounds and energy decay."""
    cfg = RunConfig(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3,
                    N=(32,), T=0.01, tol=0.0, **changes)
    kappa = check_conditions(cfg.build_problem(cfg.build_grid())).kappa_min_es + 1.0
    cfg = dataclasses.replace(cfg, kappa=kappa)
    report = check_conditions(cfg.build_problem(cfg.build_grid()))
    assert report.mpp_ok and report.es_ok
    return cfg


class TestResumedRun:
    """A run makes one pass; a snapshot time does not break it."""

    @staticmethod
    def certified_setup():
        g = PeriodicGrid((32,), (1.0,))
        op = LongRangeOp.inverse_laplacian()
        p0 = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3)
        kappa = check_conditions(Problem(g, p0, CUBIC, op)).kappa_min_es + 1.0
        p = ModelParams(epsilon=0.1, gamma=100.0, M=100.0, omega=0.3, kappa=kappa, tau=1e-3)
        problem = Problem(g, p, CUBIC, op)
        assert check_conditions(problem).es_ok
        rng = np.random.default_rng(64)
        state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        return state, p, op, problem

    def run_segments(self, state, p, problem):
        return run(state, problem, t_max=10 * p.tau, tol=0.0, snapshot_times=(5 * p.tau,),
                   on_snapshot=lambda snap: None)

    def test_segments_record_like_one_run(self):
        state, p, op, problem = self.certified_setup()
        _, segmented = self.run_segments(state, p, problem)
        _, whole = run(state, problem, t_max=10 * p.tau, tol=0.0)
        assert segmented == whole

    def test_energy_rise_after_a_snapshot_raises(self, monkeypatch):
        # Replace the field that step 6, the first after the snapshot at
        # step 5, produced by a grid-scale oscillation inside [0, 1]: the
        # energy jumps while the bounds hold, so only the decay check sees
        # it.  Step 6 is the kernel's sixth Problem.advance call (the first
        # is step 1, made through step).
        state, p, op, problem = self.certified_setup()
        real_advance = Problem.advance
        rough = np.where(np.arange(state.phi.grid.sizes[0]) % 2 == 0, 0.0, 1.0)
        calls = []

        def advance_with_rise(problem, s, out):
            increment = real_advance(problem, s, out)
            calls.append(out)
            if len(calls) == 6:
                out[...] = rough
                problem.forward(out, problem.phi_hat)
                problem.load(out)
            return increment

        monkeypatch.setattr(Problem, "advance", advance_with_rise)
        with pytest.raises(EnergyIncreaseError, match="step 6:"):
            self.run_segments(state, p, problem)
        assert len(calls) == 6

    def test_one_problem_and_one_run_call(self, monkeypatch, tmp_path):
        tau = 1e-3
        cfg = certified_config(snapshot_times=(0.0, 3 * tau, 5 * tau, 7 * tau), monitor_every=4)
        built, runs = [], []
        real_init, real_run = Problem.__init__, experiments.run

        def counting_init(problem, *args, **kwargs):
            built.append(problem)
            real_init(problem, *args, **kwargs)

        def counting_run(*args, **kwargs):
            runs.append(kwargs["snapshot_times"])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(Problem, "__init__", counting_init)
        monkeypatch.setattr(experiments, "run", counting_run)
        _, final, _ = run_config(cfg, str(tmp_path))
        assert final.step_index == 10
        assert len(built) == 1 and len(runs) == 1
        assert runs[0] == (0.0, 3 * tau, 5 * tau, 7 * tau)
        assert sorted(f.name for f in tmp_path.glob("snap_*.csv")) == [
            f"snap_{i:03d}.csv" for i in range(5)]

    def test_records_do_not_depend_on_snapshot_times(self):
        # The cadence counts from the run's start; a snapshot step adds its row.
        state, p, op, problem = self.certified_setup()
        rows = {}
        for times in ((), (5 * p.tau,)):
            _, records = run(state, problem, t_max=20 * p.tau, tol=0.0, record_every=3,
                             snapshot_times=times, on_snapshot=lambda snap: None)
            rows[times] = records
        whole, snapped = rows.values()
        assert [r.n for r in whole] == [0, 3, 6, 9, 12, 15, 18, 20]
        assert [r.n for r in snapped] == [0, 3, 5, 6, 9, 12, 15, 18, 20]
        assert [r for r in snapped if r.n != 5] == whole

    def test_each_snapshot_equals_a_run_stopped_at_its_time(self):
        state, p, op, problem = self.certified_setup()
        times = (2 * p.tau, 5 * p.tau, 8 * p.tau)
        got = []

        def keep(snap):
            got.append((snap, snap.phi.values.copy()))

        final, _ = run(state, problem, t_max=10 * p.tau, tol=0.0,
                       snapshot_times=times, on_snapshot=keep)
        assert final.step_index == 10
        assert [snap.step_index for snap, _ in got] == [2, 5, 8]
        for (snap, copy), t in zip(got, times):
            stopped, _ = run(state, problem, t_max=t, tol=0.0)
            assert (snap.step_index, snap.time, snap.last_increment_linf) == (
                stopped.step_index, stopped.time, stopped.last_increment_linf)
            assert np.array_equal(snap.phi.values, stopped.phi.values)
            assert np.array_equal(snap.phi.values, copy)   # later steps left it alone
            assert not snap.phi.values.flags.writeable

    def test_snapshot_time_beyond_the_run_is_refused(self):
        state, p, op, problem = self.certified_setup()
        with pytest.raises(ConfigError, match="snapshot time 0.02 lies beyond t_max = 0.01"):
            run(state, problem, t_max=0.01, tol=0.0, snapshot_times=(0.005, 0.02))


class TestCarriedSpectra:
    """A step leaves its spectra in the problem; the next step and the energy reuse them."""

    @staticmethod
    def certified_2d(n=16):
        g = PeriodicGrid((n, n), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        p0 = ModelParams(epsilon=0.15, gamma=100.0, M=100.0, omega=0.3, kappa=0.0, tau=1e-3)
        kappa = check_conditions(Problem(g, p0, CUBIC, op)).kappa_min_es + 1.0
        p = ModelParams(epsilon=0.15, gamma=100.0, M=100.0, omega=0.3, kappa=kappa, tau=1e-3)
        problem = Problem(g, p, CUBIC, op)
        report = check_conditions(problem)
        assert report.mpp_ok and report.es_ok
        rng = np.random.default_rng(65)
        state = SchemeState.initial(GridField(g, rng.uniform(0.0, 1.0, size=g.shape)))
        return state, p, op, problem

    def test_a_state_holds_only_its_field(self):
        state, p, op, _ = self.certified_2d()
        problem = Problem(state.phi.grid, p, CUBIC, op)
        stepped = step(state, problem)
        assert [f.name for f in dataclasses.fields(stepped)] == [
            "phi", "step_index", "time", "last_increment_linf"]
        v = stepped.phi.values
        assert np.array_equal(problem.mismatch_hat, np.fft.rfftn(f_eval(CUBIC, v) - p.omega))
        assert np.array_equal(problem.q, v * v - v)
        # The solve spectrum is rfftn(phi) only up to round-off.
        assert np.allclose(problem.phi_hat, np.fft.rfftn(v), rtol=0.0, atol=1e-12)

    def test_recorded_run_makes_two_fft_round_trips_per_step(self, monkeypatch):
        # Per step: the long-range inverse transform, the forward and inverse
        # transforms of the solve, and the forward transform of the new
        # mismatch.  A 2D inverse transform is an ifft over the leading axis
        # and an irfft over the last.  The initial state adds its two
        # forward transforms, and step 1 transforms that mismatch again.
        state, p, op, problem = self.certified_2d()
        counts = dict.fromkeys(("rfftn", "rfft", "fft", "irfftn", "irfft", "ifft"), 0)
        for name in counts:
            real = getattr(np.fft, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        n_steps = 7
        _, records = run(state, problem, t_max=n_steps * p.tau, tol=0.0, record_every=1)
        assert len(records) == n_steps + 1
        assert counts == {"rfftn": 2 * n_steps + 3, "rfft": 0, "fft": 0,
                          "irfftn": 0, "irfft": 2 * n_steps, "ifft": 2 * n_steps}

    def test_segments_write_the_series_of_one_run(self, tmp_path):
        cfg = certified_config()
        out = {}
        for label, times in (("whole", ()), ("segments", (0.0, 3 * cfg.tau, 7 * cfg.tau))):
            out_dir = tmp_path / label
            _, final, _ = run_config(dataclasses.replace(cfg, snapshot_times=times), str(out_dir))
            out[label] = (final.phi.values, (out_dir / "series.csv").read_bytes())
        assert np.array_equal(out["whole"][0], out["segments"][0])
        assert out["whole"][1] == out["segments"][1]

    def test_energy_rise_between_records_raises_at_its_step(self, monkeypatch):
        # A grid-scale oscillation inside [0, 1] raises the energy at step 7
        # while the bounds hold; records are taken at steps 0, 10 and 20.
        # Step 7 is made by the kernel, so the hook replaces the field that
        # its seventh Problem.advance call (the first is step 1) produced.
        state, p, op, problem = self.certified_2d()
        real_advance = Problem.advance
        rough = np.indices(state.phi.grid.shape).sum(axis=0) % 2 * 1.0
        calls = []

        def advance_with_rise(problem, s, out):
            increment = real_advance(problem, s, out)
            calls.append(out)
            if len(calls) == 7:
                out[...] = rough
                problem.forward(out, problem.phi_hat)
                problem.load(out)
            return increment

        monkeypatch.setattr(Problem, "advance", advance_with_rise)
        with pytest.raises(EnergyIncreaseError, match="step 7:"):
            run(state, problem, t_max=20 * p.tau, tol=0.0, record_every=10)
        assert len(calls) == 7


def step_loop(state, params, spec, op, t_max, tol, record_every, potential=None):
    """What run returns, as a loop of step calls with problem_energy records (oracle)."""
    pot = None if potential is None else potential.values
    problem = Problem(state.phi.grid, params, spec, op, pot)

    def record(s):
        v = s.phi.values
        if s.step_index == 0:   # the start's spectra, as run computes them
            problem.load(v)
            problem.forward(v, problem.phi_hat)
        energy = problem_energy(problem, v).total
        return StepRecord(s.step_index, s.time, float(np.min(v)), float(np.max(v)), energy,
                          s.last_increment_linf if s.step_index else 0.0)

    records = [record(state)]
    n_steps = round(t_max / params.tau)
    for k in range(1, n_steps + 1):
        state = step(state, problem)
        stopping = tol > 0.0 and state.last_increment_linf / params.tau <= tol
        if k % record_every == 0 or k == n_steps or stopping:
            records.append(record(state))
        if stopping:
            break
    return state, records


CUBIC_EXT = NonlinearSpec(FKind.CUBIC_HERMITE, use_extension=True)
LINEAR_EXT = NonlinearSpec(FKind.LINEAR, use_extension=True)
KERNEL_CASES = {
    "cubic-inverse-laplacian-2d": ((16, 16), CUBIC, "inverse_laplacian"),
    "cubic-inverse-laplacian-1d": ((32,), CUBIC, "inverse_laplacian"),
    "linear-helmholtz-2d": ((16, 12), LINEAR, "helmholtz"),
    "extension-inverse-laplacian-1d": ((32,), CUBIC_EXT, "inverse_laplacian"),
    "linear-extension-none-2d": ((8, 8), LINEAR_EXT, "none"),
    "cubic-custom-2d": ((8, 12), CUBIC, "custom"),
    "cubic-none-1d": ((32,), CUBIC, "none"),
    "cubic-potential-1d": ((32,), CUBIC, "potential"),
    "linear-potential-1d": ((32,), LINEAR, "potential"),
}


def kernel_case(name, scale=1):
    sizes, spec, kind = KERNEL_CASES[name]
    sizes = tuple(scale * n for n in sizes)
    g = PeriodicGrid(sizes, (1.0,) * len(sizes))
    rng = np.random.default_rng(len(name))
    potential = None
    if kind == "potential":
        op, potential = LongRangeOp.none(), GridField(g, rng.standard_normal(sizes))
    elif kind == "custom":
        op = LongRangeOp.custom(table_from_dict(random_even_table(sizes, 3)))
    else:
        op = {"inverse_laplacian": LongRangeOp.inverse_laplacian(),
              "helmholtz": LongRangeOp.helmholtz(0.3), "none": LongRangeOp.none()}[kind]
    p = ModelParams(epsilon=0.2, gamma=50.0, M=20.0, omega=0.3, kappa=100.0, tau=1e-3)
    state = SchemeState.initial(GridField(g, rng.uniform(0.1, 0.9, sizes)))
    return state, p, spec, op, potential


def kernel_problem(state, p, spec, op, potential=None):
    """The problem of a kernel case, on the grid of its state."""
    pot = None if potential is None else potential.values
    return Problem(state.phi.grid, p, spec, op, pot)


class TestKernel:
    """run makes steps 2..n in the kernel; it matches a loop of step calls bit for bit."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("mode", ["every step", "every 3rd", "early stop"])
    def test_run_equals_a_loop_of_steps(self, name, mode):
        state, p, spec, op, potential = kernel_case(name)
        t_max, tol, every = 12 * p.tau, 0.0, {"every step": 1, "every 3rd": 3}.get(mode, 7)
        if mode == "early stop":
            # Stop at the first step whose increment is at most the fifth's;
            # only the stop makes that step's record.
            increments = [r.increment for r in step_loop(state, p, spec, op, t_max, 0.0, 1,
                                                         potential)[1]]
            tol = increments[5] / p.tau
        expected, expected_records = step_loop(state, p, spec, op, t_max, tol, every, potential)
        got, records = run(state, kernel_problem(state, p, spec, op, potential), t_max=t_max,
                           tol=tol, record_every=every)
        assert records == expected_records
        if mode == "early stop":
            assert 2 <= got.step_index < 12
        assert (got.step_index, got.time, got.last_increment_linf) == (
            expected.step_index, expected.time, expected.last_increment_linf)
        assert np.array_equal(got.phi.values, expected.phi.values)
        assert not got.phi.values.flags.writeable

    def test_first_step_goes_through_step_and_keeps_its_arrays(self, monkeypatch):
        state, p, spec, op, _ = kernel_case("cubic-inverse-laplacian-2d")
        real_step = stepping.step
        returned = []

        def first_step(*args, **kwargs):
            new = real_step(*args, **kwargs)
            returned.append((new, new.phi.values.copy()))
            return new

        monkeypatch.setattr(stepping, "step", first_step)
        final, _ = run(state, kernel_problem(state, p, spec, op), t_max=20 * p.tau, tol=0.0)
        assert final.step_index == 20
        assert len(returned) == 1
        first, copy = returned[0]
        assert first.step_index == 1
        assert not first.phi.values.flags.writeable
        assert np.array_equal(first.phi.values, copy)
        assert not np.shares_memory(first.phi.values, final.phi.values)

    @pytest.mark.parametrize(
        "name", ["cubic-inverse-laplacian-2d", "cubic-inverse-laplacian-1d", "cubic-none-1d",
                 "cubic-potential-1d", "linear-helmholtz-2d", "cubic-custom-2d",
                 "extension-inverse-laplacian-1d", "linear-extension-none-2d"]
    )
    def test_no_grid_sized_allocation_after_the_first_step(self, name, monkeypatch):
        # Tracing starts once the run has made its first step and its
        # buffers; every later step, check and record is inside the trace.
        # Scaled to 128 rows in 2D and 2^14 points in 1D: a field takes ~128 kB.
        n = KERNEL_CASES[name][0]
        state, p, spec, op, potential = kernel_case(name, 128 // n[0] if len(n) == 2 else 2**14 // n[0])
        real_allocate = Problem.allocate_run_buffers
        traced = []

        def allocate_then_trace(problem):
            real_allocate(problem)
            tracemalloc.start()
            traced.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(Problem, "allocate_run_buffers", allocate_then_trace)
        problem = kernel_problem(state, p, spec, op, potential)
        try:
            final, records = run(state, problem, t_max=20 * p.tau, tol=0.0)
            growth = tracemalloc.get_traced_memory()[1] - traced[0]
        finally:
            tracemalloc.stop()
        assert final.step_index == 20 and len(records) == 21
        assert growth < 0.25 * 8 * state.phi.grid.num_cells   # records and spectrum edges


@st.composite
def horizons(draw):
    """(t_max, tau, snapshot times) of at most 300 steps; the times are step
    multiples, as a config gives them, or any time up to t_max."""
    tau = draw(st.floats(1e-4, 1e-1))
    count = draw(st.integers(1, 300))
    t_max = draw(st.one_of(st.just(count * tau), st.floats(tau, count * tau)))
    time = st.one_of(st.integers(0, count).map(lambda j: j * tau), st.floats(0.0, t_max))
    times = draw(st.lists(time.filter(lambda t: t <= t_max), max_size=4))
    return t_max, tau, tuple(times)


class TestStepCount:
    """One rule turns a time into a step count: the first step at or after it,
    counted from the run's start, with a time within a relative 1e-9 of a step
    counting as that step."""

    @pytest.mark.parametrize("t, tau, steps", [
        (8.021, 1e-3, 8021), (0.1, 4e-6, 25000), (0.0105, 1e-3, 11), (0.01 * (1 + 2e-9), 1e-3, 11),
        (1e-20, 1e-3, 1), (0.0, 1e-3, 0), (-1.0, 1e-3, 0)])
    def test_a_time_takes_the_first_step_at_or_after_it(self, t, tau, steps):
        assert steps_to(t, tau) == steps

    def test_a_snapshot_time_does_not_move_the_end_of_a_run(self):
        # 8.021 / 1e-3 and (8.021 - 6.539) / 1e-3 both land just above a step.
        cfg = RunConfig(N=(16,), T=8.021, tol=0.0, monitor_every=10**9)
        for times in ((), (6.539,)):
            _, final, records = run_config(dataclasses.replace(cfg, snapshot_times=times))
            assert (final.step_index, records[-1].n) == (8021, 8021)

    def test_the_rate_study_benchmark_run_makes_the_steps_it_counts(self):
        # 0.1 / 4e-6 is 25000.000000000004.
        setup = dataclasses.replace(experiments.RATE_STUDY, N=(8, 8), T=0.1)
        counted = experiments.rate_study_steps(1e-4, 1, 4e-6, setup) - steps_to(0.1, 1e-4)
        _, final, _ = run_config(dataclasses.replace(setup, tau=4e-6))
        assert counted == final.step_index == 25000

    @settings(max_examples=60, deadline=None)
    @given(horizons())
    @example((8.021, 1e-3, (6.539,)))
    def test_snapshot_times_never_change_the_step_a_run_ends_on(self, horizon):
        t_max, tau, times = horizon
        # A constant field at the wells' midpoint stays there, so any tau runs.
        grid = PeriodicGrid((4,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.5, kappa=0.0, tau=tau)
        problem = Problem(grid, params, CUBIC, LongRangeOp.none())
        state = SchemeState.initial(GridField.constant(grid, 0.5))
        ends = []
        for snapshots in ((), times):
            final, records = run(state, problem, t_max=t_max, tol=0.0, record_every=10**9,
                                 snapshot_times=snapshots, on_snapshot=lambda snap: None)
            ends.append((final.step_index, records[-1].n))
        assert ends == [(steps_to(t_max, tau),) * 2] * 2

