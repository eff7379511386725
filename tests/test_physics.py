import tracemalloc

import numpy as np
import pytest

from pacok.errors import ConfigError
from pacok.grid import GridField, PeriodicGrid
from pacok.physics import (
    FKind,
    ModelParams,
    NonlinearSpec,
    Problem,
    W_eval,
    W_pprime,
    W_prime,
    f_eval,
    f_pprime,
    f_prime,
    lipschitz_constants,
    mismatch_values,
    pvism_potential,
)
from pacok.spectral import LongRangeOp, OpKind, estimate_linf_norm, multiplier_array, stencil_symbol

from oracles import assemble_rhs, assemble_rhs_array, mismatch_spectrum, volume_term

CUBIC = NonlinearSpec(FKind.CUBIC_HERMITE)
CUBIC_EXT = NonlinearSpec(FKind.CUBIC_HERMITE, use_extension=True)
LINEAR = NonlinearSpec(FKind.LINEAR)
LINEAR_EXT = NonlinearSpec(FKind.LINEAR, use_extension=True)
ALL_SPECS = (CUBIC, CUBIC_EXT, LINEAR, LINEAR_EXT)


class TestDoubleWell:
    def test_wells_and_midpoint(self):
        assert W_eval(0.0) == 0.0
        assert W_eval(1.0) == 0.0
        assert W_eval(0.5) == pytest.approx(1.125)

    def test_critical_points(self):
        assert W_prime(0.0) == 0.0
        assert W_prime(0.5) == 0.0
        assert W_prime(1.0) == 0.0

    def test_second_derivative_max_by_grid_search(self):
        s = np.linspace(0.0, 1.0, 1_000_001)
        assert np.max(np.abs(W_pprime(s))) == pytest.approx(36.0, abs=1e-9)

    def test_prime_factorization_identity(self):
        # W' and f' share the factor (s - s^2): W'(s) = -36 (s - s^2)(2s - 1)
        # and f'(s) = 6 (s - s^2), everywhere including outside [0, 1].
        s = np.linspace(-1.0, 2.0, 30_001)
        q = s - s * s
        assert np.max(np.abs(W_prime(s) + 36.0 * q * (2.0 * s - 1.0))) <= 1e-12 * 36 * 4
        assert np.max(np.abs(f_prime(CUBIC, s) - 6.0 * q)) <= 1e-12 * 6 * 4


class TestIndicator:
    def test_endpoint_conditions(self):
        assert f_eval(CUBIC, 0.0) == 0.0
        assert f_eval(CUBIC, 1.0) == 1.0
        assert f_prime(CUBIC, 0.0) == 0.0
        assert f_prime(CUBIC, 1.0) == 0.0

    def test_midpoint(self):
        assert f_eval(CUBIC, 0.5) == pytest.approx(0.5)
        assert f_prime(CUBIC, 0.5) == pytest.approx(1.5)

    def test_extension_clamps(self):
        assert f_eval(CUBIC_EXT, -2.0) == 0.0
        assert f_eval(CUBIC_EXT, 3.0) == 1.0
        assert f_prime(CUBIC_EXT, -2.0) == 0.0
        assert f_pprime(CUBIC_EXT, -2.0) == 0.0
        assert f_pprime(CUBIC_EXT, 3.0) == 0.0

    def test_unextended_grows_outside(self):
        assert f_eval(CUBIC, -1.0) == pytest.approx(5.0)
        assert f_prime(CUBIC, 2.0) == pytest.approx(-12.0)

    def test_linear_choice(self):
        assert f_eval(LINEAR, 0.3) == pytest.approx(0.3)
        assert f_prime(LINEAR, 0.9) == 1.0
        assert f_pprime(LINEAR, 0.9) == 0.0
        assert not LINEAR.endpoint_compatible
        assert CUBIC.endpoint_compatible

    def test_second_derivative(self):
        assert f_pprime(CUBIC, 0.0) == 6.0
        assert f_pprime(CUBIC, 1.0) == -6.0


class TestLipschitzConstants:
    def test_cubic_values(self):
        lc = lipschitz_constants(CUBIC)
        assert lc.L_Wpp == pytest.approx(36.0, abs=1e-9)
        assert lc.L_fp == pytest.approx(1.5, abs=1e-9)
        assert lc.L_fpp == pytest.approx(6.0, abs=1e-9)

    def test_linear_values(self):
        lc = lipschitz_constants(LINEAR)
        assert lc.L_Wpp == pytest.approx(36.0, abs=1e-9)
        assert lc.L_fp == pytest.approx(1.0, abs=1e-9)
        assert lc.L_fpp == 0.0

    def test_grid_maximization_oracle(self):
        s = np.linspace(0.0, 1.0, 1_000_001)
        assert np.max(np.abs(f_prime(CUBIC, s))) == pytest.approx(1.5, abs=1e-9)
        assert np.max(np.abs(f_pprime(CUBIC, s))) == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_dyadic_grid_gives_the_dense_grid_constants(self, spec):
        # The constants of the former 10^6 + 1 point grid, bit for bit.
        s = np.linspace(0.0, 1.0, 1_000_001)
        inner = NonlinearSpec(spec.f_kind)
        dense = (
            float(np.max(np.abs(W_pprime(s)))),
            float(np.max(np.abs(f_prime(inner, s)))),
            float(np.max(np.abs(f_pprime(inner, s)))),
        )
        lc = lipschitz_constants(spec)
        assert (lc.L_Wpp, lc.L_fp, lc.L_fpp) == dense

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_peak_memory_below_one_megabyte(self, spec):
        tracemalloc.start()
        try:
            lipschitz_constants(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestModelParams:
    def test_omega_tilde(self):
        p = ModelParams(epsilon=0.1, gamma=1.0, M=1.0, omega=0.15, kappa=0.0, tau=1e-3)
        assert p.omega_tilde == 0.85
        p = ModelParams(epsilon=0.1, gamma=1.0, M=1.0, omega=0.7, kappa=0.0, tau=1e-3)
        assert p.omega_tilde == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"gamma": -1.0},
            {"M": -0.5},
            {"omega": 0.0},
            {"omega": 1.0},
            {"omega": 1.5},
            {"kappa": -1.0},
            {"tau": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=1e-3)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            ModelParams(**base)

    @pytest.mark.parametrize("name", ["gamma", "M", "kappa"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_coupling_or_stabilizer(self, name, value):
        base = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=1e-3)
        base[name] = value
        with pytest.raises(ConfigError, match=f"^{name} must be finite and >= 0, got {value}$"):
            ModelParams(**base)


def mpp_satisfying_params(grid, spec, op, gamma, M, omega, epsilon, tau, margin=1.0):
    """Smallest stabilizer satisfying the bound-preservation condition, plus margin."""
    lc = lipschitz_constants(spec)
    op_norm = estimate_linf_norm(op, grid) if op.kind.value != "none" else 0.0
    rhs = lc.L_Wpp / epsilon + max(omega, 1 - omega) * lc.L_fpp * (
        gamma * op_norm + M * grid.measure
    )
    kappa = max(0.0, epsilon * (rhs - 1.0 / tau)) + margin
    return ModelParams(epsilon=epsilon, gamma=gamma, M=M, omega=omega, kappa=kappa, tau=tau)


class TestAssembleRhs:
    def test_zero_field_is_fixed(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        params = ModelParams(epsilon=0.1, gamma=100.0, M=50.0, omega=0.3, kappa=10.0, tau=1e-3)
        out = assemble_rhs(GridField.constant(g, 0.0), params, CUBIC, LongRangeOp.inverse_laplacian())
        assert np.max(np.abs(out.values)) == 0.0

    def test_one_field_maps_to_scheme_constant(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=100.0, M=50.0, omega=0.3, kappa=10.0, tau=1e-3)
        out = assemble_rhs(GridField.constant(g, 1.0), params, CUBIC, LongRangeOp.inverse_laplacian())
        expected = 1.0 + params.tau * params.kappa / params.epsilon
        assert np.max(np.abs(out.values - expected)) <= 1e-14

    def test_bracketing_under_condition(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        params = mpp_satisfying_params(
            g, CUBIC, op, gamma=50.0, M=100.0, omega=0.3, epsilon=0.1, tau=1e-3
        )
        upper = 1.0 + params.tau * params.kappa / params.epsilon
        rng = np.random.default_rng(42)
        for _ in range(100):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            out = assemble_rhs(phi, params, CUBIC, op)
            assert np.min(out.values) >= -1e-12
            assert np.max(out.values) <= upper + 1e-12

    def test_linear_f_breaks_bracket_even_with_condition(self):
        # With f(s) = s the forces do not vanish in the pure phases, so the
        # bracket fails regardless of the stabilizer: a field sitting at 0
        # with excess volume elsewhere is pushed negative.
        g = PeriodicGrid((16,), (1.0,))
        op = LongRangeOp.inverse_laplacian()
        params = ModelParams(epsilon=0.1, gamma=50.0, M=100.0, omega=0.3, kappa=4000.0, tau=1e-3)
        rng = np.random.default_rng(7)
        upper = 1.0 + params.tau * params.kappa / params.epsilon
        breached = False
        for _ in range(200):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            out = assemble_rhs(phi, params, LINEAR, op)
            if np.min(out.values) < -1e-12 or np.max(out.values) > upper + 1e-12:
                breached = True
                break
        assert breached

    def test_potential_requires_none_operator(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.5, kappa=1.0, tau=1e-3)
        u = GridField.constant(g, 1.0)
        with pytest.raises(ConfigError):
            assemble_rhs(u, params, CUBIC, LongRangeOp.inverse_laplacian(), potential=u)

    def test_solvation_form(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.5, kappa=1.0, tau=1e-3)
        rng = np.random.default_rng(3)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        pot = GridField(g, rng.standard_normal(g.shape))
        out = assemble_rhs(phi, params, CUBIC, LongRangeOp.none(), potential=pot)
        expected = (
            (1.0 + params.tau * params.kappa / params.epsilon) * phi.values
            - (params.tau / params.epsilon) * W_prime(phi.values)
            - params.tau * pot.values * f_prime(CUBIC, phi.values)
        )
        assert np.max(np.abs(out.values - expected)) <= 1e-14

    def test_none_operator_keeps_volume_penalty(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.5, gamma=7.0, M=11.0, omega=0.3, kappa=0.0, tau=1e-2)
        rng = np.random.default_rng(4)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        out = assemble_rhs(phi, params, CUBIC, LongRangeOp.none())
        vol = volume_term(phi.values, g, CUBIC, params.omega)
        expected = (
            phi.values
            - (params.tau / params.epsilon) * W_prime(phi.values)
            - params.tau * params.M * vol * f_prime(CUBIC, phi.values)
        )
        assert np.max(np.abs(out.values - expected)) <= 1e-14


class TestSolvationPotential:
    def grid(self):
        return PeriodicGrid((1024,), (5.0,))

    def test_plateau_near_solute(self):
        g = self.grid()
        u = pvism_potential(g, [0.0])
        (x,) = g.coordinates()
        inside = np.abs(x) <= 2.5
        assert np.ptp(u.values[inside]) == 0.0

    def test_even_symmetry(self):
        g = self.grid()
        u = pvism_potential(g, [0.0])
        (x,) = g.coordinates()
        for target in (0.7, 1.9, 3.3, 4.2):
            i = int(np.argmin(np.abs(x - target)))
            j = int(np.argmin(np.abs(x + target)))
            assert u.values[i] == pytest.approx(u.values[j], rel=1e-12)

    def test_hand_evaluation_at_x3(self):
        # Independent scalar arithmetic for the two-term formula at x = 3,
        # with the Born part as the Coulomb-field energy density.
        ratio6 = (3.5 / 3.0) ** 6
        lj = 0.0333 / (4 * 0.3) * (ratio6**2 - ratio6)
        born = 1.0 / (32 * np.pi**2 * 1.4321e-4) * (1 / 80.0 - 1.0) / 3.0**4
        g = PeriodicGrid((1000,), (5.0,))
        (x,) = g.coordinates()
        i = int(np.argmin(np.abs(x - 3.0)))
        assert x[i] == pytest.approx(3.0, abs=1e-12)
        u = pvism_potential(g, [0.0])
        assert u.values[i] == pytest.approx(lj + born, rel=1e-12)

    def test_sign_structure(self):
        # Repulsive at the solute plateau, attractive in the far field;
        # this sign change is what pins the solvation interface.
        g = self.grid()
        u = pvism_potential(g, [0.0])
        (x,) = g.coordinates()
        assert u.values[np.argmin(np.abs(x))] > 0.0
        assert u.values[np.argmin(np.abs(x - 4.5))] < 0.0

    def test_empty_solutes_rejected(self):
        with pytest.raises(ConfigError):
            pvism_potential(self.grid(), [])

    def test_2d_rejected(self):
        with pytest.raises(ConfigError):
            pvism_potential(PeriodicGrid((8, 8), (1.0, 1.0)), [0.0])

    def test_nearest_solute_of_several(self):
        g = self.grid()
        u_two = pvism_potential(g, [-2.0, 2.0])
        (x,) = g.coordinates()
        i = int(np.argmin(np.abs(x - 4.9)))
        single = pvism_potential(g, [2.0])
        assert u_two.values[i] == single.values[i]


def rhs_oracle(phi_values, grid, params, spec, op, potential_values=None):
    """The right-hand side as written before it was evaluated from q = s^2 - s."""
    tau = params.tau
    rhs = (1.0 + tau * params.kappa / params.epsilon) * phi_values
    rhs -= (tau / params.epsilon) * W_prime(phi_values)
    fp = f_prime(spec, phi_values)
    if potential_values is not None:
        rhs -= tau * potential_values * fp
        return rhs
    if op.kind is OpKind.NONE:
        vol = volume_term(phi_values, grid, spec, params.omega)
    else:
        mismatch_hat = mismatch_spectrum(phi_values, spec, params.omega)
        lr = np.fft.irfftn(
            mismatch_hat * multiplier_array(op, grid), s=grid.shape, axes=tuple(range(grid.dim))
        )
        rhs -= tau * params.gamma * lr * fp
        vol = grid.cell_measure * float(mismatch_hat[(0,) * grid.dim].real)
    rhs -= tau * params.M * vol * fp
    return rhs


class TestRhsKernel:
    PARAMS = ModelParams(epsilon=0.1, gamma=150.0, M=80.0, omega=0.3, kappa=40.0, tau=1e-3)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    @pytest.mark.parametrize(
        "mode", ["inverse_laplacian", "helmholtz", "none", "potential"]
    )
    def test_matches_the_former_formula(self, spec, sizes, mode):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(sum(sizes))
        # Values outside [0, 1] exercise the clamped extensions.
        phi = rng.uniform(-0.3, 1.3, size=g.shape)
        pot = None
        if mode == "potential":
            op, pot = LongRangeOp.none(), rng.standard_normal(g.shape)
        elif mode == "helmholtz":
            op = LongRangeOp.helmholtz(0.3)
        elif mode == "none":
            op = LongRangeOp.none()
        else:
            op = LongRangeOp.inverse_laplacian()
        expected = rhs_oracle(phi, g, self.PARAMS, spec, op, pot)
        scale = max(1.0, float(np.max(np.abs(expected))))
        problem = Problem(g, self.PARAMS, spec, op, pot)
        for out in (
            assemble_rhs_array(phi, g, self.PARAMS, spec, op, pot),
            assemble_rhs_array(phi, g, self.PARAMS, spec, op, pot, problem=problem),
        ):
            assert np.max(np.abs(out - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("spec", [CUBIC_EXT, LINEAR_EXT])
    def test_extension_slope_in_buffers_is_the_former_expression_bit_for_bit(self, spec):
        g = PeriodicGrid((8, 12), (1.0, 1.0))
        rng = np.random.default_rng(3)
        phi = rng.uniform(-0.3, 1.3, size=g.shape)
        phi[0, :3] = (0.0, 1.0, 0.5)
        problem = Problem(g, self.PARAMS, spec, LongRangeOp.inverse_laplacian())
        problem.load(phi)
        for force in (rng.standard_normal(g.shape), -2.5):
            expected = phi * (-2.0 * problem.c)
            expected += problem.c
            expected *= problem.q
            expected += force * f_prime(spec, phi)
            expected += phi * problem.A
            assert np.array_equal(problem.rhs(phi, force, np.empty(g.shape)), expected)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_problem_mismatch_spectrum_is_bit_identical(self, spec):
        # The spectrum a run and a step start from, loaded into the kernel.
        for g in (PeriodicGrid((8, 12), (1.0, 1.0)), PeriodicGrid((24,), (1.0,))):
            phi = np.random.default_rng(5).uniform(-0.3, 1.3, size=g.shape)
            problem = Problem(g, self.PARAMS, spec, LongRangeOp.inverse_laplacian())
            problem.load(phi)
            assert np.array_equal(problem.mismatch_hat,
                                  mismatch_spectrum(phi, spec, self.PARAMS.omega))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("omega", [0.0, 0.3])
    def test_mismatch_values_is_f_eval_bit_for_bit(self, spec, omega):
        # In place, with or without a buffer for the clamped field; s is left alone.
        s = np.random.default_rng(7).uniform(-0.3, 1.3, size=(8, 12))
        before = s.copy()
        for clamped in (None, np.empty_like(s)):
            out = np.empty_like(s)
            assert mismatch_values(spec, s, omega, out, clamped) is out
            assert np.array_equal(out, f_eval(spec, s) - omega)
        assert np.array_equal(s, before)

    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    def test_interleaved_arrays_scale_like_the_complex_arithmetic(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        p = self.PARAMS
        problem = Problem(g, p, CUBIC, LongRangeOp.inverse_laplacian())
        spectrum = np.fft.rfftn(np.random.default_rng(6).standard_normal(g.shape))
        denom = 1.0 + p.tau * p.kappa / p.epsilon + p.tau * p.epsilon * stencil_symbol(g)
        solved = spectrum.view(np.float64) * problem.inverse_denominator
        assert np.array_equal(solved, (spectrum / denom).view(np.float64))
        # The cubic's multiplier is stored scaled by 6 tau gamma.
        mult = 6.0 * p.tau * p.gamma * multiplier_array(LongRangeOp.inverse_laplacian(), g)
        scaled = spectrum.view(np.float64) * problem.multiplier
        assert np.array_equal(scaled, (spectrum * mult).view(np.float64))

    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    def test_transforms_act_on_the_trailing_axes(self, sizes):
        # A leading batch axis transforms member by member.
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        problem = Problem(g, self.PARAMS, CUBIC, LongRangeOp.inverse_laplacian())
        batch = np.random.default_rng(8).standard_normal((3,) + g.shape)
        spectra = problem.forward(batch, None)
        back = problem.inverse(spectra, np.empty_like(batch), np.empty_like(spectra))
        for member, spectrum, field in zip(batch, spectra, back):
            assert np.array_equal(spectrum, np.fft.rfftn(member))
            assert np.array_equal(field, np.fft.irfftn(spectrum, g.shape, problem.axes))

    def test_potential_requires_none_operator(self):
        g = PeriodicGrid((16,), (1.0,))
        with pytest.raises(ConfigError):
            Problem(g, self.PARAMS, CUBIC, LongRangeOp.inverse_laplacian(), np.ones(g.shape))

    @pytest.mark.parametrize(
        "op",
        [LongRangeOp.inverse_laplacian(), LongRangeOp.helmholtz(0.3), LongRangeOp.garnet_film(0.5),
         "custom"],
        ids=["inverse_laplacian", "helmholtz", "garnet_film", "custom"],
    )
    def test_keeps_the_operator_norm_of_estimate_linf_norm_bit_for_bit(self, op):
        from test_spectral import random_even_table, table_from_dict

        g = PeriodicGrid((8, 12), (1.0, 1.5))
        if op == "custom":
            op = LongRangeOp.custom(table_from_dict(random_even_table(g.sizes, 5)))
        assert Problem(g, self.PARAMS, CUBIC, op).op_norm == estimate_linf_norm(op, g)

    def test_operator_norm_is_max_abs_potential_or_0_without_either(self):
        g = PeriodicGrid((16,), (1.0,))
        potential = np.linspace(-3.0, 2.0, 16)
        assert Problem(g, self.PARAMS, CUBIC, LongRangeOp.none(), potential).op_norm == 3.0
        assert Problem(g, self.PARAMS, CUBIC, LongRangeOp.none()).op_norm == 0.0
