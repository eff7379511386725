import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacok.errors import ConfigError
from pacok.grid import GridField, PeriodicGrid
from pacok.physics import FKind, ModelParams, Problem, pvism_potential
from pacok.spectral import (
    LongRangeOp, OpKind, impulse_response_norm, multiplier_array, stencil_symbol,
)
from pacok.stepping import check_conditions

from oracles import (
    W_eval,
    W_pprime,
    W_prime,
    assemble_rhs,
    assemble_rhs_array,
    f_eval,
    f_pprime,
    f_prime,
    mismatch_spectrum,
    volume_term,
)

PARAMS = ModelParams(epsilon=0.1, gamma=150.0, M=80.0, omega=0.3, kappa=40.0, tau=1e-3)
# The two indicators, each on PARAMS.
CUBIC = PARAMS
LINEAR = replace(PARAMS, f=FKind.LINEAR)
ALL_INDICATORS = (CUBIC, LINEAR)


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

    def test_a_kind_that_is_not_an_fkind_is_refused(self):
        # A string would otherwise step with the linear f and make the
        # condition check fail on a missing table entry.
        with pytest.raises(ConfigError, match="f must be an FKind, got 'cubic'"):
            replace(PARAMS, f="cubic")


class TestBoundConstants:
    def test_cubic_values(self):
        L_Wpp, L_fp, L_fpp = CUBIC.bound_constants
        assert L_Wpp == pytest.approx(36.0, abs=1e-9)
        assert L_fp == pytest.approx(1.5, abs=1e-9)
        assert L_fpp == pytest.approx(6.0, abs=1e-9)

    def test_linear_values(self):
        L_Wpp, L_fp, L_fpp = LINEAR.bound_constants
        assert L_Wpp == pytest.approx(36.0, abs=1e-9)
        assert L_fp == pytest.approx(1.0, abs=1e-9)
        assert L_fpp == 0.0

    def test_grid_maximization_oracle(self):
        s = np.linspace(0.0, 1.0, 1_000_001)
        assert np.max(np.abs(f_prime(CUBIC, s))) == pytest.approx(1.5, abs=1e-9)
        assert np.max(np.abs(f_pprime(CUBIC, s))) == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_INDICATORS)
    def test_dyadic_grid_gives_the_dense_grid_constants(self, model):
        # The constants of the former 10^6 + 1 point grid, bit for bit.
        s = np.linspace(0.0, 1.0, 1_000_001)
        dense = (
            float(np.max(np.abs(W_pprime(s)))),
            float(np.max(np.abs(f_prime(model, s)))),
            float(np.max(np.abs(f_pprime(model, s)))),
        )
        assert model.bound_constants == dense

    @pytest.mark.parametrize("model", ALL_INDICATORS)
    def test_peak_memory_below_one_megabyte(self, model):
        tracemalloc.start()
        try:
            model.bound_constants
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestModelParams:
    def test_takes_no_extension(self):
        # The clamped extension is retired: the indicator is the only choice of f.
        with pytest.raises(TypeError):
            ModelParams(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=0.0, tau=1e-3,
                        extension=True)
        assert [f.name for f in fields(ModelParams)] == [
            "epsilon", "gamma", "M", "omega", "kappa", "tau", "f"]

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

    @pytest.mark.parametrize("kwargs, term", [
        ({"kappa": 1e308, "tau": 10.0}, "kappa/epsilon"),
        ({"epsilon": 1e-310}, "36/epsilon"),
        ({"tau": 1e308}, "1 + tau*kappa/epsilon"),
        ({"kappa": 0.0, "tau": 1e308}, "36*tau/epsilon"),
        ({"tau": 1e-310}, "1/tau"),
        ({"kappa": 1e307, "tau": 5.57e-309}, "1/tau + kappa/epsilon"),
    ], ids=["kappa", "epsilon", "tau", "tau-without-kappa", "subnormal-tau", "bounds-lhs"])
    def test_rejects_a_scheme_term_that_is_not_finite(self, kwargs, term):
        # Each would otherwise reach the solve's denominator or the conditions as inf.
        base = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=1e-3)
        base.update(kwargs)
        with pytest.raises(ConfigError) as exc_info:
            ModelParams(**base)
        assert str(exc_info.value).startswith(f"{term} is not finite for epsilon=")


# Terms finite in ModelParams that overflow on a 16-point grid, lambda_max = 256.
GRID_OVERFLOWS = {
    "denominator": ({"epsilon": 1.0, "kappa": 0.0, "tau": 1e306}, "inverse_laplacian",
                    "1 + tau*kappa/epsilon + tau*epsilon*lambda_max"),
    "volume": ({"M": 1e10, "tau": 1e300}, "none", "6*tau*M"),
    "linear-volume": ({"M": 1e10, "tau": 1e300, "f": FKind.LINEAR}, "none", "-1*tau*M"),
    "long-range": ({"gamma": 1e10, "M": 0.0, "tau": 1e300}, "inverse_laplacian",
                   "6*tau*gamma*max|L|"),
    "potential": ({"tau": 1e300, "M": 0.0}, "potential", "6*tau*U"),
}


@pytest.mark.parametrize("kwargs, mode, term", GRID_OVERFLOWS.values(), ids=GRID_OVERFLOWS)
def test_problem_refuses_a_scheme_term_that_overflows_on_its_grid(kwargs, mode, term):
    base = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=1e-3)
    base.update(kwargs)
    grid = PeriodicGrid((16,), (1.0,))
    op = LongRangeOp.none() if mode in ("none", "potential") else LongRangeOp.inverse_laplacian()
    potential = np.full(grid.shape, 1e10) if mode == "potential" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc_info:
            Problem(grid, ModelParams(**base), op, potential)
    assert str(exc_info.value).startswith(f"{term} is not finite for tau=")


@pytest.mark.parametrize("kwargs, mode, term", GRID_OVERFLOWS.values(), ids=GRID_OVERFLOWS)
def test_problem_builds_each_term_ten_thousand_times_below_its_overflow(kwargs, mode, term):
    # The checks refuse no run that fits: every array they guard is built finite.
    base = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=1e-3)
    base.update(kwargs, tau=kwargs["tau"] * 1e-4)
    grid = PeriodicGrid((16,), (1.0,))
    op = LongRangeOp.none() if mode in ("none", "potential") else LongRangeOp.inverse_laplacian()
    potential = np.full(grid.shape, 1e10) if mode == "potential" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = Problem(grid, ModelParams(**base), op, potential)
    assert np.isfinite(problem.volume_force)
    for built in (problem.inverse_denominator, problem.multiplier, problem.potential_force):
        assert built is None or np.all(np.isfinite(built))
    assert (problem.multiplier is None) == (mode in ("none", "potential"))
    assert (problem.potential_force is None) == (mode != "potential")


@pytest.mark.parametrize("sizes, lengths", [
    ((4,), (0.1,)), ((16,), (1.0,)), ((2**14,), (3.0,)),
    ((8, 12), (1.0, 3.0)), ((16, 24), (1.0, 1.5)), ((6, 10), (1e-3, 2.0)),
])
def test_the_denominator_check_refuses_exactly_the_steps_whose_solve_overflows(sizes, lengths):
    # Every size is even, so the stencil's largest eigenvalue, sum 4/h_i^2 at
    # the Nyquist mode, is an entry of the built symbol, bit for bit.
    grid = PeriodicGrid(sizes, lengths)
    lambda_max = sum(4.0 / h ** 2 for h in grid.spacings)
    assert float(np.max(stencil_symbol(grid))) == lambda_max
    # The largest step whose denominator 1 + tau*lambda_max is finite (epsilon = 1, kappa = 0).
    with np.errstate(over="ignore"):
        tau = np.finfo(float).max / lambda_max
        while np.isfinite(1.0 + tau * lambda_max):
            tau = np.nextafter(tau, np.inf)
        tau = float(np.nextafter(tau, 0.0))
    base = dict(epsilon=1.0, gamma=0.0, M=0.0, omega=0.3, kappa=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = Problem(grid, ModelParams(tau=tau, **base), LongRangeOp.none())
        assert np.all(np.isfinite(problem.inverse_denominator))
        with pytest.raises(ConfigError, match=r"^1 \+ tau\*kappa/epsilon \+ tau\*epsilon"):
            Problem(grid, ModelParams(tau=float(np.nextafter(tau, np.inf)), **base),
                    LongRangeOp.none())


@pytest.mark.parametrize("tau, accepted", [
    (1e-300, True),
    (2.2250738585072014e-308, True),  # the smallest normal float
    (5.56268464626801e-309, True),  # the smallest step whose reciprocal is finite
    (5.562684646268003e-309, False),
    (1e-310, False),
    (5e-324, False),  # the smallest subnormal float
])
def test_model_params_accepts_a_step_exactly_when_the_bounds_lhs_is_finite(tau, accepted):
    kwargs = dict(epsilon=0.1, gamma=1.0, M=1.0, omega=0.3, kappa=1.0, tau=tau)
    if not accepted:
        with pytest.raises(ConfigError, match=r"^1/tau is not finite"):
            ModelParams(**kwargs)
        return
    grid = PeriodicGrid((16,), (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_conditions(Problem(grid, ModelParams(**kwargs),
                                          LongRangeOp.inverse_laplacian()))
    assert np.isfinite(report.mpp_lhs) and report.mpp_ok


def mpp_satisfying_params(grid, op, gamma, M, omega, epsilon, tau, margin=1.0):
    """Smallest stabilizer satisfying the cubic's bound-preservation condition, plus margin."""
    L_Wpp, _, L_fpp = CUBIC.bound_constants
    op_norm = 0.0
    if op.kind is not OpKind.NONE:
        op_norm = impulse_response_norm(multiplier_array(op, grid), grid)
    rhs = L_Wpp / epsilon + max(omega, 1 - omega) * L_fpp * (
        gamma * op_norm + M * grid.measure
    )
    kappa = max(0.0, epsilon * (rhs - 1.0 / tau)) + margin
    return ModelParams(epsilon=epsilon, gamma=gamma, M=M, omega=omega, kappa=kappa, tau=tau)


class TestAssembleRhs:
    def test_zero_field_is_fixed(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        params = ModelParams(epsilon=0.1, gamma=100.0, M=50.0, omega=0.3, kappa=10.0, tau=1e-3)
        out = assemble_rhs(GridField(g, np.full(g.shape, 0.0)), params, LongRangeOp.inverse_laplacian())
        assert np.max(np.abs(out.values)) == 0.0

    def test_one_field_maps_to_scheme_constant(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=100.0, M=50.0, omega=0.3, kappa=10.0, tau=1e-3)
        out = assemble_rhs(GridField(g, np.full(g.shape, 1.0)), params, LongRangeOp.inverse_laplacian())
        expected = 1.0 + params.tau * params.kappa / params.epsilon
        assert np.max(np.abs(out.values - expected)) <= 1e-14

    def test_bracketing_under_condition(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        params = mpp_satisfying_params(
            g, op, gamma=50.0, M=100.0, omega=0.3, epsilon=0.1, tau=1e-3
        )
        upper = 1.0 + params.tau * params.kappa / params.epsilon
        rng = np.random.default_rng(42)
        for _ in range(100):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            out = assemble_rhs(phi, params, op)
            assert np.min(out.values) >= -1e-12
            assert np.max(out.values) <= upper + 1e-12

    def test_linear_f_breaks_bracket_even_with_condition(self):
        # With f(s) = s the forces do not vanish in the pure phases, so the
        # bracket fails regardless of the stabilizer: a field sitting at 0
        # with excess volume elsewhere is pushed negative.
        g = PeriodicGrid((16,), (1.0,))
        op = LongRangeOp.inverse_laplacian()
        params = ModelParams(epsilon=0.1, gamma=50.0, M=100.0, omega=0.3, kappa=4000.0, tau=1e-3,
                             f=FKind.LINEAR)
        rng = np.random.default_rng(7)
        upper = 1.0 + params.tau * params.kappa / params.epsilon
        breached = False
        for _ in range(200):
            phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
            out = assemble_rhs(phi, params, op)
            if np.min(out.values) < -1e-12 or np.max(out.values) > upper + 1e-12:
                breached = True
                break
        assert breached

    def test_potential_requires_none_operator(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.5, kappa=1.0, tau=1e-3)
        u = GridField(g, np.full(g.shape, 1.0))
        with pytest.raises(ConfigError):
            assemble_rhs(u, params, LongRangeOp.inverse_laplacian(), potential=u)

    def test_solvation_form(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.1, gamma=0.0, M=0.0, omega=0.5, kappa=1.0, tau=1e-3)
        rng = np.random.default_rng(3)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        pot = GridField(g, rng.standard_normal(g.shape))
        out = assemble_rhs(phi, params, LongRangeOp.none(), potential=pot)
        expected = (
            (1.0 + params.tau * params.kappa / params.epsilon) * phi.values
            - (params.tau / params.epsilon) * W_prime(phi.values)
            - params.tau * pot.values * f_prime(params, phi.values)
        )
        assert np.max(np.abs(out.values - expected)) <= 1e-14

    def test_none_operator_keeps_volume_penalty(self):
        g = PeriodicGrid((16,), (1.0,))
        params = ModelParams(epsilon=0.5, gamma=7.0, M=11.0, omega=0.3, kappa=0.0, tau=1e-2)
        rng = np.random.default_rng(4)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        out = assemble_rhs(phi, params, LongRangeOp.none())
        vol = volume_term(phi.values, g, params)
        expected = (
            phi.values
            - (params.tau / params.epsilon) * W_prime(phi.values)
            - params.tau * params.M * vol * f_prime(params, phi.values)
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

    @pytest.mark.parametrize("position", [np.inf, np.nan])
    def test_a_position_that_is_not_finite_is_rejected(self, position):
        with pytest.raises(ConfigError, match="solute positions must be finite"):
            pvism_potential(self.grid(), [0.0, position])

    def test_2d_rejected(self):
        with pytest.raises(ConfigError):
            pvism_potential(PeriodicGrid((8, 8), (1.0, 1.0)), [0.0])

    def test_a_solute_near_the_seam_acts_across_it(self):
        # On [-5, 5) with h = 0.25, the solute at 4.5 is point 38; x = -4.5 is
        # 1.0 from it across the seam, so U is symmetric about it through the seam.
        g = PeriodicGrid((40,), (5.0,))
        (x,) = g.coordinates()
        assert x[38] == 4.5
        u = pvism_potential(g, [4.5]).values
        for k in range(21):
            assert u[(38 + k) % 40] == u[38 - k]

    def test_a_solute_outside_the_box_acts_as_its_periodic_image(self):
        g = PeriodicGrid((40,), (5.0,))
        assert np.array_equal(pvism_potential(g, [-5.5]).values, pvism_potential(g, [4.5]).values)

    def test_nearest_solute_of_several(self):
        g = self.grid()
        u_two = pvism_potential(g, [-2.0, 2.0])
        (x,) = g.coordinates()
        i = int(np.argmin(np.abs(x - 4.9)))
        single = pvism_potential(g, [2.0])
        assert u_two.values[i] == single.values[i]


def rhs_oracle(phi_values, grid, params, op, potential_values=None):
    """The right-hand side as written before it was evaluated from q = s^2 - s."""
    tau = params.tau
    rhs = (1.0 + tau * params.kappa / params.epsilon) * phi_values
    rhs -= (tau / params.epsilon) * W_prime(phi_values)
    fp = f_prime(params, phi_values)
    if potential_values is not None:
        rhs -= tau * potential_values * fp
        return rhs
    if op.kind is OpKind.NONE:
        vol = volume_term(phi_values, grid, params)
    else:
        mismatch_hat = mismatch_spectrum(phi_values, params)
        lr = np.fft.irfftn(
            mismatch_hat * multiplier_array(op, grid), s=grid.shape, axes=tuple(range(grid.dim))
        )
        rhs -= tau * params.gamma * lr * fp
        vol = grid.cell_measure * float(mismatch_hat[(0,) * grid.dim].real)
    rhs -= tau * params.M * vol * fp
    return rhs


# The interaction modes of a step: a long-range operator or none in 1D and 2D, and
# solvation, which is 1D.
SPECTRAL_MODES = {
    f"{op}-{dim}d": (dim, op) for dim in (1, 2) for op in ("inverse_laplacian", "helmholtz", "none")
} | {"solvation-1d": (1, "solvation")}


def spectral_mode_problem(model, mode):
    dim, op = SPECTRAL_MODES[mode]
    g = PeriodicGrid((24, 16)[:dim], (5.0, 1.5)[:dim])   # U is not constant on [-5, 5)
    if op == "solvation":
        return Problem(g, model, LongRangeOp.none(), pvism_potential(g, [0.2]).values)
    return Problem(g, model, {"inverse_laplacian": LongRangeOp.inverse_laplacian(),
                              "helmholtz": LongRangeOp.helmholtz(0.3),
                              "none": LongRangeOp.none()}[op])


class TestRhsKernel:
    @pytest.mark.parametrize("model", ALL_INDICATORS)
    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    @pytest.mark.parametrize(
        "mode", ["inverse_laplacian", "helmholtz", "none", "potential"]
    )
    def test_matches_the_former_formula(self, model, sizes, mode):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(sum(sizes))
        # Values outside [0, 1] too, where the cubic's slope does not vanish.
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
        expected = rhs_oracle(phi, g, model, op, pot)
        scale = max(1.0, float(np.max(np.abs(expected))))
        problem = Problem(g, model, op, pot)
        for out in (
            assemble_rhs_array(phi, g, model, op, pot),
            assemble_rhs_array(phi, g, model, op, pot, problem=problem),
        ):
            assert np.max(np.abs(out - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("model", ALL_INDICATORS)
    def test_problem_mismatch_spectrum_is_bit_identical(self, model):
        # The spectrum a run and a step start from, loaded into the kernel.
        for g in (PeriodicGrid((8, 12), (1.0, 1.0)), PeriodicGrid((24,), (1.0,))):
            phi = np.random.default_rng(5).uniform(-0.3, 1.3, size=g.shape)
            problem = Problem(g, model, LongRangeOp.inverse_laplacian())
            problem.load(phi)
            assert np.array_equal(problem.mismatch_hat, mismatch_spectrum(phi, model))

    @pytest.mark.parametrize("sizes", [(24,), (8, 12)])
    def test_start_loads_the_field_and_its_transform(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        phi = np.random.default_rng(9).uniform(-0.3, 1.3, size=g.shape)
        started = Problem(g, PARAMS, LongRangeOp.inverse_laplacian())
        started.start(phi)
        loaded = Problem(g, PARAMS, LongRangeOp.inverse_laplacian())
        loaded.load(phi)
        assert np.array_equal(started.phi_hat, np.fft.rfftn(phi))
        assert np.array_equal(started.q, loaded.q)
        assert np.array_equal(started.mismatch_hat, loaded.mismatch_hat)

    @pytest.mark.parametrize("model", ALL_INDICATORS)
    @pytest.mark.parametrize("omega", [0.0, 0.3])
    def test_mismatch_is_f_eval_bit_for_bit(self, model, omega):
        # Into the problem's buffer; s is left alone.
        g = PeriodicGrid((8, 12), (1.0, 1.0))
        problem = Problem(g, model, LongRangeOp.inverse_laplacian())
        s = np.random.default_rng(7).uniform(-0.3, 1.3, size=g.shape)
        before = s.copy()
        assert problem.mismatch(s, omega) is problem.work
        assert np.array_equal(problem.work, f_eval(model, s) - omega)
        assert np.array_equal(s, before)

    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    def test_interleaved_arrays_scale_like_the_complex_arithmetic(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        p = PARAMS
        problem = Problem(g, p, LongRangeOp.inverse_laplacian())
        spectrum = np.fft.rfftn(np.random.default_rng(6).standard_normal(g.shape))
        denom = 1.0 + p.tau * p.kappa / p.epsilon + p.tau * p.epsilon * stencil_symbol(g)
        solved = spectrum.view(np.float64) * problem.inverse_denominator
        assert np.array_equal(solved, (spectrum / denom).view(np.float64))
        # The cubic's multiplier is stored scaled by 6 tau gamma.
        mult = 6.0 * p.tau * p.gamma * multiplier_array(LongRangeOp.inverse_laplacian(), g)
        scaled = spectrum.view(np.float64) * problem.multiplier
        assert np.array_equal(scaled, (spectrum * mult).view(np.float64))

    @pytest.mark.parametrize("mode", sorted(SPECTRAL_MODES))
    @pytest.mark.parametrize("model", ALL_INDICATORS, ids=["cubic", "linear"])
    def test_the_spectral_half_of_a_step_is_plain_numpy_bit_for_bit(self, model, mode):
        # Every real per-mode array has one layout: each entry twice, in the shape of a
        # half spectrum viewed as float64 pairs.
        problem = spectral_mode_problem(model, mode)
        held = [problem.inverse_denominator, problem.symbol_weights]
        if problem.multiplier is not None:
            held += [problem.multiplier, problem.op_weights]
        else:
            assert problem.op_weights is None
        for array in held:
            assert array.shape == problem.phi_hat.view(np.float64).shape
            assert not array.flags.writeable
            assert np.array_equal(array[..., ::2], array[..., 1::2])
        # Complex-by-real multiplies with the de-interleaved arrays and np.fft.irfftn,
        # against the interleaved multiplies and the problem's own inverse.
        shape, axes = problem.grid.shape, problem.axes
        s = np.random.default_rng(4).uniform(0.0, 1.0, shape)
        problem.start(s)
        for _ in range(5):
            if problem.potential_force is not None:
                g = problem.potential_force
            else:
                g = problem.volume_force * problem.volume + problem.offset
                if problem.multiplier is not None:
                    long_range = problem.mismatch_hat * problem.multiplier[..., ::2]
                    g = np.fft.irfftn(long_range, shape, axes) + g
            rhs = problem.rhs(s, g, np.empty(shape))
            phi_hat = np.fft.rfftn(rhs, shape, axes) * problem.inverse_denominator[..., ::2]
            out = np.empty(shape)
            problem.advance(s, out)
            assert np.array_equal(out, np.fft.irfftn(phi_hat, shape, axes))
            assert np.array_equal(problem.phi_hat, phi_hat)
            s = out

    @pytest.mark.parametrize("sizes", [(16,), (8, 12)])
    def test_transforms_act_on_the_trailing_axes(self, sizes):
        # A leading batch axis transforms member by member.
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        problem = Problem(g, PARAMS, LongRangeOp.inverse_laplacian())
        batch = np.random.default_rng(8).standard_normal((3,) + g.shape)
        spectra = problem.forward(batch, None)
        back = problem.inverse(spectra, np.empty_like(batch), np.empty_like(spectra))
        for member, spectrum, field in zip(batch, spectra, back):
            assert np.array_equal(spectrum, np.fft.rfftn(member))
            assert np.array_equal(field, np.fft.irfftn(spectrum, g.shape, problem.axes))

    def test_potential_requires_none_operator(self):
        g = PeriodicGrid((16,), (1.0,))
        with pytest.raises(ConfigError):
            Problem(g, PARAMS, LongRangeOp.inverse_laplacian(), np.ones(g.shape))

    @pytest.mark.parametrize(
        "op",
        [LongRangeOp.inverse_laplacian(), LongRangeOp.helmholtz(0.3), LongRangeOp.garnet_film(0.5),
         "custom"],
        ids=["inverse_laplacian", "helmholtz", "garnet_film", "custom"],
    )
    def test_operator_norm_is_the_impulse_response_norm_of_its_multiplier_bit_for_bit(self, op):
        from test_spectral import random_even_table, table_from_dict

        g = PeriodicGrid((8, 12), (1.0, 1.5))
        if op == "custom":
            op = LongRangeOp.custom(table_from_dict(random_even_table(g.sizes, 5)))
        expected = impulse_response_norm(multiplier_array(op, g), g)
        assert Problem(g, PARAMS, op).op_norm == expected

    def test_operator_norm_is_max_abs_potential_or_0_without_either(self):
        g = PeriodicGrid((16,), (1.0,))
        potential = np.linspace(-3.0, 2.0, 16)
        assert Problem(g, PARAMS, LongRangeOp.none(), potential).op_norm == 3.0
        assert Problem(g, PARAMS, LongRangeOp.none()).op_norm == 0.0


BOUND_OPERATORS = {
    "inverse_laplacian": LongRangeOp.inverse_laplacian(),
    "helmholtz": LongRangeOp.helmholtz(0.3),
    "garnet_film": LongRangeOp.garnet_film(0.5),
    "none": LongRangeOp.none(),
    "solvation": LongRangeOp.none(),
}


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(sorted(BOUND_OPERATORS)),
    model=st.sampled_from(ALL_INDICATORS),
    dim=st.sampled_from([1, 2]),
    gamma=st.floats(0.0, 1e4),
    M=st.floats(0.0, 1e5),
    omega=st.floats(0.01, 0.99),
    start=st.sampled_from(["random", "zeros", "ones"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_force_bound_bounds_the_force_the_kernel_applies(
    mode, model, dim, gamma, M, omega, start, seed
):
    # The solvation potential is defined in 1D; on [-5, 5) it is not constant.
    dim = 1 if mode == "solvation" else dim
    g = PeriodicGrid((16,) * dim, (5.0,) * dim)
    params = replace(model, gamma=gamma, M=M, omega=omega, kappa=0.0)
    potential = pvism_potential(g, [0.0]).values if mode == "solvation" else None
    problem = Problem(g, params, BOUND_OPERATORS[mode], potential)
    phi = {"random": np.random.default_rng(seed).uniform(0.0, 1.0, g.shape),
           "zeros": np.zeros(g.shape), "ones": np.ones(g.shape)}[start]
    problem.load(phi)
    k = 6.0 if problem.fused else -1.0
    force = (problem.force() - problem.offset) / (k * params.tau)
    assert np.max(np.abs(force)) <= problem.force_bound * (1.0 + 1e-9) + 1e-12
