import numpy as np
import pytest

from pacok.energy import EnergyBreakdown, problem_energy
from pacok.grid import GridField, PeriodicGrid
from pacok.physics import FKind, ModelParams, Problem
from pacok.spectral import LongRangeOp, OpKind
from pacok.stepping import SchemeState, step

from oracles import W_eval, apply_laplacian, apply_long_range, f_eval, field_energy
from test_spectral import dense_laplacian, random_even_table, table_from_dict


def params(**kwargs):
    base = dict(epsilon=0.1, gamma=100.0, M=2000.0, omega=0.3, kappa=10.0, tau=1e-3)
    base.update(kwargs)
    return ModelParams(**base)


def solve_f_equals(target):
    """Root of 3s^2 - 2s^3 = target in [0, 1] by bisection (independent oracle)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 3 * mid**2 - 2 * mid**3 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDiscreteEnergy:
    def test_volume_consistent_constant(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        p = params(omega=0.3)
        w_star = solve_f_equals(p.omega)
        assert f_eval(p, w_star) == pytest.approx(p.omega, abs=1e-14)
        e = field_energy(GridField(g, np.full(g.shape, w_star)), p, LongRangeOp.inverse_laplacian())
        assert e.interfacial == pytest.approx(0.0, abs=1e-12)
        assert e.longrange == pytest.approx(0.0, abs=1e-12)
        assert e.penalty == pytest.approx(0.0, abs=1e-12)
        assert e.well == pytest.approx(g.measure * W_eval(w_star) / p.epsilon, rel=1e-12)

    def test_zero_field_penalty(self):
        # Phi = 0, omega = 0.3, M = 2000 on |T| = 2: penalty = (M/2)(0.3*2)^2 = 360.
        g = PeriodicGrid((64,), (1.0,))
        p = params(omega=0.3, M=2000.0)
        e = field_energy(GridField(g, np.full(g.shape, 0.0)), p, LongRangeOp.inverse_laplacian())
        assert e.penalty == pytest.approx(360.0, rel=1e-12)
        assert e.well == 0.0
        assert e.interfacial == pytest.approx(0.0, abs=1e-13)
        assert e.total == pytest.approx(360.0, rel=1e-12)

    def test_matches_dense_quadratic_forms(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        p = params()
        rng = np.random.default_rng(31)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        L = dense_laplacian(g)
        G = np.linalg.pinv(-L)
        v = phi.values.ravel()
        dx = g.cell_measure
        mismatch = f_eval(p, v) - p.omega
        expected = (
            -0.5 * p.epsilon * dx * v @ (L @ v)
            + dx * np.sum(W_eval(v)) / p.epsilon
            + 0.5 * p.gamma * dx * mismatch @ (G @ mismatch)
            + 0.5 * p.M * (dx * np.sum(mismatch)) ** 2
        )
        e = field_energy(phi, p, LongRangeOp.inverse_laplacian())
        assert e.total == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    def test_translation_invariance(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        p = params()
        rng = np.random.default_rng(32)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        e0 = field_energy(phi, p, LongRangeOp.inverse_laplacian())
        shifted = GridField(g, np.roll(phi.values, (5, -9), axis=(0, 1)))
        e1 = field_energy(shifted, p, LongRangeOp.inverse_laplacian())
        assert e1.total == pytest.approx(e0.total, rel=1e-10)
        assert e1.interfacial == pytest.approx(e0.interfacial, rel=1e-10)
        assert e1.longrange == pytest.approx(e0.longrange, rel=1e-10)

    def test_part_signs_on_random_fields(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        p = params()
        rng = np.random.default_rng(33)
        for op in [LongRangeOp.inverse_laplacian(), LongRangeOp.helmholtz(0.3)]:
            for _ in range(10):
                phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
                e = field_energy(phi, p, op)
                assert e.interfacial >= -1e-12
                assert e.well >= 0.0
                assert e.penalty >= 0.0
                assert e.longrange >= -1e-12
                assert e.total == e.interfacial + e.well + e.longrange + e.penalty

    def test_solvation_mode(self):
        g = PeriodicGrid((64,), (5.0,))
        p = params(gamma=0.0, M=0.0, omega=0.5)
        rng = np.random.default_rng(34)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        pot = GridField(g, rng.standard_normal(g.shape))
        e = field_energy(phi, p, LongRangeOp.none(), potential=pot)
        expected = g.cell_measure * np.sum(f_eval(p, phi.values) * pot.values)
        assert e.longrange == pytest.approx(expected, rel=1e-12)
        assert e.penalty == 0.0

    def test_none_operator_drops_longrange_only(self):
        g = PeriodicGrid((32,), (1.0,))
        p = params()
        rng = np.random.default_rng(35)
        phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
        e = field_energy(phi, p, LongRangeOp.none())
        assert e.longrange == 0.0
        assert e.penalty > 0.0


def stencil_energy(phi, params, op, potential=None):
    """The energy as real-space sums: the stencil form through apply_laplacian
    and the long-range form through apply_long_range (test oracle)."""
    g = phi.grid
    v = phi.values
    dx = g.cell_measure
    interfacial = -0.5 * params.epsilon * dx * np.sum(apply_laplacian(phi).values * v)
    well = dx * np.sum(W_eval(v)) / params.epsilon
    if potential is not None:
        longrange = dx * np.sum(f_eval(params, v) * potential.values)
        penalty = 0.0
    else:
        mismatch = f_eval(params, v) - params.omega
        longrange = 0.0
        if op.kind is not OpKind.NONE:
            lr = apply_long_range(op, GridField(g, mismatch)).values
            longrange = 0.5 * params.gamma * dx * np.sum(lr * mismatch)
        penalty = 0.5 * params.M * (dx * np.sum(mismatch)) ** 2
    return EnergyBreakdown(
        interfacial, well, longrange, penalty, interfacial + well + longrange + penalty
    )


def assert_parts_close(got, expected, rel=1e-12):
    for part in ("interfacial", "well", "longrange", "penalty", "total"):
        a, b = getattr(got, part), getattr(expected, part)
        assert a == pytest.approx(b, rel=rel, abs=0.0), part


GRIDS = {"1d": ((64,), (1.0,)), "2d": ((16, 24), (1.0, 1.5))}


def operator(kind, sizes):
    return {
        "inverse_laplacian": LongRangeOp.inverse_laplacian(),
        "helmholtz": LongRangeOp.helmholtz(0.3),
        "garnet_film": LongRangeOp.garnet_film(0.2),
        "custom": LongRangeOp.custom(table_from_dict(random_even_table(sizes, 5))),
        "none": LongRangeOp.none(),
    }[kind]


# Each indicator, as ModelParams fields.
INDICATORS = {
    "cubic": {},
    "linear": {"f": FKind.LINEAR},
}


class TestParsevalEnergy:
    """The energy from the half spectra equals the real-space stencil form."""

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("indicator", sorted(INDICATORS))
    @pytest.mark.parametrize(
        "kind", ["inverse_laplacian", "helmholtz", "garnet_film", "custom", "none"]
    )
    def test_matches_stencil_form(self, dim, indicator, kind):
        g = PeriodicGrid(*GRIDS[dim])
        p = params(**INDICATORS[indicator])
        op = operator(kind, g.sizes)
        rng = np.random.default_rng(36)
        phi = GridField(g, rng.uniform(-0.1, 1.1, size=g.shape))
        assert_parts_close(field_energy(phi, p, op), stencil_energy(phi, p, op))

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("indicator", sorted(INDICATORS))
    def test_potential_mode_matches_stencil_form(self, dim, indicator):
        g = PeriodicGrid(*GRIDS[dim])
        p = params(gamma=0.0, M=0.0, omega=0.5, **INDICATORS[indicator])
        rng = np.random.default_rng(37)
        phi = GridField(g, rng.uniform(-0.1, 1.1, size=g.shape))
        pot = GridField(g, rng.standard_normal(g.shape))
        op = LongRangeOp.none()
        assert_parts_close(
            field_energy(phi, p, op, pot), stencil_energy(phi, p, op, pot)
        )

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("kind", ["inverse_laplacian", "custom", "none"])
    def test_carried_spectra_match_stencil_form(self, dim, kind):
        assert_carried_spectra_match(dim, kind, "cubic")

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("kind", ["inverse_laplacian", "custom", "none"])
    def test_carried_spectra_of_the_linear_f_match_stencil_form(self, dim, kind):
        assert_carried_spectra_match(dim, kind, "linear")


def assert_carried_spectra_match(dim, kind, indicator):
    # The spectra a step leaves in its problem: the solve spectrum, which
    # is rfftn(phi) only up to round-off, and rfftn(f(phi) - omega).
    g = PeriodicGrid(*GRIDS[dim])
    p = params(**INDICATORS[indicator])
    op = operator(kind, g.sizes)
    rng = np.random.default_rng(38)
    problem = Problem(g, p, op)
    phi = GridField(g, rng.uniform(0.0, 1.0, size=g.shape))
    state = step(SchemeState(phi), problem)
    assert (problem.mismatch_hat is None) == (kind == "none")
    carried = problem_energy(problem, state.phi.values)
    assert_parts_close(carried, stencil_energy(state.phi, p, op))
