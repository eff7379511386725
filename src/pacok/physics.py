"""Model nonlinearities, scalar parameters, and explicit force assembly.

The double-well potential and the indicator nonlinearity are

    W(s) = 18 (s^2 - s)^2,          W'(s) = 36 (s^2 - s)(2s - 1),
    f(s) = 3 s^2 - 2 s^3,           f'(s) = 6 s - 6 s^2,   f''(s) = 6 - 12 s.

f is the smallest-degree polynomial with f(0) = 0, f(1) = 1 and
f'(0) = f'(1) = 0; the vanishing endpoint slopes switch the long-range and
volume-penalty forces off in the pure phases, which is what makes the
stabilized explicit treatment preserve the [0, 1] bounds.  A clamped
extension (0 below 0, 1 above 1, derivatives zero outside [0, 1]) is
available for the continuous-level analysis; discrete runs do not need it.
The traditional linear choice f(s) = s is provided for comparison runs; it
loses the bound-preservation guarantee.

Bound constants L_W'' = max |W''|, L_f' = max |f'|, L_f'' = max |f''| over
[0, 1] enter every stability condition.  They are computed by maximization
over a dyadic grid that holds the extremal points exactly, and
cross-checked against the closed forms (36, 3/2, 6 for the cubic; 36, 1, 0
for the linear choice) so future f variants stay honest.

The explicit right-hand side of one stabilized semi-implicit step is

    F(p) = (1 + tau*kappa/eps) p - (tau/eps) W'(p)
           - tau*gamma * L(f(p) - omega) . f'(p)
           - tau*M * <f(p) - omega, 1>_h * f'(p),

with . the pointwise product.  In solvation mode (no long-range operator,
an external potential U attached) the interaction terms are replaced by
-tau * U . f'(p) and the volume penalty is dropped.

W' and f' share q = p^2 - p: W'(p) = 36 q (2p - 1), and for the cubic
f'(p) = -6 q.  A :class:`Problem`, built once per run, holds the operator
arrays and the grid-sized buffers the right-hand side is assembled in, so
assembling it allocates no grid-sized temporaries.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import GridField, PeriodicGrid
from .spectral import LongRangeOp, OpKind, multiplier_array, stencil_symbol


class FKind(enum.Enum):
    CUBIC_HERMITE = "cubic"
    LINEAR = "linear"


@dataclass(frozen=True)
class NonlinearSpec:
    """Choice of indicator nonlinearity f and whether to clamp it outside [0, 1]."""

    f_kind: FKind = FKind.CUBIC_HERMITE
    use_extension: bool = False

    def __post_init__(self):
        if self.f_kind is FKind.CUBIC_HERMITE:
            checks = (
                abs(f_eval(self, 0.0)),
                abs(f_eval(self, 1.0) - 1.0),
                abs(f_prime(self, 0.0)),
                abs(f_prime(self, 1.0)),
            )
            if max(checks) > 1e-14:
                raise ConfigError("cubic indicator fails its endpoint conditions")

    @property
    def endpoint_compatible(self) -> bool:
        """True when f(0)=0, f(1)=1, f'(0)=f'(1)=0 hold.

        The discrete bound-preservation and energy-decay guarantees are
        proved only for such f; the linear choice is not covered.
        """
        return self.f_kind is FKind.CUBIC_HERMITE


@dataclass(frozen=True)
class ModelParams:
    """Scalar physics and scheme parameters.

    epsilon : interface width (> 0)
    gamma   : long-range coupling strength (>= 0)
    M       : volume penalty constant (>= 0)
    omega   : relative volume in (0, 1)
    kappa   : stabilizing splitting constant (>= 0)
    tau     : time step (> 0)
    """

    epsilon: float
    gamma: float
    M: float
    omega: float
    kappa: float
    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.M < 0.0:
            raise ConfigError(f"M must be >= 0, got {self.M}")
        if not (0.0 < self.omega < 1.0):
            raise ConfigError(f"omega must lie in (0, 1), got {self.omega}")
        if self.kappa < 0.0:
            raise ConfigError(f"kappa must be >= 0, got {self.kappa}")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"tau must be positive, got {self.tau}")

    @property
    def omega_tilde(self) -> float:
        """max(omega, 1 - omega), the worst-case magnitude of f - omega."""
        return max(self.omega, 1.0 - self.omega)


def W_eval(s):
    """Double-well potential 18 (s^2 - s)^2."""
    s = np.asarray(s, dtype=np.float64)
    q = s * s - s
    out = 18.0 * q * q
    return float(out) if out.ndim == 0 else out


def W_prime(s):
    """W'(s) = 36 (s^2 - s)(2s - 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = 36.0 * (s * s - s) * (2.0 * s - 1.0)
    return float(out) if out.ndim == 0 else out


def W_pprime(s):
    """W''(s) = 36 (6 s^2 - 6 s + 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = 36.0 * (6.0 * s * s - 6.0 * s + 1.0)
    return float(out) if out.ndim == 0 else out


def _clamp01(s):
    return np.clip(s, 0.0, 1.0)


def f_eval(spec: NonlinearSpec, s):
    s = np.asarray(s, dtype=np.float64)
    arg = _clamp01(s) if spec.use_extension else s
    if spec.f_kind is FKind.CUBIC_HERMITE:
        out = (3.0 - 2.0 * arg) * arg * arg
    else:
        out = np.array(arg, dtype=np.float64)
    return float(out) if out.ndim == 0 else out


def f_prime(spec: NonlinearSpec, s):
    s = np.asarray(s, dtype=np.float64)
    if spec.f_kind is FKind.CUBIC_HERMITE:
        arg = _clamp01(s) if spec.use_extension else s
        # f'(0) = f'(1) = 0, so clamping alone zeroes the slope outside.
        out = 6.0 * arg * (1.0 - arg)
    else:
        out = np.ones_like(s)
        if spec.use_extension:
            out = np.where((s < 0.0) | (s > 1.0), 0.0, out)
    return float(out) if out.ndim == 0 else out


def f_pprime(spec: NonlinearSpec, s):
    s = np.asarray(s, dtype=np.float64)
    if spec.f_kind is FKind.CUBIC_HERMITE:
        out = 6.0 - 12.0 * s
        if spec.use_extension:
            out = np.where((s < 0.0) | (s > 1.0), 0.0, out)
    else:
        out = np.zeros_like(s)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LipschitzConstants:
    """Max-norm bounds of W'', f', f'' over [0, 1]."""

    L_Wpp: float
    L_fp: float
    L_fpp: float


_CLOSED_FORM = {
    FKind.CUBIC_HERMITE: (36.0, 1.5, 6.0),
    FKind.LINEAR: (36.0, 1.0, 0.0),
}


@functools.lru_cache(maxsize=None)
def lipschitz_constants(spec: NonlinearSpec) -> LipschitzConstants:
    """Bound constants computed by grid maximization over [0, 1].

    The 1025 nodes k/1024 are dyadic, so the extremal points 0, 1/2 and 1
    of the polynomials are sampled exactly and the maxima come out exact;
    the result is cross-checked against the closed-form values to 1e-9 at
    first use.  The constants depend on ``spec.f_kind`` only: the clamped
    extension agrees with f on [0, 1].
    """
    s = np.linspace(0.0, 1.0, 1025)
    inner = NonlinearSpec(spec.f_kind, use_extension=False)
    computed = LipschitzConstants(
        L_Wpp=float(np.max(np.abs(W_pprime(s)))),
        L_fp=float(np.max(np.abs(f_prime(inner, s)))),
        L_fpp=float(np.max(np.abs(f_pprime(inner, s)))),
    )
    expected = _CLOSED_FORM[spec.f_kind]
    deviation = max(
        abs(computed.L_Wpp - expected[0]),
        abs(computed.L_fp - expected[1]),
        abs(computed.L_fpp - expected[2]),
    )
    if deviation > 1e-9:
        raise ConfigError(
            f"computed bound constants {computed} deviate from closed form {expected}"
        )
    return computed


def volume_term(phi_values: np.ndarray, grid: PeriodicGrid, spec: NonlinearSpec, omega: float) -> float:
    """Riemann sum <f(phi) - omega, 1>_h of the volume mismatch."""
    return grid.cell_measure * float(np.sum(f_eval(spec, phi_values) - omega))


def mismatch_spectrum(phi_values: np.ndarray, spec: NonlinearSpec, omega: float) -> np.ndarray:
    """Half spectrum ``rfftn(f(phi) - omega)`` of the volume mismatch.

    The long-range force, the long-range energy and (through the zero mode,
    which is the plain sum of the mismatch) the volume term all start from it.
    """
    return np.fft.rfftn(f_eval(spec, phi_values) - omega)


def _interleaved(a: np.ndarray) -> np.ndarray:
    """``a`` with every entry twice along the last axis, read-only.

    Multiplying a complex half spectrum viewed as float pairs by it gives
    the same bits as multiplying the spectrum by the real array ``a``, in
    one contiguous pass instead of a complex-by-complex loop.
    """
    out = np.repeat(a, 2, axis=-1)
    out.setflags(write=False)
    return out


class Problem:
    """Operator arrays and work buffers of one run, built once for its steps.

    It holds the arguments it was built from, the long-range multiplier
    (None without a long-range operator), the reciprocal of the implicit
    solve's denominator

        (1 + tau*kappa/eps) + tau*eps*lambda(j, k),   every entry >= 1,

    both interleaved (see :func:`_interleaved`), and the buffers the
    right-hand side and the time step write into.  Multiplying by the
    reciprocal is what dividing a complex spectrum by the real denominator
    computes, bit for bit.  A buffer is overwritten by the next call that
    uses it; only :func:`assemble_rhs_array` hands one out, its result.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        params: ModelParams,
        spec: NonlinearSpec,
        op: LongRangeOp,
        potential_values: np.ndarray | None = None,
    ):
        if potential_values is not None and op.kind is not OpKind.NONE:
            raise ConfigError("an external potential requires operator kind 'none'")
        self.grid, self.params, self.spec, self.op = grid, params, spec, op
        self.potential_values = potential_values
        self.axes = tuple(range(grid.dim))
        self.half_shape = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
        self.multiplier = (
            None if op.kind is OpKind.NONE else _interleaved(multiplier_array(op, grid))
        )
        tau, eps = params.tau, params.epsilon
        denom = 1.0 + tau * params.kappa / eps + tau * eps * stencil_symbol(grid)
        if float(np.min(denom)) < 1.0 - 1e-15:
            raise AssertionError("implicit solve lost unconditional solvability")
        self.inverse_denominator = _interleaved(1.0 / denom)
        self.q = np.empty(grid.shape)
        self.rhs = np.empty(grid.shape)
        self.work = np.empty(grid.shape)
        self.product = None if self.multiplier is None else np.empty(self.half_shape, complex)

    def built_from(self, grid, params, spec, op, potential_values) -> bool:
        return (
            (self.grid, self.params, self.spec, self.op) == (grid, params, spec, op)
            and self.potential_values is potential_values
        )

    def mismatch_values(self, s: np.ndarray) -> np.ndarray:
        """f(s) - omega in the ``work`` buffer, with the operations of :func:`f_eval`."""
        spec, out = self.spec, self.work
        if spec.use_extension:
            s = np.clip(s, 0.0, 1.0, out=self.q)
        if spec.f_kind is FKind.CUBIC_HERMITE:
            np.multiply(2.0, s, out=out)
            np.subtract(3.0, out, out=out)
            out *= s
            out *= s
            out -= self.params.omega
        else:
            np.subtract(s, self.params.omega, out=out)
        return out

    def mismatch_spectrum(self, s: np.ndarray) -> np.ndarray:
        """A new array rfftn(f(s) - omega); equal to :func:`mismatch_spectrum`."""
        return np.fft.rfftn(
            self.mismatch_values(s), axes=self.axes,
            out=np.empty(self.half_shape, complex),
        )


def assemble_rhs_array(
    phi_values: np.ndarray,
    grid: PeriodicGrid,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential_values: np.ndarray | None = None,
    mismatch_hat: np.ndarray | None = None,
    *,
    problem: Problem | None = None,
) -> np.ndarray:
    """Raw-array right-hand side used by the time stepper's inner loop.

    With a long-range operator the interaction force is one inverse
    transform of ``mismatch_hat`` times the multiplier, and the volume
    term is the zero mode of ``mismatch_hat``.  Pass the spectrum when the
    caller has it (a state returned by :func:`pacok.stepping.step` carries
    it); otherwise it is computed here from ``phi_values``.

    The result is written into a buffer of ``problem``, which must have
    been built from the same arguments; without one, a new problem is built
    and the result is the caller's.
    """
    if problem is None:
        problem = Problem(grid, params, spec, op, potential_values)
    s = phi_values
    tau, eps = params.tau, params.epsilon
    long_range = problem.multiplier is not None
    # The mismatch goes first: it uses the buffers the local part fills.
    if long_range and mismatch_hat is None:
        mismatch_hat = problem.mismatch_spectrum(s)
    elif not long_range and potential_values is None:
        volume = grid.cell_measure * float(np.sum(problem.mismatch_values(s)))
    # Local part (1 + tau*kappa/eps) s - (tau/eps) W'(s), W'(s) = 36 q (2s - 1).
    q = np.multiply(s, s, out=problem.q)
    q -= s
    rhs = np.multiply(2.0, s, out=problem.rhs)
    rhs -= 1.0
    rhs *= q
    rhs *= -36.0 * tau / eps
    rhs += np.multiply(1.0 + tau * params.kappa / eps, s, out=problem.work)
    # The force that multiplies f'(s).
    if long_range:
        np.multiply(
            mismatch_hat.view(np.float64), problem.multiplier,
            out=problem.product.view(np.float64),
        )
        force = np.fft.irfftn(problem.product, s=grid.shape, axes=problem.axes, out=problem.work)
        volume = grid.cell_measure * float(mismatch_hat[(0,) * grid.dim].real)
        force *= tau * params.gamma
        force += tau * params.M * volume
    elif potential_values is not None:
        force = np.multiply(tau, potential_values, out=problem.work)
    else:
        force = tau * params.M * volume
    if spec.use_extension:
        fp = f_prime(spec, s)   # the clamped variants are not used by discrete runs
    elif spec.f_kind is FKind.CUBIC_HERMITE:
        fp = np.multiply(-6.0, q, out=q)   # f'(s) = 6 s (1 - s) = -6 q
    else:
        fp = None   # f' = 1
    if fp is None:
        rhs -= force
    else:
        fp *= force
        rhs -= fp
    return rhs


def assemble_rhs(
    phi: GridField,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
) -> GridField:
    """Explicit right-hand side F(phi) of one stabilized semi-implicit step.

    For endpoint-compatible f and parameters satisfying the bound-
    preservation condition, F maps fields with values in [0, 1] into
    [0, 1 + tau*kappa/epsilon] pointwise.
    """
    pot = potential.values if potential is not None else None
    return phi.with_values(
        assemble_rhs_array(phi.values, phi.grid, params, spec, op, pot)
    )


# Solvation potential constants: water density, Lennard-Jones well depth and
# zero-crossing distance, solute partial charge, vacuum permittivity, solute
# and solvent relative permittivities, plateau cutoff distance.
SOLVENT_DENSITY = 0.0333
LJ_WELL_DEPTH = 0.3
LJ_SIGMA = 3.5
SOLUTE_CHARGE = 1.0
VACUUM_PERMITTIVITY = 1.4321e-4
SOLUTE_PERMITTIVITY = 1.0
SOLVENT_PERMITTIVITY = 80.0
POTENTIAL_CUTOFF = 2.5


def pvism_potential(grid: PeriodicGrid, solute_positions) -> GridField:
    """Solute-solvent potential U(x) for the 1D implicit-solvation model.

    U combines a Lennard-Jones-type repulsion and a Born electrostatic
    attraction, both evaluated at the cutoff distance x_cut =
    max(|x - nearest solute|, 2.5) so the potential plateaus near each
    solute.  The electrostatic part uses the Coulomb-field-approximation
    energy density Q^2/(32 pi^2 eps0) (1/eps_w - 1/eps_m) / x^4, the
    pointwise form whose exterior integral gives the familiar Born energy
    Q^2/(8 pi eps0) (1/eps_w - 1/eps_m) / r; a density is what the energy
    functional integrates against f(phi).  The resulting potential is
    repulsive inside x ~ 2.75 and attractive beyond, which is what pins
    the solvation interface just outside the cutoff radius.
    """
    if grid.dim != 1:
        raise ConfigError("the solvation potential is defined for 1D grids")
    positions = [float(p) for p in np.atleast_1d(solute_positions)]
    if not positions:
        raise ConfigError("at least one solute position is required")
    (x,) = grid.coordinates()
    dist = np.min(np.abs(x[:, None] - np.array(positions)[None, :]), axis=1)
    x_cut = np.maximum(dist, POTENTIAL_CUTOFF)
    ratio6 = (LJ_SIGMA / x_cut) ** 6
    lj = SOLVENT_DENSITY / (4.0 * LJ_WELL_DEPTH) * (ratio6 * ratio6 - ratio6)
    born = (
        SOLUTE_CHARGE**2
        / (32.0 * np.pi**2 * VACUUM_PERMITTIVITY)
        * (1.0 / SOLVENT_PERMITTIVITY - 1.0 / SOLUTE_PERMITTIVITY)
        / x_cut**4
    )
    return GridField(grid, lj + born)
