"""Independent reference for the benchmark's output checks.

Written from the paper's formulas with plain numpy; it imports nothing from
``pacok``.  It covers:

* one stabilized semi-implicit step
      ((1 + tau*kappa/eps) - tau*eps*Lap_h) P_new = F(P_old),
      F(p) = (1 + tau*kappa/eps) p - (tau/eps) W'(p)
             - tau*gamma * G(f(p) - omega) f'(p)
             - tau*M * <f(p) - omega, 1>_h f'(p),
  with G the zero-mean inverse of -Lap_h in closed form;
* the four-term discrete energy
      -eps/2 <Lap_h P, P>_h + 1/eps <W(P), 1>_h
      + gamma/2 <G(f(P) - omega), f(P) - omega>_h + M/2 <f(P) - omega, 1>_h^2,
  with both quadratic forms taken by Parseval over the full complex DFT;
* a periodic bump (1D) / bubble (2D) count by label propagation;
* plain-text readers for the snapshot and series files and a writer for the
  custom symbol table the ``custom-op-2d`` workload feeds to the program.

W(s) = 18 (s^2 - s)^2 and f(s) = 3 s^2 - 2 s^3 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Physics:
    epsilon: float
    gamma: float
    M: float
    omega: float
    kappa: float
    tau: float


def W(s):
    return 18.0 * (s * s - s) ** 2


def W_prime(s):
    return 36.0 * (s * s - s) * (2.0 * s - 1.0)


def f(s):
    return s * s * (3.0 - 2.0 * s)


def f_prime(s):
    return 6.0 * s * (1.0 - s)


def _cell_measure(shape, extents) -> float:
    return float(np.prod([2.0 * x / n for n, x in zip(shape, extents)]))


def stencil_symbol(shape, extents) -> np.ndarray:
    """lambda(m) = sum_i (4/h_i^2) sin^2(pi m_i / N_i) over the full DFT layout."""
    lam = np.zeros(shape)
    for axis, (n, x) in enumerate(zip(shape, extents)):
        h = 2.0 * x / n
        m = np.abs(np.fft.fftfreq(n) * n)
        term = (4.0 / h**2) * np.sin(np.pi * m / n) ** 2
        lam = lam + term.reshape([-1 if a == axis else 1 for a in range(len(shape))])
    return lam


def inverse_laplacian_symbol(shape, extents) -> np.ndarray:
    """1/lambda off the zero mode, 0 on it (the zero-mean projection)."""
    lam = stencil_symbol(shape, extents)
    out = np.zeros(shape)
    nonzero = lam > 0.0
    out[nonzero] = 1.0 / lam[nonzero]
    return out


def _apply_symbol(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(values) * symbol).real


def rhs(phi: np.ndarray, p: Physics, extents) -> np.ndarray:
    mismatch = f(phi) - p.omega
    longrange = _apply_symbol(mismatch, inverse_laplacian_symbol(phi.shape, extents))
    volume = _cell_measure(phi.shape, extents) * float(np.sum(mismatch))
    return (
        (1.0 + p.tau * p.kappa / p.epsilon) * phi
        - (p.tau / p.epsilon) * W_prime(phi)
        - p.tau * (p.gamma * longrange + p.M * volume) * f_prime(phi)
    )


def step(phi: np.ndarray, p: Physics, extents) -> np.ndarray:
    denom = (
        1.0 + p.tau * p.kappa / p.epsilon
        + p.tau * p.epsilon * stencil_symbol(phi.shape, extents)
    )
    return _apply_symbol(rhs(phi, p, extents), 1.0 / denom)


def energy(phi: np.ndarray, p: Physics, extents) -> float:
    dx = _cell_measure(phi.shape, extents)
    cells = phi.size
    spectrum = np.fft.fftn(phi)
    interfacial = 0.5 * p.epsilon * dx / cells * float(
        np.sum(stencil_symbol(phi.shape, extents) * np.abs(spectrum) ** 2)
    )
    well = dx * float(np.sum(W(phi))) / p.epsilon
    mismatch = f(phi) - p.omega
    longrange = 0.5 * p.gamma * dx / cells * float(
        np.sum(inverse_laplacian_symbol(phi.shape, extents) * np.abs(np.fft.fftn(mismatch)) ** 2)
    )
    penalty = 0.5 * p.M * (dx * float(np.sum(mismatch))) ** 2
    return interfacial + well + longrange + penalty


def count_bubbles(phi: np.ndarray, threshold: float = 0.5) -> int:
    """Components of {phi > threshold} under periodic nearest-neighbour adjacency.

    Every cell of the set starts with its own label; each sweep replaces a
    label by the smallest among the cell and its in-set neighbours (np.roll
    wraps, so the seams are adjacent) until nothing changes.
    """
    mask = phi > threshold
    big = phi.size
    labels = np.where(mask, np.arange(big).reshape(phi.shape), big)
    while True:
        new = labels
        for axis in range(phi.ndim):
            for shift in (1, -1):
                new = np.minimum(new, np.roll(labels, shift, axis=axis))
        new = np.where(mask, new, big)
        if np.array_equal(new, labels):
            return int(np.unique(labels[mask]).size)
        labels = new


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """Field and time from a ``# pacok-grid v1 ... N=.. t=..`` text file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        values = np.array([float(line) for line in fh if line.strip()])
    tokens = dict(tok.split("=", 1) for tok in header if "=" in tok)
    shape = tuple(int(n) for n in tokens["N"].split(","))
    return values.reshape(shape), float(tokens["t"])


def read_series(path) -> np.ndarray:
    """Rows of ``n,t,min,max,energy,increment`` as a float array (header skipped)."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def write_inverse_laplacian_table(path, shape, extents) -> None:
    """Tabulate the inverse-Laplacian symbol as ``m1[,m2],value`` lines.

    Modes are written in wrapped form, -N/2 <= m < N/2, for the full grid.
    """
    symbol = inverse_laplacian_symbol(shape, extents)
    modes = [np.fft.fftfreq(n) * n for n in shape]
    lines = ["# inverse-Laplacian symbol " + "x".join(str(n) for n in shape)]
    for index in np.ndindex(*shape):
        wrapped = [int(modes[a][i]) for a, i in enumerate(index)]
        lines.append(",".join(str(m) for m in wrapped) + f",{symbol[index]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
