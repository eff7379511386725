"""Closed-form checks of the independent reference (run: python3 -m pytest perfbench)."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev, polynomial

import reference as ref

PHYS = ref.Physics(epsilon=0.1, gamma=300.0, M=2000.0, omega=0.3, kappa=50.0, tau=1e-3)


@pytest.mark.parametrize("shape, extents", [((16,), (1.0,)), ((8, 12), (1.0, 1.5))])
def test_step_of_constant_field(shape, extents):
    # A constant has no Laplacian and no long-range part; only the volume
    # penalty couples it, through |T| (f(c) - omega), and the solve divides
    # the constant mode by 1 + tau*kappa/eps.
    c = 0.37
    p = PHYS
    measure = float(np.prod([2.0 * x for x in extents]))
    fc = 3 * c**2 - 2 * c**3
    rhs = (
        (1 + p.tau * p.kappa / p.epsilon) * c
        - p.tau / p.epsilon * 36 * (c * c - c) * (2 * c - 1)
        - p.tau * p.M * measure * (fc - p.omega) * 6 * c * (1 - c)
    )
    expected = rhs / (1 + p.tau * p.kappa / p.epsilon)
    out = ref.step(np.full(shape, c), p, extents)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


def _cos_moments(coeffs_in_x):
    """Chebyshev coefficients c_n of a polynomial in x = cos(theta).

    p(cos theta) = sum_n c_n cos(n theta), so c_0 is the mean over a period
    and c_n (n >= 1) the amplitude of mode n.
    """
    return chebyshev.poly2cheb(coeffs_in_x)


def test_energy_of_single_fourier_mode():
    # phi = a + b cos(2 pi k j / N): every term has a closed form from the
    # cosine expansion of W(phi) and f(phi); degree 4 * k < N keeps the
    # grid sums free of aliasing.
    n, x_half, k = 64, 1.0, 3
    a, b = 0.45, 0.3
    p = PHYS
    h = 2 * x_half / n
    measure = 2 * x_half
    theta = 2 * np.pi * k * np.arange(n) / n
    phi = a + b * np.cos(theta)

    lam = lambda m: 4 / h**2 * np.sin(np.pi * m * k / n) ** 2
    phi_poly = np.array([a, b])
    w_poly = 18 * polynomial.polypow(polynomial.polysub(polynomial.polypow(phi_poly, 2), phi_poly), 2)
    f_poly = polynomial.polysub(
        3 * polynomial.polypow(phi_poly, 2), 2 * polynomial.polypow(phi_poly, 3)
    )
    w_c = _cos_moments(w_poly)
    f_c = _cos_moments(f_poly)

    interfacial = 0.5 * p.epsilon * lam(1) * b**2 * measure / 2
    well = measure * w_c[0] / p.epsilon
    longrange = 0.5 * p.gamma * sum(f_c[m] ** 2 / lam(m) for m in (1, 2, 3)) * measure / 2
    penalty = 0.5 * p.M * (measure * (f_c[0] - p.omega)) ** 2
    expected = interfacial + well + longrange + penalty
    assert ref.energy(phi, p, (x_half,)) == pytest.approx(expected, rel=1e-12)


def test_bubble_count_joins_across_seams():
    phi = np.zeros((12, 10))
    phi[0, 2:4] = phi[-1, 2:4] = 1.0   # one bubble split by the row seam
    phi[5, 0] = phi[5, -1] = 1.0       # one bubble split by the column seam
    phi[0, 0] = phi[-1, -1] = 1.0      # diagonal corners do not touch
    phi[6:9, 4:7] = 1.0
    assert ref.count_bubbles(phi) == 5
    assert ref.count_bubbles(np.array([1.0, 1, 0, 0, 1, 0, 1])) == 2
    assert ref.count_bubbles(np.ones(8)) == 1
    assert ref.count_bubbles(np.zeros((4, 4))) == 0


def test_symbol_table_round_trip(tmp_path):
    path = tmp_path / "symbol.csv"
    ref.write_inverse_laplacian_table(path, (6, 4), (1.0, 2.0))
    rows = np.loadtxt(path, delimiter=",", comments="#")
    table = {(int(r[0]), int(r[1])): r[2] for r in rows}
    assert len(table) == 24 and all(-3 <= m1 < 3 and -2 <= m2 < 2 for m1, m2 in table)
    assert table[(0, 0)] == 0.0
    wrap = lambda m, n: (m + n // 2) % n - n // 2
    for (m1, m2), value in table.items():
        assert table[(wrap(-m1, 6), wrap(-m2, 4))] == value
    symbol = ref.inverse_laplacian_symbol((6, 4), (1.0, 2.0))
    assert table[(-1, 1)] == symbol[5, 1]
