"""The model against its closed forms: the 1D interface and Ohta-Kawasaki lamellae.

With W(s) = 18 s^2 (1 - s)^2, a 1D interface has the profile
0.5 + 0.5 tanh(3x / eps) and the energy sigma = int_0^1 sqrt(2W) = 1.  A
period of lamellae of length d and volume fraction omega has, in the sharp
interface limit, the energy e(d) = 2/d + gamma omega^2 (1 - omega)^2 d^2 / 24
per unit length: its two interfaces, and the inverse Laplacian's part.
"""

import math

import numpy as np
import pytest

from pacok.config import RunConfig
from pacok.experiments import count_bumps
from pacok.grid import GridField
from pacok.stepping import SchemeState, run


def relax(cfg, values):
    """Run ``values`` on the config's grid to its tol stop; the final state and energy."""
    grid = cfg.build_grid()
    state, records = run(SchemeState(GridField(grid, values)), cfg.build_problem(grid),
                         t_max=cfg.T, tol=cfg.tol, record_every=10**9)
    return state, records[-1].energy


def test_a_1d_interface_has_energy_1_and_the_tanh_profile_at_second_order_in_h():
    # Two interfaces at x = -1 and 1 of [-2, 2), far apart against eps = 0.1, with no
    # interaction: the relaxed field is two tanh profiles of energy 1 each.
    orders = {"energy": [], "profile": []}
    previous = None
    for n in (256, 512, 1024):
        cfg = RunConfig(epsilon=0.1, gamma=0.0, M=0.0, kappa=40.0, tau=1e-3, tol=1e-10,
                        T=10.0, N=(n,), X=(2.0,), operator="none", initial="constant")
        (x,) = cfg.build_grid().coordinates()
        profile = 0.5 + 0.5 * np.tanh(3.0 * (1.0 - np.abs(x)) / cfg.epsilon)
        state, energy = relax(cfg, profile)
        assert state.time < cfg.T   # relaxed to the tol stop
        errors = {"energy": abs(energy - 2.0),
                  "profile": float(np.max(np.abs(state.phi.values - profile)))}
        if previous is not None:
            for name in orders:
                orders[name].append(math.log2(previous[name] / errors[name]))
        previous = errors
    # E - 2 is -1.51e-2, -3.69e-3 and -9.17e-4; the profile 6.61e-3, 1.54e-3 and 3.89e-4.
    assert previous["energy"] < 1e-3 and previous["profile"] < 4e-4
    for name, rates in orders.items():
        assert all(1.8 <= rate <= 2.2 for rate in rates), (name, rates)


def lamellae(cfg, n):
    """n evenly spaced tanh bumps of width omega d (d = 2X / n) on the config's 1D grid."""
    grid = cfg.build_grid()
    (x,) = grid.coordinates()
    period = 2.0 * cfg.X[0]
    d = period / n
    r = np.abs(x[:, None] - (-cfg.X[0] + d * (np.arange(n) + 0.5))) % period
    distance = np.min(np.minimum(r, period - r), axis=1)
    return 0.5 + 0.5 * np.tanh((cfg.omega * d / 2.0 - distance) / (cfg.epsilon / 3.0))


# The counts relaxed for each preset gamma.  With gamma = 2000 a single bump splits
# into three and does not stop before T.
LAMELLAE = {"g500": (500.0, range(1, 7)), "g2000": (2000.0, range(2, 7))}


@pytest.mark.parametrize("gamma, counts", LAMELLAE.values(), ids=LAMELLAE)
def test_relaxed_lamellae_have_the_sharp_interface_energy_lowest_at_the_predicted_count(
    gamma, counts
):
    # The 1D coarsening defaults (N = 256 on [-1, 1), eps = 0.078125, omega = 0.3,
    # M = 2000) with the inverse Laplacian, relaxed from each count of bumps.
    cfg = RunConfig(gamma=gamma, kappa=200.0, tau=1e-2, tol=1e-6, T=100.0, initial="constant")
    c = gamma * cfg.omega**2 * (1.0 - cfg.omega) ** 2
    sharp = lambda d: 2.0 / d + c * d**2 / 24.0
    energies = {}
    for n in counts:
        state, energies[n] = relax(cfg, lamellae(cfg, n))
        assert state.time < cfg.T and count_bumps(state.phi) == n
        # Diffuse interfaces end 0.5-0.8% (g500) and 1.0-1.3% (g2000) below 2 e(2/n).
        assert -0.015 < energies[n] / (2.0 * sharp(2.0 / n)) - 1.0 < 0.0, n
    # e(d) is least at d^3 = 24 / c: n* = 2 / d = 1.94 for g500 and 3.09 for g2000.
    n_star = 2.0 / (24.0 / c) ** (1.0 / 3.0)
    assert min(energies, key=energies.get) == round(n_star) == {500.0: 2, 2000.0: 3}[gamma]
