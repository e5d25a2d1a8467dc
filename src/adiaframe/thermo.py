"""Spectral thermodynamics of a Hamiltonian family.

The microcanonical ensemble of a finite spectrum {W_j(x)} is built from the
level counting function.  With Gaussian smoothing of width sigma,

    Omega_sigma(E) = sum_j (1/2) (1 + erf((E - W_j) / (sigma sqrt(2)))),

whose energy derivative is exactly the smoothed density of states
G_sigma(E).  Entropy S = k_B ln Omega and temperature 1/T = dS/dE then obey
the counting identity Omega = k_B T G.  The microcanonical mean force

    Fbar_k(E, x) = - sum_j delta_sigma(E - W_j) dW_j/dx^k / sum_j delta_sigma

matches both T (dS/dx^k)_E and -(dE/dx^k)_S for the same smoothing; the
residuals of those identities are what maxwell_check reports.

kubo_friction evaluates the dissipative friction tensor of the diabatic
forces in a canonical state: the zero-frequency transport coefficient of
the Kubo correlation, regularized by a relaxation rate eta,

    Gamma_kj = sum_{a != b} Re[(f_j)_ab (f_k)_ba]
               * (p_b - p_a)/(W_a - W_b) * eta / (eta^2 + ((W_a - W_b)/hbar)^2),

which is symmetric with a nonnegative diagonal for positive temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState
from .errors import DomainError, NumericalError, ValidationError
from .frames import HamiltonianFamily, _connections, _evaluate_checked, _force_split, _frame_kernel
from .operators import _eigensolve, _eigh
from .tolerances import active_profile
from .units import HBAR, KB

__all__ = [
    "counting_function",
    "density_of_states",
    "entropy_temperature",
    "ThermoCurve",
    "microcanonical_force",
    "maxwell_check",
    "MaxwellReport",
    "canonical_populations",
    "canonical_state",
    "mean_level_spacing",
    "kubo_friction",
    "FrictionTensor",
]


def _levels(w) -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 0 or not np.all(np.isfinite(w)):
        raise ValidationError("levels must be a nonempty finite array")
    return np.sort(w)


def counting_function(levels, e, sigma: float | None = None):
    """Number of levels at or below energy e, optionally Gaussian smoothed.

    With ``sigma=None`` (or 0) this is the sharp staircase #{W_j <= e};
    otherwise each step is replaced by an erf sigmoid of width sigma.
    Accepts scalar or array ``e`` and returns a matching shape.
    """
    w = _levels(levels)
    e_arr = np.asarray(e, dtype=float)
    if sigma is None or sigma == 0.0:
        out = (e_arr[..., None] >= w).sum(axis=-1).astype(float)
    else:
        if sigma < 0.0:
            raise ValidationError("sigma must be nonnegative")
        from scipy.special import erf     # imported here: it is most of the package's import time

        z = (e_arr[..., None] - w) / (sigma * np.sqrt(2.0))
        out = (0.5 * (1.0 + erf(z))).sum(axis=-1)
    return out if out.shape else float(out)


def density_of_states(levels, e, sigma: float):
    """Gaussian-smoothed level density; the exact e-derivative of the
    smoothed counting function at the same sigma."""
    if sigma <= 0.0:
        raise ValidationError("density of states needs sigma > 0")
    w = _levels(levels)
    e_arr = np.asarray(e, dtype=float)
    z = (e_arr[..., None] - w) / sigma
    out = (np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))).sum(axis=-1)
    return out if out.shape else float(out)


@dataclass
class ThermoCurve:
    """Microcanonical functions tabulated on an energy grid."""

    e: np.ndarray
    omega: np.ndarray
    dos: np.ndarray
    entropy: np.ndarray
    temperature: np.ndarray
    sigma: float

    @property
    def valid(self) -> np.ndarray:
        """Grid points with enough statistical weight for identities."""
        return (self.omega > 1e-10) & np.isfinite(self.temperature) & (self.temperature > 0.0)

    def counting_identity_residual(self) -> np.ndarray:
        """Relative residual of Omega = k_B T G where the curve is valid."""
        mask = self.valid
        if not mask.any():
            raise DomainError("no grid points with usable statistical weight")
        lhs = self.omega[mask]
        rhs = KB * self.temperature[mask] * self.dos[mask]
        return np.abs(lhs - rhs) / np.abs(lhs)


def entropy_temperature(levels, e_grid, sigma: float) -> ThermoCurve:
    """Tabulate Omega, G, S = k_B ln Omega, and T = (dS/dE)^(-1).

    The temperature derivative is a centered difference on the grid, so the
    counting identity holds to the grid's finite-difference accuracy.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    if e_grid.ndim != 1 or e_grid.size < 3:
        raise ValidationError("e_grid must be a 1-d array with at least 3 points")
    if np.any(np.diff(e_grid) <= 0.0):
        raise ValidationError("e_grid must be strictly increasing")
    omega = counting_function(levels, e_grid, sigma)
    dos = density_of_states(levels, e_grid, sigma)
    with np.errstate(divide="ignore"):
        entropy = KB * np.log(omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        ds_de = np.gradient(entropy, e_grid)
        temperature = np.where(ds_de > 0.0, 1.0 / ds_de, np.nan)
    return ThermoCurve(e=e_grid, omega=omega, dos=dos, entropy=entropy,
                       temperature=temperature, sigma=float(sigma))


def _entropy_at(levels, e, sigma: float) -> float:
    om = counting_function(levels, e, sigma)
    if om <= 0.0:
        raise DomainError(f"smoothed count vanished at E = {e}")
    return KB * float(np.log(om))


def _shell(fam: HamiltonianFamily, x: np.ndarray, e: float | None, sigma: float):
    """The levels W at x and, given an energy ``e``, the shell force there (else
    None), from one eigensolve: with ``e``, W and the diagonal of U^dag dH U
    from one frame-kernel call, with no connections and no
    :class:`AdiabaticFrame`."""
    if e is None:
        return _eigensolve(_evaluate_checked(fam, x[None]))[0][0], None
    w, _, gad, *_ = _frame_kernel(fam, x[None])
    w = w[0]
    grad_w = np.einsum("kjj->kj", gad[0]).real      # dW_j/dx^k
    expo = -0.5 * ((float(e) - w) / sigma) ** 2
    weights = np.exp(expo - expo.max())
    return w, -(grad_w @ weights) / weights.sum()


def microcanonical_force(fam: HamiltonianFamily, x, e: float, sigma: float) -> np.ndarray:
    """Level-resolved mean force at fixed energy shell E.

    Averages the adiabatic forces -dW_j/dx^k with Gaussian shell weights
    delta_sigma(E - W_j); the weights are normalized, so overall scale
    factors cancel and underflow is avoided by shifting exponents.  It reads
    W and the diagonal of U^dag dH U from one frame-kernel call, so beyond
    that call it holds only the levels and the shell weights.
    """
    if sigma <= 0.0:
        raise ValidationError("microcanonical force needs sigma > 0")
    return _shell(fam, fam.coerce_x(x), float(e), sigma)[1]


@dataclass
class MaxwellReport:
    """Cross-check of the fixed-energy force against entropy derivatives."""

    x: np.ndarray
    e: float
    sigma: float
    force: np.ndarray
    entropy_form: np.ndarray
    isentropic_form: np.ndarray

    @property
    def residual_entropy_form(self) -> np.ndarray:
        scale = np.maximum(np.abs(self.force), 1e-12)
        return np.abs(self.force - self.entropy_form) / scale

    @property
    def residual_isentropic_form(self) -> np.ndarray:
        scale = np.maximum(np.abs(self.force), 1e-12)
        return np.abs(self.force - self.isentropic_form) / scale

    def ok(self) -> bool:
        tol = active_profile().maxwell_identity
        return bool((self.residual_entropy_form <= tol).all()
                    and (self.residual_isentropic_form <= tol).all())


def maxwell_check(fam: HamiltonianFamily, x, e: float, sigma: float, *,
                  dx: float = 1e-4, n_grid: int = 801,
                  energy_halfwidth: float | None = None) -> MaxwellReport:
    """Compare the shell force with T (dS/dx)_E and -(dE/dx)_S.

    Both comparison forms are built from the smoothed counting function
    alone: configuration derivatives by central differences of step ``dx``,
    the isentropic energy shift by inverting the monotone S(E) curves at
    the displaced configurations.  The levels at x and each x +- dx e_k are
    solved as one stack, checked as :func:`build_frame` checks H.  It holds
    that (2n + 1)-row stack of H, whose self-adjointness is checked a chunk of
    rows at a time (one row at 400 levels), then the (2n + 1, m) levels and
    what :func:`microcanonical_force` holds.
    """
    return _maxwell_check(fam, fam.coerce_x(x), e, sigma, dx=dx, n_grid=n_grid,
                          energy_halfwidth=energy_halfwidth)


def _maxwell_check(fam, x, e, sigma, force=None, dx=1e-4, n_grid=801,
                   energy_halfwidth=None) -> MaxwellReport:
    """:func:`maxwell_check` at a coerced x, taking the shell force at (x, e,
    sigma) as ``force`` where the caller has it."""
    e = float(e)
    if energy_halfwidth is None:
        energy_halfwidth = 12.0 * sigma
    de = 0.1 * sigma

    # rows x, x + dx e_0, x - dx e_0, x + dx e_1, ...
    n, k = fam.n_coords, np.arange(fam.n_coords)
    xs = np.repeat(x[None], 2 * n + 1, axis=0)
    xs[1 + 2 * k, k] += dx
    xs[2 + 2 * k, k] -= dx
    levels = _eigh(_evaluate_checked(fam, xs), vectors=False)[0]

    w0 = levels[0]
    s0 = _entropy_at(w0, e, sigma)
    ds_de = (_entropy_at(w0, e + de, sigma) - _entropy_at(w0, e - de, sigma)) / (2.0 * de)
    if ds_de <= 0.0:
        raise DomainError("entropy is not increasing at the requested energy")
    temp = 1.0 / ds_de

    if force is None:
        force = microcanonical_force(fam, x, e, sigma)
    entropy_form = np.empty(n)
    isentropic_form = np.empty(n)
    e_grid = np.linspace(e - energy_halfwidth, e + energy_halfwidth, n_grid)

    for k in range(n):
        wp, wm = levels[1 + 2 * k], levels[2 + 2 * k]
        sp = _entropy_at(wp, e, sigma)
        sm = _entropy_at(wm, e, sigma)
        entropy_form[k] = temp * (sp - sm) / (2.0 * dx)

        # invert S(E) at the displaced configurations on a monotone grid
        e_shift = np.empty(2)
        for idx, wq in enumerate((wp, wm)):
            om = counting_function(wq, e_grid, sigma)
            good = om > 1e-300
            s_curve = KB * np.log(om[good])
            if not (s_curve[0] < s0 < s_curve[-1]):
                raise DomainError("energy grid does not bracket the target entropy; "
                                  "widen energy_halfwidth")
            e_shift[idx] = np.interp(s0, s_curve, e_grid[good])
        isentropic_form[k] = -(e_shift[0] - e_shift[1]) / (2.0 * dx)

    return MaxwellReport(x=x, e=e, sigma=float(sigma), force=force,
                         entropy_form=entropy_form, isentropic_form=isentropic_form)


# ---------------------------------------------------------------------------
# canonical ensemble and friction


def canonical_populations(levels, beta: float) -> np.ndarray:
    """Gibbs weights exp(-beta W_j) / Z, overflow-safe for either beta sign."""
    w = np.asarray(getattr(levels, "eigenvalues", levels), dtype=float).ravel()
    shift = w.min() if beta >= 0.0 else w.max()
    weights = np.exp(-beta * (w - shift))
    return weights / weights.sum()


def canonical_state(levels, beta: float) -> QuantumState:
    """Canonical density matrix, diagonal in the frame that supplied the levels."""
    pops = canonical_populations(levels, beta)
    return QuantumState(rho=np.diag(pops.astype(complex)))


def mean_level_spacing(levels) -> float:
    w = _levels(levels)
    if w.size < 2:
        return 0.0
    return float((w[-1] - w[0]) / (w.size - 1))


@dataclass
class FrictionTensor:
    """Dissipative force-force response tensor and its evaluation context."""

    gamma: np.ndarray
    beta: float
    eta: float
    x: np.ndarray

    @property
    def n_coords(self) -> int:
        return self.gamma.shape[0]


def kubo_friction(fam: HamiltonianFamily, x, beta: float, *,
                  eta: float | None = None) -> FrictionTensor:
    """Friction tensor of the diabatic forces in the canonical state at x.

    The relaxation rate ``eta`` defaults to one tenth of the mean level
    spacing over hbar.  The population-weighted thermal factor is computed
    as (p_b - p_a)/(W_a - W_b) between degeneracy clusters and as its limit
    beta p_a inside them (where f vanishes), so no exponential overflow can
    occur.  Beyond its frame-kernel call it holds W, the cluster mask and the
    (n, m, m) diabatic forces f, with P only until f is formed, and the
    moments Re[(f_j)_ab (f_k)_ba] of one row k of Gamma at a time.
    """
    x = fam.coerce_x(x)
    w, _, gad, same, _, near = _frame_kernel(fam, x[None])    # U is not kept
    w, gad, same = w[0], gad[0], same[0]
    f_ops = _force_split(w, _connections(w, gad, same, near), gad, same, out=gad, near=near)[0]
    del gad                                             # F, written over U^dag dH U: only f is kept
    pops = canonical_populations(w, beta)

    if eta is None:
        spacing = mean_level_spacing(w)
        eta = 0.1 * spacing / HBAR if spacing > 0.0 else 0.1
    if eta <= 0.0:
        raise ValidationError("relaxation rate eta must be positive")

    delta = w[:, None] - w[None, :]                      # W_a - W_b
    thermal = np.where(same, beta * pops[:, None],      # f_ab = 0 inside a cluster
                       (pops[None, :] - pops[:, None]) / np.where(same, 1.0, delta))
    lorentz = eta / (eta * eta + (delta / HBAR) ** 2)
    kernel = thermal * lorentz

    # row k of Gamma from the moments Re[(f_j)_ab (f_k)_ba] of that row alone
    gamma = np.array([np.einsum("jab,ab->j", np.einsum("jab,ba->jab", f_ops, f_k).real, kernel)
                      for f_k in f_ops])

    prof = active_profile()
    scale = max(float(np.abs(gamma).max()), 1e-300)
    asym = float(np.abs(gamma - gamma.T).max()) / scale
    if asym > prof.friction_symmetry:
        raise NumericalError(f"friction tensor asymmetry {asym:.3e} exceeds tolerance")
    return FrictionTensor(gamma=gamma, beta=float(beta), eta=float(eta), x=x)
