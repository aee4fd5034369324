"""Stationary fast-mode statistics and the averaged model coefficients.

With weak interelement coupling the element dynamics split into slow
amplitudes (the near-kernel band) and fast modes relaxing at rates
lambda_k >= pi^2/h^2.  Replacing the fast modes by their stationary law
turns the cubic drift into an averaged drift and produces two effective
coefficients per element:

* hat_alpha_j: the linear coefficient corrected by the fast-field second
  moment,  hat_alpha_j = alpha - 3 alpha sigma^2 sum_{k>=1}
  q^h_{j,k}/(2 lambda_k) * (e_{j,0}(X_j))^2;

* Q_j: the variance of the deviation noise fed back into the slow modes by
  fluctuations of the fast-field square around its mean,

      Q_j = int_0^inf E[ <eta_j^2(s) - E eta_j^2, e_{j,0}>
                         <eta_j^2(0) - E eta_j^2, e_{j,0}> ] ds.

Each fast amplitude is an Ornstein-Uhlenbeck process, so fourth moments
factor through second moments (Isserlis) and the integral collapses to the
closed form Q_j = sum_k <e_{j,k}^2, e_{j,0}>^2 v_{j,k}^2 / lambda_k with
stationary variances v_{j,k} = sigma^2 q^h_{j,k} / (2 lambda_k); cross-mode
terms vanish by orthogonality.  Because no published value exists for this
integral, a brute-force Monte-Carlo estimator of the time-integrated
autocovariance ships alongside the closed form and is part of the test
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DomainGrid
from .noise import ElementNoiseProjection
from .spectral import AnalyticEigenSystem

__all__ = [
    "FastModeStats",
    "AveragedCoeffs",
    "ou_stationary_stats",
    "compute_qj",
    "averaged_coeffs",
    "mc_qj_estimate",
    "hat_alpha_from_tables",
    "qj_from_tables",
]

# fast-mode cutoff: keep every level with lambda <= LAMBDA_MAX_FACTOR / h^2
LAMBDA_MAX_FACTOR = 400.0

# Monte-Carlo Q_j oracle: lag horizon in decay times of the slowest mode, lag count
MC_HORIZON_FACTOR = 6.0
MC_LAGS = 60


@dataclass(frozen=True)
class FastModeStats:
    """Stationary statistics of the fast element modes.

    Per element j and retained fast mode k: OU rate lam[k], drive variance
    rate qh[j, k] and stationary variance v[j, k] = sigma^2 qh/(2 lam).
    field_second_moment samples E eta^2(x) on the subgrid; its element
    mean feeds the averaged drift.
    """

    sigma: float
    lam: np.ndarray                  # (Lf,)
    qh: np.ndarray                   # (M, Lf)
    v: np.ndarray                    # (M, Lf)
    mode_indices: np.ndarray         # indices into the analytic mode family
    field_second_moment: np.ndarray  # (M, 2, n+1)
    mean_second_moment: np.ndarray   # (M,) element average of E eta^2


@dataclass(frozen=True)
class AveragedCoeffs:
    """Effective per-element coefficients of the discrete models."""

    hat_alpha: np.ndarray     # (M,)
    qj: np.ndarray            # (M,)
    qj_truncation: np.ndarray  # (M,) size of the last retained level's terms
    alpha: float

    def __post_init__(self):
        if np.any(self.qj < -1e-15):
            raise ValueError("deviation variances must be nonnegative")


def ou_stationary_stats(
    proj: ElementNoiseProjection,
    eig0: AnalyticEigenSystem,
    sigma: float,
) -> FastModeStats:
    """Stationary law of the fast modes driven through the projected noise.

    Keeps every analytic level with lambda_k <= 400/h^2 (LAMBDA_MAX_FACTOR),
    about the first six distinct levels.  Each retained amplitude
    solves d a = -lambda a dt + sigma sqrt(q^h) d beta, whose stationary
    variance sigma^2 q^h / (2 lambda) follows from the Lyapunov balance.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    grid = eig0.grid
    lam_max = LAMBDA_MAX_FACTOR / grid.h**2
    keep = np.nonzero((eig0.levels >= 1) & (eig0.eigenvalues <= lam_max))[0]
    lam = eig0.eigenvalues[keep]                         # (k pi / h)^2 > 0 for k >= 1
    qh = proj.qh[:, keep]
    v = sigma**2 * qh / (2.0 * lam[None, :])

    shapes = eig0.local_shapes[keep]                     # (Lf, 2, n+1)
    field = np.einsum("ml,lhi->mhi", v, shapes**2)       # E eta^2(x) per element
    mb = grid.mass_block
    ones = np.ones((2, grid.subgrid_n + 1))
    mean = np.einsum("mhi,ij,hj->m", field, mb, ones) / (2.0 * grid.h)
    return FastModeStats(
        sigma=float(sigma),
        lam=lam,
        qh=qh,
        v=v,
        mode_indices=keep,
        field_second_moment=field,
        mean_second_moment=mean,
    )


def compute_qj(
    stats: FastModeStats, eig0: AnalyticEigenSystem, grid: DomainGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form deviation variance Q_j plus a truncation-size report.

    Per mode the integrand's autocovariance is 2 v^2 exp(-2 lambda s) times
    the squared projection constant <e_k^2, e_0>^2 (cross-mode products
    integrate to zero against the constant mode); integrating in s gives
    Q_j = sum_k c_k v_k^2 / lambda_k.  The reported truncation bound is the
    contribution of the highest retained level, which dominates the
    (rapidly decaying) tail.
    """
    shapes = eig0.local_shapes[stats.mode_indices]
    e0 = eig0.local_shapes[0]
    mb = grid.mass_block
    w = np.einsum("lhi,ij,hj->l", shapes**2, mb, e0)       # <e_k^2, e_0>
    c = w**2
    terms = c[None, :] * stats.v**2 / stats.lam[None, :]   # (M, Lf)
    qj = np.sum(terms, axis=1)
    top = stats.lam == stats.lam.max()
    bound = np.sum(terms[:, top], axis=1)
    return qj, bound


def averaged_coeffs(
    proj: ElementNoiseProjection,
    eig0: AnalyticEigenSystem,
    alpha: float,
    sigma: float,
) -> AveragedCoeffs:
    """Bundle hat_alpha_j and Q_j for a model run (recomputed, never typed in)."""
    grid = eig0.grid
    stats = ou_stationary_stats(proj, eig0, sigma)
    hat = alpha * (1.0 - 3.0 * stats.mean_second_moment)
    qj, bound = compute_qj(stats, eig0, grid)
    return AveragedCoeffs(
        hat_alpha=hat,
        qj=qj,
        qj_truncation=bound,
        alpha=float(alpha),
    )


# ---------------------------------------------------------------------------
# synthetic spacing families: q^h_{j,l} = q_{j,l} h with q_{j,l} frozen
# ---------------------------------------------------------------------------


def hat_alpha_from_tables(
    q_jl: np.ndarray, levels: np.ndarray, alpha: float, sigma: float, h: float
) -> np.ndarray:
    """hat_alpha_j for prescribed per-mode intensities q_{j,l}.

    Uses q^h = q_{j,l} h and lambda_l = k_l^2 pi^2 / h^2; this is the form
    the spacing-order studies sweep, holding the q_{j,l} table fixed while
    h varies.
    """
    lam = (levels * np.pi / h) ** 2
    s = sigma**2 * np.sum(q_jl * h / (2.0 * lam[None, :]), axis=1) / (2.0 * h)
    return alpha * (1.0 - 3.0 * s)


def qj_from_tables(
    q_jl: np.ndarray, levels: np.ndarray, sigma: float, h: float
) -> np.ndarray:
    """Closed-form Q_j for prescribed q_{j,l}, with the analytic projection
    constants <e_k^2, e_0>^2 = 1/(2h)."""
    lam = (levels * np.pi / h) ** 2
    v = sigma**2 * (q_jl * h) / (2.0 * lam[None, :])
    return np.sum(v**2 / lam[None, :], axis=1) / (2.0 * h)


# ---------------------------------------------------------------------------
# exact Ornstein-Uhlenbeck sampler and the Monte-Carlo oracle for Q_j
# ---------------------------------------------------------------------------


def simulate_ou_ensemble(
    lam: np.ndarray,
    drive_var: np.ndarray,
    n_paths: int,
    dt: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact-update OU ensemble from its stationary law; amplitudes (n_steps+1, n_paths, L).

    Uses the exact one-step law a' = rho a + sqrt(v (1 - rho^2)) xi so long
    runs carry no time-discretization bias.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    drive = np.atleast_1d(np.asarray(drive_var, dtype=float))
    v = drive / (2.0 * lam)
    rho = np.exp(-lam * dt)
    s = np.sqrt(v * (1.0 - rho**2))
    out = np.empty((n_steps + 1, n_paths, lam.size))
    out[0] = rng.standard_normal((n_paths, lam.size)) * np.sqrt(v)
    for i in range(n_steps):
        out[i + 1] = rho * out[i] + s * rng.standard_normal((n_paths, lam.size))
    return out


def mc_qj_estimate(
    stats: FastModeStats,
    eig0: AnalyticEigenSystem,
    grid: DomainGrid,
    element: int = 0,
    n_paths: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Brute-force Q_j: time-integrated autocovariance of <eta^2, e_0>.

    Simulates the retained fast amplitudes of one element from their
    stationary law, forms g(t) = <eta^2(t) - E eta^2, e_0> by quadrature and
    integrates the ensemble average g(s) g(0) over s.  Returns (estimate,
    standard error); the horizon covers MC_HORIZON_FACTOR decay times of the
    slowest retained mode in MC_LAGS steps.
    """
    j = grid.index(element)
    lam = stats.lam
    drive = stats.sigma**2 * stats.qh[j]
    horizon = MC_HORIZON_FACTOR / (2.0 * lam.min())
    dt = horizon / MC_LAGS
    rng = np.random.default_rng(seed)
    amps = simulate_ou_ensemble(lam, drive, n_paths, dt, MC_LAGS, rng)

    shapes = eig0.local_shapes[stats.mode_indices]
    e0 = eig0.local_shapes[0]
    mb = grid.mass_block
    w = np.einsum("lhi,ij,hj->l", shapes**2, mb, e0)      # <e_k^2, e_0>
    centred = amps**2 - stats.v[j][None, None, :]
    g = centred @ w                                        # (MC_LAGS+1, n_paths)
    prod = g * g[0][None, :]
    per_path = np.trapezoid(prod, dx=dt, axis=0)
    est = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(n_paths))
    return est, se
