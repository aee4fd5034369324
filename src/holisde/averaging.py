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
from .spectral import AnalyticEigenSystem, GroundModeExpansion

__all__ = [
    "FastModeStats",
    "AveragedCoeffs",
    "MartingaleDriver",
    "ou_stationary_stats",
    "averaged_drift",
    "compute_qj",
    "martingale_limit_driver",
    "averaged_coeffs",
    "ou_integrated_variance",
    "mc_qj_estimate",
    "hat_alpha_from_tables",
    "qj_from_tables",
]

# fast-mode cutoff: keep every level with lambda <= LAMBDA_MAX_FACTOR / h^2
LAMBDA_MAX_FACTOR = 400.0


@dataclass(frozen=True)
class FastModeStats:
    """Stationary statistics of the fast element modes.

    Per element j and retained fast mode k: OU rate lam[k], drive variance
    rate qh[j, k] and stationary variance v[j, k] = sigma^2 qh/(2 lam).
    field_second_moment samples E eta^2(x) on the subgrid; its element
    mean feeds the averaged drift, and its centre value is kept as a
    pointwise diagnostic.
    """

    grid: DomainGrid
    sigma: float
    lam: np.ndarray                  # (Lf,)
    qh: np.ndarray                   # (M, Lf)
    v: np.ndarray                    # (M, Lf)
    mode_indices: np.ndarray         # indices into the analytic mode family
    field_second_moment: np.ndarray  # (M, 2, n+1)
    mean_second_moment: np.ndarray   # (M,) element average of E eta^2
    centre_second_moment: np.ndarray  # (M,) E eta^2(X_j)


@dataclass(frozen=True)
class AveragedCoeffs:
    """Effective per-element coefficients of the discrete models."""

    hat_alpha: np.ndarray     # (M,)
    qj: np.ndarray            # (M,)
    qj_truncation: np.ndarray  # (M,) size of the last retained level's terms
    alpha: float
    sigma: float
    gamma: float
    h: float

    def __post_init__(self):
        if np.any(self.qj < -1e-15):
            raise ValueError("deviation variances must be nonnegative")


def ou_stationary_stats(
    proj: ElementNoiseProjection,
    eig0: AnalyticEigenSystem,
    sigma: float,
    lam_max: float | None = None,
) -> FastModeStats:
    """Stationary law of the fast modes driven through the projected noise.

    Keeps every analytic level with lambda_k <= lam_max (default
    400/h^2, about the first six distinct levels).  Each retained amplitude
    solves d a = -lambda a dt + sigma sqrt(q^h) d beta, whose stationary
    variance sigma^2 q^h / (2 lambda) follows from the Lyapunov balance.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    grid = eig0.grid
    if lam_max is None:
        lam_max = LAMBDA_MAX_FACTOR / grid.h**2
    keep = np.nonzero((eig0.levels >= 1) & (eig0.eigenvalues <= lam_max))[0]
    if keep.size == 0:
        raise ValueError("fast-mode cutoff excluded every mode; raise lam_max")
    lam = eig0.eigenvalues[keep]
    if np.any(lam <= 0):
        raise ValueError("fast modes must have positive relaxation rates")
    qh = proj.qh[:, keep]
    v = sigma**2 * qh / (2.0 * lam[None, :])

    shapes = eig0.local_shapes[keep]                     # (Lf, 2, n+1)
    field = np.einsum("ml,lhi->mhi", v, shapes**2)       # E eta^2(x) per element
    mb = grid.mass_block
    ones = np.ones((2, grid.subgrid_n + 1))
    mean = np.einsum("mhi,ij,hj->m", field, mb, ones) / (2.0 * grid.h)
    centre = field[:, 0, -1].copy()
    return FastModeStats(
        grid=grid,
        sigma=float(sigma),
        lam=lam,
        qh=qh,
        v=v,
        mode_indices=keep,
        field_second_moment=field,
        mean_second_moment=mean,
        centre_second_moment=centre,
    )


def averaged_drift(u_bar: np.ndarray, stats: FastModeStats) -> np.ndarray:
    """Averaged cubic drift -(u^3 + 3 u E eta^2) per element.

    The Gaussian fast field has zero odd moments, so averaging the cubic
    over its stationary law leaves exactly the 3 u E eta^2 correction.
    """
    u = np.asarray(u_bar, dtype=float)
    return -((u * u * u) + 3.0 * u * stats.mean_second_moment)


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
    gamma: float = 1.0,
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
        sigma=float(sigma),
        gamma=float(gamma),
        h=grid.h,
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
# Ornstein-Uhlenbeck helpers and the Monte-Carlo oracle for Q_j
# ---------------------------------------------------------------------------


def ou_integrated_variance(
    lam: float, qh: float, sigma: float, gamma: float, t_prime: float
) -> float:
    """Exact variance of (1/gamma) int_0^{t'} eta(s) ds for a stationary
    OU mode with rate lam/gamma^2 and drive (sigma/gamma) sqrt(qh).

    Derived from the OU covariance; the gamma -> 0 limit is
    sigma^2 qh t' / lam^2.
    """
    v = sigma**2 * qh / (2.0 * lam)
    rho = lam / gamma**2
    return (2.0 * v / lam) * (t_prime - (1.0 - np.exp(-rho * t_prime)) / rho)


def simulate_ou_ensemble(
    lam: np.ndarray,
    drive_var: np.ndarray,
    n_paths: int,
    dt: float,
    n_steps: int,
    rng: np.random.Generator,
    stationary_start: bool = True,
) -> np.ndarray:
    """Exact-update OU ensemble; returns amplitudes (n_steps+1, n_paths, L).

    Uses the exact one-step law a' = rho a + sqrt(v (1 - rho^2)) xi so long
    runs carry no time-discretization bias.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    drive = np.atleast_1d(np.asarray(drive_var, dtype=float))
    v = drive / (2.0 * lam)
    rho = np.exp(-lam * dt)
    s = np.sqrt(v * (1.0 - rho**2))
    out = np.empty((n_steps + 1, n_paths, lam.size))
    if stationary_start:
        out[0] = rng.standard_normal((n_paths, lam.size)) * np.sqrt(v)
    else:
        out[0] = 0.0
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
    horizon_factor: float = 6.0,
    n_lags: int = 60,
) -> tuple[float, float]:
    """Brute-force Q_j: time-integrated autocovariance of <eta^2, e_0>.

    Simulates the retained fast amplitudes of one element from their
    stationary law, forms g(t) = <eta^2(t) - E eta^2, e_0> by quadrature and
    integrates the ensemble average g(s) g(0) over s.  Returns (estimate,
    standard error); the horizon covers horizon_factor decay times of the
    slowest retained mode.
    """
    j = grid.index(element)
    lam = stats.lam
    drive = stats.sigma**2 * stats.qh[j]
    horizon = horizon_factor / (2.0 * lam.min())
    dt = horizon / n_lags
    rng = np.random.default_rng(seed)
    amps = simulate_ou_ensemble(lam, drive, n_paths, dt, n_lags, rng)

    shapes = eig0.local_shapes[stats.mode_indices]
    e0 = eig0.local_shapes[0]
    mb = grid.mass_block
    w = np.einsum("lhi,ij,hj->l", shapes**2, mb, e0)      # <e_k^2, e_0>
    centred = amps**2 - stats.v[j][None, None, :]
    g = centred @ w                                        # (n_lags+1, n_paths)
    prod = g * g[0][None, :]
    per_path = np.trapezoid(prod, dx=dt, axis=0)
    est = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(n_paths))
    return est, se


# ---------------------------------------------------------------------------
# martingale-limit auxiliary drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleDriver:
    """Auxiliary slow-time Brownian forcing from the integrated fast field.

    On slow scales the running integral of the fast field acts as Brownian
    forcing with per-mode intensity sqrt(q^h_{j,k}/lambda_k); projected onto
    the expansion correction F1 this collapses to one combined driver per
    element with weights w[j, k] = sqrt(q^h/lambda) <e_{j,k}, F1_j>.
    """

    times: np.ndarray
    weights: np.ndarray            # (M, Lf)
    mode_increments: np.ndarray    # (M, Lf, n_steps) independent BM increments
    combined: np.ndarray           # (M, n_steps) sum_k w dbeta_hat

    @property
    def variance_rate(self) -> np.ndarray:
        """Per-element variance rate of the combined driver: sum_k w^2."""
        return np.sum(self.weights**2, axis=1)


def martingale_limit_driver(
    stats: FastModeStats,
    eig0: AnalyticEigenSystem,
    expansion: GroundModeExpansion,
    times: np.ndarray,
    seed,
) -> MartingaleDriver:
    """Sample the auxiliary drivers feeding the gamma-expanded model.

    The beta_hat family is fresh randomness, independent of the global
    noise path, drawn deterministically from the given seed.
    """
    grid = stats.grid
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    if np.any(dt <= 0):
        raise ValueError("time grid must be strictly increasing")
    shapes = eig0.local_shapes[stats.mode_indices]       # (Lf, 2, n+1)
    mb = grid.mass_block
    # <e_{j,k}, F1_j> varies per element through F1
    overlap = np.einsum("lhi,ij,mhj->ml", shapes, mb, expansion.F1)
    weights = np.sqrt(stats.qh / stats.lam[None, :]) * overlap
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal((grid.M, stats.lam.size, dt.size)) * np.sqrt(dt)[None, None, :]
    combined = np.einsum("ml,mls->ms", weights, incr)
    return MartingaleDriver(
        times=times, weights=weights, mode_increments=incr, combined=combined
    )
