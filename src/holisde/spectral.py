"""The coupled second-derivative operator on overlapping elements.

Neighbouring element fields are tied together by a one-parameter family of
coupling conditions with strength gamma in [0, 1] (gamma' = 1 - gamma):

  value:  u_j(X_{j +- 1}) = gamma' u_j(X_j) + gamma u_{j +- 1}(X_{j +- 1}),
  flux:   u_{j,x}(X_j^-) - u_{j,x}(X_j^+) + gamma [u_{j-1,x}(X_j) - u_{j+1,x}(X_j)]
          - gamma' [u_{j,x}(X_{j-1}) - u_{j,x}(X_{j+1})] = 0,

plus value continuity across the duplicated centre node.  At gamma = 0 the
elements are insulated from each other; at gamma = 1 the conditions reduce to
interelement continuity and the stack reproduces the periodic Laplacian.

Discretely, the value conditions are *essential*: they give both end nodes
and both centre copies of every half-element from the M centre values, so
the free (reduced) coordinates are every element's interior nodes (left
half, then right half), element by element, then the M centre values.  The
operator is the Galerkin pair (K_red, M_red) = (Z^T K Z, Z^T M Z) of the
per-half quadratic stiffness/mass blocks, Z the injection of reduced
coordinates into nodal values.  The flux condition is the *natural*
condition of this quadratic form: collecting the boundary terms of
sum_j int u_j' v_j' over test fields satisfying the value conditions
reproduces exactly the flux balance above.  Self-adjointness and the energy
identity < -L u, u > = sum_j |u_j|_1^2 therefore hold structurally, to
round-off.

Neither Z nor the pair is stored.  A half's interior nodes couple only to
its own two end nodes, so every reduced solve is a static condensation per
half-element (`_condensed`): one inverse of the half block's interior serves
all 2M halves, which meet only in the M centre values.  `reduce`,
`apply_reduced` and the coupled solver's step solve that way in numpy;
only `eig_gamma` builds the dense pair, inside the call, and it alone
loads scipy (`scipy.linalg`, about 0.2 s and 21 MiB of peak memory).

The decoupled operator (gamma = 0) has a closed-form eigensystem per element:
eigenvalue k^2 pi^2 / h^2 with one mode for odd k (the odd sine), three for
even k (cosine, sine, and the centre-kinked sine in |x - X_j|), and the
normalized constant at k = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .grid import DomainGrid, ElementField, seminorm

__all__ = [
    "CoupledOperator",
    "EigenSystem",
    "AnalyticEigenSystem",
    "GroundModeExpansion",
    "assemble_operator",
    "eig_gamma",
    "eig_gamma0",
    "expand_ground_mode",
]

# clustering of numerically coincident eigenvalues
CLUSTER_RTOL = 1e-6


def _gemm_width(R: int) -> int:
    """R members padded with zero columns to a multiple of 8: OpenBLAS rounds a
    column alike only at widths of one remainder mod 8, so a member-batched
    product on this width gives a member bitwise alike at every batch width."""
    return -(-R // 8) * 8


def _end_map(M: int, gamma: float) -> np.ndarray:
    """The value conditions as a map E, (4M, M), from the M centre values to
    node 0 of every half, element by element, then to node n of every half."""
    E, j = np.zeros((2, M, 2, M)), np.arange(M)
    E[1, j, 0, j] = E[0, j, 1, j] = 1.0               # the two copies of the centre
    E[0, j, 0, j] = E[1, j, 1, j] = 1.0 - gamma       # u_j(X_{j -+ 1}) ...
    E[0, j, 0, j - 1] += gamma                        # ... + gamma u_{j -+ 1}(X_{j -+ 1})
    E[1, j, 1, (j + 1) % M] += gamma
    return E.reshape(4 * M, M)


def _condensed(W: np.ndarray, B: np.ndarray, E: np.ndarray) -> tuple:
    """Static condensation of A x = Z^T (I x W) u, A = Z^T (I x B) Z, by half-element.

    A half's n - 1 interior nodes couple only to its two end nodes, which E
    gives from the centre values, so one inverse of the interior block B_II
    serves all 2M halves.  With G = B_II^-1 B_Ie, the interior response to
    the ends, each half's nodal values u give through T, (n + 1, n + 1),
      t = (W_e - G^T W_I) u  (two rows),  y = B_II^-1 W_I u  (n - 1 rows);
    the centres are x_C = S^-1 E^T t, S = sum over halves of E^T (B_ee - B_eI G) E,
    through `centre` (M, 4M), and the interiors x_I = y - G E x_C through
    `correct`, ((n - 1) 2M, M), node by node.  W = mb gives the coupled
    step (B = mb + dt kb) and the H-projection (B = mb); W = kb with B = mb
    gives the weak second derivative.
    """
    n, M = len(B) - 1, E.shape[-1]
    e, i, E3 = [0, n], slice(1, n), E.reshape(2, -1, M)
    inv = np.linalg.inv(B[i, i])
    G = inv @ B[i, e]
    T = np.vstack([W[e] - G.T @ W[i], inv @ W[i]])
    S = np.einsum("ehj,ef,fhk->jk", E3, B[np.ix_(e, e)] - B[e, i] @ G, E3)
    return T, np.linalg.inv(S) @ E.T, np.einsum("ie,ehj->ihj", G, E3).reshape(-1, M)


def _galerkin(B: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The dense reduced matrix Z^T (I x B) Z of a half-element block B: each
    half's interiors couple to themselves through B_II and to the centres
    through B_Ie and the value conditions E; the centres to each other
    through B_ee."""
    n, M = len(B) - 1, E.shape[-1]
    m, e, i, E3 = 2 * M * (n - 1), [0, n], slice(1, n), E.reshape(2, -1, M)
    A = np.zeros((m + M, m + M))
    A[:m, :m] = np.kron(np.eye(2 * M), B[i, i])
    A[:m, m:] = np.einsum("ie,ehj->hij", B[i, e], E3).reshape(m, M)
    A[m:, :m] = A[:m, m:].T
    A[m:, m:] = np.einsum("ehj,ef,fhk->jk", E3, B[np.ix_(e, e)], E3)
    return A


@dataclass
class CoupledOperator:
    """Assembled coupled operator at a fixed coupling strength.

    Holds the value conditions `ends` (E, from `_end_map`) and, built once,
    the condensations against B = mb of W = mb (the H-projection) and W = kb
    (the operator action L u, the weak second derivative M_red c' = -K_red c).
    """

    grid: DomainGrid
    gamma: float

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return _end_map(self.grid.M, self.gamma)

    @functools.cached_property
    def _mass_condensed(self) -> tuple:
        return _condensed(self.grid.mass_block, self.grid.mass_block, self.ends)

    @functools.cached_property
    def _stiffness_condensed(self) -> tuple:
        return _condensed(self.grid.stiffness_block, self.grid.mass_block, self.ends)

    @property
    def n_reduced(self) -> int:
        return self.grid.M * (2 * self.grid.subgrid_n - 1)

    # -- coordinate maps ----------------------------------------------------

    def field_from_reduced(self, c: np.ndarray) -> ElementField | np.ndarray:
        """The element field Z c of reduced coordinates c, (nred,), or for c
        (nred, R) the element fields (M, 2, n+1, R): two slice fills and the
        end map, whose product runs on `_gemm_width(R)` columns."""
        if c.ndim == 1:
            return ElementField(self.field_from_reduced(c[:, None])[..., 0], self.grid)
        M, n, R = self.grid.M, self.grid.subgrid_n, c.shape[1]
        x_c = np.zeros((M, _gemm_width(R)))
        x_c[:, :R] = c[-M:]
        u = np.empty((n + 1, 2 * M, R))
        u[1:n] = c[:-M].reshape(2 * M, n - 1, R).transpose(1, 0, 2)
        u[::n] = (self.ends @ x_c)[:, :R].reshape(2, 2 * M, R)
        return u.reshape(n + 1, M, 2, R).transpose(1, 2, 0, 3)

    def _solve(self, pieces: tuple, u: np.ndarray) -> np.ndarray:
        """x, (nred,) or (nred, R), of M_red x = Z^T (I x W) u for nodal values
        u, (M, 2, n+1) or (M, 2, n+1, R), from W's `_condensed` pieces, B = mb."""
        T, centre, correct = pieces
        M, n, tail = self.grid.M, self.grid.subgrid_n, u.shape[3:]
        y = T @ u.reshape(2 * M, n + 1, -1).transpose(1, 0, 2).reshape(n + 1, -1)
        x_c = centre @ y[:2].reshape(4 * M, *tail)
        interior = y[2:].reshape(n - 1, 2 * M, *tail) - (correct @ x_c).reshape(n - 1, 2 * M, *tail)
        return np.concatenate([interior.swapaxes(0, 1).reshape(-1, *tail), x_c])

    def reduce(self, u: ElementField) -> np.ndarray:
        """H-projection of a nodal field onto the constrained subspace."""
        return self._solve(self._mass_condensed, u.values)

    # -- operator action ----------------------------------------------------

    def apply_reduced(self, c: np.ndarray) -> np.ndarray:
        """Reduced coordinates of L u for u = Z c: -M_red^-1 K_red c, for c
        (nred,) or (nred, R)."""
        u = self.field_from_reduced(c)
        return -self._solve(self._stiffness_condensed, u.values if c.ndim == 1 else u)

    def apply(self, u: ElementField) -> ElementField:
        """L u for a field (projected onto the constrained subspace first)."""
        return self.field_from_reduced(self.apply_reduced(self.reduce(u)))


def assemble_operator(grid: DomainGrid, gamma: float) -> CoupledOperator:
    """The coupled operator for coupling strength gamma in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"coupling gamma must lie in [0, 1], got {gamma}")
    return CoupledOperator(grid=grid, gamma=float(gamma))


def _cluster(eigenvalues: np.ndarray, grid: DomainGrid) -> list[tuple[int, int]]:
    """Group numerically coincident eigenvalues; returns [start, end) ranges.

    The absolute floor is tied to the first decoupled level pi^2/h^2 so the
    near-zero slow band is resolved rather than lumped with the kernel.
    """
    atol = 1e-9 * np.pi**2 / grid.h**2
    gaps = np.diff(eigenvalues) > np.maximum(CLUSTER_RTOL * np.abs(eigenvalues[1:]), atol)
    edges = [0, *(np.flatnonzero(gaps) + 1).tolist(), eigenvalues.size]
    return list(zip(edges, edges[1:]))


@dataclass
class EigenSystem:
    """Numeric eigensystem of the coupled operator.

    fields[k] is the k-th eigenfield tuple, H-orthonormal, eigenvalues of
    -L in ascending order.  clusters groups numerically coincident
    eigenvalues; residuals holds ||L e + lambda e||_0 per pair.
    """

    gamma: float
    grid: DomainGrid
    eigenvalues: np.ndarray          # (nk,)
    fields: np.ndarray               # (nk, M, 2, n+1)
    residuals: np.ndarray            # (nk,)
    clusters: list

    @property
    def n_computed(self) -> int:
        return self.eigenvalues.size

    def multiplicity(self, k: int) -> int:
        for a, b in self.clusters:
            if a <= k < b:
                return b - a
        raise IndexError(k)

    def slow_band(self) -> np.ndarray:
        """Indices of the M eigenvalues continuing the decoupled kernel."""
        M = self.grid.M
        if self.n_computed < M + 1:
            raise ValueError("compute at least M + 1 eigenpairs to resolve the slow band")
        if self.eigenvalues[M] < 0.5 * np.pi**2 / self.grid.h**2:
            raise ValueError("slow band not separated from the first fast level")
        return np.arange(M)

    def is_simple(self, k: int) -> bool:
        return self.multiplicity(k) == 1

    def element_mode_shapes(self, grid: DomainGrid) -> np.ndarray:
        """Mode restrictions per element for noise projection."""
        if grid != self.grid:
            raise ValueError("eigensystem grid does not match")
        return self.fields


def _fix_signs(fields: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """Deterministic sign: positive H-mean, else positive leading centre value."""
    mb = grid.mass_block
    ones = np.ones((grid.M, 2, grid.subgrid_n + 1))
    means = np.einsum("kmhi,ij,mhj->k", fields, mb, ones)
    centres = fields[:, :, 0, -1]                      # (nk, M)
    scale = np.max(np.abs(fields), axis=(1, 2, 3)) + 1e-300
    for k in range(fields.shape[0]):
        s = means[k]
        if abs(s) < 1e-8 * scale[k]:
            nz = np.nonzero(np.abs(centres[k]) > 1e-8 * scale[k])[0]
            s = centres[k, nz[0]] if nz.size else 1.0
        if s < 0:
            fields[k] = -fields[k]
    return fields


def eig_gamma(op: CoupledOperator, kmax: int) -> EigenSystem:
    """Lowest kmax eigenpairs of -L at coupling gamma.

    Solves the generalized symmetric problem K_red v = lambda M_red v, the
    dense pair assembled here from the half blocks and the value conditions;
    the eigenfields come back H-orthonormal, signs fixed deterministically,
    and every pair carries its residual ||L e + lambda e||_0, with L the
    condensed `apply_reduced`, so it also checks the pair against it.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    import scipy.linalg as sla

    # eigh reads the lower triangles, so the pair needs no symmetrizing
    A = _galerkin(op.grid.stiffness_block, op.ends)
    B = _galerkin(op.grid.mass_block, op.ends)
    try:
        if kmax < A.shape[0]:
            lam, V = sla.eigh(A, B, subset_by_index=[0, kmax - 1])
        else:
            lam, V = sla.eigh(A, B)
    except sla.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(
            f"generalized eigensolve failed at gamma={op.gamma} "
            f"(n={A.shape[0]}, cond(M)~{np.linalg.cond(B):.2e})"
        ) from exc
    lam = np.where(np.abs(lam) < 1e-12 * max(abs(lam[-1]), 1.0), 0.0, lam)
    fields = _fix_signs(op.field_from_reduced(V).transpose(3, 0, 1, 2).copy(), op.grid)
    r = op.field_from_reduced(op.apply_reduced(V) + lam * V)               # (M, 2, n+1, kmax)
    res = np.sqrt(np.maximum(np.einsum("mhik,ij,mhjk->k", r, op.grid.mass_block, r), 0.0))
    return EigenSystem(
        gamma=op.gamma,
        grid=op.grid,
        eigenvalues=lam,
        fields=fields,
        residuals=res,
        clusters=_cluster(lam, op.grid),
    )


# ---------------------------------------------------------------------------
# decoupled (gamma = 0) closed-form eigensystem
# ---------------------------------------------------------------------------


@dataclass
class AnalyticEigenSystem:
    """Closed-form per-element eigenmodes of the insulated operator.

    Every element carries the same local family (shapes depend on x - X_j
    only): the constant 1/sqrt(2h), and for level k >= 1 with eigenvalue
    k^2 pi^2/h^2 the modes sin(k pi (x-X_j)/h)/sqrt(h) (all k), plus for
    even k the cosine and the centre-kinked sin(k pi |x-X_j|/h)/sqrt(h).
    Shapes are re-normalized under the grid quadrature so downstream
    projections are exactly consistent with the discrete inner product.
    """

    grid: DomainGrid
    eigenvalues: np.ndarray       # (n_modes,)
    levels: np.ndarray            # (n_modes,) level index k of each mode
    local_shapes: np.ndarray      # (n_modes, 2, n+1) on x - X_j offsets

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def element_mode_shapes(self, grid: DomainGrid) -> np.ndarray:
        """The local family broadcast to every element (a read-only view)."""
        if grid != self.grid:
            raise ValueError("eigensystem grid does not match")
        return np.broadcast_to(self.local_shapes[:, None, :, :],
                               (self.n_modes, grid.M, 2, grid.subgrid_n + 1))


def eig_gamma0(grid: DomainGrid, n_levels: int = 6) -> AnalyticEigenSystem:
    """Closed-form eigensystem of the insulated operator up to a level cutoff.

    n_levels counts the distinct nonzero eigenvalue levels k = 1..n_levels;
    the flat mode list interleaves multiplicities (1, 1, 3, 1, 3, ...).
    """
    if n_levels < 1:
        raise ValueError("need at least one nonzero level")
    h, n = grid.h, grid.subgrid_n
    xi = grid.local_offsets()                      # (2, n+1)
    shapes, lam, levels = [], [], []

    shapes.append(np.full_like(xi, 1.0 / np.sqrt(2.0 * h)))
    lam.append(0.0)
    levels.append(0)

    inv_sqrt_h = 1.0 / np.sqrt(h)
    for k in range(1, n_levels + 1):
        lk = (k * np.pi / h) ** 2
        shapes.append(inv_sqrt_h * np.sin(k * np.pi * xi / h))
        lam.append(lk)
        levels.append(k)
        if k % 2 == 0:
            shapes.append(inv_sqrt_h * np.cos(k * np.pi * xi / h))
            lam.append(lk)
            levels.append(k)
            shapes.append(inv_sqrt_h * np.sin(k * np.pi * np.abs(xi) / h))
            lam.append(lk)
            levels.append(k)

    shapes = np.asarray(shapes)
    # exact unit norm under the discrete quadrature
    norms = np.sqrt(np.einsum("lhi,ij,lhj->l", shapes, grid.mass_block, shapes))
    shapes /= norms[:, None, None]
    return AnalyticEigenSystem(
        grid=grid,
        eigenvalues=np.asarray(lam),
        levels=np.asarray(levels),
        local_shapes=shapes,
    )


# ---------------------------------------------------------------------------
# small-gamma expansion of a slow eigenfield
# ---------------------------------------------------------------------------


@dataclass
class GroundModeExpansion:
    """Expansion of a slow eigenfield around its element centre values.

    e_j(x) = e_j(X_j) + gamma F1_j(x) + gamma^2 F2_j(x) + O(gamma^3), where
    F1 is the piecewise-linear interpolant of neighbouring centre-value
    differences, F2 the piecewise quadratic with curvature
    A_j = (centre_{j-1} - 2 centre_j + centre_{j+1}) / (2 h^2), both
    vanishing at X_j.  remainder_norm is the H-norm of what is left.
    """

    centres: np.ndarray          # (M,)
    F1: np.ndarray               # (M, 2, n+1)
    A: np.ndarray                # (M,)
    remainder_norm: float


def expansion_fields(centres: np.ndarray, grid: DomainGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F1, F2 and the curvatures A for given centre values.

    Shared by the eigenfield expansion and by the slow-field reconstruction
    used in model validation (there the centre values are the evolving grid
    amplitudes).
    """
    h = grid.h
    xi = grid.local_offsets()                        # (2, n+1)
    cm = np.roll(centres, 1)
    cp = np.roll(centres, -1)
    slope_left = (centres - cm) / h                  # (M,)
    slope_right = (cp - centres) / h
    F1 = np.empty((grid.M, 2, grid.subgrid_n + 1))
    F1[:, 0, :] = slope_left[:, None] * xi[0][None, :]
    F1[:, 1, :] = slope_right[:, None] * xi[1][None, :]
    A = (cm - 2.0 * centres + cp) / (2.0 * h**2)
    F2 = np.empty_like(F1)
    F2[:, 0, :] = A[:, None] * (xi[0] * (xi[0] + h))[None, :]
    F2[:, 1, :] = A[:, None] * (xi[1] * (xi[1] - h))[None, :]
    return F1, F2, A


def expand_ground_mode(
    eig: EigenSystem, grid: DomainGrid, mode: Union[int, str] = "ground"
) -> GroundModeExpansion:
    """Expand a slow eigenfield in powers of the coupling strength.

    mode selects which member of the slow band to expand: "ground" (the
    uniform kernel field, whose expansion is trivially exact), "top-slow"
    (the highest slow eigenvalue; for even M a simple, sign-alternating
    mode whose centre differences are O(1) and which therefore exercises
    the full expansion), or an explicit index.  Degenerate choices are
    rejected: the expansion presumes a simple eigenvalue.
    """
    if grid != eig.grid:
        raise ValueError("grid mismatch")
    band = eig.slow_band()
    if isinstance(mode, str):
        if mode == "ground":
            idx = 0
        elif mode == "top-slow":
            idx = int(band[-1])
        else:
            raise ValueError(f"unknown mode selector {mode!r}")
    else:
        idx = int(mode)
    if idx not in band:
        raise ValueError(f"mode {idx} is not in the slow band {band}")
    if not eig.is_simple(idx):
        raise ValueError(
            f"slow eigenvalue {idx} is degenerate (multiplicity "
            f"{eig.multiplicity(idx)}); the expansion needs a simple mode"
        )
    field = eig.fields[idx]
    centres = field[:, 0, -1].copy()
    F1, F2, A = expansion_fields(centres, grid)
    g = eig.gamma
    remainder = field - centres[:, None, None] - g * F1 - g * g * F2
    return GroundModeExpansion(centres=centres, F1=F1, A=A,
                               remainder_norm=seminorm(ElementField(remainder, grid)))
