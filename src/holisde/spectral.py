"""The coupled second-derivative operator on overlapping elements.

Neighbouring element fields are tied together by a one-parameter family of
coupling conditions with strength gamma in [0, 1] (gamma' = 1 - gamma):

  value:  u_j(X_{j +- 1}) = gamma' u_j(X_j) + gamma u_{j +- 1}(X_{j +- 1}),
  flux:   u_{j,x}(X_j^-) - u_{j,x}(X_j^+) + gamma [u_{j-1,x}(X_j) - u_{j+1,x}(X_j)]
          - gamma' [u_{j,x}(X_{j-1}) - u_{j,x}(X_{j+1})] = 0,

plus value continuity across the duplicated centre node.  At gamma = 0 the
elements are insulated from each other; at gamma = 1 the conditions reduce to
interelement continuity and the stack reproduces the periodic Laplacian.

Discretely, the value conditions are *essential*: they eliminate the three
boundary/centre dofs of every element, giving a sparse injection Z from free
coefficients into nodal space.  The operator is then the Galerkin pair
(K_red, M_red) = (Z^T K Z, Z^T M Z) built from the per-half quadratic
stiffness/mass blocks.  The flux condition is the *natural* condition of this
quadratic form: collecting the boundary terms of sum_j int u_j' v_j' over
test fields satisfying the value conditions reproduces exactly the flux
balance above.  Self-adjointness and the energy identity
< -L u, u > = sum_j |u_j|_1^2 therefore hold structurally, to round-off.

The decoupled operator (gamma = 0) has a closed-form eigensystem per element:
eigenvalue k^2 pi^2 / h^2 with one mode for odd k (the odd sine), three for
even k (cosine, sine, and the centre-kinked sine in |x - X_j|), and the
normalized constant at k = 0.

This module is the package's only user of scipy's linear algebra, and it
imports scipy's sparse and dense linear algebra inside the functions that
assemble, factor, condense or diagonalize the coupled operator
(`_constraint_basis`, `assemble_operator`, `CoupledOperator._lu`, `condense`,
`eig_gamma`).  Loading those modules costs about 0.3 s and 23 MiB, and the
grid-model paths (the closed-form gamma = 0 eigensystem, the reference, the
models) never touch them, so `import holisde` does not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .grid import DomainGrid, ElementField

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "CoupledOperator",
    "EigenSystem",
    "AnalyticEigenSystem",
    "GroundModeExpansion",
    "assemble_operator",
    "condense",
    "eig_gamma",
    "eig_gamma0",
    "expand_ground_mode",
]

# clustering of numerically coincident eigenvalues
CLUSTER_RTOL = 1e-6


def _constraint_basis(grid: DomainGrid, gamma: float) -> sp.csr_matrix:
    """Injection Z from free coefficients into stacked nodal values.

    Per element the free dofs are the interior nodes of both halves plus one
    centre copy; the eliminated dofs (left endpoint, right endpoint, second
    centre copy) are rebuilt from the value conditions.
    """
    import scipy.sparse as sp

    M, n = grid.M, grid.subgrid_n
    S = 2 * (n + 1)      # nodal dofs per element
    F = 2 * n - 1        # free dofs per element
    gp = 1.0 - gamma
    rows, cols, vals = [], [], []
    for j in range(M):
        base, fb = j * S, j * F
        centre = fb + n - 1                      # free column of u_j(X_j)
        centre_m = ((j - 1) % M) * F + n - 1
        centre_p = ((j + 1) % M) * F + n - 1
        # left half nodes 1..n are free (node n is the centre)
        for i in range(1, n + 1):
            rows.append(base + i)
            cols.append(fb + i - 1)
            vals.append(1.0)
        # right half interior nodes 1..n-1 are free
        for i in range(1, n):
            rows.append(base + n + 1 + i)
            cols.append(fb + n + i - 1)
            vals.append(1.0)
        # centre continuity: right-half copy of the centre
        rows.append(base + n + 1)
        cols.append(centre)
        vals.append(1.0)
        # value coupling at both element endpoints
        rows.append(base)                        # u_j(X_{j-1})
        cols.append(centre)
        vals.append(gp)
        rows.append(base)
        cols.append(centre_m)
        vals.append(gamma)
        rows.append(base + S - 1)                # u_j(X_{j+1})
        cols.append(centre)
        vals.append(gp)
        rows.append(base + S - 1)
        cols.append(centre_p)
        vals.append(gamma)
    return sp.csr_matrix((vals, (rows, cols)), shape=(M * S, M * F))


@dataclass
class CoupledOperator:
    """Assembled coupled operator at a fixed coupling strength.

    Holds the constraint injection Z, the reduced Galerkin pair and the
    weak load map ZtM = Z^T (I x M_b) from nodal values to reduced loads;
    the operator action L u is the weak second derivative: solve
    M_red c' = -K_red c and map back through Z.
    """

    grid: DomainGrid
    gamma: float
    Z: sp.csr_matrix
    K_red: sp.csc_matrix
    M_red: sp.csc_matrix
    ZtM: sp.csr_matrix
    _mass_lu: Optional[spla.SuperLU] = field(default=None, repr=False)

    @property
    def n_reduced(self) -> int:
        return self.K_red.shape[0]

    def _lu(self) -> spla.SuperLU:
        if self._mass_lu is None:
            from scipy.sparse.linalg import splu

            self._mass_lu = splu(self.M_red)
        return self._mass_lu

    # -- coordinate maps ----------------------------------------------------

    def field_from_reduced(self, c: np.ndarray) -> ElementField:
        return ElementField.from_stacked(self.Z @ c, self.grid)

    def reduce(self, u: ElementField) -> np.ndarray:
        """H-projection of a nodal field onto the constrained subspace."""
        return self._lu().solve(self.ZtM @ u.values.reshape(self.grid.ndof))

    # -- operator action ----------------------------------------------------

    def apply_reduced(self, c: np.ndarray) -> np.ndarray:
        """Reduced coordinates of L u for u = Z c."""
        return -self._lu().solve(self.K_red @ c)

    def apply(self, u: ElementField) -> ElementField:
        """L u for a field (projected onto the constrained subspace first)."""
        return self.field_from_reduced(self.apply_reduced(self.reduce(u)))


def assemble_operator(grid: DomainGrid, gamma: float) -> CoupledOperator:
    """Build the reduced Galerkin pair for coupling strength gamma in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"coupling gamma must lie in [0, 1], got {gamma}")
    import scipy.sparse as sp

    M = grid.M
    mb, kb = grid.mass_block, grid.stiffness_block
    Mg = sp.block_diag([sp.csr_matrix(mb)] * (2 * M), format="csr")
    Kg = sp.block_diag([sp.csr_matrix(kb)] * (2 * M), format="csr")
    Z = _constraint_basis(grid, gamma)
    ZtM = Z.T @ Mg
    K_red = (Z.T @ Kg @ Z).tocsc()
    M_red = (ZtM @ Z).tocsc()
    return CoupledOperator(grid=grid, gamma=float(gamma), Z=Z, K_red=K_red, M_red=M_red,
                           ZtM=ZtM.tocsr())


def condense(A: sp.spmatrix, Z: sp.spmatrix, M: int) -> tuple:
    """Static condensation of a reduced matrix A on M elements, in dense pieces.

    A coordinate whose Z column is one nodal value is interior to that node's
    element; the rest are the centre values.  Returns perm (the interiors by
    element, then the centres), the inverse of the (m, m) interior block all
    elements share, W = A_II^-1 A_IC, the sparse A_CI and S^-1 = (A_CC -
    A_CI W)^-1.  Raises ValueError if an interior entry couples two elements,
    or if an element's interior block differs from the first's.
    """
    from scipy.sparse.linalg import splu        # SuperLU: the mass LU loads its code anyway

    Z = Z.tocsc()
    single = np.diff(Z.indptr) == 1             # interiors by element, centres in column order
    perm = np.lexsort((Z.indices[Z.indptr[:-1]] // (Z.shape[0] // M) * single, ~single))
    n = np.count_nonzero(single)
    m = n // M
    P = A.tocsr()[perm][:, perm]
    Q = P[:n, :n].tocoo()
    if np.any((Q.row // m != Q.col // m) & (Q.data != 0)):
        raise ValueError("an interior entry couples two elements")
    blocks = np.zeros((M, m, m))              # what couples two elements is zero here
    np.add.at(blocks, (Q.row // m, Q.row % m, Q.col % m), Q.data)
    if np.any(blocks != blocks[0]):
        raise ValueError("the elements' interior blocks differ")
    inv = np.ascontiguousarray(splu(P[:m, :m].tocsc()).solve(np.eye(m)))
    W = (inv @ P[:n, n:].toarray().reshape(M, m, M)).reshape(n, M)
    schur_inv = splu(P.tocsc()).solve(np.eye(len(perm))[:, n:])[n:]    # S^-1 = (A^-1)_CC
    return perm, inv, W, P[n:, :n], np.ascontiguousarray(schur_inv)


def _cluster(eigenvalues: np.ndarray, grid: DomainGrid) -> list[tuple[int, int]]:
    """Group numerically coincident eigenvalues; returns [start, end) ranges.

    The absolute floor is tied to the first decoupled level pi^2/h^2 so the
    near-zero slow band is resolved rather than lumped with the kernel.
    """
    atol = 1e-9 * np.pi**2 / grid.h**2
    groups = []
    start = 0
    for i in range(1, eigenvalues.size + 1):
        if i == eigenvalues.size:
            groups.append((start, i))
            break
        gap = eigenvalues[i] - eigenvalues[i - 1]
        if gap > max(CLUSTER_RTOL * abs(eigenvalues[i]), atol):
            groups.append((start, i))
            start = i
    return groups


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

    Solves the generalized symmetric problem K_red v = lambda M_red v; the
    eigenfields come back H-orthonormal, signs fixed deterministically, and
    every pair carries its residual ||L e + lambda e||_0.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    import scipy.linalg as sla

    A = op.K_red.toarray()
    B = op.M_red.toarray()
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
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

    nk = lam.size
    fields = (op.Z @ V).T.reshape(nk, op.grid.M, 2, op.grid.subgrid_n + 1).copy()
    fields = _fix_signs(fields, op.grid)

    # residuals of the reduced pencil, measured in the H-norm
    res = np.empty(nk)
    for k in range(nk):
        r = op.K_red @ V[:, k] - lam[k] * (op.M_red @ V[:, k])
        rr = op._lu().solve(r)
        res[k] = np.sqrt(max(float(rr @ r), 0.0))
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
    rnorm = float(
        np.sqrt(max(np.einsum("mhi,ij,mhj->", remainder, grid.mass_block, remainder), 0.0))
    )
    return GroundModeExpansion(centres=centres, F1=F1, A=A, remainder_norm=rnorm)
