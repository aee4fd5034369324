"""Periodic domain split into overlapping elements, with per-element subgrids.

The interval [0, L] is covered by M elements of width 2h (h = L/M), the j-th
one centred at the grid point X_j = j*h and reaching one grid spacing into
each neighbour, so elements j and j+1 overlap on [X_j, X_{j+1}].  Fields live
element-wise: each element stores its left half [X_j - h, X_j] and right half
[X_j, X_j + h] on separate uniform subgrids, which duplicates the centre node.
Duplicating the centre lets a field carry a derivative kink at X_j (several of
the natural element modes do) while value continuity is kept as an invariant.

Quadrature is Galerkin with piecewise-quadratic interpolation on each half
(pairs of subgrid intervals form one quadratic cell), i.e. a composite rule of
order 4.  The same mass/stiffness blocks back the inner product, the seminorms
and the coupled-operator assembly, so energy identities hold to round-off
rather than to discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainGrid",
    "ElementField",
    "build_grid",
    "inner_product",
    "seminorm",
]


def quadratic_cell_matrices(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness of one quadratic cell spanning two subgrid intervals.

    Nodes sit at (0, delta, 2*delta); exact integrals of products of the three
    Lagrange basis functions and their derivatives.
    """
    mass = (delta / 15.0) * np.array(
        [[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]]
    )
    stiff = (1.0 / (6.0 * delta)) * np.array(
        [[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]]
    )
    return mass, stiff


def half_element_matrices(delta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble mass/stiffness over one half-element (n intervals, n even)."""
    me, ke = quadratic_cell_matrices(delta)
    mass = np.zeros((n + 1, n + 1))
    stiff = np.zeros((n + 1, n + 1))
    for cell in range(n // 2):
        i = 2 * cell
        mass[i : i + 3, i : i + 3] += me
        stiff[i : i + 3, i : i + 3] += ke
    return mass, stiff


@dataclass(frozen=True)
class DomainGrid:
    """Immutable description of the overlapping-element partition.

    Attributes
    ----------
    L : float
        Domain length; the domain is [0, L] with L-periodic fields.
    M : int
        Number of elements (>= 3 so every element has two distinct neighbours).
    subgrid_n : int
        Subgrid intervals per half-element (even, >= 8).  Each element stores
        2*(subgrid_n + 1) nodal values: both halves keep their n+1 nodes and
        the centre node appears once per half.
    """

    L: float
    M: int
    subgrid_n: int
    h: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", self.L / self.M)
        object.__setattr__(self, "delta", self.h / self.subgrid_n)

    # -- index and coordinate helpers -------------------------------------

    def index(self, j: int) -> int:
        """Periodic element index: j +- M maps back to j."""
        return j % self.M

    @property
    def grid_points(self) -> np.ndarray:
        """Element centres X_j = j*h for j = 1..M."""
        return self.h * np.arange(1, self.M + 1)

    def element_nodes(self, j: int) -> np.ndarray:
        """Nodal coordinates of element j, shape (2, subgrid_n + 1).

        Row 0 is the left half [X_j - h, X_j], row 1 the right half
        [X_j, X_j + h]; coordinates are not wrapped into [0, L).
        """
        xj = self.h * (self.index(j) + 1)
        n = self.subgrid_n
        return np.stack(
            [np.linspace(xj - self.h, xj, n + 1), np.linspace(xj, xj + self.h, n + 1)]
        )

    def all_nodes(self) -> np.ndarray:
        """Nodal coordinates for every element, shape (M, 2, subgrid_n + 1)."""
        return np.stack([self.element_nodes(j) for j in range(self.M)])

    def local_offsets(self) -> np.ndarray:
        """Node offsets x - X_j, shape (2, subgrid_n + 1) (same for all j)."""
        n = self.subgrid_n
        return np.stack([np.linspace(-self.h, 0.0, n + 1), np.linspace(0.0, self.h, n + 1)])

    @property
    def centre_mode_value(self) -> float:
        """Value 1/sqrt(2h) of the normalized constant mode of one element."""
        return 1.0 / np.sqrt(2.0 * self.h)

    # -- quadrature blocks -------------------------------------------------

    @property
    def mass_block(self) -> np.ndarray:
        """Half-element mass matrix (cached)."""
        if not hasattr(self, "_mass_block"):
            mb, kb = half_element_matrices(self.delta, self.subgrid_n)
            object.__setattr__(self, "_mass_block", mb)
            object.__setattr__(self, "_stiff_block", kb)
        return self._mass_block

    @property
    def stiffness_block(self) -> np.ndarray:
        """Half-element stiffness matrix (cached)."""
        self.mass_block
        return self._stiff_block

    @property
    def ndof(self) -> int:
        """Stacked nodal values over all elements."""
        return self.M * 2 * (self.subgrid_n + 1)


def build_grid(L: float, M: int, subgrid_n: int) -> DomainGrid:
    """Validated grid constructor.

    Rejects M < 3 (the three-point coupling stencil needs distinct
    neighbours), non-positive L, and subgrids too coarse or odd (the
    quadratic cells pair subgrid intervals).
    """
    if not L > 0:
        raise ValueError(f"domain length must be positive, got L={L}")
    if M < 3:
        raise ValueError(f"need at least 3 elements for the neighbour stencil, got M={M}")
    if subgrid_n < 8:
        raise ValueError(f"subgrid_n must be >= 8, got {subgrid_n}")
    if subgrid_n % 2:
        raise ValueError(f"subgrid_n must be even (quadratic cells pair intervals), got {subgrid_n}")
    return DomainGrid(L=float(L), M=int(M), subgrid_n=int(subgrid_n))


@dataclass(frozen=True)
class ElementField:
    """Nodal samples of one field tuple (u_j), shape (M, 2, subgrid_n + 1).

    values[j, 0] is the left half of element j, values[j, 1] the right half;
    values[j, 0, -1] and values[j, 1, 0] are the two copies of the centre
    node.  Treated as immutable after construction.
    """

    values: np.ndarray
    grid: DomainGrid

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        expected = (self.grid.M, 2, self.grid.subgrid_n + 1)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")

    @classmethod
    def zeros(cls, grid: DomainGrid) -> "ElementField":
        return cls(np.zeros((grid.M, 2, grid.subgrid_n + 1)), grid)

    @classmethod
    def from_function(cls, grid: DomainGrid, f) -> "ElementField":
        """Sample a function of x on every element subgrid (no wrapping)."""
        return cls(f(grid.all_nodes()), grid)

    @classmethod
    def from_stacked(cls, vec: np.ndarray, grid: DomainGrid) -> "ElementField":
        return cls(vec.reshape(grid.M, 2, grid.subgrid_n + 1).copy(), grid)

    def stacked(self) -> np.ndarray:
        """Flatten to the element-major dof vector used by the operator."""
        return self.values.reshape(-1)

    def element(self, j: int) -> np.ndarray:
        return self.values[self.grid.index(j)]

    def value_jump_at_centres(self) -> float:
        """Largest mismatch between the two centre-node copies."""
        return float(np.max(np.abs(self.values[:, 0, -1] - self.values[:, 1, 0])))

    def is_value_consistent(self, tol: float = 1e-10) -> bool:
        return self.value_jump_at_centres() <= tol


def _check_same_grid(u: ElementField, v: ElementField) -> DomainGrid:
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return u.grid


def inner_product(u: ElementField, v: ElementField) -> float:
    """Sum of per-half-element integrals of u_j * v_j.

    The integral over each element is split at the (duplicated) centre node,
    so integrands with a centre kink are handled exactly by the per-half
    quadrature.
    """
    g = _check_same_grid(u, v)
    return float(np.einsum("mhi,ij,mhj->", u.values, g.mass_block, v.values))


def seminorm(u: ElementField, order: int = 0) -> float:
    """Sobolev seminorm ( sum_j \\int |d^order u_j|^2 )^{1/2}, order in {0,1,2}.

    Derivatives are taken per half, one-sided across the duplicated centre
    node: order 1 uses the stiffness form of the quadratic interpolant,
    order 2 its piecewise-constant second derivative.  order 0 reduces to
    sqrt(inner_product(u, u)).
    """
    g = u.grid
    if order == 0:
        return float(np.sqrt(max(inner_product(u, u), 0.0)))
    if order == 1:
        val = np.einsum("mhi,ij,mhj->", u.values, g.stiffness_block, u.values)
        return float(np.sqrt(max(val, 0.0)))
    if order == 2:
        vals = u.values
        # second derivative of each quadratic cell: (u0 - 2 u1 + u2)/delta^2
        d2 = (vals[:, :, 0:-2:2] - 2.0 * vals[:, :, 1:-1:2] + vals[:, :, 2::2]) / g.delta**2
        return float(np.sqrt(2.0 * g.delta * np.sum(d2**2)))
    raise ValueError(f"seminorm order must be 0, 1 or 2, got {order}")
