import numpy as np
import pytest

from holisde.grid import ElementField, build_grid, inner_product, seminorm


def test_build_grid_unit_spacing():
    g = build_grid(4.0, 4, 64)
    assert g.h == 1.0
    assert np.allclose(g.grid_points, [1.0, 2.0, 3.0, 4.0])


def test_build_grid_pi_spacing():
    g = build_grid(2.0 * np.pi, 8, 32)
    assert np.isclose(g.h, np.pi / 4.0)
    assert g.M * g.h == pytest.approx(g.L, rel=1e-15)


def test_build_grid_rejects_degenerate_stencil():
    with pytest.raises(ValueError):
        build_grid(1.0, 2, 32)


@pytest.mark.parametrize("L,M,n", [(0.0, 4, 32), (-1.0, 4, 32), (1.0, 4, 4), (1.0, 4, 33)])
def test_build_grid_rejects_bad_params(L, M, n):
    with pytest.raises(ValueError):
        build_grid(L, M, n)


def test_periodic_index_map(grid8):
    for j in range(grid8.M):
        assert grid8.index(j + grid8.M) == j
        assert grid8.index(j - grid8.M) == j


def test_element_overlap(grid8):
    # element j and j+1 share the strip [X_j, X_{j+1}]
    nj = grid8.element_nodes(0)
    nj1 = grid8.element_nodes(1)
    assert np.isclose(nj[1, 0], grid8.grid_points[0])
    assert np.isclose(nj[1, -1], nj1[0, -1])  # right end of j is centre of j+1
    assert np.allclose(nj[1], nj1[0])


def test_inner_product_constant_double_cover(grid8):
    one = ElementField(np.ones((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    # the overlapping elements cover the domain twice
    assert inner_product(one, one) == pytest.approx(2.0 * grid8.L, rel=1e-13)


def test_inner_product_normalized_constant_mode(grid8):
    vals = np.zeros((grid8.M, 2, grid8.subgrid_n + 1))
    vals[3] = grid8.centre_mode_value
    u = ElementField(vals, grid8)
    assert inner_product(u, u) == pytest.approx(1.0, rel=1e-13)


def test_inner_product_mode_orthogonality(grid8):
    # constant against the half-period sine mode, on one element
    xi = grid8.local_offsets()
    vals = np.zeros((grid8.M, 2, grid8.subgrid_n + 1))
    vals[2] = grid8.centre_mode_value
    u = ElementField(vals, grid8)
    vals2 = np.zeros_like(vals)
    vals2[2] = np.sin(np.pi * xi / grid8.h) / np.sqrt(grid8.h)
    v = ElementField(vals2, grid8)
    # oracle: the analytic product integrates to zero exactly
    assert abs(inner_product(u, v)) < 1e-12


def test_inner_product_symmetry_and_positivity(grid8, rng):
    for _ in range(5):
        u = ElementField(rng.standard_normal((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
        v = ElementField(rng.standard_normal((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
        assert inner_product(u, v) == pytest.approx(inner_product(v, u), rel=1e-12)
        assert inner_product(u, u) > 0.0
    zero = ElementField(np.zeros((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    assert inner_product(zero, zero) == 0.0


def test_inner_product_rejects_mismatched_grids(grid8):
    other = build_grid(grid8.L, grid8.M, grid8.subgrid_n + 2)
    u = ElementField(np.zeros((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    v = ElementField(np.zeros((other.M, 2, other.subgrid_n + 1)), other)
    with pytest.raises(ValueError):
        inner_product(u, v)


def test_seminorm_constant_has_zero_derivative(grid8):
    one = ElementField(np.ones((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    assert seminorm(one, 1) == 0.0


def test_seminorm_sine_mode():
    # |u|_1 = pi/h for u = sin(pi (x-X_j)/h)/sqrt(h) on a single element
    g = build_grid(4.0, 4, 64)
    xi = g.local_offsets()
    vals = np.zeros((g.M, 2, g.subgrid_n + 1))
    vals[1] = np.sin(np.pi * xi / g.h) / np.sqrt(g.h)
    u = ElementField(vals, g)
    assert seminorm(u, 1) == pytest.approx(np.pi / g.h, rel=1e-4)
    assert seminorm(u, 0) == pytest.approx(1.0, rel=1e-6)


def test_seminorm_order_zero_matches_inner_product(grid8, rng):
    u = ElementField(rng.standard_normal((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    assert seminorm(u, 0) == pytest.approx(np.sqrt(inner_product(u, u)), rel=1e-12)


def test_seminorm_rejects_high_order(grid8):
    u = ElementField(np.zeros((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    with pytest.raises(ValueError):
        seminorm(u, 2)


def test_quadrature_convergence_under_refinement():
    # doubling the subgrid shrinks smooth-integrand errors by >= 4
    def ip_value(n):
        g = build_grid(2.0 * np.pi, 4, n)
        f = ElementField(np.exp(np.sin(g.all_nodes())), g)
        return inner_product(f, f)

    fine = ip_value(256)  # oracle: same integrand at much finer resolution
    errs = [abs(ip_value(n) - fine) for n in (8, 16, 32)]
    assert errs[1] <= errs[0] / 4.0
    assert errs[2] <= errs[1] / 4.0
