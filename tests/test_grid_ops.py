"""Stencils, elliptic solves, advection conservation, and field I/O."""

import numpy as np
import pytest
import scipy.fft

from sgf2d import grid as grid_module
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    ScalarField2D,
    SolverDivergenceError,
    VectorField2D,
    _neg_lap_eigenvalues,
    advect,
    apply_symbol,
    arakawa,
    curl2d,
    d1c,
    d2c,
    divergence,
    dst_symbol,
    dstn,
    helmholtz_solve,
    lap5,
    laplacian,
    pad0,
    poisson_solve,
    poisson_solve_values,
    velocity_from_stream,
)
from sgf2d.fieldio import read_field, write_field, write_field_csv

from helpers import count_calls


def sine_mode(grid, k, l):
    x1, x2 = grid.coords()
    return np.sin(k * np.pi * x1) * np.sin(l * np.pi * x2)


def mu_h(grid, k, l):
    # discrete eigenvalue of -lap5 for mode (k, l)
    h = grid.h
    return (4.0 / h**2) * (np.sin(k * np.pi * h / 2) ** 2 + np.sin(l * np.pi * h / 2) ** 2)


def lap5_loops(v, h):
    # independent loop-coded 5-point stencil, zero ghosts
    n = v.shape[0]
    out = np.zeros_like(v)
    def at(i, j):
        return v[i, j] if 0 <= i < n and 0 <= j < n else 0.0
    for i in range(n):
        for j in range(n):
            out[i, j] = (at(i+1, j) + at(i-1, j) + at(i, j+1) + at(i, j-1) - 4*v[i, j]) / h**2
    return out


def d1c_loops(v, h):
    n = v.shape[0]
    out = np.zeros_like(v)
    def at(i, j):
        return v[i, j] if 0 <= i < n and 0 <= j < n else 0.0
    for i in range(n):
        for j in range(n):
            out[i, j] = (at(i+1, j) - at(i-1, j)) / (2*h)
    return out


def d2c_loops(v, h):
    return d1c_loops(v.T, h).T


class TestGridAndFields:
    def test_spacing(self):
        g = Grid(15)
        assert g.h == pytest.approx(1 / 16)
        x1, x2 = g.coords()
        assert x1[0, 0] == pytest.approx(g.h)
        assert x2[0, -1] == pytest.approx(15 * g.h)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid(2)

    def test_field_shape_checked(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            ScalarField2D(g, np.zeros((7, 8)))

    def test_nonfinite_rejected(self):
        g = Grid(4)
        bad = np.zeros((4, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField2D(g, bad)
        with pytest.raises(ValueError):
            VectorField2D(g, bad, np.zeros((4, 4)))

    def test_fields_immutable(self):
        g = Grid(4)
        f = ScalarField2D(g, np.ones((4, 4)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_grid_mismatch(self):
        a = ScalarField2D(Grid(4), np.zeros((4, 4)))
        y = velocity_from_stream(ScalarField2D(Grid(5), np.zeros((5, 5))))
        with pytest.raises(GridMismatchError):
            advect(y, a)


class TestLaplacian:
    def test_zero(self):
        g = Grid(9)
        out = laplacian(ScalarField2D(g, np.zeros(g.shape)))
        assert np.all(out.values == 0.0)

    def test_eigenmode(self):
        g = Grid(17)
        for (k, l) in [(1, 1), (2, 3), (5, 1)]:
            f = sine_mode(g, k, l)
            out = laplacian(ScalarField2D(g, f))
            np.testing.assert_allclose(out.values, -mu_h(g, k, l) * f, rtol=1e-12, atol=1e-12)

    def test_affine_interior_zero(self):
        g = Grid(5)
        x1, x2 = g.coords()
        out = laplacian(ScalarField2D(g, x1 + x2)).values
        # center node sees a pure affine neighborhood
        assert out[2, 2] == pytest.approx(0.0, abs=1e-12)
        # boundary-adjacent values are set by the zero ghost, not by smoothness
        np.testing.assert_allclose(out, lap5_loops(x1 + x2, g.h), rtol=1e-13, atol=1e-10)
        assert abs(out[0, 2]) > 1.0

    def test_matches_loop_stencil(self):
        g = Grid(12)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(g.shape)
        np.testing.assert_allclose(lap5(v, g.h), lap5_loops(v, g.h), rtol=1e-13, atol=1e-10)

    def test_symmetry(self):
        g = Grid(14)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(g.shape)
        r = rng.standard_normal(g.shape)
        lhs = np.sum(lap5(f, g.h) * r)
        rhs = np.sum(f * lap5(r, g.h))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def _padded_stencils(a, b, h):
    # the stencils written against np.pad: pad0 and its callers must match them bit for bit
    ap, bp = np.pad(a, 1), np.pad(b, 1)
    lap = (ap[2:, 1:-1] + ap[:-2, 1:-1] + ap[1:-1, 2:] + ap[1:-1, :-2] - 4.0 * a) / (h * h)
    d1 = (ap[2:, 1:-1] - ap[:-2, 1:-1]) / (2.0 * h)
    d2 = (ap[1:-1, 2:] - ap[1:-1, :-2]) / (2.0 * h)
    aE, aW, aN, aS = ap[2:, 1:-1], ap[:-2, 1:-1], ap[1:-1, 2:], ap[1:-1, :-2]
    aNE, aNW, aSE, aSW = ap[2:, 2:], ap[:-2, 2:], ap[2:, :-2], ap[:-2, :-2]
    bE, bW, bN, bS = bp[2:, 1:-1], bp[:-2, 1:-1], bp[1:-1, 2:], bp[1:-1, :-2]
    bNE, bNW, bSE, bSW = bp[2:, 2:], bp[:-2, 2:], bp[2:, :-2], bp[:-2, :-2]
    j1 = (aE - aW) * (bN - bS) - (aN - aS) * (bE - bW)
    j2 = aE * (bNE - bSE) - aW * (bNW - bSW) - aN * (bNE - bNW) + aS * (bSE - bSW)
    j3 = aNE * (bN - bE) - aSW * (bW - bS) - aNW * (bN - bW) + aSE * (bE - bS)
    return lap, d1, d2, (j1 + j2 + j3) / (12.0 * h * h)


class TestPadFreeStencils:
    @pytest.mark.parametrize("n", [3, 16, 33])
    @pytest.mark.parametrize("layout", ["contiguous", "stack_slice", "transposed"])
    def test_bit_identical_to_np_pad(self, n, layout):
        g = Grid(n)
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((3, 2, n, n))
        if layout == "contiguous":
            a, b = stack[0, 0].copy(), stack[1, 1].copy()
        elif layout == "stack_slice":
            a, b = stack[2, 0], stack[1, 1]
        else:
            a, b = stack[0, 1].T, stack[2, 0][::-1].T
        lap, d1, d2, jac = _padded_stencils(a, b, g.h)
        assert np.array_equal(lap5(a, g.h), lap)
        assert np.array_equal(d1c(a, g.h), d1)
        assert np.array_equal(d2c(a, g.h), d2)
        assert np.array_equal(arakawa(a, b, g.h), jac)
        assert np.array_equal(pad0(a), np.pad(a, 1))
        assert np.array_equal(pad0(b), np.pad(b, 1))


class TestEllipticSolves:
    @pytest.mark.parametrize("method", ["dst", "cg"])
    def test_poisson_zero(self, method):
        g = Grid(8)
        out = poisson_solve(ScalarField2D(g, np.zeros(g.shape)), method=method)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("method", ["dst", "cg"])
    def test_poisson_eigenmode(self, method):
        g = Grid(16)
        f = sine_mode(g, 1, 1)
        out = poisson_solve(ScalarField2D(g, mu_h(g, 1, 1) * f), method=method)
        np.testing.assert_allclose(out.values, f, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", ["dst", "cg"])
    def test_poisson_round_trip(self, method):
        g = Grid(20)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(g.shape)
        rhs = ScalarField2D(g, -lap5(f, g.h))
        out = poisson_solve(rhs, method=method)
        assert np.max(np.abs(out.values - f)) <= 1e-10 * np.max(np.abs(f))

    @pytest.mark.parametrize("method", ["dst", "cg"])
    def test_helmholtz_round_trip(self, method):
        g = Grid(20)
        a = 0.37
        rng = np.random.default_rng(6)
        f = rng.standard_normal(g.shape)
        rhs = ScalarField2D(g, f - a * lap5(f, g.h))
        out = helmholtz_solve(rhs, a, method=method)
        assert np.max(np.abs(out.values - f)) <= 1e-10 * np.max(np.abs(f))

    def test_helmholtz_eigenmode(self):
        g = Grid(16)
        a = 1.25
        f = sine_mode(g, 2, 2)
        rhs = ScalarField2D(g, (1 + a * mu_h(g, 2, 2)) * f)
        out = helmholtz_solve(rhs, a)
        np.testing.assert_allclose(out.values, f, rtol=0, atol=1e-11)

    def test_helmholtz_bad_coefficient(self):
        g = Grid(8)
        f = ScalarField2D(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            helmholtz_solve(f, 0.0)
        with pytest.raises(ValueError):
            helmholtz_solve(f, -1.0)
        # NaN and +inf slip past a bare a <= 0 test: NaN gave a NaN field, inf all zeros
        for a in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                helmholtz_solve(f, a)

    def test_spectral_cache_read_only(self):
        g = Grid(5)
        rhs = np.random.default_rng(9).standard_normal(g.shape)
        before = poisson_solve_values(rhs, g.h)
        with pytest.raises(ValueError):
            _neg_lap_eigenvalues(5)[:] = 1.0
        assert np.array_equal(poisson_solve_values(rhs, g.h), before)

    @pytest.mark.parametrize("n", [3, 16, 33])
    def test_stacked_symbol_is_two_single_applications(self, n):
        v = np.random.default_rng(n).standard_normal((n, n))
        lam = _neg_lap_eigenvalues(n)
        pair = dst_symbol(np.stack([1.0 / (1.0 + 0.7 * lam), 1.0 / lam]))
        out = apply_symbol(v, pair)
        assert out.shape == (2, n, n)
        assert np.array_equal(out[0], apply_symbol(v, pair[0]))
        assert np.array_equal(out[1], apply_symbol(v, pair[1]))
        with pytest.raises(ValueError):
            pair[0, 0, 0] = 1.0

    def test_unknown_method(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            poisson_solve(ScalarField2D(g, np.ones(g.shape)), method="jacobi")

    def test_cg_divergence_reported(self):
        g = Grid(24)
        rng = np.random.default_rng(7)
        rhs = ScalarField2D(g, rng.standard_normal(g.shape))
        with pytest.raises(SolverDivergenceError):
            poisson_solve(rhs, method="cg", maxiter=2)

    def test_cg_matches_dst(self):
        g = Grid(12)
        rng = np.random.default_rng(8)
        rhs = ScalarField2D(g, rng.standard_normal(g.shape))
        a = poisson_solve(rhs, method="dst").values
        b = poisson_solve(rhs, method="cg").values
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


class TestDstDispatch:
    @pytest.mark.parametrize("n", [3, 16, 63, 100, 127, 130, 255, 256])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        cases = ((rng.standard_normal((n, n)), None), (rng.standard_normal((2, n, n)), (-2, -1)))
        for x, axes in cases:
            ref = scipy.fft.dstn(x, type=1, axes=(-2, -1))
            got = dstn(x, type=1, axes=axes)
            assert got.shape == x.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matrix_read_only(self):
        S = grid_module._dst_matrix(16)
        with pytest.raises(ValueError):
            S[0, 0] = 1.0

    @pytest.mark.parametrize(
        "n, fft", [(16, False), (63, False), (100, False), (256, False), (255, True), (511, True)]
    )
    def test_path_choice(self, monkeypatch, n, fft):
        # small grids and n+1 = 101, 257 (prime) take S @ x @ S; n+1 = 256, 512 take the FFT
        calls = count_calls(monkeypatch, grid_module, "_fft_dstn")
        dstn(np.ones((n, n)), type=1)
        assert len(calls) == int(fft)

    def test_other_types_and_axes_rejected(self):
        with pytest.raises(ValueError, match="DST-I"):
            dstn(np.ones((4, 4)), type=2)
        with pytest.raises(ValueError, match="last two axes"):
            dstn(np.ones((2, 4, 4)), type=1)
        with pytest.raises(ValueError, match="last two axes"):
            dstn(np.ones((2, 4, 4)), type=1, axes=(0, 1))
        with pytest.raises(ValueError, match="last two axes"):
            dstn(np.ones(4), type=1)


class TestStreamVelocityCurl:
    def test_zero_stream(self):
        g = Grid(8)
        y = velocity_from_stream(ScalarField2D(g, np.zeros(g.shape)))
        assert np.all(y.u1 == 0.0) and np.all(y.u2 == 0.0)
        assert y.divergence_free and y.stream is not None

    def test_single_mode_centerline(self):
        # n odd: the centerline x2 = 1/2 hits a node; u1 = d2 psi vanishes there
        g = Grid(15)
        y = velocity_from_stream(ScalarField2D(g, sine_mode(g, 1, 1)))
        mid = 7
        np.testing.assert_allclose(y.u1[:, mid], 0.0, atol=1e-13)
        # hand value at the center node: u2 = -d1 psi = 0 by symmetry
        assert y.u2[mid, mid] == pytest.approx(0.0, abs=1e-13)
        # discrete cosine amplitude: sin(pi h)/h at the wall-adjacent column
        x1, _ = g.coords()
        expected = -np.cos(np.pi * x1[:, mid]) * np.sin(np.pi * g.h) / g.h * np.sin(
            np.pi * 0.5
        )
        np.testing.assert_allclose(y.u2[:, mid], expected, rtol=1e-12, atol=1e-13)

    def test_divergence_free(self):
        g = Grid(21)
        rng = np.random.default_rng(9)
        y = velocity_from_stream(ScalarField2D(g, rng.standard_normal(g.shape)))
        assert np.max(np.abs(divergence(y).values)) <= 1e-12

    def test_curl_of_stream_velocity_is_wide_laplacian(self):
        # curl(velocity_from_stream(psi)) composes two centered first
        # differences per axis; against that operator it is exact
        g = Grid(13)
        rng = np.random.default_rng(10)
        psi = rng.standard_normal(g.shape)
        y = velocity_from_stream(ScalarField2D(g, psi))
        composed = -(d1c_loops(d1c_loops(psi, g.h), g.h) + d2c_loops(d2c_loops(psi, g.h), g.h))
        np.testing.assert_allclose(curl2d(y).values, composed, rtol=1e-12, atol=1e-12)

    def test_curl_of_stream_velocity_consistent_with_lap5(self):
        # agreement with the 5-point Laplacian is second order away from the
        # wall ring (the intermediate velocity has a nonzero wall trace)
        errs = []
        for n in (16, 32, 64):
            g = Grid(n)
            psi = sine_mode(g, 1, 2)
            y = velocity_from_stream(ScalarField2D(g, psi))
            diff = curl2d(y).values + lap5(psi, g.h)
            errs.append(np.max(np.abs(diff[2:-2, 2:-2])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_curl_zero_vector(self):
        g = Grid(8)
        v = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        assert np.all(curl2d(v).values == 0.0)

    def test_curl_of_gradient_vanishes_inside(self):
        from sgf2d.grid import d1c, d2c

        g = Grid(16)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(g.shape)
        v = VectorField2D(g, d1c(f, g.h), d2c(f, g.h))
        inner = curl2d(v).values[2:-2, 2:-2]
        assert np.max(np.abs(inner)) <= 1e-12 * np.max(np.abs(f)) / g.h**2


class TestAdvect:
    def rand_y(self, g, seed):
        rng = np.random.default_rng(seed)
        return velocity_from_stream(ScalarField2D(g, rng.standard_normal(g.shape)))

    def test_requires_stream_velocity(self):
        g = Grid(8)
        v = VectorField2D(g, np.ones(g.shape), np.ones(g.shape))
        with pytest.raises(ValueError):
            advect(v, ScalarField2D(g, np.ones(g.shape)))

    def test_constant_q_interior(self):
        g = Grid(12)
        y = self.rand_y(g, 12)
        out = advect(y, ScalarField2D(g, np.full(g.shape, 3.0))).values
        # q-differences vanish one node away from the zero-extension jump;
        # the flux-form cancellation leaves only roundoff
        scale = 3.0 * np.max(np.abs(y.stream.values)) / g.h**2
        assert np.max(np.abs(out[1:-1, 1:-1])) <= 1e-13 * scale
        assert np.max(np.abs(out)) > 1e-6 * scale

    def test_functionally_dependent_fields(self):
        g = Grid(16)
        psi = ScalarField2D(g, sine_mode(g, 1, 1))
        y = velocity_from_stream(psi)
        q = ScalarField2D(g, 2.5 * (-lap5(psi.values, g.h)))
        scale = np.max(np.abs(q.values)) / g.h
        assert np.max(np.abs(advect(y, q).values)) <= 1e-12 * scale

    def test_enstrophy_and_energy_conservation(self):
        g = Grid(18)
        rng = np.random.default_rng(13)
        psi = ScalarField2D(g, rng.standard_normal(g.shape))
        y = velocity_from_stream(psi)
        q = rng.standard_normal(g.shape)
        adv = advect(y, ScalarField2D(g, q)).values
        scale = np.max(np.abs(adv)) * np.max(np.abs(q))
        assert abs(np.sum(adv * q)) <= 1e-12 * scale
        assert abs(np.sum(adv * psi.values)) <= 1e-12 * scale

    def test_skew_adjoint(self):
        g = Grid(18)
        rng = np.random.default_rng(14)
        y = self.rand_y(g, 15)
        q = rng.standard_normal(g.shape)
        r = rng.standard_normal(g.shape)
        h2 = g.h**2
        lhs = h2 * np.sum(advect(y, ScalarField2D(g, q)).values * r)
        rhs = -h2 * np.sum(q * advect(y, ScalarField2D(g, r)).values)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_trilinear_full_antisymmetry(self):
        # sum(c * J(a,b)) flips sign under any argument swap
        g = Grid(10)
        rng = np.random.default_rng(16)
        a, b, c = (rng.standard_normal(g.shape) for _ in range(3))
        h = g.h

        def F(a_, b_, c_):
            return np.sum(arakawa(a_, b_, h) * c_)

        base = F(a, b, c)
        scale = max(abs(base), 1.0)
        assert abs(F(b, a, c) + base) <= 1e-12 * scale
        assert abs(F(a, c, b) + base) <= 1e-12 * scale
        assert abs(F(c, b, a) + base) <= 1e-12 * scale


class TestFieldIO:
    def test_scalar_round_trip(self, tmp_path):
        g = Grid(9)
        rng = np.random.default_rng(17)
        f = ScalarField2D(g, rng.standard_normal(g.shape))
        p = tmp_path / "f.bin"
        write_field(p, f)
        back = read_field(p)
        assert isinstance(back, ScalarField2D)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_vector_round_trip(self, tmp_path):
        g = Grid(7)
        rng = np.random.default_rng(18)
        v = VectorField2D(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        p = tmp_path / "v.bin"
        write_field(p, v)
        back = read_field(p)
        assert isinstance(back, VectorField2D)
        np.testing.assert_array_equal(back.u1, v.u1)
        np.testing.assert_array_equal(back.u2, v.u2)

    def test_header_validation(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(ValueError):
            read_field(p)
        # truncated payload
        g = Grid(4)
        write_field(p, ScalarField2D(g, np.zeros(g.shape)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_field(p)

    def test_csv_export(self, tmp_path):
        g = Grid(4)
        x1, x2 = g.coords()
        f = ScalarField2D(g, x1 * 10 + x2)
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(g.h)
        assert float(first[2]) == pytest.approx(10 * g.h + g.h)

    def test_csv_vector_header(self, tmp_path):
        g = Grid(4)
        v = VectorField2D(g, np.zeros(g.shape), np.ones(g.shape))
        p = tmp_path / "v.csv"
        write_field_csv(p, v)
        assert p.read_text().splitlines()[0] == "x1,x2,v1,v2"
