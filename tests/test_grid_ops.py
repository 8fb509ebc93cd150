"""Stencils, elliptic solves, advection conservation, and field I/O."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from sgf2d import grid as grid_module
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    _helmholtz_symbol,
    _neg_lap_eigenvalues,
    _poisson_symbol,
    _blocks,
    _time_blocks,
    advect,
    apply_symbol,
    arakawa,
    curl2d,
    curl_values,
    d1c,
    d2c,
    divergence,
    dst_symbol,
    dstn,
    helmholtz_solve,
    helmholtz_solve_values,
    lap5,
    laplacian,
    pad0,
    poisson_solve,
    poisson_solve_values,
    stack_curl,
    stack_pairs,
    stack_velocity,
    velocity_from_stream,
    velocity_values,
)
from sgf2d.spaces import diff1
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

    @pytest.mark.parametrize("n", [3.5, 8.0, "8"])
    def test_non_integral_size_refused(self, n):
        # Grid(3.5) used to be built
        with pytest.raises(ValueError, match=f"n_interior must be an integer, got {n!r}"):
            Grid(n)

    def test_numpy_integer_size_accepted(self):
        assert Grid(np.int64(8)).h == Grid(8).h

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
    # the stencils written against np.pad over the last two axes: pad0 and its
    # callers must match them bit for bit. The Jacobian is Arakawa's flux form
    # with the kernel's grouping; the fluxes H and K are zero on the ring
    pad = [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)]
    ap, bp = np.pad(a, pad), np.pad(b, pad)
    aE, aW, aN, aS = ap[..., 2:, 1:-1], ap[..., :-2, 1:-1], ap[..., 1:-1, 2:], ap[..., 1:-1, :-2]
    bE, bW, bN, bS = bp[..., 2:, 1:-1], bp[..., :-2, 1:-1], bp[..., 1:-1, 2:], bp[..., 1:-1, :-2]
    lap = (aE + aW + aN + aS - 4.0 * a) / (h * h)
    d1 = (aE - aW) / (2.0 * h)
    d2 = (aN - aS) / (2.0 * h)
    dxa, dya, dxb, dyb = aE - aW, aN - aS, bE - bW, bN - bS
    Hp, Kp = np.pad(a * dyb - b * dya, pad), np.pad(a * dxb - b * dxa, pad)
    HE, HW = Hp[..., 2:, 1:-1], Hp[..., :-2, 1:-1]
    KN, KS = Kp[..., 1:-1, 2:], Kp[..., 1:-1, :-2]
    jac = (dxa * dyb - dya * dxb + (HE - HW) - (KN - KS)) / (12.0 * h * h)
    return lap, d1, d2, jac


def _nine_point_jacobian(a, b, h):
    # the same Jacobian expanded into nine-point sums (J++ + J+x + Jx+), a
    # second oracle that rounds differently from the flux form
    ap, bp = (np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)]) for x in (a, b))
    aE, aW, aN, aS = ap[..., 2:, 1:-1], ap[..., :-2, 1:-1], ap[..., 1:-1, 2:], ap[..., 1:-1, :-2]
    aNE, aNW, aSE, aSW = ap[..., 2:, 2:], ap[..., :-2, 2:], ap[..., 2:, :-2], ap[..., :-2, :-2]
    bE, bW, bN, bS = bp[..., 2:, 1:-1], bp[..., :-2, 1:-1], bp[..., 1:-1, 2:], bp[..., 1:-1, :-2]
    bNE, bNW, bSE, bSW = bp[..., 2:, 2:], bp[..., :-2, 2:], bp[..., 2:, :-2], bp[..., :-2, :-2]
    j1 = (aE - aW) * (bN - bS) - (aN - aS) * (bE - bW)
    j2 = aE * (bNE - bSE) - aW * (bNW - bSW) - aN * (bNE - bNW) + aS * (bSE - bSW)
    j3 = aNE * (bN - bE) - aSW * (bW - bS) - aNW * (bN - bW) + aSE * (bE - bS)
    return (j1 + j2 + j3) / (12.0 * h * h)


class TestPadFreeStencils:
    # 63 is sweep63's grid, on the dense-matrix side of dstn
    @pytest.mark.parametrize("n", [3, 4, 16, 33, 63])
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
        got = arakawa(a, b, g.h)
        assert np.array_equal(got, jac)
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(pad0(a), np.pad(a, 1))
        assert np.array_equal(pad0(b), np.pad(b, 1))


def _batchable_stencils(a, b, h, axes):
    y1, y2 = velocity_values(a, h)
    return {
        "pad0": pad0(a),
        "lap5": lap5(a, h),
        "d1c": d1c(a, h),
        "d2c": d2c(a, h),
        "y1": y1,
        "y2": y2,
        "curl": curl_values(a, b, h),
        "arakawa": arakawa(a, b, h),
        "diff1_x1": diff1(a, h, axes[0]),
        "diff1_x2": diff1(a, h, axes[1]),
    }


class TestBatchAxis:
    """Stencils act on the last two axes; every slice of a stack gets its 2-D bits."""

    @pytest.mark.parametrize("lead", [(3,), (2, 2), (20,)])
    @pytest.mark.parametrize("n", [3, 16])
    def test_stack_equals_per_slice(self, lead, n):
        h = Grid(n).h
        rng = np.random.default_rng(n)
        a = rng.standard_normal(lead + (n, n))
        b = rng.standard_normal(lead + (n, n))
        batched = _batchable_stencils(a, b, h, (-2, -1))
        assert batched["arakawa"].flags.c_contiguous and batched["arakawa"].flags.writeable
        for idx in np.ndindex(*lead):
            for name, want in _batchable_stencils(a[idx], b[idx], h, (0, 1)).items():
                assert np.array_equal(batched[name][idx], want), name

    @pytest.mark.parametrize(
        "shape", [(1, 3, 3), (4, 2, 16, 16), (100, 63, 63), (7, 2, 63, 63), (9, 2, 40, 40)]
    )
    def test_time_blocks_cover_the_stack_in_order(self, shape):
        a = np.zeros(shape)
        blocks = _time_blocks(a)
        # each block ends inside the stack, so it can index a longer array too
        starts = [b.start for b in blocks]
        assert starts == sorted(starts) and starts[0] == 0
        assert [b.stop for b in blocks] == starts[1:] + [shape[0]]
        limit = max(grid_module._BLOCK_BYTES, a[0].nbytes)
        assert all(0 < a[b].nbytes <= limit for b in blocks)
        # a stack that fits is one block
        assert (len(blocks) == 1) == (a.nbytes <= limit)


class TestStackPasses:
    """stack_curl, stack_velocity and stack_pairs: one stencil call per time
    block, the bits of one call per slice."""

    @pytest.mark.parametrize("m,n", [(4, 16), (9, 40), (7, 63)])
    def test_bits_and_calls(self, monkeypatch, m, n):
        h = Grid(n).h
        rng = np.random.default_rng(n)
        u = rng.standard_normal((m, 2, n, n))
        psi = rng.standard_normal((m, n, n))
        curls = count_calls(monkeypatch, grid_module, "curl_values")
        velocities = count_calls(monkeypatch, grid_module, "velocity_values")
        curl = stack_curl(u, h, out=np.empty((m, n, n)))
        vel = stack_velocity(psi, h, out=np.empty((m, 2, n, n)))
        assert (len(curls), len(velocities)) == (len(_time_blocks(u)), len(_time_blocks(psi)))
        assert len(curls) > 1 or n == 16
        for k in range(m):
            assert np.array_equal(curl[k], curl_values(u[k, 0], u[k, 1], h))
            assert np.array_equal(vel[k], np.stack(velocity_values(psi[k], h)))

    @pytest.mark.parametrize("m,n", [(4, 16), (9, 40), (7, 63)])
    def test_pairs_bits_and_calls(self, monkeypatch, m, n):
        h = Grid(n).h
        rng = np.random.default_rng(n + 1)
        a, b = rng.standard_normal((2, m, n, n))
        calls = count_calls(monkeypatch, grid_module, "arakawa")
        jac = stack_pairs(grid_module.arakawa, a, b, h, out=np.empty((m, n, n)))
        assert len(calls) == len(_blocks(m, a[0].nbytes + b[0].nbytes))
        assert len(calls) > 1 or n == 16
        for k in range(m):
            assert np.array_equal(jac[k], arakawa(a[k], b[k], h))


class TestArakawaOperands:
    @pytest.mark.parametrize(
        "a_shape,b_shape", [((3, 8, 8), (8, 8)), ((8, 8), (2, 8, 8)), ((1, 8, 8), (4, 8, 8))]
    )
    def test_shapes_must_match(self, a_shape, b_shape):
        # a broadcast operand would be read only in part by the flat stencil
        a, b = np.ones(a_shape), np.ones(b_shape)
        with pytest.raises(ValueError, match="differ in shape"):
            arakawa(a, b, 0.1)


def _operands(shape, layout, seed):
    """Two random operands of shape, C-contiguous or strided views."""
    rng = np.random.default_rng(seed)
    if layout == "contiguous":
        return rng.standard_normal((2,) + shape)
    # a transposed view and a view of every other column
    a = np.swapaxes(rng.standard_normal(shape[:-2] + (shape[-1], shape[-2])), -1, -2)
    b = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return a, b


def _jacobian(a, b, h):
    return _padded_stencils(a, b, h)[3]


class TestArakawaPlan:
    """arakawa runs through a per-thread plan of buffers for its operand shape;
    each call still gives the np.pad form's bits in a fresh array."""

    @pytest.mark.parametrize("shape", [(3, 3), (16, 16), (2, 16, 16), (1, 63, 63), (63, 63)])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_bits_equal_np_pad_form(self, shape, layout):
        h = Grid(shape[-1]).h
        for seed in (0, 1):  # the second call reuses the first call's plan
            a, b = _operands(shape, layout, seed)
            got = arakawa(a, b, h)
            assert np.array_equal(got, _jacobian(a, b, h))
            assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata

    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16)])
    def test_nonfinite_operand_leaves_no_trace(self, shape):
        h = Grid(16).h
        a, b = _operands(shape, "contiguous", 2)
        bad_a, bad_b = a.copy(), b.copy()
        bad_a[..., 0, 0], bad_a[..., -1, 5] = np.nan, np.inf
        bad_b[..., 3, -1], bad_b[..., 7, 7] = -np.inf, np.nan
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(arakawa(bad_a, bad_b, h)).all()
        assert np.array_equal(arakawa(a, b, h), _jacobian(a, b, h))

    @pytest.mark.parametrize("shape", [(3, 3), (16, 16), (63, 63), (2, 16, 16)])
    def test_within_roundoff_of_the_nine_point_sums(self, shape):
        # both forms sum terms of at most 24 max|a| max|b| before the 1/(12 h^2)
        # scale, so they agree to a few units of roundoff of that size
        h = Grid(shape[-1]).h
        for seed in range(4):
            a, b = _operands(shape, "contiguous", seed)
            a, b = 10.0 ** (seed - 2) * a, 3.0 * b
            bound = 2.0 * np.finfo(float).eps * np.abs(a).max() * np.abs(b).max() / (h * h)
            assert np.abs(arakawa(a, b, h) - _nine_point_jacobian(a, b, h)).max() <= bound

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (-1, -1), (0, 7), (-1, 7), (7, 0), (7, -1)])
    def test_nonfinite_slice_leaves_the_others_bit_equal(self, bad, where):
        # the flux buffers' ghost rows sit between slices: a slice must read
        # only its own ring, so no other slice sees a non-finite neighbour
        h = Grid(16).h
        a, b = _operands((3, 16, 16), "contiguous", 9)
        for operand in (a, b):
            op = operand.copy()
            op[1][where] = bad
            args = (op, b) if operand is a else (a, op)
            with np.errstate(invalid="ignore"):
                got = arakawa(*args, h)
            assert not np.isfinite(got[1]).all()
            for k in (0, 2):
                assert np.array_equal(got[k], arakawa(args[0][k], args[1][k], h))

    def test_results_are_never_shared(self):
        h = Grid(16).h
        a, b = _operands((16, 16), "contiguous", 3)
        c, d = _operands((16, 16), "contiguous", 4)
        first = arakawa(a, b, h)
        want = first.copy()
        second = arakawa(c, d, h)
        assert np.array_equal(first, want) and not np.shares_memory(first, second)
        first[...] = 1e300
        second[...] = np.nan
        assert np.array_equal(arakawa(a, b, h), want)

    def test_threads_get_the_serial_bits(self):
        # more threads than cores, switching every microsecond: a plan shared
        # between threads would compute one thread's call on another's operands
        h = Grid(16).h
        pairs = [_operands((2, 16, 16), "contiguous", seed) for seed in range(6)]
        want = [arakawa(a, b, h) for a, b in pairs]
        wrong = []

        def work(offset):
            for i in range(300):
                k = (i + offset) % len(pairs)
                if not np.array_equal(arakawa(*pairs[k], h), want[k]):
                    wrong.append(k)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("shape", [(3, 63, 63), (20, 63, 63), (128, 128)])
    def test_operand_over_one_block_keeps_no_plan(self, shape):
        a, b = _operands(shape, "contiguous", 5)
        assert a.nbytes > grid_module._BLOCK_BYTES
        arakawa(*_operands((16, 16), "contiguous", 6), 0.1)
        before = grid_module._arakawa_plan.cache_info()
        h = Grid(shape[-1]).h
        assert np.array_equal(arakawa(a, b, h), _jacobian(a, b, h))
        assert grid_module._arakawa_plan.cache_info() == before

    def test_kept_plans_are_bounded(self):
        kept = grid_module._arakawa_plan
        for k in range(1, 2 * grid_module._ARAKAWA_PLANS_KEPT + 1):
            a, b = _operands((k, 5, 5), "contiguous", k)
            arakawa(a, b, 0.1)
            assert kept.cache_info().currsize <= grid_module._ARAKAWA_PLANS_KEPT
        assert kept.cache_info().currsize == grid_module._ARAKAWA_PLANS_KEPT
        # a block-sized operand keeps its plan, as a sweep's time-block passes do
        a, b = _operands((2, 63, 63), "contiguous", 7)
        assert a.nbytes <= grid_module._BLOCK_BYTES
        arakawa(a, b, 1 / 64)
        hits = kept.cache_info().hits
        arakawa(a, b, 1 / 64)
        assert kept.cache_info().hits == hits + 1

    def test_a_thread_builds_its_own_plan(self):
        # cleared first, so no exited thread's plan can answer a recycled ident
        grid_module._arakawa_plan.cache_clear()
        a, b = _operands((16, 16), "contiguous", 8)
        arakawa(a, b, 0.1)
        before = grid_module._arakawa_plan.cache_info()
        out = []
        thread = threading.Thread(target=lambda: out.append(arakawa(a, b, 0.1)))
        thread.start()
        thread.join(timeout=60)
        after = grid_module._arakawa_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        assert np.array_equal(out[0], arakawa(a, b, 0.1))


def _old_route(v, denom):
    # the pre-symbol solve route, written with scipy's DST-I: divide on the
    # modes, then scale the inverse transform
    n = v.shape[-1]
    return scipy.fft.dstn(scipy.fft.dstn(v, type=1) / denom, type=1) / (2.0 * (n + 1)) ** 2


class TestEllipticSolves:
    def test_poisson_zero(self):
        g = Grid(8)
        out = poisson_solve(ScalarField2D(g, np.zeros(g.shape)))
        assert np.all(out.values == 0.0)

    def test_poisson_eigenmode(self):
        g = Grid(16)
        f = sine_mode(g, 1, 1)
        out = poisson_solve(ScalarField2D(g, mu_h(g, 1, 1) * f))
        np.testing.assert_allclose(out.values, f, rtol=0, atol=1e-10)

    def test_poisson_round_trip(self):
        g = Grid(20)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(g.shape)
        rhs = ScalarField2D(g, -lap5(f, g.h))
        out = poisson_solve(rhs)
        assert np.max(np.abs(out.values - f)) <= 1e-10 * np.max(np.abs(f))

    def test_helmholtz_round_trip(self):
        g = Grid(20)
        a = 0.37
        rng = np.random.default_rng(6)
        f = rng.standard_normal(g.shape)
        rhs = ScalarField2D(g, f - a * lap5(f, g.h))
        out = helmholtz_solve(rhs, a)
        assert np.max(np.abs(out.values - f)) <= 1e-10 * np.max(np.abs(f))

    def test_helmholtz_eigenmode(self):
        g = Grid(16)
        a = 1.25
        f = sine_mode(g, 2, 2)
        rhs = ScalarField2D(g, (1 + a * mu_h(g, 2, 2)) * f)
        out = helmholtz_solve(rhs, a)
        np.testing.assert_allclose(out.values, f, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", [3, 16, 63, 130, 255])
    def test_symbol_route_matches_division_route(self, n):
        # n = 255 takes the FFT side of dstn, the others the sine matrix
        v = np.random.default_rng(n).standard_normal((n, n))
        lam = _neg_lap_eigenvalues(n)
        for a in (0.37, 1e-3):
            cases = (
                (poisson_solve_values(v), _old_route(v, lam)),
                (helmholtz_solve_values(v, a), _old_route(v, 1.0 + a * lam)),
            )
            for got, ref in cases:
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    @pytest.mark.parametrize("n", [3, 16, 255])
    def test_stack_equals_per_slice(self, lead, n):
        v = np.random.default_rng(n).standard_normal(lead + (n, n))
        psi, f = poisson_solve_values(v), helmholtz_solve_values(v, 0.37)
        assert psi.shape == f.shape == v.shape
        for idx in np.ndindex(*lead):
            assert np.array_equal(psi[idx], poisson_solve_values(v[idx]))
            assert np.array_equal(f[idx], helmholtz_solve_values(v[idx], 0.37))

    def test_helmholtz_bad_coefficient(self, monkeypatch):
        g = Grid(8)
        f = ScalarField2D(g, np.ones(g.shape))
        # refused before the symbol cache is consulted: NaN never equals
        # itself, so each NaN call would otherwise add a cache entry
        lookups = count_calls(monkeypatch, grid_module, "_helmholtz_symbol")
        with pytest.raises(ValueError):
            helmholtz_solve(f, 0.0)
        with pytest.raises(ValueError):
            helmholtz_solve(f, -1.0)
        # NaN and +inf slip past a bare a <= 0 test: NaN gave a NaN field, inf all zeros
        for a in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                helmholtz_solve(f, a)
        assert lookups == []

    def test_spectral_cache_read_only(self):
        g = Grid(5)
        rhs = np.random.default_rng(9).standard_normal(g.shape)
        before = poisson_solve_values(rhs), helmholtz_solve_values(rhs, 0.5)
        for cached in (_neg_lap_eigenvalues(5), _poisson_symbol(5), _helmholtz_symbol(5, 0.5)):
            with pytest.raises(ValueError):
                cached[:] = 1.0
        assert np.array_equal(poisson_solve_values(rhs), before[0])
        assert np.array_equal(helmholtz_solve_values(rhs, 0.5), before[1])

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


class TestDstDispatch:
    @pytest.mark.parametrize("n", [3, 16, 63, 100, 127, 130, 143, 255, 256, 511])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal((n, n)), rng.standard_normal((2, n, n))):
            ref = scipy.fft.dstn(x, type=1, axes=(-2, -1))
            got = dstn(x, type=1)
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

    def test_other_types_rejected(self):
        with pytest.raises(ValueError, match="DST-I"):
            dstn(np.ones((4, 4)), type=2)
        with pytest.raises(ValueError, match="last two axes"):
            dstn(np.ones(4), type=1)


def run_fresh(code: str) -> str:
    """stdout of code run by a fresh interpreter that imports this sgf2d."""
    package_root = Path(sys.modules["sgf2d"].__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    return proc.stdout


class TestImportGraph:
    def test_import_loads_no_scipy_sparse(self):
        # every elliptic solve is a DST-I division; nothing needs scipy.sparse
        code = (
            "import sys; import sgf2d; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))"
        )
        assert run_fresh(code).strip() == "[]"

    def test_scipy_loads_on_the_first_fft_transform(self):
        # grids below n = 128 take the dense sine matrix, so importing the
        # package and its CLI, sweeping a 16^2 problem and taking the korn
        # and elliptic estimates (numpy.linalg eigenvalues) load no scipy at
        # all; the first FFT-sized DST-I (n = 143, n+1 = 144) imports scipy.fft
        code = """
import sys
import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import sgf2d
print(scipy_loaded())
import sgf2d.cli
print(scipy_loaded())
from sgf2d import Grid, ProblemData, solve_adjoint, solve_state, stream_from_coeffs
from sgf2d.grid import dstn, velocity_from_stream
g = Grid(16)
y0 = velocity_from_stream(stream_from_coeffs(g, 0.01 * np.ones((2, 2))))
yd = velocity_from_stream(stream_from_coeffs(g, 0.1 * np.ones((1, 1))))
pd = ProblemData(alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=4, y0=y0, y_d=yd)
solve_adjoint(solve_state(None, pd), None, pd)
print(scipy_loaded())
from sgf2d import estimate_constant
for kind in ("korn", "elliptic"):
    estimate_constant(kind, 1, 0, grid=g)
print(scipy_loaded())
x = np.random.default_rng(143).standard_normal((2, 143, 143))
got = dstn(x)
print("scipy.fft" in sys.modules)
import scipy.fft
ref = scipy.fft.dstn(x, type=1, axes=(-2, -1))
print(float(np.abs(got - ref).max() / np.abs(ref).max()))
"""
        lines = run_fresh(code).splitlines()
        assert lines[:4] == ["[]", "[]", "[]", "[]"]
        assert lines[4] == "True"
        assert float(lines[5]) <= 1e-13


class TestStreamVelocityCurl:
    def test_zero_stream(self):
        g = Grid(8)
        y = velocity_from_stream(ScalarField2D(g, np.zeros(g.shape)))
        assert np.all(y.u1 == 0.0) and np.all(y.u2 == 0.0)
        assert y.stream is not None

    def test_stream_is_attached_only_by_velocity_from_stream(self):
        g = Grid(8)
        psi = ScalarField2D(g, sine_mode(g, 1, 2))
        y = velocity_from_stream(psi)
        assert y.stream is psi
        with pytest.raises(TypeError):
            VectorField2D(g, y.u1, y.u2, True)
        with pytest.raises(TypeError):
            VectorField2D(g, 5.0 * y.u1, 5.0 * y.u2, stream=psi)
        # a copy with other components drops the stream instead of keeping a stale one
        moved = dataclasses.replace(y, u1=5.0 * y.u1)
        assert moved.stream is None
        bare = VectorField2D(g, y.u1, y.u2)
        assert bare.stream is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            y.stream = None

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

    def test_array_helpers_carry_the_sign_conventions(self):
        # y = (d2 psi, -d1 psi) and curl u = d1 u2 - d2 u1, bit for bit, and
        # the field-level operations are these helpers
        g = Grid(11)
        rng = np.random.default_rng(12)
        psi, u1, u2 = rng.standard_normal((3, *g.shape))
        y1, y2 = velocity_values(psi, g.h)
        assert np.array_equal(y1, d2c(psi, g.h)) and np.array_equal(y2, -d1c(psi, g.h))
        assert np.array_equal(curl_values(u1, u2, g.h), d1c(u2, g.h) - d2c(u1, g.h))
        y = velocity_from_stream(ScalarField2D(g, psi))
        assert np.array_equal(y.u1, y1) and np.array_equal(y.u2, y2)
        assert np.array_equal(curl2d(VectorField2D(g, u1, u2)).values, curl_values(u1, u2, g.h))

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_velocity_pads_once(self, monkeypatch, lead):
        # both components come from one padded copy of psi, with the bits of
        # d2c and -d1c (a padded copy each)
        g = Grid(13)
        psi = np.random.default_rng(13).standard_normal(lead + g.shape)
        want = d2c(psi, g.h), -d1c(psi, g.h)
        pads = count_calls(monkeypatch, grid_module, "pad0")
        y1, y2 = velocity_values(psi, g.h)
        assert len(pads) == 1
        assert np.array_equal(y1, want[0]) and np.array_equal(y2, want[1])

    def test_curl_zero_vector(self):
        g = Grid(8)
        v = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        assert np.all(curl2d(v).values == 0.0)

    def test_curl_of_gradient_vanishes_inside(self):
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
