"""Inner products, Sobolev norms, domain constants, and the inequality checks."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgf2d.grid import Grid, GridMismatchError, ScalarField2D, VectorField2D, d1c, d2c, velocity_from_stream
from sgf2d.spaces import (
    CONSTANT_NAMES,
    DomainConstants,
    NormSuite,
    apply_A,
    check_inequality,
    diff1,
    estimate_constant,
    inner_l2,
    inner_l2_values,
    load_constants,
    norm_hk,
    norm_hk_values,
    norm_V,
    random_velocity,
    sample_field,
    save_constants,
    solenoidal_projection_values,
    stack_hk_sq,
    stream_from_coeffs,
    stream_values,
    sym_grad_sq,
    sym_grad_sq_values,
)
from sgf2d import spaces
from sgf2d import state as state_module
from sgf2d.state import Trajectory, control_h1_norm, trap_weights

from helpers import (
    batched_ratio,
    count_calls,
    diff1_temporaries,
    grad_sq,
    grad_sq_values,
    hk_partials_dict,
    korn_terms_reference,
    norm_hk_dict_loop,
    norm_l2,
    pencil_by_polarization,
    sample_ratio,
    trilinear_maximizer,
)


def random_field(grid, seed, vector=True, amplitude=1.0):
    rng = np.random.default_rng(seed)
    if vector:
        return random_velocity(grid, rng, n_modes=4, amplitude=amplitude)
    return ScalarField2D(grid, amplitude * rng.standard_normal(grid.shape))


class TestInnerL2:
    def test_zero_pairs_to_zero(self):
        g = Grid(9)
        z = ScalarField2D(g, np.zeros(g.shape))
        b = random_field(g, 0, vector=False)
        assert inner_l2(z, b) == 0.0

    def test_hand_quadrature_constant_one(self):
        # n=3, h=1/4: nine interior nodes, h^2 * 9 = 9/16
        g = Grid(3)
        f = ScalarField2D(g, np.ones(g.shape))
        assert inner_l2(f, f) == pytest.approx(0.5625, abs=1e-15)

    def test_symmetric(self):
        g = Grid(11)
        a = random_field(g, 1, vector=False)
        b = random_field(g, 2, vector=False)
        assert inner_l2(a, b) == inner_l2(b, a)

    def test_vector_pairing(self):
        g = Grid(7)
        v = random_field(g, 3)
        # sum of the componentwise quadratures
        s1 = ScalarField2D(g, v.u1)
        s2 = ScalarField2D(g, v.u2)
        assert inner_l2(v, v) == pytest.approx(inner_l2(s1, s1) + inner_l2(s2, s2), rel=1e-14)

    def test_grid_mismatch(self):
        a = random_field(Grid(7), 4, vector=False)
        b = random_field(Grid(8), 5, vector=False)
        with pytest.raises(GridMismatchError):
            inner_l2(a, b)

    def test_scalar_vector_mix_rejected(self):
        g = Grid(7)
        with pytest.raises(GridMismatchError):
            inner_l2(random_field(g, 6, vector=False), random_field(g, 7))


class TestSobolevNorms:
    def test_zero_field_all_orders(self):
        g = Grid(8)
        v = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        for k in range(4):
            assert norm_hk(v, k) == 0.0

    def test_constant_field_collapses_to_l2(self):
        # all difference quotients of a constant vanish, one-sided ones included
        g = Grid(10)
        c = -2.75
        v = VectorField2D(g, np.full(g.shape, c), np.zeros(g.shape))
        l2 = abs(c) * g.n_interior * g.h
        assert norm_hk(v, 0) == pytest.approx(l2, rel=1e-14)
        assert norm_hk(v, 3) == norm_hk(v, 0)

    def test_monotone_in_order(self):
        g = Grid(12)
        v = random_field(g, 8)
        norms = [norm_hk(v, k) for k in range(4)]
        assert norms == sorted(norms)

    def test_invalid_order(self):
        v = random_field(Grid(6), 9)
        for k in (-1, 4, 7):
            with pytest.raises(ValueError):
                norm_hk(v, k)

    def test_h0_is_l2(self):
        v = random_field(Grid(9), 10)
        assert norm_hk(v, 0) == pytest.approx(norm_l2(v), rel=1e-14)


class TestDiff1:
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("lead", [(), (3,), (3, 2)], ids=["2d", "k", "k-2"])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_bits_equal_temporaries_form(self, n, lead, axis):
        v = np.random.default_rng(n).standard_normal(lead + (n, n))
        h = 1.0 / (n + 1)
        got = diff1(v, h, axis)
        assert got.dtype == v.dtype and got.shape == v.shape
        assert np.array_equal(got, diff1_temporaries(v, h, axis))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_bits_equal_at_the_ends_of_the_float_range(self, axis):
        # subnormal and overflowing edge differences, where doubling could show
        v = 1e-315 * np.random.default_rng(4).standard_normal((3, 2, 6, 6))
        v[..., 1, :] = np.copysign(1e308, v[..., 1, :])
        v[..., :, 1] = np.copysign(1e308, v[..., :, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = diff1(v, 0.3, axis), diff1_temporaries(v, 0.3, axis)
        assert np.isinf(want).any() and (np.abs(want[want != 0]) < 1e-300).any()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_non_contiguous_input(self, axis):
        # the flat offset passes run on a C-contiguous copy of a strided view
        stack = np.random.default_rng(8).standard_normal((3, 2, 14, 7))
        h = 1.0 / 8
        for v in (stack.swapaxes(-2, -1), stack[..., ::2, :], stack[1, 0].T):
            assert not v.flags.c_contiguous
            got = diff1(v, h, axis)
            assert got.flags.c_contiguous
            assert np.array_equal(got, diff1_temporaries(v, h, axis))

    def test_out_buffer(self):
        v = np.random.default_rng(9).standard_normal((4, 9, 9))
        h = 0.1
        for axis in (-1, -2, 1, 2):
            out = np.full_like(v, np.nan)
            assert diff1(v, h, axis, out=out) is out
            assert np.array_equal(out, diff1_temporaries(v, h, axis))
        with pytest.raises(ValueError, match="C-contiguous"):
            diff1(v, h, -1, out=np.empty((4, 9, 9)).swapaxes(-2, -1))
        with pytest.raises(ValueError, match="C-contiguous"):
            diff1(v, h, -1, out=np.empty((2, 9, 9)))
        with pytest.raises(ValueError, match="last two axes"):
            diff1(v, h, 0)


class TestStackNorms:
    @pytest.mark.parametrize("n", [3, 16, 33])
    def test_matches_per_slice_norm_hk(self, n):
        # 20 slices cross a block boundary at n = 16 and n = 33
        g = Grid(n)
        rng = np.random.default_rng(n)
        data = rng.standard_normal((20, 2, n, n))
        data[3] = 0.0
        v = random_field(g, 11)  # a smooth divergence-free slice
        data[7] = np.stack([v.u1, v.u2])
        got = stack_hk_sq(data, g.h, 3)
        assert got.shape == (4, 20)
        assert np.all(got[:, 3] == 0.0)
        for k in range(4):
            want = [norm_hk(VectorField2D(g, d[0], d[1]), k) ** 2 for d in data]
            np.testing.assert_allclose(got[k], want, rtol=1e-14, atol=0.0)
            np.testing.assert_array_equal(stack_hk_sq(data, g.h, k), got[: k + 1])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            stack_hk_sq(np.zeros((2, 2, 4, 4)), 0.2, 4)

    @pytest.mark.parametrize("n", [3, 16, 63])
    def test_partials_tree_equals_dict_loop(self, n):
        # one derivative tree (spaces._partials) feeds both norms; each keeps
        # its own reduction and the bits of the dict loop it replaced
        h = Grid(n).h
        rng = np.random.default_rng(n)
        for lead in ((), (3,), (2, 2)):
            comps = rng.standard_normal((2,) + lead + (n, n))
            for k in range(4):
                for cs in (comps, comps[:1]):
                    assert np.array_equal(norm_hk_values(cs, h, k), norm_hk_dict_loop(cs, h, k))
        data = rng.standard_normal((20, 2, n, n))
        for k in range(4):
            derivs = hk_partials_dict(data, h, k)
            acc, want = np.zeros(20), []
            for order in range(k + 1):
                for (i, j), d in derivs.items():
                    if i + j == order:
                        acc += h * h * (d * d).reshape(20, -1).sum(1)
                want.append(acc.copy())
            assert np.array_equal(stack_hk_sq(data, h, k), np.array(want))

    @pytest.mark.parametrize("k", [4, -1, 10**9])
    def test_order_checked_before_any_difference(self, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("differenced before the order was checked")

        monkeypatch.setattr(spaces, "diff1", refuse)
        with pytest.raises(ValueError, match=r"k must be one of \(0, 1, 2, 3\)"):
            stack_hk_sq(np.ones((3, 2, 4, 4)), 0.2, k)
        with pytest.raises(ValueError, match=r"k must be one of \(0, 1, 2, 3\)"):
            norm_hk_values((np.ones((4, 4)), np.ones((4, 4))), 0.2, k)

    def test_control_h1_norm_matches_slice_trapezoid(self):
        g = Grid(16)
        m, dt = 9, 0.05
        rng = np.random.default_rng(2)
        u = Trajectory(g, dt, "control", rng.standard_normal((m + 1, 2, 16, 16)))
        # the per-slice formula control_h1_norm used before the stack pass
        w = trap_weights(m, dt)
        total = 0.0
        for k in range(m + 1):
            u1, u2 = u.data[k]
            sq = np.sum(u1 * u1) + np.sum(u2 * u2)
            for comp in (u1, u2):
                for axis in (0, 1):
                    d = diff1(comp, g.h, axis)
                    sq += np.sum(d * d)
            total += w[k] * g.h * g.h * sq
        assert control_h1_norm(u) == pytest.approx(np.sqrt(total), rel=1e-14)


class TestNormV:
    def test_zero(self):
        g = Grid(6)
        v = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        assert norm_V(v, 0.7) == 0.0

    def test_constant_field_is_l2(self):
        g = Grid(9)
        v = VectorField2D(g, np.full(g.shape, 1.5), np.full(g.shape, -0.5))
        assert norm_V(v, 2.0) == pytest.approx(norm_l2(v), rel=1e-14)

    def test_alpha_to_zero_limit(self):
        v = random_field(Grid(11), 11)
        assert norm_V(v, 1e-14) == pytest.approx(norm_l2(v), rel=1e-12)

    def test_negative_alpha_rejected(self):
        v = random_field(Grid(6), 12)
        with pytest.raises(ValueError, match="alpha must be nonnegative and finite, got -0.1"):
            norm_V(v, -0.1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN used to give a NaN norm, and NormSuite built either
        g = Grid(6)
        with pytest.raises(ValueError, match=f"alpha must be nonnegative and finite, got {alpha}"):
            norm_V(random_field(g, 12), alpha)
        with pytest.raises(ValueError, match=f"alpha must be positive and finite, got {alpha}"):
            NormSuite(g, alpha)

    @pytest.mark.parametrize("norm", ["norm_hk", "norm_V"])
    def test_suite_refuses_a_field_on_another_grid(self, norm):
        # a 16^2 velocity used to be normed by an 8^2 suite
        suite = NormSuite(Grid(8), 0.25)
        args = (1,) if norm == "norm_hk" else ()
        with pytest.raises(GridMismatchError, match="grids differ"):
            getattr(suite, norm)(random_field(Grid(16), 13), *args)

    def test_suite_bundles_alpha(self):
        g = Grid(8)
        suite = NormSuite(g, 0.25)
        v = random_field(g, 13)
        assert suite.norm_V(v) == norm_V(v, 0.25)
        assert suite.norm_hk(v, 2) == norm_hk(v, 2)
        with pytest.raises(ValueError, match="alpha must be positive and finite, got 0.0"):
            NormSuite(g, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=0, max_value=3),
)
def test_norms_absolutely_homogeneous(c, seed, k):
    g = Grid(8)
    v = random_field(g, seed)
    cv = VectorField2D(g, c * v.u1, c * v.u2)
    assert norm_hk(cv, k) == pytest.approx(abs(c) * norm_hk(v, k), rel=1e-12, abs=1e-12)
    assert norm_V(cv, 0.5) == pytest.approx(abs(c) * norm_V(v, 0.5), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    s1=st.integers(min_value=0, max_value=10**6),
    s2=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=0, max_value=3),
    alpha=st.floats(min_value=1e-3, max_value=10.0),
)
def test_norms_triangle_inequality(s1, s2, k, alpha):
    g = Grid(8)
    a = random_field(g, s1)
    b = random_field(g, s2)
    ab = VectorField2D(g, a.u1 + b.u1, a.u2 + b.u2)
    slack = 1e-12 * (1.0 + norm_hk(a, k) + norm_hk(b, k))
    assert norm_hk(ab, k) <= norm_hk(a, k) + norm_hk(b, k) + slack
    slack_v = 1e-12 * (1.0 + norm_V(a, alpha) + norm_V(b, alpha))
    assert norm_V(ab, alpha) <= norm_V(a, alpha) + norm_V(b, alpha) + slack_v


class TestSymmetricGradientIdentity:
    def test_pointwise_decomposition(self):
        # grad_sq - sym_grad_sq = (h^2/2) * sum (d1 v2 - d2 v1)^2, termwise
        g = Grid(13)
        v = random_field(g, 14)
        from sgf2d.spaces import diff1

        rot = diff1(v.u2, g.h, 0) - diff1(v.u1, g.h, 1)
        gap = grad_sq(v) - sym_grad_sq(v)
        assert gap == pytest.approx(0.5 * g.h**2 * np.sum(rot * rot), rel=1e-12)
        assert gap >= 0.0

    def test_divfree_identity_refines(self):
        # 2(Dv,Dv) = (grad v, grad v) for stream velocities, up to a
        # boundary-strip residual that shrinks under mesh halving
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((3, 3))
        errs = []
        for n in (15, 31, 63):
            v = velocity_from_stream(stream_from_coeffs(Grid(n), coeffs))
            errs.append(abs(2.0 * sym_grad_sq(v) - grad_sq(v)) / grad_sq(v))
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]


class TestDomainConstants:
    def test_defaults_are_unit_and_flagged(self):
        dc = DomainConstants()
        assert all(getattr(dc, name) == 1.0 for name in CONSTANT_NAMES)
        assert "default_unit" in dc.source.values()
        assert set(dc.source) == set(CONSTANT_NAMES)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DomainConstants(K=0.0)
        with pytest.raises(ValueError):
            DomainConstants(C3=-2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        for name in CONSTANT_NAMES:
            with pytest.raises(ValueError, match=f"constant {name} must be positive and finite"):
                DomainConstants(**{name: bad})

    def test_source_vocabulary(self):
        dc = DomainConstants(K=2.0, source={"K": "estimated"})
        assert dc.source["K"] == "estimated"
        assert dc.source["C1"] == "default_unit"
        with pytest.raises(ValueError):
            DomainConstants(source={"K": "guessed"})

    def test_changed_constant_is_checked_again(self):
        # K = -1 made certify raise a math domain error
        dc = DomainConstants()
        with pytest.raises(FrozenInstanceError):
            dc.K = -1.0
        with pytest.raises(ValueError, match="constant K must be positive"):
            replace(dc, K=-1.0)

    def test_source_is_a_read_only_copy(self):
        given = {"K": "estimated"}
        dc = DomainConstants(K=2.0, source=given)
        assert given == {"K": "estimated"}
        with pytest.raises(TypeError):
            dc.source["K"] = "made_up"
        given["K"] = "made_up"
        assert dc.source["K"] == "estimated"
        assert replace(dc, K=3.0).source == dc.source

    @pytest.mark.parametrize("name", ["k", "C5", "K_source"])
    def test_unknown_source_name_refused(self, name):
        with pytest.raises(ValueError, match=f"unknown constant '{name}'"):
            DomainConstants(source={name: "estimated"})

    def test_any_default_clears(self):
        dc = DomainConstants(source={name: "user_supplied" for name in CONSTANT_NAMES})
        assert "default_unit" not in dc.source.values()

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "constants.txt"
        dc = DomainConstants(
            K=1.2345678901234567,
            K_tilde=0.37,
            K_hat=2e-3,
            C2=11.0,
            source={"K": "estimated", "K_tilde": "estimated", "C2": "user_supplied"},
        )
        save_constants(path, dc)
        back = load_constants(path)
        for name in CONSTANT_NAMES:
            assert getattr(back, name) == getattr(dc, name)
        assert back.source == dc.source

    def test_load_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("K = 1.0\nK = 2.0\n")
        with pytest.raises(ValueError, match=r"twice.txt:2: duplicate key 'K'"):
            load_constants(path)
        path.write_text("K = 1.0\nK_source = estimated\nK_source = user_supplied\n")
        with pytest.raises(ValueError, match=r"twice.txt:3: duplicate key 'K_source'"):
            load_constants(path)

    def test_load_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("K = 1.0\nQ = 2.0\n")
        with pytest.raises(ValueError, match="unknown constant"):
            load_constants(path)

    def test_load_rejects_bare_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("K 1.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_constants(path)

    def test_load_bare_line_message(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("K = 1.0\nK 1.0\n")
        with pytest.raises(ValueError) as exc:
            load_constants(path)
        assert str(exc.value) == f"{path}:2: expected 'name = value'"

    def test_load_bad_number_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("K = abc\n")
        with pytest.raises(ValueError) as exc:
            load_constants(path)
        assert str(exc.value).startswith(f"{path}:1: bad value for K: ")

    def test_load_rejects_section_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("K = 1.0\n[constants]\nC1 = 2.0\n")
        with pytest.raises(ValueError, match=r"bad.txt:2: unknown section \[constants\]"):
            load_constants(path)

    def test_load_refuses_a_source_without_its_value(self, tmp_path):
        # all seven source lines alone loaded as unit constants labelled estimated
        path = tmp_path / "sources.txt"
        path.write_text("".join(f"{n}_source = estimated\n" for n in CONSTANT_NAMES))
        with pytest.raises(ValueError) as exc:
            load_constants(path)
        assert str(exc.value) == f"{path}:1: K_source without a K line"
        path.write_text("K = 2.0\nK_source = estimated\nC4_source = user_supplied\n")
        with pytest.raises(ValueError, match=r"sources.txt:3: C4_source without a C4 line"):
            load_constants(path)

    def test_load_value_without_source_reads_as_unit_default(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("K = 2.0\nC1 = 3.0\nC1_source = user_supplied\n")
        dc = load_constants(path)
        assert (dc.K, dc.C1) == (2.0, 3.0)
        assert dc.source["K"] == "default_unit" and dc.source["C1"] == "user_supplied"
        assert "default_unit" in dc.source.values()

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# header\n\nK = 3.5  # trailing\nK_source = user_supplied\n")
        dc = load_constants(path)
        assert dc.K == 3.5
        assert dc.source["K"] == "user_supplied"


class TestEstimators:
    def test_korn_estimate_at_least_one(self):
        # grad_sq - sym_grad_sq >= 0 termwise, so the ratio never dips below 1
        est = estimate_constant("korn", samples=3, seed=7, grid=Grid(8))
        assert est >= 1.0 - 1e-12

    def test_deterministic(self):
        g = Grid(8)
        for kind in ("elliptic", "trilinear"):
            a = estimate_constant(kind, samples=2, seed=42, grid=g)
            b = estimate_constant(kind, samples=2, seed=42, grid=g)
            assert a == b

    def test_monotone_in_samples(self):
        g = Grid(8)
        for kind in ("korn", "trilinear"):
            ests = [estimate_constant(kind, samples=s, seed=5, grid=g) for s in (1, 2, 3, 4)]
            assert all(a <= b for a, b in zip(ests, ests[1:]))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            estimate_constant("korn", samples=0, seed=1, grid=Grid(8))

    def test_unknown_kind(self):
        # worded as a config's kinds line is
        with pytest.raises(ValueError, match="estimation kind must be one of .*, got 'poincare'"):
            estimate_constant("poincare", samples=1, seed=1, grid=Grid(8))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["korn", "elliptic", "trilinear"])
    def test_non_finite_alpha_refused(self, kind, alpha):
        with pytest.raises(ValueError, match="alpha"):
            estimate_constant(kind, samples=1, seed=1, grid=Grid(8), alpha=alpha)

    def test_overflowing_ratio_refused(self):
        # a finite alpha this large overflows curl upsilon(z)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                estimate_constant("trilinear", samples=2, seed=1, grid=Grid(8), alpha=1e308)

    # (n, samples, n_modes, seed); at 32^2 a block holds 8 trilinear
    # samples, so 9 samples end in a partial block. Odd n and n_modes > n:
    # on 7^2 the mode k = 8 vanishes at every node, so the pencils' D and
    # the elliptic N that the trilinear route whitens by are singular. The
    # korn and elliptic estimates are the sup over the modes: at least each
    # sample's own ratio, and the same for every samples and seed
    @pytest.mark.parametrize(
        "n,samples,n_modes,seed",
        [(8, 3, 8, 50), (12, 4, 5, 50), (16, 2, 8, 50), (16, 3, 3, 20), (32, 9, 8, 4), (15, 3, 8, 20), (7, 2, 8, 10)],
    )
    @pytest.mark.parametrize("kind", ["korn", "elliptic", "trilinear"])
    def test_batched_climb_equals_per_sample_climb(self, kind, n, samples, n_modes, seed):
        g = Grid(n)
        got = estimate_constant(kind, samples, seed, grid=g, n_modes=n_modes)
        draws = [np.random.default_rng([seed, i]).standard_normal((1, n_modes, n_modes)) for i in range(samples)]
        if kind != "trilinear":
            assert all(got >= sample_ratio(kind, g, c[0]) for c in draws)
            assert estimate_constant(kind, 1, 0, grid=g, n_modes=n_modes) == got
            return
        # one sample per call has the batched bits, and each sample's value
        # is the terms' ratio at its maximizing phi
        basis = spaces._range_basis(spaces.quadratic_pencil("elliptic", n, n_modes)[0])
        per_call = [float(spaces._trilinear_sup(c, g, 1.0, basis)[0]) for c in draws]
        assert got == max(per_call)
        for c, value in zip(draws, per_call):
            z = velocity_from_stream(stream_from_coeffs(g, c[0]))
            phi = trilinear_maximizer(z, n_modes)
            lhs, rhs = spaces._trilinear_terms(np.stack([z.stream.values, phi.stream.values]), g.h, 1.0)
            assert abs(value - lhs / rhs) <= 1e-12 * value

    # korn and elliptic take the pencil's top eigenvalue and evaluate no
    # stencil; trilinear takes the velocities of a block of samples in one
    # call, and 10 samples at 16^2 are one block
    @pytest.mark.parametrize("kind,want", [("korn", 0), ("elliptic", 0), ("trilinear", 1)])
    def test_velocity_calls_per_estimate(self, monkeypatch, kind, want):
        calls = count_calls(monkeypatch, spaces, "velocity_values")
        estimate_constant(kind, 10, 3, grid=Grid(16))
        assert len(calls) == want

    @pytest.mark.parametrize("n,n_modes", [(8, 3), (7, 4), (16, 4)])
    @pytest.mark.parametrize("kind", ["korn", "elliptic"])
    def test_pencil_equals_polarized_terms(self, kind, n, n_modes):
        pencil = spaces.quadratic_pencil(kind, n, n_modes)
        for got, want in zip(pencil, pencil_by_polarization(kind, Grid(n), n_modes)):
            assert got.shape == want.shape == (n_modes**2, n_modes**2)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n,n_modes", [(5, 3), (7, 8), (8, 8), (15, 8), (16, 8), (32, 8), (7, 2), (15, 3)])
    @pytest.mark.parametrize("kind", ["korn", "elliptic"])
    def test_pencil_ratio_within_tau_of_ratio(self, kind, n, n_modes):
        g = Grid(n)
        c = np.random.default_rng(n * 100 + n_modes).standard_normal((2000, n_modes, n_modes))
        nm, dm = spaces.quadratic_pencil(kind, n, n_modes)
        cf = c.reshape(len(c), -1)
        p = ((cf @ nm) * cf).sum(-1) / ((cf @ dm) * cf).sum(-1)
        r = batched_ratio(spaces._INEQUALITIES[kind][0], c, g, 1.0)
        assert np.all(np.abs(p - r) <= 1e-12 * r)

    # the supremum of c N c / c D c is the top eigenvalue of the pencil, here
    # by a Cholesky factor of D (positive definite for n >= n_modes); at
    # 16^2 it reads 4.959064 (korn) and 0.768484 (elliptic)
    @pytest.mark.parametrize("n", [8, 15, 16])
    @pytest.mark.parametrize("kind,sup16", [("korn", 4.959064), ("elliptic", 0.768484)])
    def test_estimates_below_pencil_supremum(self, kind, sup16, n):
        nm, dm = spaces.quadratic_pencil(kind, n, 8)
        chol = np.linalg.cholesky(dm)
        half = np.linalg.solve(chol, np.linalg.solve(chol, nm).T)
        top = np.linalg.eigvalsh(0.5 * (half + half.T))[-1]
        if n == 16:
            assert round(top, 6) == sup16
        for seed in range(4):
            assert abs(estimate_constant(kind, 10, seed, grid=Grid(n)) - top) <= 1e-12 * top

    @pytest.mark.parametrize("kind", ["trilinear", "poincare"])
    def test_pencil_of_a_non_quadratic_kind_refused(self, kind):
        with pytest.raises(ValueError, match="pencil kind must be one of"):
            spaces.quadratic_pencil(kind, 8, 3)

    @pytest.mark.parametrize("kind", ["korn", "elliptic", "trilinear"])
    def test_batched_ratio_equals_sample_ratio(self, kind):
        # a zero sample gives the trilinear ratio its zero-denominator branch
        g = Grid(10)
        terms, fields, _ = spaces._INEQUALITIES[kind]
        shape = (4,) + ((fields,) if fields > 1 else ()) + (3, 3)
        c = np.random.default_rng(3).standard_normal(shape)
        if kind == "trilinear":
            c[1] = 0.0
        r = batched_ratio(terms, c, g, 0.3)
        assert r.shape == (4,)
        assert [float(x) for x in r] == [sample_ratio(kind, g, ci, 0.3) for ci in c]
        if kind == "trilinear":
            assert r[1] == 0.0

    # a ratio differences its components as one stack; a diff1 call per
    # component and partial took 8 calls for korn and 10 for the others
    @pytest.mark.parametrize("kind,most", [("korn", 2), ("elliptic", 4), ("trilinear", 4)])
    def test_diff1_calls_per_ratio(self, monkeypatch, kind, most):
        g = Grid(16)
        terms, fields, _ = spaces._INEQUALITIES[kind]
        shape = (10,) + ((fields,) if fields > 1 else ()) + (8, 8)
        c = np.random.default_rng(4).standard_normal(shape)
        calls = count_calls(monkeypatch, spaces, "diff1")
        batched_ratio(terms, c, g, 0.5)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("lead", [(), (10,), (2, 3)])
    def test_korn_ratio_equals_per_partial_reference(self, lead):
        # the four first partials are taken once and shared by grad_sq and
        # sym_grad_sq; the bits are those of a diff1 call per partial
        g = Grid(16)
        c = np.random.default_rng(5).standard_normal(lead + (8, 8))
        lhs, rhs = korn_terms_reference(stream_values(g, c), g.h)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(rhs == 0.0, 0.0, lhs / rhs)
        got = batched_ratio(spaces._korn_terms, c, g, 1.0)
        assert np.array_equal(got, want)
        psi = stream_values(g, c)
        got_lhs, got_rhs = spaces._korn_terms(psi, g.h, 1.0)
        assert np.array_equal(got_lhs, lhs) and np.array_equal(got_rhs, rhs)


class TestInequalities:
    def test_zero_field_holds(self):
        g = Grid(8)
        z = velocity_from_stream(ScalarField2D(g, np.zeros(g.shape)))
        chk = check_inequality("korn", z, DomainConstants())
        assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.holds

    @pytest.mark.parametrize("kind,name", [("korn", "K"), ("elliptic", "K_tilde"), ("trilinear", "K_hat")])
    def test_holds_by_construction_on_sample_family(self, kind, name):
        # the estimate is a running max over exactly these starting samples
        g = Grid(8)
        seed, samples = 7, 3
        est = estimate_constant(kind, samples=samples, seed=seed, grid=g)
        dc = DomainConstants(**{name: est})
        for i in range(samples):
            fields = sample_field(kind, i, seed, grid=g)
            chk = check_inequality(kind, fields, dc)
            assert chk.holds, f"{kind} sample {i}: lhs={chk.lhs} rhs={chk.rhs}"

    # the korn and elliptic estimates are the top eigenvalue of the kind's
    # pencil, so its eigenvector's field meets the inequality with equality;
    # the trilinear estimate is the largest sup over phi at the sampled z,
    # met with equality at the maximizing sample's z and its phi* = N^+ b.
    # The check holds with K = the estimate and fails with K a hair
    # smaller. D and N are singular for n < n_modes (vanishing and aliased
    # modes)
    @pytest.mark.parametrize("n,n_modes", [(3, 8), (5, 8), (7, 8), (8, 8), (15, 3), (16, 8), (32, 8)])
    @pytest.mark.parametrize("kind,name", [("korn", "K"), ("elliptic", "K_tilde"), ("trilinear", "K_hat")])
    def test_top_eigenvector_meets_the_estimate(self, kind, name, n, n_modes):
        g = Grid(n)
        if kind == "trilinear":
            est = estimate_constant(kind, 4, 0, grid=g, n_modes=n_modes)
            zs = [sample_field(kind, i, 0, grid=g, n_modes=n_modes)[0] for i in range(4)]
            pairs = [(z, trilinear_maximizer(z, n_modes)) for z in zs]
            unit = [check_inequality(kind, p, DomainConstants()) for p in pairs]
            y = pairs[int(np.argmax([chk.lhs / chk.rhs for chk in unit]))]
        else:
            est = estimate_constant(kind, 1, 0, grid=g, n_modes=n_modes)
            nm, dm = spaces.quadratic_pencil(kind, n, n_modes)
            b = spaces._range_basis(dm)
            top = np.linalg.eigh(b.T @ nm @ b)[1][:, -1]
            c = (b @ top).reshape(n_modes, n_modes)
            y = velocity_from_stream(ScalarField2D(g, stream_values(g, c)))
        chk = check_inequality(kind, y, DomainConstants(**{name: est}))
        assert chk.holds
        assert chk.lhs / chk.rhs >= 1.0 - 1e-11
        assert not check_inequality(kind, y, DomainConstants(**{name: est * (1.0 - 1e-9)})).holds

    @pytest.mark.parametrize(
        "kind,count",
        [("korn", 0), ("korn", 1), ("korn", 2), ("elliptic", 2), ("trilinear", None), ("trilinear", 1), ("trilinear", 3)],
    )
    def test_wrong_number_of_fields_refused(self, monkeypatch, kind, count):
        # count None is a bare field; otherwise a tuple of that many fields
        g = Grid(8)
        y = velocity_from_stream(stream_from_coeffs(g, np.ones((2, 2))))
        fields = y if count is None else (y,) * count
        calls = count_calls(monkeypatch, spaces, "velocity_values")
        with pytest.raises(ValueError, match=f"^{kind} takes "):
            check_inequality(kind, fields, DomainConstants())
        assert calls == []

    def test_tiny_trilinear_constant_fails(self):
        g = Grid(12)
        fields = sample_field("trilinear", 0, 11, grid=g)
        chk = check_inequality("trilinear", fields, DomainConstants(K_hat=1e-9))
        assert chk.lhs > 0.0
        assert not chk.holds

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="estimation kind must be one of .*, got 'sobolev'"):
            check_inequality("sobolev", random_field(Grid(8), 15), DomainConstants())

    @pytest.mark.parametrize("kind", ["korn", "elliptic", "trilinear"])
    def test_check_evaluates_the_estimator_terms(self, kind):
        # with unit constants lhs/rhs is the estimator's ratio of the same sample, bit for bit
        g, seed, n_modes = Grid(10), 5, 4
        shape = (2, n_modes, n_modes) if kind == "trilinear" else (n_modes, n_modes)
        c = np.random.default_rng([seed, 0]).standard_normal(shape)
        fields = sample_field(kind, 0, seed, grid=g, n_modes=n_modes)
        chk = check_inequality(kind, fields, DomainConstants(), alpha=0.3)
        terms = spaces._INEQUALITIES[kind][0]
        assert chk.lhs / chk.rhs == float(batched_ratio(terms, c[None], g, 0.3)[0])

    def test_field_without_stream_refused(self):
        g = Grid(8)
        y = random_field(g, 15)
        bare = VectorField2D(g, y.u1, y.u2)
        with pytest.raises(ValueError, match="velocity_from_stream"):
            check_inequality("korn", bare, DomainConstants())
        with pytest.raises(ValueError, match="velocity_from_stream"):
            check_inequality("trilinear", (y, bare), DomainConstants())
        # a scalar field is not a velocity at all
        scalar = ScalarField2D(g, y.u1)
        with pytest.raises(ValueError, match="velocity_from_stream"):
            check_inequality("korn", scalar, DomainConstants())
        with pytest.raises(ValueError, match="velocity_from_stream"):
            check_inequality("trilinear", (scalar, y), DomainConstants())

    def test_trilinear_does_not_call_into_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spaces called into state")

        # nonlinear_term is state's only trilinear evaluator: curl_upsilon
        # moved to the test helpers, and state no longer imports its array form
        monkeypatch.setattr(state_module, "nonlinear_term", refuse)
        assert not hasattr(state_module, "curl_upsilon_values")
        g = Grid(8)
        chk = check_inequality("trilinear", sample_field("trilinear", 0, 7, grid=g), DomainConstants())
        assert chk.lhs > 0.0
        assert estimate_constant("trilinear", samples=2, seed=7, grid=g) > 0.0


class TestConstantToolArguments:
    """A bad argument of the domain-constant tools raises a ValueError that
    names it, before any sample is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(spaces.np.random, "default_rng", refuse)

    def test_sample_field_unknown_kind(self):
        with pytest.raises(ValueError, match="estimation kind must be one of .*, got 'bogus'"):
            sample_field("bogus", 0, 1, grid=Grid(8))

    @pytest.mark.parametrize("kind", ["korn", "trilinear"])
    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_sample_field_needs_a_mode(self, kind, n_modes):
        with pytest.raises(ValueError, match=f"n_modes must be >= 1, got {n_modes}"):
            sample_field(kind, 0, 1, grid=Grid(8), n_modes=n_modes)

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_estimate_needs_a_mode(self, n_modes):
        with pytest.raises(ValueError, match=f"n_modes must be >= 1, got {n_modes}"):
            estimate_constant("korn", 2, 1, grid=Grid(8), n_modes=n_modes)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_check_inequality_needs_finite_alpha(self, alpha):
        fields = velocity_from_stream(ScalarField2D(Grid(8), np.zeros((8, 8))))
        with pytest.raises(ValueError, match=f"alpha must be nonnegative and finite, got {alpha}"):
            check_inequality("trilinear", (fields, fields), DomainConstants(), alpha=alpha)

    def test_check_inequality_needs_nonnegative_alpha(self):
        # ProblemData refuses alpha <= 0; this used to return a check
        fields = velocity_from_stream(ScalarField2D(Grid(8), np.zeros((8, 8))))
        with pytest.raises(ValueError, match="alpha must be nonnegative and finite, got -1.0"):
            check_inequality("trilinear", (fields, fields), DomainConstants(), alpha=-1.0)

    def test_estimate_needs_nonnegative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative and finite, got -1.0"):
            estimate_constant("trilinear", 2, 1, grid=Grid(8), alpha=-1.0)


class TestArrayNorms:
    """The array forms keep leading axes and give each slice the field-level bits."""

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_slices_match_field_norms(self, lead):
        g = Grid(9)
        h = g.h
        coeffs = np.random.default_rng(5).standard_normal(lead + (4, 4))
        psi = stream_values(g, coeffs)
        y1, y2 = d2c(psi, h), -d1c(psi, h)
        q = np.random.default_rng(6).standard_normal(lead + g.shape)
        l2 = inner_l2_values((y1, y2), (y1, y2), h)
        grad, sym = grad_sq_values(y1, y2, h), sym_grad_sq_values(y1, y2, h)
        hk = [norm_hk_values((y1, y2), h, k) for k in range(4)]
        hk_scalar = [norm_hk_values((q,), h, k) for k in range(4)]
        for idx in np.ndindex(*lead):
            psi_i = stream_from_coeffs(g, coeffs[idx])
            assert np.array_equal(psi[idx], psi_i.values)
            y = velocity_from_stream(psi_i)
            assert l2[idx] == inner_l2(y, y)
            assert grad[idx] == grad_sq(y)
            assert sym[idx] == sym_grad_sq(y)
            for k in range(4):
                assert hk[k][idx] == norm_hk(y, k)
                assert hk_scalar[k][idx] == norm_hk(ScalarField2D(g, q[idx]), k)

    def test_norm_order_validated(self):
        with pytest.raises(ValueError):
            norm_hk_values((np.zeros((2, 5, 5)),), 0.1, 4)


class TestStreamFields:
    @pytest.mark.parametrize("shape", [(8, 8), (3, 5), (4, 2, 6, 3)])
    def test_cached_sines_equal_direct_formula(self, shape):
        g = Grid(13)
        coeffs = np.random.default_rng(6).standard_normal(shape)
        x = np.arange(1, g.n_interior + 1) * g.h
        m1 = np.sin(np.pi * np.outer(np.arange(1, shape[-2] + 1), x))
        m2 = np.sin(np.pi * np.outer(np.arange(1, shape[-1] + 1), x))
        want = m1.T @ coeffs @ m2
        for _ in range(2):  # the second call reads the cached matrices
            assert np.array_equal(stream_values(g, coeffs), want)

    def test_sine_matrices_cached_read_only(self):
        g = Grid(11)
        m = spaces._sine_matrix(g, 5)
        assert spaces._sine_matrix(Grid(11), 5) is m
        assert m.shape == (5, 11) and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_single_mode_matches_direct_evaluation(self):
        g = Grid(14)
        coeffs = np.zeros((2, 3))
        coeffs[1, 2] = 0.8
        psi = stream_from_coeffs(g, coeffs)
        x1, x2 = g.coords()
        expected = 0.8 * np.sin(2 * np.pi * x1) * np.sin(3 * np.pi * x2)
        assert np.abs(psi.values - expected).max() < 1e-14

    def test_random_velocity_divergence_free_and_seeded(self):
        g = Grid(10)
        v1 = random_velocity(g, np.random.default_rng(4))
        v2 = random_velocity(g, np.random.default_rng(4))
        assert v1.stream is not None
        assert np.array_equal(v1.u1, v2.u1) and np.array_equal(v1.u2, v2.u2)

    def test_apply_A_eigenmode(self):
        # lap5 diagonalizes on sine modes, so A acts as -mu_h on the velocity
        g = Grid(15)
        h = g.h
        coeffs = np.zeros((1, 2))
        coeffs[0, 1] = 1.0
        y = velocity_from_stream(stream_from_coeffs(g, coeffs))
        ay = apply_A(y)
        mu = (4.0 / h**2) * (np.sin(np.pi * h / 2) ** 2 + np.sin(2 * np.pi * h / 2) ** 2)
        scale = np.abs(y.u1).max()
        assert np.abs(ay.u1 + mu * y.u1).max() < 1e-11 * scale
        assert np.abs(ay.u2 + mu * y.u2).max() < 1e-11 * scale

    def test_apply_A_needs_stream(self):
        g = Grid(6)
        v = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        with pytest.raises(ValueError):
            apply_A(v)


class TestSolenoidalProjection:
    def test_annihilates_centered_gradients(self):
        # curl of a centered-difference gradient cancels exactly (zero extension)
        g = Grid(17)
        rng = np.random.default_rng(16)
        phi = rng.standard_normal(g.shape)
        p1, p2 = solenoidal_projection_values(d1c(phi, g.h), d2c(phi, g.h), g.h)
        scale = np.abs(d1c(phi, g.h)).max()
        assert max(np.abs(p1).max(), np.abs(p2).max()) < 1e-13 * scale

    def test_output_divergence_free(self):
        g = Grid(17)
        rng = np.random.default_rng(17)
        u1, u2 = rng.standard_normal((2,) + g.shape)
        p1, p2 = solenoidal_projection_values(u1, u2, g.h)
        dv = d1c(p1, g.h) + d2c(p2, g.h)
        assert np.abs(dv).max() < 1e-12 * max(1.0, np.abs(p1).max() / g.h)

    def test_linear(self):
        g = Grid(9)
        rng = np.random.default_rng(18)
        a1, a2, b1, b2 = rng.standard_normal((4,) + g.shape)
        pa = solenoidal_projection_values(a1, a2, g.h)
        pb = solenoidal_projection_values(b1, b2, g.h)
        pab = solenoidal_projection_values(a1 + 2.0 * b1, a2 + 2.0 * b2, g.h)
        assert np.abs(pab[0] - (pa[0] + 2.0 * pb[0])).max() < 1e-12
        assert np.abs(pab[1] - (pa[1] + 2.0 * pb[1])).max() < 1e-12
