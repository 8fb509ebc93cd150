"""Tests for the stability constants, thresholds, report IO, and Hessian forms.

The lambda formulas are checked at hand-crafted inputs where every factor
collapses to something exact: with unit constants, alpha=1/2, nu=2, T=1 and
zero state/control norms the four bounds reduce to

    lambda1 = sqrt(5)            (with |y0|_{H3} = 1)
    lambda2^2 = e + 1
    lambda3^2 = e        (printed grouping)
    lambda3^2 = e + 1    (derived grouping)
    lambda4^2 = 2(e + 1)         (with |y_d| = 1)

so any transcription slip in the exponents or groupings moves the values by
O(1).  The Hessian quadratic form is verified against second differences of
the actual cost and against its own bilinear polarization.
"""

import dataclasses
import math

import numpy as np
import pytest

from sgf2d.certificates import (
    CertificateInputs,
    CertificateReport,
    _div,
    _exp,
    _l1_mul,
    _mul,
    _sq,
    certify,
    compute_lambda1,
    compute_lambda2,
    compute_lambda3,
    compute_lambda4,
    hessian_bilinear_form,
    hessian_quadratic_form,
)
from sgf2d.adjoint import duality_gap, solve_adjoint
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    VectorField2D,
    _blocks,
    arakawa,
    velocity_from_stream,
)
from sgf2d.optimizer import cost
from sgf2d.sensitivity import solve_linearized, solve_second
from sgf2d.spaces import DomainConstants, inner_l2, stream_from_coeffs
from sgf2d.state import (
    ProblemData,
    control_h1_norm,
    l2q_inner_values,
    l2q_norm,
    left_weights,
    nonlinear_term,
    solve_state,
    trap_weights,
)

from sgf2d import adjoint as adjoint_module
from sgf2d import certificates as certificates_module
from sgf2d import sensitivity as sensitivity_module
from sgf2d import state as state_module

from helpers import count_calls, hessian_pointwise, hessian_second_tangent, smooth_control

E = math.e
# the report fields worked out from the others
DERIVED = [
    "lambda3", "lambda3_rel_discrepancy", "verdict_second_order", "verdict_uniqueness",
    "illustrative",
]


def crafted_inputs(norm_y0=0.0, norm_yd=1.0, lam=0.0, **kw):
    # alpha=1/2 makes alpha_hat=1 and 1/(alpha*nu)=1 with nu=2; T=1 turns
    # every C*T exponent into the bare constant
    args = dict(
        alpha=0.5,
        nu=2.0,
        T=1.0,
        norm_y0_H3=norm_y0,
        norm_u_L1H1=0.0,
        norm_yd_L2Q=norm_yd,
        constants=DomainConstants(),
        lam=lam,
    )
    args.update(kw)
    return CertificateInputs(**args)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestLambdaSpotValues:
    def test_lambda1(self):
        assert rel(compute_lambda1(crafted_inputs(norm_y0=1.0)), math.sqrt(5.0)) <= 1e-12

    def test_lambda2(self):
        ci = crafted_inputs()
        assert rel(compute_lambda2(ci, 0.0), math.sqrt(E + 1.0)) <= 1e-12

    def test_lambda3_both_readings(self):
        ci = crafted_inputs()
        assert rel(compute_lambda3(ci, 0.0, "printed"), math.sqrt(E)) <= 1e-12
        assert rel(compute_lambda3(ci, 0.0, "derived"), math.sqrt(E + 1.0)) <= 1e-12
        with pytest.raises(ValueError, match="lambda3_reading must be one of .*, got 'freehand'"):
            compute_lambda3(ci, 0.0, "freehand")

    def test_lambda4(self):
        ci = crafted_inputs()
        assert rel(compute_lambda4(ci, 0.0), math.sqrt(2.0 * (E + 1.0))) <= 1e-12

    def test_lambda2_short_horizon_limit(self):
        # T -> 0 kills the exponential growth, leaving Kt(1 + 1/(alpha*nu))
        ci = crafted_inputs(T=1e-12)
        assert rel(compute_lambda2(ci, 0.0), math.sqrt(2.0)) <= 1e-9

    def test_monotone_in_data(self):
        base = compute_lambda1(crafted_inputs(norm_y0=1.0))
        assert compute_lambda1(crafted_inputs(norm_y0=2.0)) > base
        assert (
            compute_lambda1(crafted_inputs(norm_y0=1.0, norm_u_L1H1=1.0)) > base
        )
        ci = crafted_inputs()
        assert compute_lambda2(ci, 1.0) > compute_lambda2(ci, 0.0)
        assert compute_lambda4(ci, 1.0) > compute_lambda4(ci, 0.0)
        assert compute_lambda4(crafted_inputs(norm_yd=2.0), 0.0) > compute_lambda4(ci, 0.0)


class TestCertify:
    def test_thresholds_and_verdicts(self):
        rep = certify(crafted_inputs())
        l4 = math.sqrt(2.0 * (E + 1.0))
        assert rel(rep.coercivity_threshold, 2.0 * E * l4) <= 1e-12
        assert rel(rep.uniqueness_threshold, 2.0 * (E + 1.0) * l4) <= 1e-12
        assert rep.lam == 0.0
        assert not rep.verdict_second_order
        assert not rep.verdict_uniqueness
        assert rep.illustrative  # unit defaults in play

    def test_verdicts_flip_above_threshold(self):
        rep0 = certify(crafted_inputs())
        rep = certify(crafted_inputs(lam=2.0 * rep0.coercivity_threshold))
        assert rep.verdict_second_order
        # uniqueness threshold is larger here (lambda2^2 > lambda3^2 printed)
        assert rep.uniqueness_threshold > rep.coercivity_threshold
        rep2 = certify(crafted_inputs(lam=2.0 * rep0.uniqueness_threshold))
        assert rep2.verdict_uniqueness

    def test_both_lambda3_readings_reported(self):
        rep = certify(crafted_inputs())
        assert rel(rep.lambda3_printed, math.sqrt(E)) <= 1e-12
        assert rel(rep.lambda3_derived, math.sqrt(E + 1.0)) <= 1e-12
        expected = (math.sqrt(E + 1.0) - math.sqrt(E)) / math.sqrt(E + 1.0)
        assert rel(rep.lambda3_rel_discrepancy, expected) <= 1e-12
        assert rep.lambda3 == rep.lambda3_printed
        rep_d = certify(crafted_inputs(), lambda3_reading="derived")
        assert rep_d.lambda3 == rep_d.lambda3_derived
        # the selected reading feeds the coercivity threshold
        assert rep_d.coercivity_threshold > rep.coercivity_threshold

    def test_unknown_reading_rejected(self):
        with pytest.raises(ValueError, match="lambda3_reading"):
            certify(crafted_inputs(), lambda3_reading="loose")

    def test_supplied_constants_not_illustrative(self):
        names = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")
        c = DomainConstants(source={n: "user_supplied" for n in names})
        rep = certify(crafted_inputs(constants=c))
        assert not rep.illustrative
        assert rep.constants_source["K"] == "user_supplied"


class TestReportIO:
    def test_text_round_trip(self):
        rep = certify(crafted_inputs(norm_y0=0.3, lam=1e-3))
        back = CertificateReport.from_text(rep.to_text())
        assert back == rep

    def test_file_round_trip(self, tmp_path):
        rep = certify(crafted_inputs())
        p = tmp_path / "certificate.txt"
        rep.write_text(p)
        assert CertificateReport.from_text(p.read_text()) == rep

    def test_csv_layout(self, tmp_path):
        rep = certify(crafted_inputs())
        p = tmp_path / "certificate.csv"
        rep.write_csv(p)
        header, row = p.read_text().strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["lambda1"]) == rep.lambda1
        assert cols["verdict_second_order"] == "false"
        assert cols["lambda3_reading"] == "printed"
        assert cols["source_K"] == "default_unit"

    def test_from_text_rejects_malformed(self):
        rep = certify(crafted_inputs())
        with pytest.raises(ValueError, match="expected 'name = value'"):
            CertificateReport.from_text(rep.to_text() + "stray line\n")
        with pytest.raises(ValueError, match="unknown key"):
            CertificateReport.from_text(rep.to_text() + "lambda9 = 1.0\n")
        bad = rep.to_text().replace("illustrative = true", "illustrative = yes")
        with pytest.raises(ValueError, match="true or false"):
            CertificateReport.from_text(bad)

    def test_from_text_skips_comments_and_blanks(self):
        rep = certify(crafted_inputs())
        title, *lines = rep.to_text().splitlines()
        text = "\n".join([title, ""] + [f"{line}  # note" for line in lines] + ["", ""])
        assert CertificateReport.from_text(text) == rep

    def test_from_text_rejects_section_line(self):
        text = certify(crafted_inputs()).to_text()
        n = len(text.splitlines()) + 1
        with pytest.raises(ValueError, match=rf"certificate:{n}: unknown section \[x\]"):
            CertificateReport.from_text(text + "[x]\n")

    def test_from_text_bare_line_message(self):
        text = certify(crafted_inputs()).to_text()
        n = len(text.splitlines()) + 1
        with pytest.raises(ValueError) as exc:
            CertificateReport.from_text(text + "stray line\n")
        assert str(exc.value) == f"certificate:{n}: expected 'name = value'"

    def test_from_text_bad_number_names_its_line(self):
        text = certify(crafted_inputs()).to_text()
        assert text.splitlines()[1].startswith("lambda1 = ")
        bad = "\n".join(["# optimality certificate", "lambda1 = x"] + text.splitlines()[2:])
        with pytest.raises(ValueError) as exc:
            CertificateReport.from_text(bad)
        assert str(exc.value).startswith("certificate:2: bad value for lambda1: ")

    def test_from_text_names_missing_fields(self):
        lines = certify(crafted_inputs()).to_text().splitlines()
        kept = [line for line in lines if not line.startswith(("lambda2 ", "lam "))]
        with pytest.raises(ValueError) as exc:
            CertificateReport.from_text("\n".join(kept))
        assert str(exc.value) == "certificate: missing fields lambda2, lam"

    @staticmethod
    def _edited(text, **values):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key = line.split(" = ", 1)[0]
            if key in values:
                lines[i] = f"{key} = {values[key]}"
        return "\n".join(lines) + "\n"

    def test_from_text_refuses_nan(self):
        # read back, NaN gave verdict_second_order = false as a consistent report
        text = certify(crafted_inputs()).to_text()
        bad = self._edited(text, lambda1="nan", coercivity_threshold="nan")
        with pytest.raises(ValueError, match="lambda1 must not be NaN"):
            CertificateReport.from_text(bad)
        bad = self._edited(text, coercivity_threshold="nan")
        with pytest.raises(ValueError, match="coercivity_threshold must not be NaN"):
            CertificateReport.from_text(bad)

    @pytest.mark.parametrize(
        "name",
        [
            "lambda1",
            "lambda2",
            "lambda3",
            "lambda3_printed",
            "lambda3_derived",
            "lambda3_rel_discrepancy",
            "lambda4",
            "lam",
            "coercivity_threshold",
            "uniqueness_threshold",
        ],
    )
    def test_every_float_field_refuses_nan(self, name):
        rep = certify(crafted_inputs())
        if name in DERIVED:  # not settable; a NaN line disagrees with its derivation
            with pytest.raises(ValueError, match=f"{name} inconsistent"):
                CertificateReport.from_text(self._edited(rep.to_text(), **{name: "nan"}))
            return
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            dataclasses.replace(rep, **{name: math.nan})

    @pytest.mark.parametrize("name", DERIVED)
    def test_derived_field_not_settable(self, name):
        rep = certify(crafted_inputs())
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(rep, **{name: getattr(rep, name)})

    def test_replace_derives_again(self):
        # a lam above both thresholds flips both verdicts in the copy
        rep = certify(crafted_inputs())
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        lam = 2.0 * max(rep.coercivity_threshold, rep.uniqueness_threshold)
        up = dataclasses.replace(rep, lam=lam)
        assert up.verdict_second_order and up.verdict_uniqueness
        derived = dataclasses.replace(rep, lambda3_reading="derived")
        assert derived.lambda3 == rep.lambda3_derived

    def test_inf_accepted(self):
        text = certify(crafted_inputs()).to_text()
        back = CertificateReport.from_text(self._edited(text, lambda4="inf"))
        assert back.lambda4 == math.inf

    @pytest.mark.parametrize("norm_y0,disc", [(22.0, 1.0), (40.0, 0.0)])
    def test_overflowed_lambda3_discrepancy_is_a_number(self, norm_y0, disc):
        # at 22 the printed product overflows alone, at 40 both readings do;
        # |inf - x| / inf used to give a NaN discrepancy
        rep = certify(crafted_inputs(norm_y0=norm_y0))
        assert rep.lambda3_printed == math.inf
        assert (rep.lambda3_derived == math.inf) == (disc == 0.0)
        assert rep.lambda3_rel_discrepancy == disc
        assert CertificateReport.from_text(rep.to_text()) == rep

    @pytest.mark.parametrize("norm_y0", [54.0, 1e200])
    def test_overflowing_bounds_read_inf(self, norm_y0):
        # math.exp (at 54) and float ** (1e200 ** 2) raise OverflowError
        # where a product of floats gives inf
        rep = certify(crafted_inputs(norm_y0=norm_y0))
        assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        assert CertificateReport.from_text(rep.to_text()) == rep

    def test_overflow_step_keeps_finite_values(self):
        xs = np.random.default_rng(3).uniform(-700.0, 700.0, 200).tolist() + [0.0]
        assert [_exp(x) for x in xs] == [math.exp(x) for x in xs]
        xs += [1e154, -1e154]
        assert [_sq(x) for x in xs] == [x ** 2 for x in xs]
        assert _exp(710.0) == _sq(1e155) == math.inf

    @pytest.mark.parametrize(
        "kw", [{}, {"norm_y0": 1.0}, {"nu": 1e-200}], ids=["y0-zero", "y0-one", "nu-tiny"]
    )
    def test_tiny_alpha_certifies(self, kw):
        # alpha^2 (and alpha*nu) underflow to 0; the divisions by them used to
        # raise ZeroDivisionError. With y0 = 0, lambda1 = 0 and the thresholds
        # are finite but near 1e300; otherwise the bounds overflow to inf
        rep = certify(crafted_inputs(alpha=1e-200, **kw))
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        assert min(rep.coercivity_threshold, rep.uniqueness_threshold) > 1e299
        if kw:
            assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert CertificateReport.from_text(rep.to_text()) == rep

    @pytest.mark.parametrize("norm_y0", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_subnormal_alpha_certifies(self, alpha, norm_y0):
        # 1/(2 alpha) and 1/alpha overflow to inf; with y0 = 0 their products
        # with lambda1 = 0 used to give NaN. A 0 lambda1 is exact and keeps them 0
        rep = certify(crafted_inputs(alpha=alpha, norm_y0=norm_y0))
        assert rep.lambda1 == (0.0 if norm_y0 == 0.0 else math.inf)
        assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        assert CertificateReport.from_text(rep.to_text()) == rep

    def test_huge_alpha_with_zero_data_certifies(self):
        # (1 + alpha)^2 overflows beside lambda1 = 0 in lambda4's exponent
        rep = certify(crafted_inputs(alpha=1e200))
        assert rep.lambda1 == 0.0
        assert math.isfinite(rep.lambda4) and rep.lambda4 > 0.0
        assert CertificateReport.from_text(rep.to_text()) == rep

    @pytest.mark.parametrize(
        "kw",
        [
            {"alpha": 1e-310, "norm_y0": 1e-165},
            {"alpha": 1.0, "nu": 1e-320, "norm_y0": 1e-165},
            {"alpha": 1e200, "nu": 1e200, "norm_y0": 1.0},
            {"alpha": 1e20, "nu": 1e290, "norm_y0": 1.0},
        ],
        ids=["subnormal-alpha", "subnormal-nu", "huge-alpha-nu", "huge-nu"],
    )
    def test_underflowed_zero_beside_inf_reads_inf(self, kw):
        # |y0|^2 (or 1/(alpha nu)) underflows to 0 beside a bound that
        # overflowed; their product used to be NaN and is unknown, so the
        # thresholds take the safe side, inf, and both verdicts are false
        rep = certify(crafted_inputs(norm_yd=0.0, lam=1.0, **kw))
        assert rep.lambda1 > 0.0
        assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        assert CertificateReport.from_text(rep.to_text()) == rep

    @pytest.mark.parametrize("alpha", [0.5, 1e-310])
    def test_no_data_gives_zero_thresholds(self, alpha):
        # y0 = u = y_d = 0: the adjoint is 0, and lambda4 and both thresholds
        # are exactly 0 however far the other bounds overflow
        rep = certify(crafted_inputs(alpha=alpha, norm_yd=0.0, lam=1.0))
        assert rep.lambda1 == rep.lambda4 == 0.0
        assert rep.coercivity_threshold == rep.uniqueness_threshold == 0.0
        assert rep.verdict_second_order and rep.verdict_uniqueness

    def test_lambda1_is_zero_only_for_zero_norms(self):
        # the squares of 1e-165 underflow; hypot keeps the norm
        assert compute_lambda1(crafted_inputs(norm_y0=1e-165)) == math.sqrt(5.0) * 1e-165
        assert compute_lambda1(crafted_inputs(norm_u_L1H1=5e-324)) > 0.0
        assert compute_lambda1(crafted_inputs()) == 0.0

    def test_products_keep_finite_bits(self):
        rng = np.random.default_rng(5)
        fs = rng.uniform(0.0, 1e3, (100, 4)).tolist()
        assert [_mul(*f) for f in fs] == [f[0] * f[1] * f[2] * f[3] for f in fs]
        assert _mul(math.inf, 0.0) == _mul(0.0, 2.0, math.inf) == math.inf
        assert _mul(math.inf, 2.0) == math.inf and _mul(0.0, 2.0) == 0.0
        assert _l1_mul(0.0, math.inf, 0.0) == 0.0 and _l1_mul(1e-200, math.inf, 1e-200) == math.inf

    def test_underflow_division_keeps_finite_quotients(self):
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(0.0, 1e3, 100).tolist(), rng.uniform(1e-300, 1.0, 100).tolist()
        assert [_div(x, y) for x, y in zip(xs, ys)] == [x / y for x, y in zip(xs, ys)]
        assert _div(2.0, 0.0) == math.inf and _div(0.0, 0.0) == 0.0
        assert _div(1e300, 1e-300) == math.inf

    def test_text_order_is_field_order(self):
        text = certify(crafted_inputs()).to_text()
        names = [line.split(" = ", 1)[0] for line in text.splitlines()[1:]]
        assert names[:15] == [
            "lambda1", "lambda2", "lambda3", "lambda3_printed", "lambda3_derived",
            "lambda3_rel_discrepancy", "lambda4", "lam", "coercivity_threshold",
            "uniqueness_threshold", "verdict_second_order", "verdict_uniqueness",
            "illustrative", "lambda3_reading", "u_norm_source",
        ]
        assert all(n.startswith("source_") for n in names[15:])

    def test_from_text_rejects_repeated_key(self):
        # an appended line must not override the certified value
        text = certify(crafted_inputs()).to_text()
        with pytest.raises(ValueError, match="duplicate key 'lambda1'"):
            CertificateReport.from_text(text + "lambda1 = 5.0\n")
        with pytest.raises(ValueError, match="duplicate key 'source_K'"):
            CertificateReport.from_text(text + "source_K = user_supplied\n")

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"lambda3": "123.0"}, "lambda3 inconsistent with its selected reading"),
            ({"lambda3_reading": "derived"}, "lambda3 inconsistent with its selected reading"),
            ({"lambda3_reading": "loose"}, "lambda3_reading must be one of"),
            ({"lambda3_rel_discrepancy": "0.5"}, "lambda3_rel_discrepancy inconsistent"),
            ({"illustrative": "false"}, "illustrative inconsistent with the constants' sources"),
            ({"coercivity_threshold": "-1.0"}, "thresholds must be nonnegative"),
            ({"verdict_uniqueness": "true"}, "verdict_uniqueness inconsistent"),
        ],
        ids=[
            "lambda3", "reading", "unknown-reading", "discrepancy", "illustrative",
            "negative-threshold", "uniqueness-verdict",
        ],
    )
    def test_from_text_refuses_a_contradiction(self, edit, message):
        # all seven sources read default_unit, and lambda3 is the printed reading
        text = certify(crafted_inputs()).to_text()
        with pytest.raises(ValueError, match=message):
            CertificateReport.from_text(self._edited(text, **edit))

    def test_supplied_constants_refuse_illustrative(self):
        names = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")
        c = DomainConstants(source={n: "user_supplied" for n in names})
        text = certify(crafted_inputs(constants=c)).to_text()
        with pytest.raises(ValueError, match="illustrative inconsistent"):
            CertificateReport.from_text(self._edited(text, illustrative="true"))
        # one default among supplied constants makes the report illustrative
        rep = CertificateReport.from_text(
            self._edited(text, illustrative="true", source_C4="default_unit")
        )
        assert rep.illustrative

    @staticmethod
    def _supplied_text():
        # every constant supplied, so the report reads illustrative = false
        names = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")
        c = DomainConstants(source={n: "user_supplied" for n in names})
        text = certify(crafted_inputs(constants=c)).to_text()
        assert "illustrative = false\n" in text
        return text

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda t: t.replace("source_K = user_supplied", "source_K = banana"),
                "source of K must be one of",
            ),
            (lambda t: t + "source_FOO = x\n", "unknown constant 'FOO' in source"),
            # each constant without a source line reads as a unit default
            (
                lambda t: "".join(x for x in t.splitlines(True) if not x.startswith("source_")),
                "illustrative inconsistent with the constants' sources",
            ),
            (
                lambda t: t.replace("u_norm_source = ball_bound", "u_norm_source = nonsense"),
                "u_norm_source must be one of",
            ),
        ],
        ids=["unknown-source", "unknown-constant", "sources-deleted", "unknown-u-norm-source"],
    )
    def test_from_text_refuses_bad_provenance(self, edit, message):
        text = self._supplied_text()
        edited = edit(text)
        assert edited != text
        with pytest.raises(ValueError, match=message):
            CertificateReport.from_text(edited)

    def test_missing_source_line_reads_as_unit_default(self):
        text = self._supplied_text()
        kept = self._edited(text.replace("source_C4 = user_supplied\n", ""), illustrative="true")
        rep = CertificateReport.from_text(kept)
        assert rep.illustrative and rep.constants_source["C4"] == "default_unit"
        assert rep.to_text() == self._edited(text, illustrative="true", source_C4="default_unit")

    def test_report_refuses_unknown_u_norm_source(self):
        rep = certify(crafted_inputs())
        assert dataclasses.replace(rep) == rep
        with pytest.raises(ValueError, match="u_norm_source must be one of"):
            dataclasses.replace(rep, u_norm_source="nonsense")

    def test_derived_reading_round_trip(self):
        rep = certify(crafted_inputs(norm_y0=0.3), lambda3_reading="derived")
        assert rep.lambda3 == rep.lambda3_derived != rep.lambda3_printed
        assert CertificateReport.from_text(rep.to_text()) == rep

    def test_tampered_verdict_rejected(self):
        rep = certify(crafted_inputs())
        tampered = rep.to_text().replace(
            "verdict_second_order = false", "verdict_second_order = true"
        )
        with pytest.raises(ValueError, match="verdict_second_order inconsistent"):
            CertificateReport.from_text(tampered)


class TestCertificateInputs:
    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            crafted_inputs(alpha=0.0)
        with pytest.raises(ValueError, match="norm_y0_H3"):
            crafted_inputs(norm_y0=-1.0)
        with pytest.raises(ValueError, match="u_norm_source"):
            crafted_inputs(u_norm_source="guess")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["alpha", "nu", "T", "norm_y0_H3", "norm_u_L1H1", "norm_yd_L2Q", "lam"],
    )
    def test_non_finite_rejected(self, name, bad):
        # NaN compares False against 0, so it used to reach certify and
        # yield lambda1 = nan with two silent 'false' verdicts
        with pytest.raises(ValueError, match=name):
            crafted_inputs(**{name: bad})

    def test_from_problem_ball_bound(self):
        g = Grid(10)
        y0 = velocity_from_stream(
            stream_from_coeffs(g, 0.01 * np.random.default_rng(5).standard_normal((3, 3)))
        )
        pd = ProblemData(alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=6, y0=y0, L=3.0)
        ci = CertificateInputs.from_problem(pd, DomainConstants())
        assert ci.norm_u_L1H1 == math.sqrt(pd.T) * pd.L
        assert ci.u_norm_source == "ball_bound"
        assert ci.norm_yd_L2Q == 0.0

    @staticmethod
    def _actual_control_problem(n_control=10):
        g = Grid(10)
        y0 = velocity_from_stream(
            stream_from_coeffs(g, 0.01 * np.random.default_rng(5).standard_normal((3, 3)))
        )
        pd = ProblemData(alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=6, y0=y0, L=3.0)
        gu = Grid(n_control)
        v = velocity_from_stream(stream_from_coeffs(gu, 0.2 * np.ones((2, 2))))
        n = gu.n_interior
        data = np.broadcast_to(np.stack([v.u1, v.u2]), (7, 2, n, n)).copy()
        from sgf2d.state import Trajectory

        return pd, Trajectory(gu, pd.dt, "control", data)

    def test_from_problem_actual_control(self):
        pd, u = self._actual_control_problem()
        ci = CertificateInputs.from_problem(pd, DomainConstants(), u=u)
        # constant in time: L1(0,T;H1) = sqrt(T) * L2(0,T;H1)
        assert rel(ci.norm_u_L1H1, math.sqrt(pd.T) * control_h1_norm(u)) <= 1e-12
        assert ci.norm_u_L1H1 == 2.3168863131651074
        assert ci.u_norm_source == "actual"
        ci = CertificateInputs.from_problem(pd, DomainConstants())
        assert ci.norm_u_L1H1 == 1.5 and ci.u_norm_source == "ball_bound"

    def test_from_problem_refuses_a_control_on_another_grid(self):
        # a 20^2 control used to be normed with the 10^2 problem's h
        pd, u = self._actual_control_problem(n_control=20)
        with pytest.raises(GridMismatchError, match="control is not aligned"):
            CertificateInputs.from_problem(pd, DomainConstants(), u=u)

    def test_from_problem_takes_no_source(self):
        pd, u = self._actual_control_problem()
        with pytest.raises(TypeError):
            CertificateInputs.from_problem(pd, DomainConstants(), u, "ball_bound")


def hessian_problem(n=16, m=12):
    g = Grid(n)
    y0 = velocity_from_stream(
        stream_from_coeffs(g, 0.005 * np.random.default_rng(12).standard_normal((3, 3)))
    )
    yd = velocity_from_stream(
        stream_from_coeffs(g, 0.3 * np.random.default_rng(7).standard_normal((2, 2)))
    )
    return ProblemData(
        alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=m, y0=y0, y_d=yd, L=5.0, lam=1e-3
    )


def unit_direction(pd, seed):
    w = smooth_control(pd, seed)
    return w * (1.0 / l2q_norm(w, trap_weights(pd.m_steps, pd.dt)))


class TestHessianForms:
    def test_zero_direction(self):
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        assert hessian_quadratic_form(base, pd.zero_control(), pd, pd.lam) == 0.0
        assert hessian_pointwise(base, pd.zero_control(), pd) == 0.0

    def test_degree_two_homogeneity(self):
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w = unit_direction(pd, 4)
        q1 = hessian_quadratic_form(base, w, pd, pd.lam)
        q2 = hessian_quadratic_form(base, w * 2.0, pd, pd.lam)
        assert rel(q2, 4.0 * q1) <= 1e-10

    def test_matches_second_differences(self):
        pd = hessian_problem()
        u = smooth_control(pd, 3, amplitude=0.02)
        base = solve_state(u, pd)
        w = unit_direction(pd, 4)
        q = hessian_quadratic_form(base, w, pd, pd.lam)
        j0 = cost(u, base.velocity, pd.y_d, pd.lam)
        for eps in (1e-2, 1e-3):
            jp = cost(u + w * eps, solve_state(u + w * eps, pd).velocity, pd.y_d, pd.lam)
            jm = cost(u - w * eps, solve_state(u - w * eps, pd).velocity, pd.y_d, pd.lam)
            sd = (jp - 2.0 * j0 + jm) / eps ** 2
            assert rel(sd, q) <= 1e-6

    def test_polarization_identity(self):
        pd = hessian_problem()
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w1 = unit_direction(pd, 4)
        w2 = unit_direction(pd, 9)
        b = hessian_bilinear_form(base, w1, w2, pd, pd.lam)
        q12 = hessian_quadratic_form(base, w1 + w2, pd, pd.lam)
        q1 = hessian_quadratic_form(base, w1, pd, pd.lam)
        q2 = hessian_quadratic_form(base, w2, pd, pd.lam)
        gap = abs(q12 - q1 - q2 - 2.0 * b)
        assert gap <= 1e-8 * max(abs(q12), abs(b), 1e-300)

    def test_bilinear_symmetry(self):
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w1 = unit_direction(pd, 4)
        w2 = unit_direction(pd, 9)
        b12 = hessian_bilinear_form(base, w1, w2, pd, pd.lam)
        b21 = hessian_bilinear_form(base, w2, w1, pd, pd.lam)
        assert b12 == b21

    def test_quadratic_form_is_the_bilinear_diagonal(self):
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w = unit_direction(pd, 4)
        assert hessian_quadratic_form(base, w, pd, pd.lam) == hessian_bilinear_form(
            base, w, w, pd, pd.lam
        )

    def test_quadratic_form_does_not_call_the_bilinear_form(self, monkeypatch):
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w = unit_direction(pd, 4)
        ref = hessian_quadratic_form(base, w, pd, pd.lam)

        def refuse(*args):
            raise AssertionError("hessian_bilinear_form called")

        monkeypatch.setattr(certificates_module, "hessian_bilinear_form", refuse)
        assert hessian_quadratic_form(base, w, pd, pd.lam) == ref

    @pytest.mark.parametrize("same", [False, True], ids=["w1-w2", "w-w"])
    def test_bilinear_matches_second_tangent(self, same):
        # the adjoint-weighted cross term against <y - y_d, S''[w1,w2]>_rho
        # marched by solve_second: equal up to roundoff
        pd = hessian_problem()
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w1 = unit_direction(pd, 4)
        w2 = w1 if same else unit_direction(pd, 9)
        b = hessian_bilinear_form(base, w1, w2, pd, pd.lam)
        assert rel(b, hessian_second_tangent(base, w1, w2, pd)) <= 1e-12

    def test_method_is_not_a_parameter(self):
        pd = hessian_problem(n=8, m=4)
        base = solve_state(None, pd)
        with pytest.raises(TypeError, match="method"):
            hessian_quadratic_form(base, pd.zero_control(), pd, pd.lam, method="exact")

    def test_pointwise_method_consistent_first_order(self):
        # the pointwise integrand uses a different time quadrature for the
        # cross term, so it agrees with the exact form only up to O(dt)
        diffs = []
        for m in (12, 24):
            pd = hessian_problem(m=m)
            base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
            w = unit_direction(pd, 4)
            qe = hessian_quadratic_form(base, w, pd, pd.lam)
            qp = hessian_pointwise(base, w, pd)
            diffs.append(abs(qe - qp) / abs(qe))
        assert diffs[0] < 0.01
        assert diffs[1] < 0.65 * diffs[0]

    def test_pointwise_matches_per_slice_loop(self):
        # the whole-stack integrand against the integrand summed one slice at a
        # time from the field-level forms; only the summation order differs
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w = unit_direction(pd, 4)
        tan, adj = solve_linearized(base, w, pd), solve_adjoint(base, None, pd)
        tau = trap_weights(pd.m_steps, pd.dt)
        terms = []
        for k in range(pd.m_steps + 1):
            zk = VectorField2D(pd.grid, tan.z[k, 0], tan.z[k, 1])
            pk = VectorField2D(pd.grid, adj.p[k, 0], adj.p[k, 1])
            wk = w.slice(k)
            parts = (inner_l2(zk, zk), pd.lam * inner_l2(wk, wk), -2.0 * nonlinear_term(zk, pk, pd.alpha))
            terms.append((tau[k], parts))
        ref = sum(t * sum(parts) for t, parts in terms)
        scale = sum(t * sum(abs(x) for x in parts) for t, parts in terms)
        q = hessian_pointwise(base, w, pd)
        assert abs(q - ref) <= 64 * np.finfo(float).eps * scale

    def test_exact_matches_per_step_loop(self):
        # the exact form as a loop that takes J(dq_k, dpsi_k) fresh at every step
        pd = hessian_problem(n=10, m=6)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        w = unit_direction(pd, 4)
        tan, adj = solve_linearized(base, w, pd), solve_adjoint(base, None, pd)
        m, dt, h = pd.m_steps, pd.dt, pd.grid.h
        track = l2q_inner_values(tan.z, tan.z, left_weights(m, dt), h)
        reg = l2q_inner_values(w.data, w.data, trap_weights(m, dt), h, pd.lam)
        cross = 0.0
        for k in range(m):
            cross += float(np.vdot(adj.r[k + 1], arakawa(tan.dq[k], tan.dpsi[k], h)))
        ref = track + reg - 2.0 * dt * cross
        assert hessian_quadratic_form(base, w, pd, pd.lam) == ref

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1e-3, 2e-3])
    def test_lam_other_than_the_problems_refused(self, lam):
        # the forms weigh w by pd.lam; nan and inf used to give nan and inf
        # forms, and 2e-3 a form of another problem
        pd = hessian_problem(n=8, m=4)
        base = solve_state(None, pd)
        w = pd.zero_control()
        with pytest.raises(ValueError, match="is not the problem's lambda"):
            hessian_quadratic_form(base, w, pd, lam)
        with pytest.raises(ValueError, match="is not the problem's lambda"):
            hessian_bilinear_form(base, w, w, pd, lam)


class TestSweepSolveCounts:
    """A sweep63-shaped op: duality gap, tangent, second order, Hessian form."""

    @staticmethod
    def op(base, w, phi, pd):
        gap = duality_gap(base, w, phi, pd)
        tan = solve_linearized(base, w, pd)
        second = solve_second(base, tan, tan, pd)
        return gap, hessian_quadratic_form(base, w, pd, pd.lam), tan.z, second.z

    def test_each_sweep_once_per_base(self, monkeypatch):
        pd = hessian_problem(n=16, m=4)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        inputs = [
            (smooth_control(pd, 4), smooth_control(pd, 5)),
            (smooth_control(pd, 6), smooth_control(pd, 7)),
        ]
        # memo-free references: each input on a base of its own
        refs = [self.op(solve_state(base.u, pd), w, phi, pd) for w, phi in inputs]
        tangents = count_calls(monkeypatch, sensitivity_module, "_propagate")
        adjoints = count_calls(monkeypatch, adjoint_module, "_adjoint_core")
        # first op: the tangent and the second order; phi's and the tracking adjoint
        got = self.op(base, *inputs[0], pd)
        assert (len(tangents), len(adjoints)) == (2, 2)
        tangents.clear()
        adjoints.clear()
        # second op on the same base: the tracking adjoint is kept
        got2 = self.op(base, *inputs[1], pd)
        assert (len(tangents), len(adjoints)) == (2, 1)
        for out, ref in ((got, refs[0]), (got2, refs[1])):
            assert out[:2] == ref[:2]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(out[2:], ref[2:]))

    def test_seven_arakawa_calls_per_step(self, monkeypatch):
        # per step: 2 in the tangent's march, 2 in the second-order sweep's
        # march and 2 in phi's adjoint, whose terminal step has a zero r and
        # makes none; the tangent's J(dq, dpsi), which the second-order source
        # and the Hessian form share, takes one call per time block of the
        # cross stack; the tracking adjoint is kept from the first op on the base
        pd = hessian_problem(n=16, m=4)
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        self.op(base, smooth_control(pd, 4), smooth_control(pd, 5), pd)
        calls_march = count_calls(monkeypatch, state_module, "arakawa")
        calls_cross = count_calls(monkeypatch, sensitivity_module, "arakawa")
        calls_adj = count_calls(monkeypatch, adjoint_module, "arakawa")
        self.op(base, smooth_control(pd, 6), smooth_control(pd, 7), pd)
        cross_blocks = len(_blocks(pd.m_steps, 2 * base.q[0].nbytes))  # a pair (dq, dpsi) per step
        assert cross_blocks == 1
        assert (len(calls_march), len(calls_cross), len(calls_adj)) == (
            4 * pd.m_steps,
            cross_blocks,
            2 * pd.m_steps - 2,
        )
