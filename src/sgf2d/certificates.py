"""Explicit stability constants, optimality thresholds, and Hessian forms.

lambda1..lambda4 are closed-form a priori bounds (state, linearized state,
transposed linearization, adjoint state); the second-order sufficiency
threshold 2*K_hat*lambda3^2*lambda4 and the uniqueness threshold
2*K_hat*lambda2^2*lambda4 are built from them. The Hessian forms
J''(u)[w,w] and J''(u)[w1,w2] are the exact second derivatives of the
discrete objective, both read from one adjoint-weighted cross term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import fieldio
from .adjoint import AdjointState, solve_adjoint
from .grid import _check_one_of, _check_real
from .sensitivity import TangentState, solve_linearized
from .spaces import DomainConstants, _checked, _full_source, _reads_default, norm_hk, stack_hk_sq
from .state import (
    ProblemData,
    StateSolution,
    Trajectory,
    _check_aligned,
    l2q_inner_values,
    left_weights,
    trap_weights,
)

_READINGS = ("printed", "derived")
_U_NORM_SOURCES = ("actual", "ball_bound")


@dataclass(frozen=True)
class CertificateInputs:
    """Everything the lambda-formulas consume.

    norm_u_L1H1 is the L1-in-time H1-in-space control norm. u_norm_source
    says what it is: "actual", the norm of a given control, or "ball_bound",
    the bound sqrt(T)*L that holds for every admissible control.
    """

    alpha: float
    nu: float
    T: float
    norm_y0_H3: float
    norm_u_L1H1: float
    norm_yd_L2Q: float
    constants: DomainConstants
    lam: float = 0.0
    u_norm_source: str = "ball_bound"

    def __post_init__(self):
        for name in ("alpha", "nu", "T"):
            _check_real(getattr(self, name), name)
        for name in ("norm_y0_H3", "norm_u_L1H1", "norm_yd_L2Q", "lam"):
            _check_real(getattr(self, name), name, positive=False)
        _check_one_of(self.u_norm_source, _U_NORM_SOURCES, "u_norm_source")

    @classmethod
    def from_problem(
        cls, pd: ProblemData, constants: DomainConstants, u: Trajectory | None = None
    ) -> "CertificateInputs":
        """The inputs of pd. With a control u (aligned with pd) its own
        L1(0,T;H1) norm is taken and recorded as "actual"; without one the
        ball bound sqrt(T)*L stands in for it, recorded as "ball_bound"."""
        h = pd.grid.h
        tau = trap_weights(pd.m_steps, pd.dt)
        if u is None:
            n_u, source = math.sqrt(pd.T) * pd.L, "ball_bound"
        else:
            _check_aligned(u, pd, "control")
            n_u = float(np.dot(tau, np.sqrt(stack_hk_sq(u.data, h, 1)[1])))
            source = "actual"
        target = pd.target_stack()
        n_yd = math.sqrt(l2q_inner_values(target, target, tau, h))
        return cls(
            alpha=pd.alpha,
            nu=pd.nu,
            T=pd.T,
            norm_y0_H3=norm_hk(pd.y0, 3),
            norm_u_L1H1=n_u,
            norm_yd_L2Q=n_yd,
            constants=constants,
            lam=pd.lam,
            u_norm_source=source,
        )


def _inf_on_overflow(f, *args) -> float:
    """f(*args), or inf where its float result overflows. The bounds grow like
    exponentials of the data, and math.exp and float ** raise OverflowError
    where a product of floats would give inf; finite results keep their bits."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _exp(x: float) -> float:
    return _inf_on_overflow(math.exp, x)


def _sq(x: float) -> float:
    return _inf_on_overflow(pow, x, 2)


def _div(x: float, y: float) -> float:
    """x / y of nonnegative x and y, where y may have underflowed to 0: the
    quotient is then inf, or 0 where x is 0. Other quotients keep their bits."""
    if y == 0.0:
        return math.inf if x else 0.0
    return x / y


def _mul(*factors: float) -> float:
    """Product of nonnegative factors, left to right. Where a factor that
    overflowed to inf meets one that underflowed to 0 the product has no float
    value; it is then inf, the safe side of an upper bound. Other products
    keep their bits."""
    p = math.prod(factors)
    return math.inf if math.isnan(p) else p


def _l1_mul(lambda1: float, *factors: float) -> float:
    """_mul of factors that include lambda1, which is 0 only for zero y0 and u:
    such a 0 is exact and makes the product 0, even beside an overflowed inf."""
    return 0.0 if lambda1 == 0.0 else _mul(*factors)


def compute_lambda1(ci: CertificateInputs) -> float:
    """lambda1^2 = (1 + 4*K*alpha_hat)(|y0|_{H3}^2 + |u|_{L1(0,T;H1)}^2).

    0 only for zero y0 and u: where the squares underflow, hypot takes the
    norms instead."""
    alpha_hat = max(1.0 / (2.0 * ci.alpha), 2.0 * ci.alpha)
    f = 1.0 + 4.0 * ci.constants.K * alpha_hat
    y0, u = ci.norm_y0_H3, ci.norm_u_L1H1
    s, r = _sq(y0) + _sq(u), math.hypot(y0, u)
    return math.sqrt(f * s) if s else r and math.sqrt(f) * r


def compute_lambda2(ci: CertificateInputs, lambda1: float) -> float:
    """lambda2^2 = Kt[(1 + C2*T*(1+1/a)*C1*l1/a) e^{C2*T(1+(1+1/a)*C1*l1)} + 1/(a*nu)]."""
    a, c = ci.alpha, ci.constants
    growth = _l1_mul(lambda1, c.C2, ci.T, 1.0 + 1.0 / a, c.C1, lambda1) / a
    expo = _exp(c.C2 * ci.T * (1.0 + _l1_mul(lambda1, 1.0 + 1.0 / a, c.C1, lambda1)))
    return math.sqrt(c.K_tilde * ((1.0 + growth) * expo + _div(1.0, a * ci.nu)))


def _lambda3_sq(ci: CertificateInputs, lambda1: float, reading: str) -> float:
    a, c = ci.alpha, ci.constants
    A = _div(c.C3 * ci.T * c.C1 * lambda1 * (1.0 + a), _sq(a))
    B = c.C3 * ci.T * (1.0 + _l1_mul(lambda1, c.C1, lambda1, 1.0 + 1.0 / a))
    eA, eB = _exp(A), _exp(B)
    paren = 1.0 + _l1_mul(lambda1, 2.0 / a, c.C3, ci.T, c.C1, lambda1, 1.0 + 1.0 / a, eA)
    if reading == "printed":
        # grouping exactly as displayed: one product of all four factors
        return _mul(c.K_tilde, _div(1.0, a * ci.nu), eA, paren, eB)
    if reading == "derived":
        # grouping the derivation supports: dissipative term added, not multiplied
        return c.K_tilde * (paren * eB + _mul(_div(1.0, a * ci.nu), eA))
    raise ValueError(f"unknown lambda3 reading {reading!r}")


def compute_lambda3(ci: CertificateInputs, lambda1: float, reading: str = "printed") -> float:
    """Transposed-linearization bound; see lambda3_discrepancy for the two readings."""
    return math.sqrt(_lambda3_sq(ci, lambda1, reading))


def compute_lambda4(ci: CertificateInputs, lambda1: float) -> float:
    """Adjoint bound: 2*Kt[(1 + C4*T*C1*l1*(1+1/a)/a e^{A}) e^{B} + e^{E}/(a*nu)]
    times (C1^2*l1^2/a^2 + |y_d|^2)."""
    if lambda1 == 0.0 and ci.norm_yd_L2Q == 0.0:
        return 0.0  # no data: the adjoint is exactly 0, whatever the bracket
    a, c = ci.alpha, ci.constants
    A = _div(c.C4 * ci.T * c.C1 * lambda1 * (1.0 + a), _sq(a))
    B = c.C4 * ci.T * (1.0 + _l1_mul(lambda1, c.C1, lambda1, 1.0 + 1.0 / a))
    E = _l1_mul(lambda1, c.C4, ci.T, c.C1, lambda1, _sq(1.0 + a)) / a
    bracket = (
        1.0 + _l1_mul(lambda1, 1.0 / a, c.C4, ci.T, c.C1, lambda1, 1.0 + 1.0 / a, _exp(A))
    ) * _exp(B) + _mul(_div(1.0, a * ci.nu), _exp(E))
    data = _div(_sq(c.C1) * _sq(lambda1), _sq(a)) + _sq(ci.norm_yd_L2Q)
    return math.sqrt(_mul(2.0 * c.K_tilde, bracket, data))


def _rel_discrepancy(l3p: float, l3d: float) -> float:
    """|l3p - l3d| / max(l3p, l3d) of the two lambda3 readings."""
    big = max(l3p, l3d)
    if l3p == l3d:  # both zero, or both overflowed to inf
        return 0.0
    if big == math.inf:  # the limit as one reading grows alone
        return 1.0
    return abs(l3p - l3d) / big


# how from_text reads each field type back; the fields themselves, in their
# declared order, are the text schema
_TEXT_TYPES = {"float": float, "bool": fieldio.bool_value, "str": str}


def _derived(what: str):
    """A report field worked out from the others; what names its sources."""
    return field(init=False, metadata={"from": what})


@dataclass(frozen=True)
class CertificateReport:
    """The bounds, thresholds and verdicts of one certify call.

    lambda3, its discrepancy, both verdicts and illustrative are worked out
    from the other fields, so a built report cannot contradict itself;
    from_text refuses a file whose line for one of them disagrees."""

    lambda1: float
    lambda2: float
    lambda3: float = _derived("its selected reading")
    lambda3_printed: float
    lambda3_derived: float
    lambda3_rel_discrepancy: float = _derived("the two readings")
    lambda4: float
    lam: float
    coercivity_threshold: float
    uniqueness_threshold: float
    verdict_second_order: bool = _derived("lam and the coercivity threshold")
    verdict_uniqueness: bool = _derived("lam and the uniqueness threshold")
    illustrative: bool = _derived("the constants' sources")
    lambda3_reading: str
    u_norm_source: str
    constants_source: dict = field(default_factory=dict)

    def __post_init__(self):
        # inf is a legitimate overflow of the bounds; NaN would make both
        # verdicts read false as if consistent
        for f in fields(self):
            if f.init and f.type == "float" and math.isnan(getattr(self, f.name)):
                raise ValueError(f"{f.name} must not be NaN")
        if self.coercivity_threshold < 0 or self.uniqueness_threshold < 0:
            raise ValueError("thresholds must be nonnegative")
        _check_one_of(self.lambda3_reading, _READINGS, "lambda3_reading")
        _check_one_of(self.u_norm_source, _U_NORM_SOURCES, "u_norm_source")
        # a constant without a source line reads as a unit default
        object.__setattr__(self, "constants_source", _full_source(self.constants_source))
        l3p, l3d = self.lambda3_printed, self.lambda3_derived
        for name, value in (
            ("lambda3", l3p if self.lambda3_reading == "printed" else l3d),
            ("lambda3_rel_discrepancy", _rel_discrepancy(l3p, l3d)),
            ("verdict_second_order", self.lam > self.coercivity_threshold),
            ("verdict_uniqueness", self.lam > self.uniqueness_threshold),
            ("illustrative", _reads_default(self.constants_source)),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _text_fields(cls) -> dict:
        """name: reader of every field written as its own line, in written order."""
        return {f.name: _TEXT_TYPES[f.type] for f in fields(cls) if f.type in _TEXT_TYPES}

    def _pairs(self) -> list:
        """(name, value) of every written field, in the order of both artifacts."""
        return [(n, getattr(self, n)) for n in self._text_fields()] + [
            (f"source_{c}", self.constants_source[c]) for c in sorted(self.constants_source)
        ]

    def to_text(self) -> str:
        return fieldio.pairs_text("# optimality certificate", self._pairs())

    @classmethod
    def from_text(cls, text: str) -> "CertificateReport":
        readers = cls._text_fields()
        kw: dict = {"constants_source": {}}
        for where, _, key, val in fieldio.read_pairs(text.splitlines(), "certificate"):
            if key in readers:
                kw[key] = fieldio.typed_value(where, key, val, readers[key])
            elif key.startswith("source_"):
                kw["constants_source"][key[len("source_"):]] = val
            else:
                raise ValueError(f"{where}: unknown key {key!r}")
        missing = [n for n in readers if n not in kw]
        if missing:
            raise ValueError(f"certificate: missing fields {', '.join(missing)}")
        derived = {f.name: f.metadata["from"] for f in fields(cls) if not f.init}
        read = {name: kw.pop(name) for name in derived}
        rep = cls(**kw)
        for name, what in derived.items():
            if read[name] != getattr(rep, name):
                raise ValueError(f"certificate: {name} inconsistent with {what}")
        return rep

    def write_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    def write_csv(self, path) -> None:
        names, values = zip(*self._pairs())
        fieldio.write_rows(path, names, [values])


def certify(ci: CertificateInputs, lambda3_reading: str = "printed") -> CertificateReport:
    """Evaluate all four constants, both thresholds, and both verdicts.

    The lambda3 display admits two parenthesizations; both are always
    evaluated and their relative discrepancy reported, with the selected
    reading feeding the thresholds; the report refuses an unknown reading.
    """
    l1 = compute_lambda1(ci)
    l2 = compute_lambda2(ci, l1)
    l3p = compute_lambda3(ci, l1, "printed")
    l3d = compute_lambda3(ci, l1, "derived")
    l3 = l3p if lambda3_reading == "printed" else l3d
    l4 = compute_lambda4(ci, l1)
    k_hat = ci.constants.K_hat
    # with no data at all lambda4 is exactly 0, and so are the thresholds
    no_data = l1 == 0.0 and ci.norm_yd_L2Q == 0.0
    coer = 0.0 if no_data else _mul(2.0 * k_hat, _sq(l3), l4)
    uniq = 0.0 if no_data else _mul(2.0 * k_hat, _sq(l2), l4)
    return CertificateReport(
        lambda1=l1,
        lambda2=l2,
        lambda3_printed=l3p,
        lambda3_derived=l3d,
        lambda3_reading=lambda3_reading,
        lambda4=l4,
        lam=ci.lam,
        coercivity_threshold=coer,
        uniqueness_threshold=uniq,
        u_norm_source=ci.u_norm_source,
        constants_source=dict(ci.constants.source),
    )


def check_state_bound(base: StateSolution, ci: CertificateInputs):
    """max_t |y(t)|_{H3}^2 against the a priori bound C1^2 lambda1^2 / alpha^2.

    Advisory when any constant is a unit default; an honest check only with
    supplied or estimated constants.
    """
    lambda1 = compute_lambda1(ci)
    lhs = _sq(float(np.max(base.norms_h3)))
    rhs = _sq(ci.constants.C1 * lambda1 / ci.alpha)
    return _checked(lhs, rhs)


def check_adjoint_bound(adj: AdjointState, ci: CertificateInputs):
    """max_t |p(t)|_{H2}^2 against lambda4^2.  Advisory with default constants."""
    lambda4 = compute_lambda4(ci, compute_lambda1(ci))
    lhs = float(np.max(stack_hk_sq(adj.p, adj.pd.grid.h, 2)[2]))
    rhs = _sq(lambda4)
    return _checked(lhs, rhs)


def _check_problem_lam(lam: float, pd: ProblemData) -> None:
    """Refuse a lam other than pd.lam. The Hessian forms weigh w by pd.lam;
    their lam argument stays only because existing callers pass pd.lam."""
    if lam != pd.lam:
        raise ValueError(f"lam = {lam!r} is not the problem's lambda {pd.lam!r}")


def _hessian_form(
    base: StateSolution,
    w1: Trajectory,
    t1: TangentState,
    w2: Trajectory,
    t2: TangentState,
    pd: ProblemData,
) -> float:
    """J''(u)[w1,w2] from the tangents t1, t2 of w1, w2 and the tracking adjoint r:

        <z1,z2>_rho + lam <w1,w2>_tau
            - dt sum_k (<r_{k+1}, J(dq1_k, dpsi2_k)> + <r_{k+1}, J(dq2_k, dpsi1_k)>),

    the second derivative of the discrete objective itself: the adjoint
    pairs the tracking misfit with the second-order tangent's source.
    """
    adj = solve_adjoint(base, None, pd)
    m, dt, h = pd.m_steps, pd.dt, pd.grid.h
    j12, j21 = t1.cross_with(t2), t2.cross_with(t1)
    track = l2q_inner_values(t1.z, t2.z, left_weights(m, dt), h)
    reg = l2q_inner_values(w1.data, w2.data, trap_weights(m, dt), h, pd.lam)
    cross = 0.0
    for k in range(m):
        r = adj.r[k + 1]
        cross += float(np.vdot(r, j12[k])) + float(np.vdot(r, j21[k]))
    return track + reg - dt * cross


def hessian_quadratic_form(
    base: StateSolution, w: Trajectory, pd: ProblemData, lam: float
) -> float:
    """J''(u)[w,w] for the discrete tracking objective.

    Differentiates the discrete objective itself, so it agrees with second
    differences of the cost to O(eps^2), polarizes exactly, and equals
    hessian_bilinear_form(base, w, w, pd, lam) bit for bit. The weight is
    pd.lam; lam must repeat it (see _check_problem_lam).
    """
    _check_problem_lam(lam, pd)
    t = solve_linearized(base, w, pd)
    return _hessian_form(base, w, t, w, t, pd)


def hessian_bilinear_form(
    base: StateSolution, w1: Trajectory, w2: Trajectory, pd: ProblemData, lam: float
) -> float:
    """Mixed second derivative J''(u)[w1,w2] of the discrete tracking objective.

    Symmetric in (w1, w2) bit for bit, and Q(w1+w2) - Q(w1) - Q(w2) equals
    twice this value for the quadratic form Q. The weight is pd.lam; lam
    must repeat it.
    """
    _check_problem_lam(lam, pd)
    t1 = solve_linearized(base, w1, pd)
    t2 = solve_linearized(base, w2, pd)
    return _hessian_form(base, w1, t1, w2, t2, pd)
