"""Risk-bound calculators: concentration tails, VC bounds (additive and
relative), the regression reduction, Rademacher-based bounds, closed-form
class complexities, chaining, and the mixing-coefficient reference bound.

All logarithms are natural and everything is evaluated in double
precision.  Each calculator returns a RiskBoundReport whose value is the
exact sum of its decomposed terms; the concentration term is the value
the non-empirical part would take for a capacity of one (log capacity 0),
and the complexity term is the capacity increment on top of it.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special

# Largest accepted scale (noise level, radius, clip level): products of four
# scales, summed over any path numpy can hold, stay finite in double precision.
_SCALE_MAX = 1e50
# Largest accepted loss range, and Rademacher term of a loss class: the range
# of the squared loss clipped at the largest scale.
_RANGE_MAX = 4.0 * _SCALE_MAX ** 2


def _check(name, value, lo=-math.inf, hi=math.inf, *, lo_open=False,
           hi_open=False, integer=False):
    """Raise a ValueError that starts with ``name`` unless lo <= value <= hi,
    strictly at an open end.  NaN lies in no interval, so an open infinite
    end rejects that infinity and NaN alike; ``None`` is reported as
    missing.  ``integer`` also requires an int or a numpy integer that a
    float can hold, so that no float (1e308, say) ever sizes an array and
    no calculator overflows converting one."""
    if value is None:
        raise ValueError(f"{name} is missing")
    try:
        if integer:
            float(operator.index(value))
        if ((lo < value) if lo_open else (lo <= value)) and \
                ((value < hi) if hi_open else (value <= hi)):
            return
    except (TypeError, OverflowError):
        pass
    interval = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    kind = "an integer " if integer else ""
    raise ValueError(f"{name} must be {kind}in {interval}, got {value}")


def _check_entries(name, values):
    """_check on the largest magnitude of an array: an entry that is NaN or
    beyond +-_SCALE_MAX fails, and an empty or 0-d array is missing."""
    a = np.asarray(values, dtype=float)
    _check(name, float(np.max(np.abs(a))) if a.ndim and a.size else None,
           -_SCALE_MAX, _SCALE_MAX)


@dataclass(frozen=True)
class RiskBoundReport:
    bound_value: float
    empirical_risk_term: float
    complexity_term: float
    concentration_term: float
    delta: float
    theorem_tag: str
    n: int

    def __post_init__(self):
        terms = (self.empirical_risk_term, self.complexity_term,
                 self.concentration_term)
        for name, t in zip(("empirical_risk_term", "complexity_term",
                            "concentration_term"), terms):
            _check(name, t, 0, hi_open=True)
        if abs(self.bound_value - sum(terms)) > 1e-9 * max(1.0, self.bound_value):
            raise ValueError("bound value must equal the sum of its terms")

    def to_dict(self):
        return {
            "bound_value": self.bound_value,
            "empirical_risk_term": self.empirical_risk_term,
            "complexity_term": self.complexity_term,
            "concentration_term": self.concentration_term,
            "delta": self.delta,
            "theorem_tag": self.theorem_tag,
            "n": self.n,
        }


def _report(emp, complexity, concentration, delta, tag, n):
    return RiskBoundReport(
        bound_value=emp + complexity + concentration,
        empirical_risk_term=emp, complexity_term=complexity,
        concentration_term=concentration, delta=delta, theorem_tag=tag, n=n,
    )


# ---------------------------------------------------------------------------
# Concentration tails and exact binomial oracles

def concentration_tail(kind: str, c_or_ranges, epsilon: float, n: int = None) -> float:
    """Upper tail probability bound.

    hoeffding: exp(-2 n^2 eps^2 / sum (b_i - a_i)^2) for independent
    variables with ranges ``c_or_ranges`` (widths b_i - a_i).
    bounded_difference: exp(-2 eps^2 / sum c_i^2) for a function of a
    dependent sequence with coordinate-wise sensitivities c_i.

    A scalar ``c_or_ranges`` stands for n equal entries.
    """
    _check("epsilon", epsilon, 0)
    if np.isscalar(c_or_ranges):
        _check("n", n, 1, integer=True)
        c = float(c_or_ranges)
        # c * c is inf where c ** 2 would raise
        size, ssq, positive = n, n * (c * c), c > 0
    else:
        cs = np.asarray(c_or_ranges, dtype=float)
        if cs.size < 1:
            raise ValueError("c_or_ranges must be non-empty")
        if n is not None and cs.size != n:
            raise ValueError("len(c_or_ranges) must equal n")
        size, ssq, positive = cs.size, float(np.sum(cs ** 2)), np.all(cs > 0)
    if not positive:
        raise ValueError("c_or_ranges must be positive (ranges/sensitivities)")
    if kind == "hoeffding":
        return min(1.0, math.exp(-2.0 * size ** 2 * epsilon ** 2 / ssq))
    if kind == "bounded_difference":
        return min(1.0, math.exp(-2.0 * epsilon ** 2 / ssq))
    raise ValueError(f"unknown concentration kind {kind!r}")


def _binomial_tail(n, p, epsilon, strict):
    """exact_binomial_mean_tail on broadcast arrays, unchecked: n an
    integer array, p in [0, 1], epsilon not NaN."""
    # |S/n - p| <= 1, so clamping changes no tail and keeps the cut finite
    cut = n * (p + np.clip(epsilon, -1.0, 1.0))
    r = np.round(cut)
    cut = np.where(np.abs(cut - r) < 1e-9, r, cut)
    k0 = np.where(strict, np.floor(cut) + 1, np.ceil(cut))
    return np.where(k0 > n, 0.0, special.bdtrc(k0 - 1, n, p))


def exact_binomial_mean_tail(n: int, p: float, epsilon: float,
                             strict: bool = True) -> float:
    """P(S/n - p > eps) (or >= eps) for S ~ Bin(n, p).

    The tail P(S >= k0) is the regularized incomplete beta function
    I_p(k0, n - k0 + 1), evaluated by ``scipy.special.bdtrc`` with no
    overflow: accurate to a few ulps relative for small n, but its error
    grows with n (2e-10 relative at n = 10^5, p = 1/2), and n >= 2^31
    gives NaN.  A cut n (p + eps) within 1e-9 of an integer is taken as
    that integer.
    """
    _check("n", n, 1, integer=True)
    _check("p", p, 0, 1)
    _check("epsilon", epsilon, lo_open=True, hi_open=True)
    return float(_binomial_tail(n, p, epsilon, strict))


def binomial_quarter_lemma_holds(m: int, p: float) -> bool:
    """Exact check that P(X >= E X) > 1/4 for X ~ Bin(m, p) with p > 1/m."""
    _check("m", m, 1, integer=True)
    _check("p", p, 0, 1, lo_open=True)
    if p <= 1.0 / m:
        raise ValueError(f"hypothesis violated: need p > 1/m = {1.0 / m:g}")
    tail = exact_binomial_mean_tail(m, p, 0.0, strict=False)
    return tail > 0.25


# ---------------------------------------------------------------------------
# VC bounds

def _log_capacity(n, d_vc=None, growth_2n=None):
    if (d_vc is None) == (growth_2n is None):
        raise ValueError("give exactly one of d_vc or growth_2n")
    if growth_2n is not None:
        _check("n", n, 1, integer=True)
        _check("growth_2n", growth_2n, 1, hi_open=True)
        return math.log(growth_2n)
    _check("d_vc", d_vc, 1, integer=True)
    _check("n", n, d_vc, integer=True)
    return d_vc * math.log(2.0 * math.e * n / d_vc)


def vc_bound(emp_risk: float, n: int, delta: float, *, d_vc: int = None,
             growth_2n: float = None) -> RiskBoundReport:
    """Additive VC risk bound: emp + 2 sqrt(2 (log cap + log(2/delta)) / n).

    Valid for dependent training sequences; capacity enters either as the
    VC dimension (Sauer form d log(2en/d)) or as an explicit growth value
    at 2n.
    """
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    cap = _log_capacity(n, d_vc, growth_2n)
    joint = 2.0 * math.sqrt(2.0 * (cap + math.log(2.0 / delta)) / n)
    conc = 2.0 * math.sqrt(2.0 * math.log(2.0 / delta) / n)
    return _report(emp_risk, joint - conc, conc, delta, "vc-basic-dependent", n)


def vc_relative_bound(emp_risk: float, n: int, delta: float, *,
                      d_vc: int = None, growth_2n: float = None,
                      stationary: bool) -> RiskBoundReport:
    """Relative-deviation VC bound emp + 2 sqrt(emp c) + 4c with
    c = (log cap + log(4/delta)) / n.

    Requires the caller to assert stationarity of the training sequence;
    the fast O(1/n) rate at zero empirical risk is only proved under it.
    """
    if not stationary:
        raise ValueError(
            "the relative-deviation bound assumes a stationary sequence; "
            "pass stationary=True only when that holds"
        )
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    cap = _log_capacity(n, d_vc, growth_2n)
    c = (cap + math.log(4.0 / delta)) / n
    c0 = math.log(4.0 / delta) / n
    joint = 2.0 * math.sqrt(emp_risk * c) + 4.0 * c
    conc = 2.0 * math.sqrt(emp_risk * c0) + 4.0 * c0
    return _report(emp_risk, joint - conc, conc, delta, "vc-relative-dependent", n)


def linear_system_induced_vc_dim(d: int) -> int:
    """VC dimension cap of the level sets of squared residuals of linear
    models in d variables: d^2 + d + 2."""
    _check("d", d, 1, integer=True)
    return d * d + d + 2


def regression_vc_bound(emp_risk: float, n: int, d_vc_induced: int,
                        delta: float, b: float) -> RiskBoundReport:
    """Bounded-regression bound emp + 2B sqrt(2 (d log(2en/d) + log(2/delta)) / n)
    using the VC dimension of the induced level-set classifiers."""
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("b", b, 0, _RANGE_MAX, lo_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    cap = _log_capacity(n, d_vc_induced, None)
    joint = 2.0 * b * math.sqrt(2.0 * (cap + math.log(2.0 / delta)) / n)
    conc = 2.0 * b * math.sqrt(2.0 * math.log(2.0 / delta) / n)
    return _report(emp_risk, joint - conc, conc, delta,
                   "vc-regression-reduction", n)


# ---------------------------------------------------------------------------
# Rademacher-based bounds

RAD_VARIANTS = ("two_sided", "worstcase", "marginal")

# the parameters each class_rad_upper family cannot do without
_FAMILY_NEEDS = {"linear": ("m_clip", "radius"),
                 "kernel_gaussian": ("m_clip", "radius"),
                 "margin_linear": ("radius", "gamma"),
                 "vq": ("n_codepoints", "radius", "sum_sq_norm")}


def rademacher_risk_bound(variant: str, emp_risk: float, rad_terms, b: float,
                          n: int, delta: float) -> RiskBoundReport:
    """Rademacher risk bound.

    two_sided: emp + R + R' + B sqrt(log(1/delta) / 2n) with the training
    and ghost complexities given separately; worstcase: emp + 2 sup Rhat +
    ...; marginal: emp + 2 Rbar + ... with a marginal-distribution upper
    bound valid for both samples.
    """
    if variant not in RAD_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _check("delta", delta, 0, 1, lo_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    _check("b", b, 0, _RANGE_MAX, lo_open=True)
    _check("n", n, 1, integer=True)
    terms = np.atleast_1d(np.asarray(rad_terms, dtype=float))
    for t in terms:
        _check("rad_terms", t, 0, _RANGE_MAX)
    if variant == "two_sided":
        if terms.size != 2:
            raise ValueError("two_sided needs (R, R') for training and ghost")
        complexity = float(terms[0] + terms[1])
    else:
        if terms.size != 1:
            raise ValueError(f"{variant} needs a single Rademacher term")
        complexity = 2.0 * float(terms[0])
    conc = b * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    return _report(emp_risk, complexity, conc, delta,
                   f"rademacher-{variant.replace('_', '-')}", n)


def class_rad_upper(family: str, n: int, *, m_clip: float = None,
                    radius: float = None, gamma: float = None,
                    n_codepoints: int = None, sum_sq_norm: float = None,
                    sup_norm: float = None, sum_kernel_diag: float = None) -> float:
    """Closed-form Rademacher upper bounds for standard families.

    linear / kernel_gaussian take the clip level M and ball radius;
    margin_linear takes radius and margin; vq takes the codepoint count
    and radius.  Moment input is the sum of expected squared norms, a
    sup-norm, or the summed kernel diagonal (worst case 1 per point for
    the Gaussian kernel).
    """
    if family not in _FAMILY_NEEDS:
        raise ValueError(f"unknown family {family!r}")
    _check("n", n, 1, integer=True)
    need = _FAMILY_NEEDS[family]
    for name, v, hi in (("m_clip", m_clip, _SCALE_MAX), ("radius", radius, _SCALE_MAX),
                        ("n_codepoints", n_codepoints, math.inf),
                        ("sum_sq_norm", sum_sq_norm, math.inf),
                        ("sup_norm", sup_norm, math.inf),
                        ("sum_kernel_diag", sum_kernel_diag, math.inf)):
        if v is not None or name in need:
            _check(name, v, 0, hi, hi_open=hi == math.inf)
    if gamma is not None or "gamma" in need:
        _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
    if family == "linear":
        if sum_sq_norm is not None:
            return 4.0 * m_clip * radius * math.sqrt(sum_sq_norm) / n
        if sup_norm is not None:
            return 4.0 * m_clip * radius * sup_norm / math.sqrt(n)
        raise ValueError("linear family needs sum_sq_norm or sup_norm")
    if family == "kernel_gaussian":
        diag = float(n) if sum_kernel_diag is None else sum_kernel_diag
        return 4.0 * m_clip * radius * math.sqrt(diag) / n
    if family == "margin_linear":
        if sum_sq_norm is not None:
            return radius * math.sqrt(sum_sq_norm) / (gamma * n)
        if sup_norm is not None:
            return radius * sup_norm / (gamma * math.sqrt(n))
        raise ValueError("margin_linear family needs sum_sq_norm or sup_norm")
    c, lam = n_codepoints, radius       # vq, the one family left
    return 2.0 * c * lam * math.sqrt(sum_sq_norm) / n + c * lam * lam / math.sqrt(n)


# ---------------------------------------------------------------------------
# Chaining

def chaining_rad_upper(diameter: float, depth: int, log_covering, n: int,
                       lipschitz: float = 1.0) -> float:
    """Multi-scale (dyadic) covering-number bound on the Rademacher
    complexity: L * (D/2^N + 6 D sum_j 2^-j sqrt(log N(D 2^-j) / n))."""
    _check("diameter", diameter, 0, hi_open=True)
    _check("depth", depth, 1, integer=True)
    _check("n", n, 1, integer=True)
    _check("lipschitz", lipschitz, 0, hi_open=True)
    if diameter == 0.0:
        return 0.0
    total = diameter / 2.0 ** depth
    for j in range(1, depth + 1):
        lognj = float(log_covering(diameter * 2.0 ** -j))
        _check("log_covering", lognj, 0)
        total += 6.0 * diameter * 2.0 ** -j * math.sqrt(lognj / n)
    return lipschitz * total


def chaining_rad_upper_best(diameter: float, log_covering, n: int,
                            lipschitz: float = 1.0, max_depth: int = 40):
    """Minimize the chaining bound over the depth N in [1, max_depth].

    Returns (value, depth); sound because the bound holds at every depth.
    """
    _check("max_depth", max_depth, 1, integer=True)
    log_covering = functools.cache(log_covering)    # each scale once
    best_val, best_depth = math.inf, 1
    for depth in range(1, max_depth + 1):
        val = chaining_rad_upper(diameter, depth, log_covering, n, lipschitz)
        if val < best_val:
            best_val, best_depth = val, depth
    return best_val, best_depth


def spectral_log_covering(coefficient: float, sum_sq_norm: float):
    """Log covering numbers of the spectrally-regularized network form
    A * sum ||x_i||^2 / eps^2, as a function of the scale."""
    _check("coefficient", coefficient, 0, hi_open=True)
    _check("sum_sq_norm", sum_sq_norm, 0, hi_open=True)

    def log_cov(eps):
        return coefficient * sum_sq_norm / eps ** 2

    return log_cov


# ---------------------------------------------------------------------------
# Mixing-coefficient reference bound

def mixing_reference_bound(emp_risk: float, rad_mu: float, b: float, mu: int,
                           a: int, beta_a: float, delta: float):
    """Reference bound with effective sample size mu = n/2a and mixing
    coefficient beta(a): emp + 2 Rbar_mu + B sqrt(log(1/(delta - 4(mu-1)beta)) / 2mu).

    Returns None (inapplicable) when delta <= 4 (mu-1) beta(a); the bound
    only exists for confidence levels above that floor.
    """
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    _check("rad_mu", rad_mu, 0, _RANGE_MAX)
    _check("b", b, 0, _RANGE_MAX, lo_open=True)
    _check("mu", mu, 1, integer=True)
    _check("a", a, 1, integer=True)
    _check("beta_a", beta_a, 0, 1)
    slack = delta - 4.0 * (mu - 1) * beta_a
    if slack <= 0:
        return None
    conc = b * math.sqrt(math.log(1.0 / slack) / (2.0 * mu))
    return _report(emp_risk, 2.0 * rad_mu, conc, delta,
                   f"mixing-reference[a={a}]", mu)
