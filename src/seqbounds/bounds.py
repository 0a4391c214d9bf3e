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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


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
        if any(t < 0 for t in terms):
            raise ValueError("bound terms must be nonnegative")
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

    A scalar ``c_or_ranges`` is replicated n times.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if np.isscalar(c_or_ranges):
        if n is None or n < 1:
            raise ValueError(f"n must be >= 1 for scalar ranges, got {n}")
        cs = np.full(int(n), float(c_or_ranges))
    else:
        cs = np.asarray(c_or_ranges, dtype=float)
        if cs.size < 1:
            raise ValueError("c_or_ranges must be non-empty")
        if n is not None and cs.size != n:
            raise ValueError("len(c_or_ranges) must equal n")
    if not np.all(cs > 0):
        raise ValueError("c_or_ranges must be positive (ranges/sensitivities)")
    ssq = float(np.sum(cs ** 2))
    if kind == "hoeffding":
        return min(1.0, math.exp(-2.0 * cs.size ** 2 * epsilon ** 2 / ssq))
    if kind == "bounded_difference":
        return min(1.0, math.exp(-2.0 * epsilon ** 2 / ssq))
    raise ValueError(f"unknown concentration kind {kind!r}")


def exact_binomial_mean_tail(n: int, p: float, epsilon: float,
                             strict: bool = True) -> float:
    """P(S/n - p > eps) (or >= eps) for S ~ Bin(n, p), by exact summation.

    Once C(n, k) no longer converts to float (n above about 1,030), each
    term is formed in log space instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    cut = n * (p + epsilon)
    r = round(cut)
    if abs(cut - r) < 1e-9:
        cut = r
    k0 = (math.floor(cut) + 1) if strict else math.ceil(cut)
    if k0 > n:
        return 0.0
    k0 = max(k0, 0)
    q = 1.0 - p
    try:
        return float(sum(math.comb(n, k) * p ** k * q ** (n - k)
                         for k in range(k0, n + 1)))
    except OverflowError:
        ks = np.arange(k0, n + 1)
        log_terms = (special.gammaln(n + 1) - special.gammaln(ks + 1)
                     - special.gammaln(n - ks + 1)
                     + special.xlogy(ks, p) + special.xlog1py(n - ks, -p))
        return float(np.sum(np.exp(log_terms)))


def binomial_quarter_lemma_holds(m: int, p: float) -> bool:
    """Exact check that P(X >= E X) > 1/4 for X ~ Bin(m, p) with p > 1/m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
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
        if growth_2n < 1:
            raise ValueError("growth value must be >= 1")
        return math.log(growth_2n)
    if d_vc < 1:
        raise ValueError("d_vc must be >= 1")
    if n < d_vc:
        raise ValueError(f"need n >= d_vc (got n={n}, d_vc={d_vc})")
    return d_vc * math.log(2.0 * math.e * n / d_vc)


def _check_delta(delta, *, allow_one=False):
    hi_ok = delta <= 1 if allow_one else delta < 1
    if not (0 < delta and hi_ok):
        raise ValueError(f"delta must lie in (0, 1{']' if allow_one else ')'}), got {delta}")


def _check_emp_risk(emp_risk):
    if not (math.isfinite(emp_risk) and emp_risk >= 0):
        raise ValueError(f"emp_risk must be finite and >= 0, got {emp_risk}")


def vc_bound(emp_risk: float, n: int, delta: float, *, d_vc: int = None,
             growth_2n: float = None) -> RiskBoundReport:
    """Additive VC risk bound: emp + 2 sqrt(2 (log cap + log(2/delta)) / n).

    Valid for dependent training sequences; capacity enters either as the
    VC dimension (Sauer form d log(2en/d)) or as an explicit growth value
    at 2n.
    """
    _check_delta(delta)
    _check_emp_risk(emp_risk)
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
    _check_delta(delta)
    _check_emp_risk(emp_risk)
    cap = _log_capacity(n, d_vc, growth_2n)
    c = (cap + math.log(4.0 / delta)) / n
    c0 = math.log(4.0 / delta) / n
    joint = 2.0 * math.sqrt(emp_risk * c) + 4.0 * c
    conc = 2.0 * math.sqrt(emp_risk * c0) + 4.0 * c0
    return _report(emp_risk, joint - conc, conc, delta, "vc-relative-dependent", n)


def linear_system_induced_vc_dim(d: int) -> int:
    """VC dimension cap of the level sets of squared residuals of linear
    models in d variables: d^2 + d + 2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return d * d + d + 2


def regression_vc_bound(emp_risk: float, n: int, d_vc_induced: int,
                        delta: float, b: float) -> RiskBoundReport:
    """Bounded-regression bound emp + 2B sqrt(2 (d log(2en/d) + log(2/delta)) / n)
    using the VC dimension of the induced level-set classifiers."""
    _check_delta(delta)
    if b <= 0:
        raise ValueError("loss range B must be > 0")
    _check_emp_risk(emp_risk)
    cap = _log_capacity(n, d_vc_induced, None)
    joint = 2.0 * b * math.sqrt(2.0 * (cap + math.log(2.0 / delta)) / n)
    conc = 2.0 * b * math.sqrt(2.0 * math.log(2.0 / delta) / n)
    return _report(emp_risk, joint - conc, conc, delta,
                   "vc-regression-reduction", n)


# ---------------------------------------------------------------------------
# Rademacher-based bounds

RAD_VARIANTS = ("two_sided", "worstcase", "marginal")


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
    _check_delta(delta, allow_one=True)
    _check_emp_risk(emp_risk)
    terms = np.atleast_1d(np.asarray(rad_terms, dtype=float))
    if np.any(terms < 0):
        raise ValueError("Rademacher terms must be >= 0")
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
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, v in (("m_clip", m_clip), ("radius", radius),
                    ("n_codepoints", n_codepoints), ("sum_sq_norm", sum_sq_norm),
                    ("sup_norm", sup_norm), ("sum_kernel_diag", sum_kernel_diag)):
        if v is not None and not v >= 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    if gamma is not None and not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if family == "linear":
        _need(m_clip=m_clip, radius=radius)
        if sum_sq_norm is not None:
            return 4.0 * m_clip * radius * math.sqrt(sum_sq_norm) / n
        if sup_norm is not None:
            return 4.0 * m_clip * radius * sup_norm / math.sqrt(n)
        raise ValueError("linear family needs sum_sq_norm or sup_norm")
    if family == "kernel_gaussian":
        _need(m_clip=m_clip, radius=radius)
        diag = float(n) if sum_kernel_diag is None else sum_kernel_diag
        return 4.0 * m_clip * radius * math.sqrt(diag) / n
    if family == "margin_linear":
        _need(radius=radius, gamma=gamma)
        if sum_sq_norm is not None:
            return radius * math.sqrt(sum_sq_norm) / (gamma * n)
        if sup_norm is not None:
            return radius * sup_norm / (gamma * math.sqrt(n))
        raise ValueError("margin_linear family needs sum_sq_norm or sup_norm")
    if family == "vq":
        _need(n_codepoints=n_codepoints, radius=radius, sum_sq_norm=sum_sq_norm)
        c, lam = n_codepoints, radius
        return 2.0 * c * lam * math.sqrt(sum_sq_norm) / n + c * lam * lam / math.sqrt(n)
    raise ValueError(f"unknown family {family!r}")


def _need(**kwargs):
    missing = [k for k, v in kwargs.items() if v is None]
    if missing:
        raise ValueError(f"missing family parameters: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Chaining

def chaining_rad_upper(diameter: float, depth: int, log_covering, n: int,
                       lipschitz: float = 1.0) -> float:
    """Multi-scale (dyadic) covering-number bound on the Rademacher
    complexity: L * (D/2^N + 6 D sum_j 2^-j sqrt(log N(D 2^-j) / n))."""
    if not (math.isfinite(diameter) and diameter >= 0):
        raise ValueError(f"diameter must be finite and >= 0, got {diameter}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(lipschitz) and lipschitz >= 0):
        raise ValueError(f"lipschitz must be finite and >= 0, got {lipschitz}")
    if diameter == 0.0:
        return 0.0
    total = diameter / 2.0 ** depth
    for j in range(1, depth + 1):
        lognj = float(log_covering(diameter * 2.0 ** -j))
        if not lognj >= 0:
            raise ValueError(f"log_covering values must be >= 0, got {lognj}")
        total += 6.0 * diameter * 2.0 ** -j * math.sqrt(lognj / n)
    return lipschitz * total


def chaining_rad_upper_best(diameter: float, log_covering, n: int,
                            lipschitz: float = 1.0, max_depth: int = 40):
    """Minimize the chaining bound over the depth N in [1, max_depth].

    Returns (value, depth); sound because the bound holds at every depth.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    best_val, best_depth = math.inf, 1
    for depth in range(1, max_depth + 1):
        val = chaining_rad_upper(diameter, depth, log_covering, n, lipschitz)
        if val < best_val:
            best_val, best_depth = val, depth
    return best_val, best_depth


def spectral_log_covering(coefficient: float, sum_sq_norm: float):
    """Log covering numbers of the spectrally-regularized network form
    A * sum ||x_i||^2 / eps^2, as a function of the scale."""
    for name, v in (("coefficient", coefficient), ("sum_sq_norm", sum_sq_norm)):
        if not v >= 0:
            raise ValueError(f"{name} must be >= 0, got {v}")

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
    _check_delta(delta)
    if rad_mu < 0 or beta_a < 0:
        raise ValueError("rad_mu and beta_a must be >= 0")
    if mu < 1 or a < 1:
        raise ValueError("mu and a must be positive integers")
    _check_emp_risk(emp_risk)
    slack = delta - 4.0 * (mu - 1) * beta_a
    if slack <= 0:
        return None
    conc = b * math.sqrt(math.log(1.0 / slack) / (2.0 * mu))
    return _report(emp_risk, 2.0 * rad_mu, conc, delta,
                   f"mixing-reference[a={a}]", mu)
