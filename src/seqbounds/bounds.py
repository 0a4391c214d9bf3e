"""Risk-bound calculators: concentration tails, VC bounds (additive and
relative), the regression reduction, Rademacher-based bounds, closed-form
class complexities, chaining, and the mixing-coefficient reference bound.

All logarithms are natural and everything is evaluated in double
precision.  Each calculator returns a RiskBoundReport whose value is the
exact sum of its decomposed terms; the concentration term is the value
the non-empirical part would take for a capacity of one (log capacity 0),
and the complexity term is the capacity increment on top of it.  Each
formula has one home: ``_log_over`` is the confidence term log(c/delta)
of every bound and planner, finite for every accepted delta; ``_split``
makes this split for each VC bound; and ``_mcdiarmid`` is the
bounded-difference deviation B sqrt(log(1/delta) / 2n).

``scipy.special`` is imported on first use: the module attribute
``special`` (which a caller may replace) loads it the first time a binomial
tail or a normal cdf is evaluated, here or in ``estimators`` and
``experiments``.  Importing this module and the VC, Rademacher, mixing
and chaining bounds load numpy alone.
"""
from __future__ import annotations

import functools
import inspect
import math
import operator
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

# Largest accepted scale (noise level, radius, clip level): products of four
# scales, summed over any path numpy can hold, stay finite in double precision.
_SCALE_MAX = 1e50
# Smallest accepted noise level, margin and clip level: 1 / _SCALE_MAX.
_SCALE_MIN = 1e-50
# Largest accepted loss range, and Rademacher term of a loss class: the range
# of the squared loss clipped at the largest scale.
_RANGE_MAX = 4.0 * _SCALE_MAX ** 2
# JSON's true and false, which float() and operator.index() read as numbers
_BOOL_TYPES = frozenset((bool, np.bool_))


def _check(name, value, lo=-math.inf, hi=math.inf, *, lo_open=False,
           hi_open=False, integer=False):
    """Raise a ValueError that starts with ``name`` unless lo <= value <= hi,
    strictly at an open end.  NaN lies in no interval, so an open infinite
    end rejects that infinity and NaN alike; ``None`` is reported as
    missing.  ``integer`` also requires an int or a numpy integer that a
    float can hold, so that no float (1e308, say) ever sizes an array and
    no calculator overflows converting one.  Any value must be a real
    number that a float can hold, even where an end of the interval is
    infinite, and not a bool, which JSON spells true or false."""
    if value is None:
        raise ValueError(f"{name} is missing")
    try:
        if type(value) in _BOOL_TYPES:     # neither type can be subclassed
            raise TypeError
        float(operator.index(value) if integer else value)
        if ((lo < value) if lo_open else (lo <= value)) and \
                ((value < hi) if hi_open else (value <= hi)):
            return
    except (TypeError, ValueError, OverflowError):
        pass
    interval = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    kind = "an integer " if integer else ""
    raise ValueError(f"{name} must be {kind}in {interval}, got {value}")


def _check_flag(name, value):
    """Raise a ValueError that starts with ``name`` unless ``value`` is a
    bool or an np.bool_ (JSON's true or false): a string such as "false",
    a number or a list is not read as a flag."""
    if type(value) not in _BOOL_TYPES:
        raise ValueError(f"{name} must be true or false, got {value!r}")


@functools.lru_cache(maxsize=None)
def _parameters(build):
    """The parameter names of ``build``, and those without a default (the
    builders are a fixed set of module-level constructors)."""
    params = inspect.signature(build).parameters.values()
    return (frozenset(p.name for p in params),
            tuple(p.name for p in params if p.default is p.empty))


def _from_dict(build, d, what, **convert):
    """``build(**d)`` for the config object ``d``, the value at each key of
    ``convert`` read first as ``convert[key](value, key)`` so that a nested
    object is reported by its key.  A ``d`` that is not an object fails with
    a ValueError that starts with ``what``; a key that is not a parameter of
    ``build``, or a required one that is missing, with one naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    names, required = _parameters(build)
    unknown = d.keys() - names
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    for name in required:
        if name not in d:
            raise ValueError(f"{name} is missing")
    return build(**{k: convert[k](v, k) if k in convert else v
                    for k, v in d.items()})


def _from_kind_dict(builders, d, what):
    """_from_dict with ``builders[d["kind"]]``, which is not passed the kind."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in builders:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return _from_dict(builders[kind],
                      {k: v for k, v in d.items() if k != "kind"}, what)


def _as_floats(name, values):
    """``values`` as a float array; anything but numbers that a float can
    hold (text, a ragged list, an int past 1.8e308) fails with a ValueError
    that starts with ``name``."""
    try:
        a = np.asarray(values)
        if a.dtype.kind in "biuf":
            return a.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be an array of float-range numbers")


def _check_entries(name, values):
    """_check on the largest magnitude of an array: an entry that is NaN or
    beyond +-_SCALE_MAX fails, and an empty or 0-d array is missing."""
    a = _as_floats(name, values)
    _check(name, float(np.abs(a).max()) if a.ndim and a.size else None,
           -_SCALE_MAX, _SCALE_MAX)


def _sized(key, call, *args):
    """``call(*args)``, where the value at ``key`` sizes the arrays: a
    MemoryError, or numpy's ValueError for a shape past its index range,
    is reported as a ValueError that starts with ``key``."""
    try:
        return call(*args)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(
                ("Maximum allowed dimension exceeded", "array is too big")):
            raise
        raise ValueError(f"{key} sizes arrays that numpy cannot make "
                         f"({exc})") from None


def _set_floats(obj):
    """Store each field of the frozen dataclass ``obj`` that is annotated
    ``float`` and set as a float: called once the fields are checked, so
    that a builder never converts a value before its check names it."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if field.type == "float" and value is not None:
            object.__setattr__(obj, field.name, float(value))


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
        return asdict(self)


def _report(emp, complexity, concentration, delta, tag, n):
    return RiskBoundReport(
        bound_value=emp + complexity + concentration,
        empirical_risk_term=emp, complexity_term=complexity,
        concentration_term=concentration, delta=delta, theorem_tag=tag, n=n,
    )


def _log_over(c, delta):
    """log(c / delta), also where c / delta overflows (delta subnormal)."""
    ratio = c / delta
    return math.log(ratio) if ratio < math.inf else math.log(c) - math.log(delta)


def _split(emp, form, cap, conf, delta, tag, n):
    """The report of emp + form(cap + conf) for log capacity ``cap`` and
    confidence term ``conf``: form(conf) is its concentration term, and the
    rest its complexity term."""
    conc = form(conf)
    return _report(emp, form(cap + conf) - conc, conc, delta, tag, n)


def _mcdiarmid(b, delta, n):
    """B sqrt(log(1/delta) / 2n): the deviation of a function of n
    coordinates, each moving it by at most B/n, at confidence 1 - delta."""
    return b * math.sqrt(_log_over(1.0, delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# Concentration tails and exact binomial oracles

def concentration_tail(kind: str, c_or_ranges, epsilon: float, n: int = None) -> float:
    """Upper tail probability bound.

    hoeffding: exp(-2 n^2 eps^2 / sum (b_i - a_i)^2) for independent
    variables with ranges ``c_or_ranges`` (widths b_i - a_i).
    bounded_difference: exp(-2 eps^2 / sum c_i^2) for a function of a
    dependent sequence with coordinate-wise sensitivities c_i.

    A scalar ``c_or_ranges`` stands for n equal entries.  n <= 2^53, eps and
    entries <= _RANGE_MAX, entries >= 1 / _RANGE_MAX: every square is normal.
    """
    _check("epsilon", epsilon, 0, _RANGE_MAX)
    if np.isscalar(c_or_ranges):
        _check("n", n, 1, 2 ** 53, integer=True)
        size = reps = operator.index(n)     # n ** 2 of a numpy int wraps
        cs = _as_floats("c_or_ranges", [c_or_ranges])
    else:
        cs = _as_floats("c_or_ranges", c_or_ranges)
        if cs.size < 1:
            raise ValueError("c_or_ranges must be non-empty")
        if n is not None and cs.size != n:
            raise ValueError("len(c_or_ranges) must equal n")
        size, reps = cs.size, 1
    if not np.all((cs >= 1.0 / _RANGE_MAX) & (cs <= _RANGE_MAX)):
        raise ValueError("c_or_ranges must be positive (ranges/sensitivities)"
                         f" in [{1.0 / _RANGE_MAX}, {_RANGE_MAX}]")
    ssq = reps * float(np.sum(cs ** 2))     # n * (c * c) for a scalar c
    if kind == "hoeffding":
        return _exp_tail(size, epsilon ** 2, ssq)
    if kind == "bounded_difference":
        return _exp_tail(1, epsilon ** 2, ssq)
    raise ValueError(f"unknown concentration kind {kind!r}")


def _exp_tail(size, eps_sq, ssq):
    """min(1, exp(-2 size^2 eps_sq / ssq)), unchecked, on scalars or, cell
    by cell, on broadcast arrays: the exponent is one expression, and
    math.exp (whose bits np.exp does not keep) is taken of each cell."""
    exponent = -2.0 * size ** 2 * eps_sq / ssq
    if np.ndim(exponent) == 0:
        return min(1.0, math.exp(exponent))
    return np.minimum(1.0, [math.exp(v) for v in exponent.ravel().tolist()]
                      ).reshape(exponent.shape)


def _binomial_tail(n, p, epsilon, strict):
    """exact_binomial_mean_tail on broadcast arrays, unchecked: n an
    integer array, p in [0, 1], epsilon not NaN."""
    # |S/n - p| <= 1, so clamping changes no tail and keeps the cut finite
    cut = n * (p + np.clip(epsilon, -1.0, 1.0))
    r = np.round(cut)
    cut = np.where(np.abs(cut - r) < 1e-9, r, cut)
    k0 = np.where(strict, np.floor(cut) + 1, np.ceil(cut))
    # betainc is NaN for a parameter <= 0, which only k0 <= 0 or k0 > n give;
    # it is read from the module attribute, as a caller sees it (see
    # __getattr__)
    betainc = sys.modules[__name__].special.betainc
    tail = betainc(np.maximum(k0, 1), np.maximum(n - k0 + 1, 1), p)
    return np.where(k0 > n, 0.0, np.where(k0 <= 0, 1.0, tail))


def __getattr__(name):
    """``special`` is ``scipy.special``, imported on first access and then
    bound as a module global (PEP 562)."""
    global special
    if name != "special":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special
    return special


def exact_binomial_mean_tail(n: int, p: float, epsilon: float,
                             strict: bool = True) -> float:
    """P(S/n - p > eps) (or >= eps) for S ~ Bin(n, p).

    The tail P(S >= k0) is the regularized incomplete beta function
    I_p(k0, n - k0 + 1), evaluated by ``scipy.special.betainc`` with no
    overflow and no loss of accuracy as n grows: it agrees with
    ``scipy.stats.binom.sf`` for every n up to 2^53, the largest n that
    is accepted (beyond it betainc returns NaN or 0).  A cut n (p + eps)
    within 1e-9 of an integer is taken as that integer.
    """
    _check("n", n, 1, 2 ** 53, integer=True)
    _check("p", p, 0, 1)
    _check("epsilon", epsilon, lo_open=True, hi_open=True)
    return float(_binomial_tail(n, p, epsilon, strict))


def binomial_quarter_lemma_holds(m: int, p: float) -> bool:
    """Exact check that P(X >= E X) > 1/4 for X ~ Bin(m, p) with p > 1/m."""
    _check("m", m, 1, 2 ** 53, integer=True)
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
    return _split(emp_risk, lambda t: 2.0 * math.sqrt(2.0 * t / n),
                  _log_capacity(n, d_vc, growth_2n), _log_over(2.0, delta),
                  delta, "vc-basic-dependent", n)


def vc_relative_bound(emp_risk: float, n: int, delta: float, *,
                      d_vc: int = None, growth_2n: float = None,
                      stationary: bool) -> RiskBoundReport:
    """Relative-deviation VC bound emp + 2 sqrt(emp c) + 4c with
    c = (log cap + log(4/delta)) / n.

    Requires the caller to assert stationarity of the training sequence;
    the fast O(1/n) rate at zero empirical risk is only proved under it.
    """
    _check_flag("stationary", stationary)
    if not stationary:
        raise ValueError(
            "stationary must be true: the relative-deviation bound assumes "
            "a stationary sequence; pass stationary=True only when that holds"
        )
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    return _split(emp_risk,
                  lambda t: 2.0 * math.sqrt(emp_risk * (t / n)) + 4.0 * (t / n),
                  _log_capacity(n, d_vc, growth_2n), _log_over(4.0, delta),
                  delta, "vc-relative-dependent", n)


def linear_system_induced_vc_dim(d: int) -> int:
    """VC dimension cap of the level sets of squared residuals of linear
    models in d variables: d^2 + d + 2."""
    _check("d", d, 1, integer=True)
    return d * d + d + 2


def regression_vc_bound(emp_risk: float, n: int, d_vc: int,
                        delta: float, b: float) -> RiskBoundReport:
    """Bounded-regression bound emp + 2B sqrt(2 (d log(2en/d) + log(2/delta)) / n)
    using the VC dimension of the induced level-set classifiers."""
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("b", b, 0, _RANGE_MAX, lo_open=True)
    _check("emp_risk", emp_risk, 0, hi_open=True)
    return _split(emp_risk, lambda t: 2.0 * b * math.sqrt(2.0 * t / n),
                  _log_capacity(n, d_vc, None), _log_over(2.0, delta),
                  delta, "vc-regression-reduction", n)


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
    terms = np.atleast_1d(_as_floats("rad_terms", rad_terms))
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
    return _report(emp_risk, complexity, _mcdiarmid(b, delta, n), delta,
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
                        ("sum_sq_norm", sum_sq_norm, math.inf),
                        ("sup_norm", sup_norm, math.inf),
                        ("sum_kernel_diag", sum_kernel_diag, math.inf)):
        if v is not None or name in need:
            _check(name, v, 0, hi, hi_open=hi == math.inf)
    if gamma is not None or "gamma" in need:
        _check("gamma", gamma, _SCALE_MIN, _SCALE_MAX)
    if n_codepoints is not None or "n_codepoints" in need:
        _check("n_codepoints", n_codepoints, 1, integer=True)
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

def _chaining_terms(diameter, depth, log_covering, n, lipschitz):
    """Check the chaining arguments and return the terms
    6 D 2^-j sqrt(log N(D 2^-j) / n) for j = 1..depth, evaluating and
    checking each scale's log covering number once, coarsest first (none
    at D = 0, where the bound is 0 at every depth)."""
    _check("diameter", diameter, 0, hi_open=True)
    _check("depth", depth, 1, integer=True)
    _check("n", n, 1, integer=True)
    _check("lipschitz", lipschitz, 0, hi_open=True)
    if diameter == 0.0:
        return []
    terms = []
    for j in range(1, depth + 1):
        lognj = float(log_covering(math.ldexp(diameter, -j)))
        _check("log_covering", lognj, 0)
        terms.append(math.ldexp(6.0 * diameter, -j) * math.sqrt(lognj / n))
    return terms


def _chaining_at(diameter, depth, terms, lipschitz):
    """L (D/2^N + the first N terms, added left to right)."""
    if diameter == 0.0:
        return 0.0
    total = math.ldexp(diameter, -depth)
    for term in terms[:depth]:
        total += term
    return lipschitz * total


def chaining_rad_upper(diameter: float, depth: int, log_covering, n: int,
                       lipschitz: float = 1.0) -> float:
    """Multi-scale (dyadic) covering-number bound on the Rademacher
    complexity: L * (D/2^N + 6 D sum_j 2^-j sqrt(log N(D 2^-j) / n))."""
    terms = _chaining_terms(diameter, depth, log_covering, n, lipschitz)
    return _chaining_at(diameter, depth, terms, lipschitz)


def chaining_rad_upper_best(diameter: float, log_covering, n: int,
                            lipschitz: float = 1.0, max_depth: int = 40):
    """Minimize the chaining bound over the depth N in [1, max_depth].

    Returns (value, depth); sound because the bound holds at every depth.
    The arguments are checked once and each scale's log covering number is
    evaluated and checked once; every depth's value has the bits that
    chaining_rad_upper gives it.
    """
    _check("max_depth", max_depth, 1, integer=True)
    terms = _chaining_terms(diameter, max_depth, log_covering, n, lipschitz)
    best_val, best_depth = math.inf, 1
    for depth in range(1, max_depth + 1):
        val = _chaining_at(diameter, depth, terms, lipschitz)
        if val < best_val:
            best_val, best_depth = val, depth
    return best_val, best_depth


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
    return _report(emp_risk, 2.0 * rad_mu, _mcdiarmid(b, slack, mu), delta,
                   f"mixing-reference[a={a}]", mu)
