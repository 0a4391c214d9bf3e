"""Monte-Carlo and closed-form estimators: Rademacher complexity, the
threshold class's empirical risks, deviation supremum and Rademacher
supremum (all from one sorted sweep, ``_threshold_errors``), its analytic
risk, violation rates, and the ghost gap of the symmetrization check."""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from .bounds import _as_floats, _check, _check_entries
from .classes import FunctionClassDescriptor, UnsupportedClassError
from .processes import ProcessSpec, SequenceSample, stationary_params, stream
from .scenario import _scenario_rows


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    replications: int
    seed: int

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Rademacher complexity

_SIGN_BLOCK = 4096


def _sup_rows(cls: FunctionClassDescriptor, pts: np.ndarray):
    """Return S -> the k suprema sup_{f in class} (1/n) sum_i S[r, i] f(t_i),
    one per row r of a (k, n) matrix S of signs."""
    _check_entries("points", pts)
    n = pts.shape[0]
    x = pts if pts.ndim == 2 else pts[:, None]
    dim = {"threshold1d": 1, "linear_ball": cls.dim}.get(cls.kind)
    if dim is not None and x.shape[1:] != (dim,):
        raise ValueError(f"points must lie in R^{dim} for a {cls.kind} "
                         f"class, got shape {pts.shape}")
    if cls.kind == "threshold1d":
        # sum_i s_i f(t_i) = n - 2 * (the errors of f on the labels s)
        return lambda s: (n - 2.0 * np.min(
            _threshold_errors(x[:, 0], s)[1], axis=1)) / n
    if cls.kind == "linear_ball":
        if cls.with_offset:
            x = np.hstack([x, np.ones((n, 1))])
        lam = cls.radius
        return lambda s: lam * np.linalg.norm(s @ x, axis=1) / n
    sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)   # kernel_ball
    bw = cls.bandwidth
    # bw ** 2 underflows for a tiny width; the overflow of sq / bw / bw
    # gives the identity Gram that the limit bw -> 0 has
    with np.errstate(over="ignore"):
        gram = np.exp(-sq / bw / bw / 2.0)
    lam = cls.radius
    return lambda s: lam * np.sqrt(
        np.maximum(np.einsum("ki,ki->k", s @ gram, s), 0.0)) / n


def _finite_sup(values: np.ndarray):
    """``_sup_rows`` of a finite class whose (m, n) matrix of values on the
    points is ``values``."""
    n = values.shape[1]
    return lambda s: np.max(s @ values.T, axis=1) / n


def empirical_rademacher(cls: FunctionClassDescriptor, points, sign_draws: int,
                         seed: int) -> MonteCarloEstimate:
    """Monte-Carlo empirical Rademacher complexity given the points.

    Each draw is an antithetic pair (sigma, -sigma); the pair average is an
    unbiased estimate of the sign expectation and is exactly zero for
    symmetric cases such as singleton classes.
    """
    pts = _as_floats("points", points)
    return _sign_average(_sup_rows(cls, pts), len(pts), sign_draws, seed)


def _sign_average(sup, n: int, sign_draws: int, seed: int) -> MonteCarloEstimate:
    """``empirical_rademacher`` from ``sup = _sup_rows(cls, points)``."""
    _check("sign_draws", sign_draws, 1, integer=True)
    rng = stream(seed, 0, "signs")
    # a (k, n) call yields the same signs as one n-vector call per draw, so
    # drawing in blocks of rows keeps the stream and bounds the memory
    vals = np.empty(sign_draws)
    for lo in range(0, sign_draws, _SIGN_BLOCK):
        rows = min(_SIGN_BLOCK, sign_draws - lo)
        signs = rng.integers(0, 2, (rows, n)) * 2.0 - 1.0
        vals[lo:lo + rows] = 0.5 * (sup(signs) + sup(-signs))
    se = float(np.std(vals, ddof=1) / np.sqrt(sign_draws)) if sign_draws > 1 else 0.0
    return MonteCarloEstimate(value=float(np.mean(vals)), std_error=se,
                              replications=sign_draws, seed=int(seed))


def empirical_rademacher_exact(cls: FunctionClassDescriptor, points) -> float:
    """Exact sign expectation by enumerating all 2^n sign vectors (n <= 20),
    in blocks of rows; bit i of mask k gives the sign of point i."""
    pts = _as_floats("points", points)
    if pts.ndim and pts.shape[0] > 20:
        raise ValueError("exact enumeration is limited to 20 points")
    sup = _sup_rows(cls, pts)
    n = pts.shape[0]
    # a block's masks share their bits from ``low`` up, which are those of
    # its first mask; the bits below run through every value in each block
    low = min(n, _SIGN_BLOCK.bit_length() - 1)
    signs = ((np.arange(1 << low)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    total = 0.0
    for lo in range(0, 1 << n, 1 << low):
        signs[:, low:] = ((lo >> np.arange(low, n)) & 1) * 2.0 - 1.0
        # summed left to right, mask by mask: accumulate adds in order
        total = float(np.add.accumulate(np.append(total, sup(signs)))[-1])
    return total / (1 << n)


# ---------------------------------------------------------------------------
# Deviation supremum of the threshold class

def _threshold_errors(xs, ys):
    """The distinct points u in ascending order, and the zero-one errors of
    sign(x - b) on the labels ``ys`` (along their last axis) at b = each u,
    then b = +inf: the threshold class's dichotomies, with no arithmetic on
    x (b = u labels x >= u with +1); whole numbers, exact as floats."""
    if ys.shape[-1:] != xs.shape:
        # a sample drawn with labels=False has y None, read as a 0-d NaN
        raise ValueError(f"y must hold one label per x: shape {ys.shape}, "
                         f"not {xs.shape}")
    order = np.argsort(xs)
    xs_sorted = xs[order]
    errors = np.concatenate((
        (ys == -1.0).sum(axis=-1, keepdims=True),
        np.where(ys.take(order, axis=-1) == 1.0, 1.0, -1.0)),
        axis=-1).cumsum(axis=-1)
    # the errors with the first k sorted points below b, for k = 0..n, are
    # kept where k starts a group of tied x (their order is arbitrary) or is n
    starts = xs_sorted[1:] != xs_sorted[:-1]
    if not starts.all():
        xs_sorted = xs_sorted[np.append(True, starts)]
        errors = errors[..., np.concatenate(([True], starts, [True]))]
    return xs_sorted, errors


def threshold_empirical_risks(xs, ys):
    """Zero-one empirical risk of sign(x - b) at the canonical dichotomies.

    Returns (thresholds, risks): each dichotomy is read at the midpoint of
    its cell between distinct points, and the two boundary dichotomies are
    represented by -inf and +inf (predict all +1 / all -1).
    """
    xs = np.asarray(xs, dtype=float)
    distinct, errors = _threshold_errors(xs, np.asarray(ys, dtype=float))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf])), errors / xs.size


def sup_deviation(sample: SequenceSample, risk_oracle: Callable) -> float:
    """Maximum of L(b) - Lhat(b) of the zero-one loss over the threshold
    class's canonical dichotomies (``threshold_empirical_risks``).

    ``risk_oracle`` maps a threshold array to the true risk.
    """
    thresholds, emps = threshold_empirical_risks(sample.x, sample.y)
    return float(np.max(risk_oracle(thresholds) - emps))


def threshold_risk_oracle(spec: ProcessSpec) -> Callable:
    """Analytic risk b -> P(sign(x - b) != Y) for threshold-labelled processes.

    Available for ar1_threshold_labels and the normal iid baseline, whose
    stationary x-marginal is a known normal law.
    """
    law = stationary_params(spec)
    if law.kind != "normal":
        raise UnsupportedClassError(
            f"process kind {spec.kind!r} has no analytic threshold risk"
        )
    scale = np.sqrt(law.variance)
    mu, bs, p = law.mean, spec.b_star, spec.flip_p
    ndtr = bnd.special.ndtr

    def oracle(b):
        b = np.asarray(b, dtype=float)
        hi = ndtr((np.maximum(b, bs) - mu) / scale)
        lo = ndtr((np.minimum(b, bs) - mu) / scale)
        return p + (1.0 - 2.0 * p) * (hi - lo)

    return oracle


# ---------------------------------------------------------------------------
# Scenario violation rate

def violation_rate(theta, program, draws) -> float:
    """Fraction of draws whose constraint value f(x, theta) is positive.

    ``draws`` (or their ``x``) hold at least one finite x of the program's
    width ``dim_x``; anything else fails with a ValueError naming ``draws``.
    """
    xs = _scenario_rows(program, getattr(draws, "x", draws), "draws")
    vals = program.constraint_values(xs, np.asarray(theta, dtype=float))
    return float(np.mean(vals > 0.0))


# ---------------------------------------------------------------------------
# Ghost gap of the symmetrization check

def threshold_ghost_gap(train: SequenceSample, ghost: SequenceSample) -> float:
    """sup over all thresholds of Lhat_ghost(b) - Lhat_train(b).

    Exact: evaluated at every dichotomy ``x >= u`` of the pooled points, for
    each distinct pooled point u and u = +inf, with no arithmetic on x.
    """
    cand = np.append(np.unique(np.concatenate([
        np.asarray(train.x, float), np.asarray(ghost.x, float)])), np.inf)

    def risks(sample):     # errors(u) = #{x >= u, y=-1} + #{x < u, y=+1}
        xs = np.asarray(sample.x, dtype=float)
        distinct, errors = _threshold_errors(xs, np.asarray(sample.y, float))
        return errors[np.searchsorted(distinct, cand, side="left")] / xs.size

    return float(np.max(risks(ghost) - risks(train)))
