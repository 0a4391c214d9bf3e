"""Monte-Carlo and closed-form estimators: Rademacher complexity, the
threshold class's empirical risks and deviation supremum, its analytic
risk, violation rates, and the ghost gap of the symmetrization check (the
check itself is ``experiments.symmetrization``)."""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bnd
from .bounds import _as_floats, _check, _check_entries
from .classes import (FunctionClassDescriptor, UnsupportedClassError,
                      evaluation_matrix, threshold_dichotomies,
                      PseudoMetricSample)
from .losses import LossSpec
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
    if cls.kind in ("finite", "threshold1d"):
        if cls.kind == "finite":
            sample = PseudoMetricSample(pts)
            values = evaluation_matrix(cls, sample)
        else:
            _, values = threshold_dichotomies(pts)
        return lambda s: np.max(s @ values.T, axis=1) / n
    if cls.kind == "linear_ball":
        if cls.with_offset:
            x = np.hstack([x, np.ones((n, 1))])
        lam = cls.radius
        return lambda s: lam * np.linalg.norm(s @ x, axis=1) / n
    if cls.kind == "kernel_ball":
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        bw = cls.bandwidth
        # bw ** 2 underflows for a tiny width; the overflow of sq / bw / bw
        # gives the identity Gram that the limit bw -> 0 has
        with np.errstate(over="ignore"):
            gram = np.exp(-sq / bw / bw / 2.0)
        lam = cls.radius
        return lambda s: lam * np.sqrt(
            np.maximum(np.einsum("ki,ki->k", s @ gram, s), 0.0)) / n
    raise UnsupportedClassError(
        f"no supremum routine for class kind {cls.kind!r}"
    )


def empirical_rademacher(cls: FunctionClassDescriptor, points, sign_draws: int,
                         seed: int) -> MonteCarloEstimate:
    """Monte-Carlo empirical Rademacher complexity given the points.

    Each draw is an antithetic pair (sigma, -sigma); the pair average is an
    unbiased estimate of the sign expectation and is exactly zero for
    symmetric cases such as singleton classes.
    """
    _check("sign_draws", sign_draws, 1, integer=True)
    pts = _as_floats("points", points)
    sup = _sup_rows(cls, pts)
    rng = stream(seed, 0, "signs")
    # a (k, n) call yields the same signs as one n-vector call per draw, so
    # drawing in blocks of rows keeps the stream and bounds the memory
    vals = np.empty(sign_draws)
    for lo in range(0, sign_draws, _SIGN_BLOCK):
        rows = min(_SIGN_BLOCK, sign_draws - lo)
        signs = rng.integers(0, 2, (rows, pts.shape[0])) * 2.0 - 1.0
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
    total = 0.0
    for lo in range(0, 1 << n, _SIGN_BLOCK):
        masks = np.arange(lo, min(lo + _SIGN_BLOCK, 1 << n))
        signs = ((masks[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        # summed left to right, mask by mask: accumulate adds in order
        total = float(np.add.accumulate(np.append(total, sup(signs)))[-1])
    return total / (1 << n)


# ---------------------------------------------------------------------------
# Deviation supremum of the threshold class

class SupDeviation(NamedTuple):
    argmax: float            # threshold value
    value: float


def _threshold_errors(xs, ys):
    """Sorted points and the zero-one error counts of sign(x - b) when the
    first k sorted points fall below b, for k = 0..n (whole numbers, exact
    as floats)."""
    if ys.shape != xs.shape:
        # a sample drawn with labels=False has y None, read as a 0-d NaN
        raise ValueError(f"y must hold one label per x: shape {ys.shape}, "
                         f"not {xs.shape}")
    # tied x may come out in any order: a count inside a group of ties is
    # no dichotomy, and no caller reads one
    order = np.argsort(xs)
    errors0 = float(np.sum(ys == -1.0))
    steps = np.where(ys[order] == 1.0, 1.0, -1.0)
    return xs[order], np.concatenate(([errors0], errors0 + np.cumsum(steps)))


def threshold_empirical_risks(xs, ys):
    """Zero-one empirical risk of sign(x - b) at the n+1 canonical dichotomies.

    Returns (thresholds, risks); the two boundary dichotomies are
    represented by -inf and +inf (predict all +1 / all -1).
    """
    xs = np.asarray(xs, dtype=float)
    xs_sorted, errors = _threshold_errors(xs, np.asarray(ys, dtype=float))
    errors = errors / xs.size
    mids = (xs_sorted[:-1] + xs_sorted[1:]) / 2.0
    thresholds = np.concatenate(([-np.inf], mids, [np.inf]))
    # duplicate points make some interior dichotomies unrealizable; mask them
    if mids.size and np.any(xs_sorted[:-1] == xs_sorted[1:]):
        keep = np.concatenate(([True], xs_sorted[:-1] != xs_sorted[1:], [True]))
        thresholds, errors = thresholds[keep], errors[keep]
    return thresholds, errors


def sup_deviation(cls: FunctionClassDescriptor, loss: LossSpec,
                  sample: SequenceSample, risk_oracle: Callable) -> SupDeviation:
    """Exact maximum of L(f) - Lhat(f) of the zero-one loss over the
    threshold class's canonical dichotomies.

    ``risk_oracle`` maps a threshold array to the true risk.
    """
    if cls.kind != "threshold1d":
        raise UnsupportedClassError(
            f"deviation supremum needs the threshold class, got {cls.kind!r}"
        )
    thresholds, emps = threshold_empirical_risks(sample.x, sample.y)
    risks = np.asarray(risk_oracle(thresholds), dtype=float)
    devs = risks - emps
    k = int(np.argmax(devs))
    return SupDeviation(argmax=float(thresholds[k]), value=float(devs[k]))


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
        xs_sorted, errors = _threshold_errors(xs, np.asarray(sample.y, float))
        return errors[np.searchsorted(xs_sorted, cand, side="left")] / xs.size

    return float(np.max(risks(ghost) - risks(train)))
