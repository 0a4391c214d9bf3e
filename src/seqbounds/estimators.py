"""Monte-Carlo and closed-form estimators: risk, empirical risk,
Rademacher complexity, deviation suprema, violation rates, and the
empirical check of the ghost-sample symmetrization inequality."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .bounds import _check, _check_entries
from .classes import (FunctionClassDescriptor, UnsupportedClassError,
                      evaluation_matrix, threshold_dichotomies,
                      PseudoMetricSample)
from .losses import LossSpec, batch_losses, batch_vq_losses
from .processes import (ProcessSpec, SequenceSample, sample_marginal,
                        simulate_sequence, stationary_params, stream)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    replications: int
    seed: int

    def to_dict(self):
        return {"value": self.value, "std_error": self.std_error,
                "replications": self.replications, "seed": self.seed}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def empirical_risk(model, loss: LossSpec, sample: SequenceSample) -> float:
    """Mean loss of the model on one realized sequence."""
    if len(sample) == 0:
        raise ValueError("empirical risk of an empty sample is undefined")
    if loss.kind == "vq_nearest":
        return float(np.mean(batch_vq_losses(model, sample.x)))
    preds = _predictions(model, sample.x)
    return float(np.mean(batch_losses(loss, preds, sample.y)))


def _predictions(model, xs):
    if not callable(model):
        raise TypeError("model must be callable on input points")
    preds = np.asarray(model(xs), dtype=float)
    if preds.shape != (np.asarray(xs).shape[0],):
        preds = np.array([float(model(x)) for x in xs])
    return preds


def threshold_classifier(b: float) -> Callable:
    """sign(x - b) with sign(0) = +1."""
    return lambda x: np.where(np.asarray(x, dtype=float) >= b, 1.0, -1.0)


def risk_mc(model, loss: LossSpec, spec: ProcessSpec, n: int,
            replications: int, seed: int) -> MonteCarloEstimate:
    """Risk estimated by averaging the empirical risk over fresh paths.

    Each replication draws an independent path, honoring the definition
    of the risk as an average over sample paths rather than a time
    average along a single one.
    """
    _check("replications", replications, 2, integer=True)
    vals = np.empty(replications)
    for r in range(replications):
        sample = simulate_sequence(spec, n, seed, replication=r)
        vals[r] = empirical_risk(model, loss, sample)
    return MonteCarloEstimate(
        value=float(np.mean(vals)),
        std_error=float(np.std(vals, ddof=1) / np.sqrt(replications)),
        replications=replications, seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Rademacher complexity

_SIGN_BLOCK = 4096


def _sup_rows(cls: FunctionClassDescriptor, pts: np.ndarray):
    """Return S -> the k suprema sup_{f in class} (1/n) sum_i S[r, i] f(t_i),
    one per row r of a (k, n) matrix S of signs."""
    _check_entries("points", pts)
    n = pts.shape[0]
    if cls.kind in ("finite", "threshold1d"):
        if cls.kind == "finite":
            sample = PseudoMetricSample(pts)
            values = evaluation_matrix(cls, sample)
        else:
            _, values = threshold_dichotomies(pts)
        return lambda s: np.max(s @ values.T, axis=1) / n
    if cls.kind == "linear_ball":
        x = pts if pts.ndim == 2 else pts[:, None]
        if cls.with_offset:
            x = np.hstack([x, np.ones((n, 1))])
        lam = cls.radius
        return lambda s: lam * np.linalg.norm(s @ x, axis=1) / n
    if cls.kind == "kernel_ball":
        x = pts if pts.ndim == 2 else pts[:, None]
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
    pts = np.asarray(points, dtype=float)
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
    pts = np.asarray(points, dtype=float)
    if pts.ndim and pts.shape[0] > 20:
        raise ValueError("exact enumeration is limited to 20 points")
    sup = _sup_rows(cls, pts)
    n = pts.shape[0]
    total = 0.0
    for lo in range(0, 1 << n, _SIGN_BLOCK):
        masks = np.arange(lo, min(lo + _SIGN_BLOCK, 1 << n))
        signs = ((masks[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        for v in sup(signs).tolist():   # summed left to right, mask by mask
            total += v
    return total / (1 << n)


# ---------------------------------------------------------------------------
# Deviation suprema for enumerable classes

class SupDeviation(NamedTuple):
    argmax: object           # threshold value, or index into a finite class
    value: float


def _threshold_errors(xs, ys):
    """Sorted points and the zero-one error counts of sign(x - b) when the
    first k sorted points fall below b, for k = 0..n (whole numbers, exact
    as floats)."""
    order = np.argsort(xs, kind="stable")
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
    """Exact maximum of L(f) - Lhat(f) over the enumerated dichotomies.

    ``risk_oracle`` maps a threshold array (threshold1d) or a single
    callable (finite class) to the true risk.
    """
    if loss.kind != "zero_one":
        raise ValueError("deviation supremum is defined for the zero-one loss")
    if cls.kind == "threshold1d":
        thresholds, emps = threshold_empirical_risks(sample.x, sample.y)
        risks = np.asarray(risk_oracle(thresholds), dtype=float)
        devs = risks - emps
        k = int(np.argmax(devs))
        return SupDeviation(argmax=float(thresholds[k]), value=float(devs[k]))
    if cls.kind == "finite":
        devs = []
        for f in cls.functions:
            emp = empirical_risk(f, loss, sample)
            devs.append(float(risk_oracle(f)) - emp)
        k = int(np.argmax(devs))
        return SupDeviation(argmax=k, value=float(devs[k]))
    raise UnsupportedClassError(
        f"deviation supremum needs an enumerable class, got {cls.kind!r}"
    )


def threshold_risk_oracle(spec: ProcessSpec) -> Callable:
    """Analytic risk b -> P(sign(x - b) != Y) for threshold-labelled processes.

    Available for ar1_threshold_labels and the normal iid baseline, whose
    stationary x-marginal is a known normal law.
    """
    law = stationary_params(spec)
    if law.kind != "normal":
        raise UnsupportedClassError(
            f"no analytic threshold risk for process kind {spec.kind!r}"
        )
    scale = np.sqrt(law.variance)
    mu, bs, p = law.mean, spec.b_star, spec.flip_p

    def oracle(b):
        b = np.asarray(b, dtype=float)
        hi = special.ndtr((np.maximum(b, bs) - mu) / scale)
        lo = special.ndtr((np.minimum(b, bs) - mu) / scale)
        return p + (1.0 - 2.0 * p) * (hi - lo)

    return oracle


# ---------------------------------------------------------------------------
# Scenario violation rate

def violation_rate(theta, program, draws) -> float:
    """Fraction of draws whose constraint value f(x, theta) is positive."""
    xs = draws.x if isinstance(draws, SequenceSample) else np.asarray(draws, float)
    if np.asarray(xs).shape[0] == 0:
        raise ValueError("violation rate of an empty draw set is undefined")
    _check_entries("draws", xs)
    vals = program.constraint_values(xs, np.asarray(theta, dtype=float))
    return float(np.mean(vals > 0.0))


# ---------------------------------------------------------------------------
# Symmetrization check

@dataclass(frozen=True)
class SymmetrizationResult:
    lhs_freq: float
    rhs_freq: float
    holds: bool
    lhs_se: float
    rhs_se: float
    combined_se: float
    replications: int


def threshold_ghost_gap(train: SequenceSample, ghost: SequenceSample) -> float:
    """sup over all thresholds of Lhat_ghost(b) - Lhat_train(b).

    Exact: evaluated at the canonical dichotomies of the pooled points.
    """
    pooled = np.concatenate([np.sort(np.asarray(train.x, float)),
                             np.sort(np.asarray(ghost.x, float))])
    pooled = np.unique(pooled)
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    cand = np.concatenate(([-np.inf], mids, [np.inf]))

    def risks(sample):     # errors(b) = #{x >= b, y=-1} + #{x < b, y=+1}
        xs = np.asarray(sample.x, dtype=float)
        xs_sorted, errors = _threshold_errors(xs, np.asarray(sample.y, float))
        return errors[np.searchsorted(xs_sorted, cand, side="left")] / xs.size

    return float(np.max(risks(ghost) - risks(train)))


def _symmetrization(cls: FunctionClassDescriptor, loss: LossSpec,
                    spec: ProcessSpec, n: int, epsilon: float,
                    replications: int, seed: int, risk_oracle: Callable = None,
                    pmap=map):
    """The symmetrization check: the per-replication pairs (sup L - Lhat,
    sup Lhat_ghost - Lhat), computed with ``pmap(fn, replications)``, and
    the SymmetrizationResult of their event frequencies."""
    if loss.kind != "zero_one":
        raise ValueError("symmetrization check uses the zero-one loss")
    if cls.kind not in ("threshold1d", "finite"):
        raise UnsupportedClassError("symmetrization check needs an enumerable class")
    _check("replications", replications, 1, integer=True)
    _check("n", n, 1, integer=True)
    b = loss.range_b
    # a deviation of the loss never exceeds its range B
    _check("epsilon", epsilon, 0, b, lo_open=True)
    if n * epsilon ** 2 < 2.0 * b ** 2:
        raise ValueError(
            f"symmetrization requires n*eps^2 >= 2*B^2 "
            f"(got n*eps^2 = {n * epsilon ** 2:g} < {2 * b ** 2:g})"
        )
    if cls.kind == "threshold1d":
        oracle = threshold_risk_oracle(spec)
    elif risk_oracle is None:
        raise ValueError("finite classes need an explicit risk_oracle")
    else:
        oracle = risk_oracle

    def one(r):
        train = simulate_sequence(spec, n, seed, replication=r)
        ghost = sample_marginal(spec, n, seed, replication=r)
        if cls.kind == "threshold1d":
            return (sup_deviation(cls, loss, train, oracle).value,
                    threshold_ghost_gap(train, ghost))
        emp = np.array([empirical_risk(f, loss, train) for f in cls.functions])
        emp_ghost = np.array([empirical_risk(f, loss, ghost)
                              for f in cls.functions])
        risks = np.array([float(oracle(f)) for f in cls.functions])
        return float(np.max(risks - emp)), float(np.max(emp_ghost - emp))

    sups = list(pmap(one, range(replications)))
    lhs = sum(d >= epsilon for d, _ in sups) / replications
    rhs = sum(g >= epsilon / 2.0 for _, g in sups) / replications
    lhs_se = math.sqrt(lhs * (1 - lhs) / replications)
    rhs_se = math.sqrt(rhs * (1 - rhs) / replications)
    combined = math.sqrt(lhs_se ** 2 + 4.0 * rhs_se ** 2)
    return sups, SymmetrizationResult(
        lhs_freq=lhs, rhs_freq=rhs,
        holds=lhs <= 2.0 * rhs + 3.0 * combined,
        lhs_se=lhs_se, rhs_se=rhs_se, combined_se=combined,
        replications=replications,
    )


def verify_symmetrization(cls: FunctionClassDescriptor, loss: LossSpec,
                          spec: ProcessSpec, n: int, epsilon: float,
                          replications: int, seed: int,
                          risk_oracle: Callable = None) -> SymmetrizationResult:
    """Monte-Carlo check of P{sup L - Lhat >= eps} <= 2 P{sup Lhat' - Lhat >= eps/2}.

    The left side uses the analytic risk of the process (built in for the
    threshold class; pass ``risk_oracle`` (f -> risk) for a finite class);
    the right side uses independent ghost draws from the stationary
    marginal.  The check passes when lhs <= 2*rhs + 3 combined standard
    errors.
    """
    return _symmetrization(cls, loss, spec, n, epsilon, replications, seed,
                           risk_oracle)[1]
