"""Seeded validation experiments: Monte-Carlo coverage checks for every
implemented inequality, plus deterministic checks over fixed grids.  Each
check is one CLI ``validate`` experiment, and the acceptance suite runs
them all."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from .bounds import _SCALE_MAX, _SCALE_MIN, _check
from . import scenario as scn
from .classes import (_exhaustive_net_size, kernel_ball_class,
                      pseudo_metric_matrix)
from .estimators import (_finite_sup, _sign_average, empirical_rademacher,
                         sup_deviation, threshold_empirical_risks,
                         threshold_ghost_gap, threshold_risk_oracle,
                         violation_rate)
from .losses import zero_one_loss
from .processes import (ProcessSpec, sample_marginal, simulate_sequence,
                        stationary_params, stream)


# each check is the ``validate`` experiment of its name, looked up by name
# when it runs (so a patched attribute is the one that runs); none calls
# another
CHECKS = ("vc_coverage", "relative_coverage", "margin_rad_coverage",
          "regression_coverage", "symmetrization", "scenario_coverage",
          "kernel_rad_bound", "chaining_dominance", "concentration_exactness",
          "quarter_lemma", "relative_rate_scaling", "mixing_tightness")

RECORD_COLUMNS = ("replication", "seed", "statistic", "bound", "holds")


@dataclass(frozen=True)
class ExperimentResult:
    """A check's outcome.  ``records`` maps each of RECORD_COLUMNS, the
    columns of its ``records.csv``, to a list of Python scalars."""

    name: str
    records: dict
    summary: dict
    holds: bool


def _result(name, statistics, bounds, holds, summary, passed=None,
            keep=None, seed=0):
    """The result of a check over cells: cell i is entry i, in flat order,
    of the arrays ``statistics``, ``bounds`` and ``holds`` (broadcast
    together).  Each cell, or each where the mask ``keep`` is true, gets a
    record.  The check holds when ``passed``, or when every cell holds if
    that is None."""
    statistics, bounds, holds = (
        a.ravel() for a in np.broadcast_arrays(statistics, bounds, holds))
    cells = np.arange(holds.size) if keep is None else np.flatnonzero(keep)
    records = dict(zip(RECORD_COLUMNS, (
        cells.tolist(), [seed] * cells.size, statistics[cells].tolist(),
        bounds[cells].tolist(), holds[cells].tolist())))
    return ExperimentResult(name, records, summary,
                            bool(holds.all() if passed is None else passed))


def _replicate(one, count, what="replications"):
    """The statistics and the bounds of ``one(r) -> (statistic, bound)`` for
    r = 0, ..., count - 1, run in order: two arrays of count floats."""
    _check(what, count, 1, integer=True)
    return np.array([one(r) for r in range(count)], dtype=float).T


def _coverage(name, statistics, bounds, delta, seed, summary):
    """A coverage check's result: replication r holds when its statistic is
    at most its bound, and the check when at least 1 - delta of them do."""
    holds = statistics <= bounds
    frac = float(np.mean(holds))
    return _result(name, statistics, bounds, holds,
                   {"holds_fraction": frac, "target": 1.0 - delta, **summary},
                   frac >= 1.0 - delta, seed=seed)


# ---------------------------------------------------------------------------
# VC coverage on the threshold class

def vc_coverage(process: ProcessSpec, n: int, replications: int, delta: float,
                seed: int) -> ExperimentResult:
    """Fraction of replications where the deviation supremum stays below
    the VC bound slack.

    Risk: the stationary marginal risk of each threshold
    (``threshold_risk_oracle``).  The bound's risk is the mean of the
    marginal risks of the n points; paths start in the stationary law, so
    the two coincide.  Hypothesis: a stationary sequence, with no mixing
    rate.
    """
    oracle = threshold_risk_oracle(process)
    slack = bnd.vc_bound(0.0, n, delta, d_vc=1).bound_value

    def one(r):
        path = simulate_sequence(process, n, seed, replication=r)
        return sup_deviation(path, oracle), slack

    return _coverage("vc_coverage", *_replicate(one, replications), delta,
                     seed, {"n": n, "delta": delta, "slack": slack})


def relative_coverage(process: ProcessSpec, n: int, replications: int,
                      delta: float, seed: int) -> ExperimentResult:
    """Fraction of replications where the relative-deviation residual
    sup_b L(b) - Lhat(b) - 2 sqrt(Lhat(b) c) stays below 4c, the fast-rate
    term of the relative VC bound.  Risk and hypothesis as for
    ``vc_coverage``; the relative bound is only proved under stationarity.
    """
    oracle = threshold_risk_oracle(process)
    slack = bnd.vc_relative_bound(0.0, n, delta, d_vc=1,
                                  stationary=True).bound_value
    c = slack / 4.0     # the bound at zero empirical risk is 4c

    def one(r):
        path = simulate_sequence(process, n, seed, replication=r)
        thresholds, emps = threshold_empirical_risks(path.x, path.y)
        risks = oracle(thresholds)
        return float(np.max(risks - emps - 2.0 * np.sqrt(emps * c))), slack

    return _coverage("relative_coverage", *_replicate(one, replications),
                     delta, seed, {"n": n, "delta": delta, "slack": slack})


def relative_rate_scaling() -> ExperimentResult:
    """The zero-error fast-rate bound at delta = 0.05 follows the log(n)/n
    law over n in {500, 2000, 8000}: for each pair of sizes, in the order
    (500, 2000), (500, 8000), (2000, 8000), the ratio of the bounds is
    within 0.2 of the ratio of the law."""
    ns, delta, tolerance = (500, 2000, 8000), 0.05, 0.2
    slack = [bnd.vc_relative_bound(0.0, n, delta, d_vc=1,
                                   stationary=True).bound_value for n in ns]
    law = [math.log(n) / n for n in ns]
    ratio = np.array([(s1 / s2) / (l1 / l2) for (s1, l1), (s2, l2)
                      in itertools.combinations(zip(slack, law), 2)])
    return _result("relative_rate_scaling", ratio, 1.0 + tolerance,
                   np.abs(ratio - 1.0) <= tolerance,
                   {"ns": list(ns), "delta": delta, "tolerance": tolerance})


# ---------------------------------------------------------------------------
# Marginal Rademacher coverage for 1-D margin classifiers

def margin_linear_risk(w, sigma_x: float, flip_p: float, gamma: float):
    """Exact margin-loss risk of g(x) = w x for x ~ N(0, sigma_x^2) and
    labels sign(x) flipped with probability flip_p.

    Uses closed-form truncated half-normal moments; the flipped and
    unflipped branches contribute T(w) and T(-w) with T(s) = E phi(s|X|).
    """
    w = np.asarray(w, dtype=float)

    def t_of(s):
        s = np.asarray(s, dtype=float)
        out = np.ones_like(s)
        pos = s > 0
        sp = s[pos]
        a = np.maximum((1.0 - gamma) / sp, 0.0)
        b = 1.0 / sp
        cdf = lambda t: 2.0 * bnd.special.ndtr(t / sigma_x) - 1.0
        ehalf = lambda lo, hi: sigma_x * math.sqrt(2.0 / math.pi) * (
            np.exp(-lo ** 2 / (2 * sigma_x ** 2))
            - np.exp(-hi ** 2 / (2 * sigma_x ** 2)))
        # below a slope of about 1e-154, b = 1 / s squares past the float
        # range to inf, and exp(-inf) is the limit 0
        with np.errstate(over="ignore"):
            out[pos] = cdf(a) + (cdf(b) - cdf(a) - sp * ehalf(a, b)) / gamma
        return out

    return (1.0 - flip_p) * t_of(w) + flip_p * t_of(-w)


def _margin_empirical_risks(s, w, gamma):
    """Empirical margin risks mean_i phi(w_j s_i) for every model w_j, with
    phi(u) = min(1, max(0, (1 - u) / gamma)) and s_i = y_i x_i.

    For w > 0 the loss is 1 for s <= (1 - gamma) / w, 0 for s >= 1 / w and
    linear in between, so one sort of s and its prefix sums give every
    model's risk from two ``searchsorted`` lookups; w < 0 is the same sweep
    over -s.  phi is continuous, so points on a zone edge may fall either way.
    """
    w = np.asarray(w, dtype=float)
    n = s.size
    out = np.full(w.shape, min(1.0, 1.0 / gamma))
    ascending = np.sort(s)
    for t, on in ((ascending, w > 0), (-ascending[::-1], w < 0)):
        cum = np.concatenate(([0.0], np.cumsum(t)))
        v = np.abs(w[on])
        lo = np.searchsorted(t, (1.0 - gamma) / v, side="right")
        hi = np.searchsorted(t, 1.0 / v, side="left")
        out[on] = (lo + (hi - lo - v * (cum[hi] - cum[lo])) / gamma) / n
    return out


def margin_rad_coverage(process: ProcessSpec, gamma: float, radius: float,
                        n: int, replications: int, delta: float,
                        seed: int) -> ExperimentResult:
    """Marginal Rademacher risk-bound coverage for the linear margin class
    {x -> w x, |w| <= radius} on 1-D threshold-labelled data, over 401
    models evenly spaced in [-radius, radius].

    Risk: the exact margin risk under the stationary marginal
    (``margin_linear_risk``), the mean of the n marginal risks for a path
    started in the stationary law.  Hypothesis: a stationary sequence, so
    that one closed-form complexity of the marginal law bounds the
    training and the ghost sample alike; no mixing rate.
    """
    if process.kind != "ar1_threshold_labels":
        raise ValueError(f"process must be of kind ar1_threshold_labels for "
                         f"margin coverage, got {process.kind!r}")
    _check("b_star", process.b_star, 0, 0)
    _check("n", n, 1, integer=True)     # before n sizes sum_sq_norm
    law = stationary_params(process)
    sigma_x = math.sqrt(law.variance)
    rbar = bnd.class_rad_upper("margin_linear", n, radius=radius, gamma=gamma,
                               sum_sq_norm=n * law.variance)
    slack = bnd.rademacher_risk_bound("marginal", 0.0, rbar, 1.0, n,
                                      delta).bound_value
    grid = np.linspace(-radius, radius, 401)
    risks = margin_linear_risk(grid, sigma_x, process.flip_p, gamma)

    def one(r):
        path = simulate_sequence(process, n, seed, replication=r)
        emp = _margin_empirical_risks(path.y * path.x, grid, gamma)
        return float(np.max(risks - emp)), slack

    return _coverage("margin_rad_coverage", *_replicate(one, replications),
                     delta, seed, {"slack": slack, "rad_upper": rbar, "n": n})


# ---------------------------------------------------------------------------
# Regression coverage on the autoregressive linear system

_NORM_PDF_C = np.sqrt(2 * np.pi)


def _norm_pdf(a):
    """Standard normal density, computed as ``scipy.stats.norm.pdf`` does
    (bit for bit)."""
    return np.exp(-a ** 2 / 2.0) / _NORM_PDF_C


def clipped_linear_risk(w_rows, cov, theta, noise_sigma, m_clip):
    """Exact risk E (y - clip(w.x))^2 for jointly Gaussian (x, y).

    x ~ N(0, cov), y = theta.x + noise; clipping a centered normal score
    u = w.x at +-M has closed-form moments E[c u] = s^2 (2 Phi(a) - 1) and
    E[c^2] = s^2 (2 Phi(a) - 1 - 2 a phi(a)) + 2 M^2 (1 - Phi(a)) with
    s^2 = Var(u), a = M/s.
    """
    w = np.atleast_2d(np.asarray(w_rows, dtype=float))
    cov = np.asarray(cov, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e_y2 = float(theta @ cov @ theta + noise_sigma ** 2)
    s2 = np.einsum("ij,jk,ik->i", w, cov, w)
    cov_yu = w @ (cov @ theta)
    out = np.full(w.shape[0], e_y2)
    pos = s2 > 0
    s = np.sqrt(s2[pos])
    a = m_clip / s
    cdf, pdf = bnd.special.ndtr(a), _norm_pdf(a)
    e_cu = s2[pos] * (2 * cdf - 1)
    e_c2 = (s2[pos] * (2 * cdf - 1 - 2 * a * pdf)
            + 2 * m_clip ** 2 * (1 - cdf))
    out[pos] = e_y2 - 2 * cov_yu[pos] * (2 * cdf - 1) + e_c2
    return out


def _linear_model_grid(dim, radius, resolution=25):
    """Model grid of the coefficient ball as the origin plus rays: one unit
    direction e per +-e pair (the grid's rays run along e and along -e,
    exactly) and the shared radii Delta, 2 Delta, ..., radius."""
    radii = np.linspace(0.0, radius, resolution + 1)[1:]
    if dim == 1:
        return np.array([[1.0]]), radii
    if dim == 2:
        angles = np.linspace(0.0, 2 * np.pi, 2 * resolution, endpoint=False)
        unit = np.column_stack([np.cos(angles), np.sin(angles)])
        # row j averages the polar directions at phi_j and -(phi_j + pi),
        # so it and its negation are each within an ulp of theirs
        return (unit[:resolution] - unit[resolution:]) / 2, radii
    raise ValueError(f"process must have order 1 or 2, the dimensions of "
                     f"the model grid, got order {dim}")


def _clipped_ray_risks(x, y, directions, radii, m_clip):
    """Empirical risks mean_i (y_i - clip(r x_i.e, +-M))^2 for every direction
    e (row of ``directions``) and then every -e, and every radius r of the
    grid Delta, 2 Delta, ..., m Delta (``radii``), shape (2 directions, m).

    With p = x.e a point is unclipped at radius r exactly when r |p| <= M,
    so it stays unclipped for the first floor(M / (Delta |p|)) radii.
    Binning the points by that count and summing 1, y p, p^2 and y sign(p)
    per bin gives every model's risk as (sum y^2 - 2 r S_in(y p)
    + r^2 S_in(p^2) - 2 M S_out(y sign p) + M^2 n_out) / n.  For -e the bins,
    p^2 and the counts are the same and both signed sums only change sign.
    The clip is continuous, so a point with r |p| = M may count as either.

    A row with |x| max_e |e| R < M (1 - 1e-9), R the last radius, is
    unclipped by every model: |p| <= |x| |e| by Cauchy-Schwarz, and the
    1e-9 margin is far wider than the rounding of the norms, of p and of
    m Delta against R, so floor(M / (Delta |p|)) >= m for every e and all
    the row's entries land in bin m.  Only the y p and p^2 sums read bin m,
    so these "inner" rows enter them in closed form, e.(X^T y) and
    e.(X^T X) e over the inner rows, added once; only the other rows are
    projected and binned.
    """
    k, m = directions.shape[0], radii.size
    max_e = np.sqrt(np.max(np.einsum("ij,ij->i", directions, directions)))
    inner = (np.sqrt(np.einsum("ij,ij->i", x, x)) * (max_e * radii[-1])
             < m_clip * (1.0 - 1e-9))
    rows_in, rows_near = np.flatnonzero(inner), np.flatnonzero(~inner)
    x_in, y_near = x.take(rows_in, axis=0), y.take(rows_near)[:, None]
    p = x.take(rows_near, axis=0) @ directions.T            # (near rows, k)
    with np.errstate(divide="ignore", over="ignore"):
        reach = np.minimum(m_clip / (radii[0] * np.abs(p)), m).astype(np.intp)
    reach += (m + 1) * np.arange(k)
    bins = reach.ravel()

    def per_bin(weights=None):
        # float even with no row binned, where bincount gives int64 zeros
        return np.bincount(bins, weights=weights, minlength=k * (m + 1)
                           ).reshape(k, m + 1).astype(float, copy=False)

    def inside(c):      # points still unclipped at each radius
        return np.cumsum(c[:, ::-1], axis=1)[:, ::-1][:, 1:]

    def outside(c):     # points clipped at each radius
        return np.cumsum(c, axis=1)[:, :-1]

    s_yp = per_bin((y_near * p).ravel())
    s_pp = per_bin((p * p).ravel())
    s_yp[:, m] += np.einsum("ij,j->i", directions, x_in.T @ y.take(rows_in))
    s_pp[:, m] += np.einsum("ij,jl,il->i", directions, x_in.T @ x_in,
                            directions)
    a = 2.0 * radii * inside(s_yp)
    c = radii ** 2 * inside(s_pp)
    # y sign(p) without the multiply: a point with p = 0 is never clipped,
    # so its weight lands in the last bin, which no outside() sum reads
    b = 2.0 * m_clip * outside(
        per_bin(np.where(p < 0, -y_near, y_near).ravel()))
    d = m_clip ** 2 * outside(per_bin())
    yy = float(y @ y)
    # a and b are the signed sums, so -e flips them and keeps c and d
    total = np.vstack([yy - a + c - b + d, yy + a + c + b + d])
    return total / len(y)


def regression_coverage(process: ProcessSpec, m_clip: float, radius: float,
                        n: int, replications: int, delta: float,
                        seed: int) -> ExperimentResult:
    """Coverage of the bounded-regression VC bound for linear models of the
    autoregressive system, checked over a grid of the coefficient ball.

    Risk: the exact clipped squared risk under the stationary Gaussian law
    of (x, y) (``clipped_linear_risk``), the mean of the n marginal risks
    for a path started at the Lyapunov fixed point.  Hypothesis: a
    stationary sequence and a loss bounded by 4 M^2, which the clip at M
    gives; no mixing rate.
    """
    if process.kind != "ar_d_linear_system" or process.clip_radius is not None:
        raise ValueError(
            "process must be an unclipped ar_d_linear_system for regression "
            "coverage (the analytic risk assumes Gaussian regressors)"
        )
    _check("m_clip", m_clip, _SCALE_MIN, _SCALE_MAX)
    _check("radius", radius, 0, _SCALE_MAX, lo_open=True)
    d = process.order
    cov = stationary_params(process).covariance
    directions, radii = _linear_model_grid(d, radius)
    signed = np.vstack([directions, -directions])
    rays = (signed[:, None, :] * radii[None, :, None]).reshape(-1, d)
    risks = clipped_linear_risk(rays, cov, process.coefficients, process.sigma,
                                m_clip).reshape(len(signed), radii.size)
    risk_origin = clipped_linear_risk(np.zeros((1, d)), cov,
                                      process.coefficients, process.sigma,
                                      m_clip)[0]
    b = 4.0 * m_clip ** 2
    d_ind = bnd.linear_system_induced_vc_dim(d)
    slack = bnd.regression_vc_bound(0.0, n, d_ind, delta, b).bound_value

    def one(r):
        path = simulate_sequence(process, n, seed, replication=r)
        emp = _clipped_ray_risks(path.x, path.y, directions, radii, m_clip)
        return max(float(risk_origin - np.mean(path.y ** 2)),
                   float(np.max(risks - emp))), slack

    return _coverage("regression_coverage", *_replicate(one, replications),
                     delta, seed, {"slack": slack, "loss_range": b, "n": n})


# ---------------------------------------------------------------------------
# Symmetrization

def symmetrization(process: ProcessSpec, n: int, epsilon: float,
                   replications: int, seed: int) -> ExperimentResult:
    """Empirical check of the ghost-sample symmetrization inequality for
    the threshold class, with per-replication supremum records.

    Risk: the stationary marginal risk (``threshold_risk_oracle``); the
    ghost sample is n independent draws from the stationary marginal.
    Hypothesis: a stationary sequence and n eps^2 >= 2 B^2, the condition
    of the ghost-sample step; no mixing rate.

    Each replication r gives the pair (sup L - Lhat, sup Lhat_ghost - Lhat)
    of P{sup L - Lhat >= eps} <= 2 P{sup Lhat' - Lhat >= eps/2}: the left
    side uses the analytic risk of the process, the right side the ghost
    draws.  The check holds when the event frequencies satisfy
    lhs <= 2*rhs + 3 combined standard errors.
    """
    _check("n", n, 1, integer=True)
    b = zero_one_loss().range_b
    # a deviation of the loss never exceeds its range B
    _check("epsilon", epsilon, 0, b, lo_open=True)
    if n * epsilon ** 2 < 2.0 * b ** 2:
        raise ValueError(
            f"epsilon must meet n*eps^2 >= 2*B^2 for symmetrization "
            f"(got n*eps^2 = {n * epsilon ** 2:g} < {2 * b ** 2:g})"
        )
    oracle = threshold_risk_oracle(process)

    def one(r):
        train = simulate_sequence(process, n, seed, replication=r)
        ghost = sample_marginal(process, n, seed, replication=r)
        return sup_deviation(train, oracle), threshold_ghost_gap(train, ghost)

    deviations, gaps = _replicate(one, replications)
    lhs_events, rhs_events = deviations >= epsilon, gaps >= epsilon / 2.0
    lhs = np.count_nonzero(lhs_events) / replications
    rhs = np.count_nonzero(rhs_events) / replications
    lhs_se = math.sqrt(lhs * (1 - lhs) / replications)
    rhs_se = math.sqrt(rhs * (1 - rhs) / replications)
    combined = math.sqrt(lhs_se ** 2 + 4.0 * rhs_se ** 2)
    # a replication only counts against the inequality when the training
    # deviation event fires without the ghost-gap event
    return _result("symmetrization", deviations, gaps,
                   ~lhs_events | rhs_events,
                   {"lhs_freq": lhs, "rhs_freq": rhs, "combined_se": combined,
                    "epsilon": epsilon, "n": n},
                   lhs <= 2.0 * rhs + 3.0 * combined, seed=seed)


# ---------------------------------------------------------------------------
# Scenario PAC coverage

def scenario_coverage(program: scn.ScenarioProgramSpec,
                      process: ProcessSpec, epsilon: float, delta: float,
                      replications: int, seed: int) -> ExperimentResult:
    """Frequency of replications whose certified solution violates a fresh
    marginal draw with probability above epsilon; should not exceed delta
    (plus Monte-Carlo slack).

    Risk: the violation probability under the stationary marginal,
    estimated on 10,000 independent draws from it.  Hypothesis: a
    stationary scenario sequence, with the margin-method sample size
    planned from tau and Lambda; no mixing rate.
    """
    def one(r):
        cert = scn.certify(program, process, epsilon, delta, "margin", seed,
                           replication=r)
        if not cert.feasible:
            return -1.0, epsilon
        ghost = sample_marginal(process, 10_000, seed, replication=r,
                                labels=False)
        return violation_rate(np.asarray(cert.theta_hat), program,
                              ghost), epsilon

    rates, bounds = _replicate(one, replications)
    # an infeasible replication (rate -1) carries no guarantee
    holds = (0 <= rates) & (rates <= bounds)
    freq = np.count_nonzero(~holds) / replications
    threshold = delta + 3.0 * math.sqrt(delta * (1 - delta) / replications)
    return _result("scenario_coverage", rates, bounds, holds,
                   {"exceed_frequency": freq, "threshold": threshold,
                    "infeasible": np.count_nonzero(rates < 0),
                    "epsilon": epsilon, "delta": delta},
                   freq <= threshold, seed=seed)


# ---------------------------------------------------------------------------
# Kernel-ball Rademacher bound

def kernel_rad_bound(instances: int, n: int, radius: float, m_clip: float,
                     seed: int) -> ExperimentResult:
    """Monte-Carlo kernel-ball Rademacher estimates (bandwidth 1, 128
    antithetic sign draws) stay below the worst-case closed form
    4 M radius / sqrt(n) on random standard normal 2-D point sets."""
    cls = kernel_ball_class(radius=radius)
    cap = bnd.class_rad_upper("kernel_gaussian", n, m_clip=m_clip, radius=radius)

    def one(i):
        rng = stream(seed, i, "points")
        pts = rng.standard_normal((n, 2))
        est = empirical_rademacher(cls, pts, 128, seed + i)
        return est.value, cap

    estimates, caps = _replicate(one, instances, "instances")
    return _result("kernel_rad_bound", estimates, caps, estimates <= caps,
                   {"bound": cap, "max_estimate": float(estimates.max()),
                    "n": n}, seed=seed)


# ---------------------------------------------------------------------------
# Chaining dominance on small finite classes

def chaining_dominance(instances: int, seed: int) -> ExperimentResult:
    """Chaining with exhaustive covering numbers dominates the Monte-Carlo
    Rademacher estimate (minus 3 standard errors) on random finite classes
    of 2 to 12 functions on 16 points."""
    n_points = 16

    def one(i):
        rng = stream(seed, i, "points")
        m = int(rng.integers(2, 13))
        values = rng.standard_normal((m, n_points))
        dm = pseudo_metric_matrix(values)      # one matrix for every scale
        chain, _ = bnd.chaining_rad_upper_best(
            float(np.max(dm)), lambda eps: math.log(_exhaustive_net_size(dm, eps)),
            n_points, max_depth=12)
        est = _sign_average(_finite_sup(values), n_points, 300, seed + i)
        return est.value - 3.0 * est.std_error, chain

    estimates, chains = _replicate(one, instances, "instances")
    return _result("chaining_dominance", estimates, chains,
                   estimates <= chains,
                   {"instances": instances, "n_points": n_points}, seed=seed)


# ---------------------------------------------------------------------------
# Mixing-bound comparison grid

def mixing_tightness() -> ExperimentResult:
    """Wherever the mixing reference bound applies, the marginal bound on
    the full sample of n = 2 a mu points is strictly smaller, over the grid
    of mu in {10, 25, 50, 100, 250}, a in {1, 2}, delta in {0.05, 0.1, 0.2}
    and beta_a in {1e-3, 1e-4} (cell i in that order; a cell where the
    mixing bound does not apply records it as inf); at delta = 1e-9 the
    mixing bound is inapplicable on the whole grid.  Both bounds use the
    closed-form complexity of the linear class with clip level 1, radius 1
    and unit second moment, and a loss range of 1."""
    marginal, mixing, tiny = [], [], 0
    for mu, a, delta, beta in itertools.product(
            (10, 25, 50, 100, 250), (1, 2), (0.05, 0.1, 0.2), (1e-3, 1e-4)):
        n = 2 * a * mu
        rad_n = bnd.class_rad_upper("linear", n, m_clip=1.0, radius=1.0,
                                    sum_sq_norm=float(n))
        rad_mu = bnd.class_rad_upper("linear", mu, m_clip=1.0, radius=1.0,
                                     sum_sq_norm=float(mu))
        marginal.append(bnd.rademacher_risk_bound(
            "marginal", 0.0, [rad_n], 1.0, n, delta).bound_value)
        mix = bnd.mixing_reference_bound(0.0, rad_mu, 1.0, mu, a, beta, delta)
        mixing.append(math.inf if mix is None else mix.bound_value)
        tiny += bnd.mixing_reference_bound(0.0, rad_mu, 1.0, mu, a, beta,
                                           1e-9) is not None
    marginal, mixing = np.array(marginal), np.array(mixing)
    holds = marginal < mixing
    return _result("mixing_tightness", marginal, mixing, holds,
                   {"cells": marginal.size, "tiny_delta_applicable": tiny},
                   holds.all() and tiny == 0)


# ---------------------------------------------------------------------------
# Concentration oracles

def concentration_exactness() -> ExperimentResult:
    """Hoeffding tail bound dominates the exact binomial tail on the whole
    grid of n = 1, ..., 30, p in {0.1, 0.3, 0.5, 0.7, 0.9} and epsilon =
    0.01, 0.02, ..., 0.99, evaluated as one array.  Cell i is the flat index
    in (n, p, epsilon) order; records keep the two end epsilons of each
    (n, p) row and every cell that fails."""
    n_max = 30
    p_grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    eps_grid = np.arange(0.01, 1.0, 0.01)
    ns = np.arange(1, n_max + 1)
    # concentration_tail("hoeffding", 1.0, eps, n), which does not depend
    # on p, with eps ** 2 squared per float as that call squares it
    bound = bnd._exp_tail(ns[:, None], [eps ** 2 for eps in eps_grid],
                          ns[:, None] * 1.0)
    tail = bnd._binomial_tail(ns[:, None, None], p_grid[None, :, None],
                              eps_grid, True)
    bound = np.broadcast_to(bound[:, None, :], tail.shape)
    holds = bound >= tail - 1e-15
    keep = ~holds
    keep[..., [0, -1]] = True
    return _result("concentration_exactness", tail, bound, holds,
                   {"cells": tail.size, "n_max": n_max}, keep=keep)


def quarter_lemma() -> ExperimentResult:
    """The exact binomial upper tail at the mean exceeds 1/4 whenever
    p > 1/m, over the whole grid of m = 1, ..., 50 and p = 0.01, 0.02, ...,
    0.99, evaluated as one array.  Cell i is the i-th (m, p) pair with
    p > 1/m in (m, p) order; records keep every cell that fails."""
    m_max = 50
    ms = np.arange(1, m_max + 1)
    p_grid = np.arange(1, 100) * 0.01
    rows, cols = np.nonzero(p_grid[None, :] > 1.0 / ms[:, None])
    ps = p_grid[cols]
    holds = bnd._binomial_tail(ms[rows], ps, 0.0, False) > 0.25
    return _result("quarter_lemma", ps, 0.25, holds,
                   {"cells": rows.size, "m_max": m_max}, keep=~holds)
