"""Seeded validation experiments: Monte-Carlo coverage checks for every
implemented inequality, plus deterministic grid checks.  These back the
CLI ``validate`` command and the acceptance suite."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special, stats

from . import bounds as bnd
from .bounds import _SCALE_MAX, _check
from . import scenario as scn
from .classes import (covering_number_exhaustive, finite_class,
                      kernel_ball_class, pseudo_metric_matrix,
                      threshold_class)
from .estimators import (_symmetrization, empirical_rademacher,
                         threshold_empirical_risks, threshold_risk_oracle,
                         violation_rate)
from .losses import zero_one_loss
from .processes import (ProcessSpec, ar1_process, sample_marginal,
                        simulate_sequence, stationary_params, stream)


@dataclass
class ExperimentResult:
    name: str
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    holds: bool = True


def _pmap(fn, items, threads=1):
    _check("threads", threads, 1, integer=True)
    if threads == 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _replicate(one, count, seed, threads, what="replications"):
    """Run ``one(r) -> (statistic, bound)`` for r < count into records that
    hold when statistic <= bound; returns (records, holds fraction)."""
    _check(what, count, 1, integer=True)
    records = [
        {"replication": r, "seed": seed, "statistic": s, "bound": b,
         "holds": s <= b}
        for r, (s, b) in enumerate(_pmap(one, range(count), threads))
    ]
    return records, float(np.mean([rec["holds"] for rec in records]))


# ---------------------------------------------------------------------------
# VC coverage on the threshold class

def vc_coverage(spec: ProcessSpec, n: int, replications: int, delta: float,
                seed: int, relative: bool = False, threads: int = 1) -> ExperimentResult:
    """Fraction of replications where the deviation supremum stays below
    the VC bound slack (additive bound) or the relative-deviation residual
    stays below its fast-rate term.

    Risk: the stationary marginal risk of each threshold
    (``threshold_risk_oracle``).  The bound's risk is the mean of the
    marginal risks of the n points; paths start in the stationary law, so
    the two coincide.  Hypothesis: a stationary sequence, with no mixing
    rate; the relative bound is only proved under stationarity.
    """
    oracle = threshold_risk_oracle(spec)
    if relative:
        slack = bnd.vc_relative_bound(0.0, n, delta, d_vc=1,
                                      stationary=True).bound_value
        c = slack / 4.0     # the bound at zero empirical risk is 4c
    else:
        slack = bnd.vc_bound(0.0, n, delta, d_vc=1).bound_value

    def one(r):
        path = simulate_sequence(spec, n, seed, replication=r)
        thresholds, emps = threshold_empirical_risks(path.x, path.y)
        risks = oracle(thresholds)
        if relative:
            stat = float(np.max(risks - emps - 2.0 * np.sqrt(emps * c)))
        else:
            stat = float(np.max(risks - emps))
        return stat, slack

    records, frac = _replicate(one, replications, seed, threads)
    name = "relative_coverage" if relative else "vc_coverage"
    return ExperimentResult(
        name=name, records=records,
        summary={"holds_fraction": frac, "target": 1.0 - delta,
                 "n": n, "delta": delta, "slack": slack},
        holds=frac >= 1.0 - delta,
    )


def relative_rate_scaling(ns, delta: float, tolerance: float = 0.2) -> ExperimentResult:
    """Zero-error fast-rate bound follows the log(n)/n law across sample
    sizes: pairwise bound ratios within ``tolerance`` of the law ratios."""
    slack = {n: bnd.vc_relative_bound(0.0, n, delta, d_vc=1,
                                      stationary=True).bound_value
             for n in ns}
    law = {n: math.log(n) / n for n in ns}
    records = []
    ok = True
    for i, n1 in enumerate(ns):
        for n2 in ns[i + 1:]:
            ratio = (slack[n1] / slack[n2]) / (law[n1] / law[n2])
            holds = abs(ratio - 1.0) <= tolerance
            ok &= holds
            records.append({"replication": len(records), "seed": 0,
                            "statistic": ratio, "bound": 1.0 + tolerance,
                            "holds": holds})
    return ExperimentResult(
        name="relative_rate_scaling", records=records,
        summary={"ns": list(ns), "delta": delta, "tolerance": tolerance},
        holds=ok,
    )


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
        cdf = lambda t: 2.0 * special.ndtr(t / sigma_x) - 1.0
        ehalf = lambda lo, hi: sigma_x * math.sqrt(2.0 / math.pi) * (
            np.exp(-lo ** 2 / (2 * sigma_x ** 2))
            - np.exp(-hi ** 2 / (2 * sigma_x ** 2)))
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


def margin_rad_coverage(spec: ProcessSpec, gamma: float, radius: float,
                        n: int, replications: int, delta: float, seed: int,
                        threads: int = 1) -> ExperimentResult:
    """Marginal Rademacher risk-bound coverage for the linear margin class
    {x -> w x, |w| <= radius} on 1-D threshold-labelled data, over 401
    models evenly spaced in [-radius, radius].

    Risk: the exact margin risk under the stationary marginal
    (``margin_linear_risk``), the mean of the n marginal risks for a path
    started in the stationary law.  Hypothesis: a stationary sequence, so
    that one closed-form complexity of the marginal law bounds the
    training and the ghost sample alike; no mixing rate.
    """
    if spec.kind != "ar1_threshold_labels":
        raise ValueError("margin coverage needs an ar1 process")
    _check("b_star", spec.b_star, 0, 0)
    law = stationary_params(spec)
    sigma_x = math.sqrt(law.variance)
    rbar = bnd.class_rad_upper("margin_linear", n, radius=radius, gamma=gamma,
                               sum_sq_norm=n * law.variance)
    slack = bnd.rademacher_risk_bound("marginal", 0.0, rbar, 1.0, n,
                                      delta).bound_value
    grid = np.linspace(-radius, radius, 401)
    risks = margin_linear_risk(grid, sigma_x, spec.flip_p, gamma)

    def one(r):
        path = simulate_sequence(spec, n, seed, replication=r)
        emp = _margin_empirical_risks(path.y * path.x, grid, gamma)
        return float(np.max(risks - emp)), slack

    records, frac = _replicate(one, replications, seed, threads)
    return ExperimentResult(
        name="margin_rad_coverage", records=records,
        summary={"holds_fraction": frac, "target": 1.0 - delta,
                 "slack": slack, "rad_upper": rbar, "n": n},
        holds=frac >= 1.0 - delta,
    )


# ---------------------------------------------------------------------------
# Regression coverage on the autoregressive linear system

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
    cdf, pdf = special.ndtr(a), stats.norm.pdf(a)
    e_cu = s2[pos] * (2 * cdf - 1)
    e_c2 = (s2[pos] * (2 * cdf - 1 - 2 * a * pdf)
            + 2 * m_clip ** 2 * (1 - cdf))
    out[pos] = e_y2 - 2 * cov_yu[pos] * (2 * cdf - 1) + e_c2
    return out


def _linear_model_grid(dim, radius, resolution=25):
    """Model grid of the coefficient ball as the origin plus rays: unit
    directions (one row each) and the shared radii, ascending."""
    radii = np.linspace(0.0, radius, resolution + 1)[1:]
    if dim == 1:
        return np.array([[1.0], [-1.0]]), radii
    if dim == 2:
        angles = np.linspace(0.0, 2 * np.pi, 2 * resolution, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)]), radii
    raise ValueError("model grid implemented for 1- and 2-D systems")


def _clipped_ray_risks(x, y, directions, radii, m_clip):
    """Empirical risks mean_i (y_i - clip(r x_i.e, +-M))^2 for every direction
    e (row of ``directions``) and radius r (ascending ``radii``), shape
    (directions, radii).

    With p = x.e a point is unclipped at radius r exactly when r |p| <= M,
    so binning the points by how many radii leave them unclipped and
    summing 1, y p, p^2 and y sign(p) per bin gives every model's risk as
    (sum y^2 - 2 r S_in(y p) + r^2 S_in(p^2) - 2 M S_out(y sign p)
    + M^2 n_out) / n.  The clip is continuous, so a point with r |p| = M may
    count as either.
    """
    k, m = directions.shape[0], radii.size
    p = x @ directions.T                                    # (n, k)
    with np.errstate(divide="ignore"):
        reach = np.searchsorted(radii, m_clip / np.abs(p), side="right")
    reach += (m + 1) * np.arange(k)
    bins = reach.ravel()

    def per_bin(weights=None):
        return np.bincount(bins, weights=weights,
                           minlength=k * (m + 1)).reshape(k, m + 1)

    def inside(c):      # points still unclipped at each radius
        return np.cumsum(c[:, ::-1], axis=1)[:, ::-1][:, 1:]

    def outside(c):     # points clipped at each radius
        return np.cumsum(c, axis=1)[:, :-1]

    s_yp = inside(per_bin((y[:, None] * p).ravel()))
    s_pp = inside(per_bin((p * p).ravel()))
    # y sign(p) without the multiply: a point with p = 0 is never clipped,
    # so its weight lands in the last bin, which no outside() sum reads
    s_ys = outside(per_bin(np.where(p < 0, -y[:, None], y[:, None]).ravel()))
    n_out = outside(per_bin())
    total = (float(y @ y) - 2.0 * radii * s_yp + radii ** 2 * s_pp
             - 2.0 * m_clip * s_ys + m_clip ** 2 * n_out)
    return total / len(y)


def regression_coverage(spec: ProcessSpec, m_clip: float, radius: float,
                        n: int, replications: int, delta: float, seed: int,
                        threads: int = 1) -> ExperimentResult:
    """Coverage of the bounded-regression VC bound for linear models of the
    autoregressive system, checked over a grid of the coefficient ball.

    Risk: the exact clipped squared risk under the stationary Gaussian law
    of (x, y) (``clipped_linear_risk``), the mean of the n marginal risks
    for a path started at the Lyapunov fixed point.  Hypothesis: a
    stationary sequence and a loss bounded by 4 M^2, which the clip at M
    gives; no mixing rate.
    """
    if spec.kind != "ar_d_linear_system" or spec.clip_radius is not None:
        raise ValueError(
            "regression coverage needs an unclipped ar_d_linear_system "
            "(the analytic risk assumes Gaussian regressors)"
        )
    _check("m_clip", m_clip, 0, _SCALE_MAX, lo_open=True)
    _check("radius", radius, 0, _SCALE_MAX, lo_open=True)
    d = spec.order
    cov = stationary_params(spec).covariance
    directions, radii = _linear_model_grid(d, radius)
    rays = (directions[:, None, :] * radii[None, :, None]).reshape(-1, d)
    risks = clipped_linear_risk(rays, cov, spec.coefficients, spec.sigma,
                                m_clip).reshape(len(directions), radii.size)
    risk_origin = clipped_linear_risk(np.zeros((1, d)), cov, spec.coefficients,
                                      spec.sigma, m_clip)[0]
    b = 4.0 * m_clip ** 2
    d_ind = bnd.linear_system_induced_vc_dim(d)
    slack = bnd.regression_vc_bound(0.0, n, d_ind, delta, b).bound_value

    def one(r):
        path = simulate_sequence(spec, n, seed, replication=r)
        emp = _clipped_ray_risks(path.x, path.y, directions, radii, m_clip)
        return max(float(risk_origin - np.mean(path.y ** 2)),
                   float(np.max(risks - emp))), slack

    records, frac = _replicate(one, replications, seed, threads)
    return ExperimentResult(
        name="regression_coverage", records=records,
        summary={"holds_fraction": frac, "target": 1.0 - delta,
                 "slack": slack, "loss_range": b, "n": n},
        holds=frac >= 1.0 - delta,
    )


# ---------------------------------------------------------------------------
# Symmetrization

def symmetrization(spec: ProcessSpec, n: int, epsilon: float,
                   replications: int, seed: int, threads: int = 1) -> ExperimentResult:
    """Empirical check of the ghost-sample symmetrization inequality for
    the threshold class, with per-replication supremum records.

    Risk: the stationary marginal risk (``threshold_risk_oracle``); the
    ghost sample is n independent draws from the stationary marginal.
    Hypothesis: a stationary sequence and n eps^2 >= 2 B^2, the condition
    of the ghost-sample step; no mixing rate.
    """
    sups, verdict = _symmetrization(threshold_class(), zero_one_loss(), spec,
                                    n, epsilon, replications, seed,
                                    pmap=partial(_pmap, threads=threads))
    records = [
        # a replication only counts against the inequality when the training
        # deviation event fires without the ghost-gap event
        {"replication": r, "seed": seed, "statistic": d, "bound": g,
         "holds": not (d >= epsilon and g < epsilon / 2.0)}
        for r, (d, g) in enumerate(sups)
    ]
    return ExperimentResult(
        name="symmetrization", records=records,
        summary={"lhs_freq": verdict.lhs_freq, "rhs_freq": verdict.rhs_freq,
                 "combined_se": verdict.combined_se, "epsilon": epsilon,
                 "n": n},
        holds=verdict.holds,
    )


# ---------------------------------------------------------------------------
# Scenario PAC coverage

def scenario_pac_coverage(program: scn.ScenarioProgramSpec, spec: ProcessSpec,
                          epsilon: float, delta: float, replications: int,
                          seed: int, ghost_draws: int = 10_000,
                          threads: int = 1) -> ExperimentResult:
    """Frequency of replications whose certified solution violates a fresh
    marginal draw with probability above epsilon; should not exceed delta
    (plus Monte-Carlo slack).

    Risk: the violation probability under the stationary marginal,
    estimated on ``ghost_draws`` independent draws from it.  Hypothesis: a
    stationary scenario sequence, with the margin-method sample size
    planned from tau and Lambda; no mixing rate.
    """
    _check("replications", replications, 1, integer=True)

    def one(r):
        cert = scn.certify(program, spec, epsilon, delta, "margin", seed,
                           replication=r)
        if not cert.feasible:
            return None
        ghost = sample_marginal(spec, ghost_draws, seed, replication=r)
        return violation_rate(np.asarray(cert.theta_hat), program, ghost)

    rates = _pmap(one, range(replications), threads)
    # an infeasible replication (rate None) carries no guarantee
    records = [{"replication": r, "seed": seed,
                "statistic": -1.0 if vr is None else vr, "bound": epsilon,
                "holds": vr is not None and not vr > epsilon}
               for r, vr in enumerate(rates)]
    infeasible = rates.count(None)
    freq = sum(not rec["holds"] for rec in records) / replications
    threshold = delta + 3.0 * math.sqrt(delta * (1 - delta) / replications)
    return ExperimentResult(
        name="scenario_coverage", records=records,
        summary={"exceed_frequency": freq, "threshold": threshold,
                 "infeasible": infeasible, "epsilon": epsilon, "delta": delta},
        holds=freq <= threshold,
    )


# ---------------------------------------------------------------------------
# Kernel-ball Rademacher bound

def kernel_rad_bound(instances: int, n: int, radius: float, m_clip: float,
                     seed: int, threads: int = 1) -> ExperimentResult:
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

    records, frac = _replicate(one, instances, seed, threads, "instances")
    top = max(rec["statistic"] for rec in records)
    return ExperimentResult(
        name="kernel_rad_bound", records=records,
        summary={"bound": cap, "max_estimate": top, "n": n},
        holds=frac == 1.0,
    )


# ---------------------------------------------------------------------------
# Chaining dominance on small finite classes

def chaining_dominance(instances: int, seed: int,
                       threads: int = 1) -> ExperimentResult:
    """Chaining with exhaustive covering numbers dominates the Monte-Carlo
    Rademacher estimate (minus 3 standard errors) on random finite classes
    of 2 to 12 functions on 16 points."""
    n_points = 16

    def one(i):
        rng = stream(seed, i, "points")
        m = int(rng.integers(2, 13))
        values = rng.standard_normal((m, n_points))
        diameter = float(np.max(pseudo_metric_matrix(values)))
        chain, _ = bnd.chaining_rad_upper_best(
            diameter, lambda eps: math.log(covering_number_exhaustive(values, eps)),
            n_points, max_depth=12)
        pts = np.arange(n_points, dtype=float)
        fns = [(lambda row: (lambda x: row[np.asarray(x, int)]))(values[j])
               for j in range(m)]
        est = empirical_rademacher(finite_class(fns), pts, 300, seed + i)
        return est.value - 3.0 * est.std_error, chain

    records, frac = _replicate(one, instances, seed, threads, "instances")
    return ExperimentResult(
        name="chaining_dominance", records=records,
        summary={"instances": instances, "n_points": n_points},
        holds=frac == 1.0,
    )


# ---------------------------------------------------------------------------
# Mixing-bound comparison grid

def mixing_tightness(mus, deltas, betas, a_values) -> ExperimentResult:
    """Wherever the mixing reference bound applies, the marginal bound on
    the full sample is strictly smaller; at delta = 1e-9 the mixing bound
    is inapplicable on the whole grid.  Both bounds use the closed-form
    complexity of the linear class with clip level 1, radius 1 and unit
    second moment, and a loss range of 1."""
    records = []
    ok = True
    tiny_delta_applicable = 0
    i = 0
    for mu in mus:
        for a in a_values:
            n = 2 * a * mu
            for delta in deltas:
                for beta in betas:
                    rad_n = bnd.class_rad_upper("linear", n, m_clip=1.0,
                                                radius=1.0, sum_sq_norm=float(n))
                    rad_mu = bnd.class_rad_upper("linear", mu, m_clip=1.0,
                                                 radius=1.0, sum_sq_norm=float(mu))
                    marginal = bnd.rademacher_risk_bound(
                        "marginal", 0.0, [rad_n], 1.0, n, delta).bound_value
                    mix = bnd.mixing_reference_bound(0.0, rad_mu, 1.0, mu, a,
                                                     beta, delta)
                    if mix is None:
                        holds = True
                        mix_val = math.inf
                    else:
                        mix_val = mix.bound_value
                        holds = marginal < mix_val
                    tiny = bnd.mixing_reference_bound(0.0, rad_mu, 1.0, mu, a,
                                                      beta, 1e-9)
                    if tiny is not None:
                        tiny_delta_applicable += 1
                    ok &= holds
                    records.append({"replication": i, "seed": 0,
                                    "statistic": marginal, "bound": mix_val,
                                    "holds": holds})
                    i += 1
    ok &= tiny_delta_applicable == 0
    return ExperimentResult(
        name="mixing_tightness", records=records,
        summary={"cells": i, "tiny_delta_applicable": tiny_delta_applicable},
        holds=ok,
    )


# ---------------------------------------------------------------------------
# Concentration oracles

def concentration_exactness(n_max: int = 30, eps_step: float = 0.01,
                            ps=(0.1, 0.3, 0.5, 0.7, 0.9)) -> ExperimentResult:
    """Hoeffding tail bound dominates the exact binomial tail on the whole
    (n, p, epsilon) grid, evaluated as one array.  Cell i is the flat index
    in (n, p, epsilon) order; records keep the two end epsilons of each
    (n, p) row and every cell that fails."""
    _check("n_max", n_max, 1, integer=True)
    _check("eps_step", eps_step, 0, 1, lo_open=True, hi_open=True)
    p_grid = np.asarray(ps, dtype=float).ravel()
    if not p_grid.size:
        raise ValueError("ps must hold at least one p")
    for p in p_grid:
        _check("ps", p, 0, 1)
    eps_grid = np.arange(eps_step, 1.0, eps_step)
    ns = np.arange(1, n_max + 1)
    # the bound does not depend on p; math.exp, not np.exp, keeps its bits
    bound = np.array([[bnd.concentration_tail("hoeffding", 1.0, eps, n)
                       for eps in eps_grid] for n in range(1, n_max + 1)])
    tail = bnd._binomial_tail(ns[:, None, None], p_grid[None, :, None],
                              eps_grid, True)
    bound = np.broadcast_to(bound[:, None, :], tail.shape)
    holds = bound >= tail - 1e-15
    keep = ~holds
    keep[..., [0, -1]] = True
    cells = np.flatnonzero(keep)
    records = [
        {"replication": i, "seed": 0, "statistic": t, "bound": b, "holds": h}
        for i, t, b, h in zip(cells.tolist(), tail.ravel()[cells].tolist(),
                              bound.ravel()[cells].tolist(),
                              holds.ravel()[cells].tolist())
    ]
    return ExperimentResult(
        name="concentration_exactness", records=records,
        summary={"cells": tail.size, "n_max": n_max}, holds=bool(holds.all()),
    )


def quarter_lemma_grid(m_max: int = 50, p_step: float = 0.01) -> ExperimentResult:
    """The exact binomial upper tail at the mean exceeds 1/4 whenever
    p > 1/m, over the whole grid, evaluated as one array.  Cell i is the
    i-th (m, p) pair with p > 1/m in (m, p) order; records keep every cell
    that fails."""
    _check("m_max", m_max, 1, integer=True)
    _check("p_step", p_step, 0, 1, lo_open=True, hi_open=True)
    ms = np.arange(1, m_max + 1)
    p_grid = np.arange(1, int(round(1.0 / p_step))) * p_step
    rows, cols = np.nonzero(p_grid[None, :] > 1.0 / ms[:, None])
    if not rows.size:
        raise ValueError(f"m_max={m_max} and p_step={p_step} leave no cell "
                         "with p > 1/m")
    ps = p_grid[cols]
    holds = bnd._binomial_tail(ms[rows], ps, 0.0, False) > 0.25
    cells = np.flatnonzero(~holds)
    records = [
        {"replication": i, "seed": 0, "statistic": p, "bound": 0.25,
         "holds": False}
        for i, p in zip(cells.tolist(), ps[cells].tolist())
    ]
    return ExperimentResult(
        name="quarter_lemma_grid", records=records,
        summary={"cells": rows.size, "m_max": m_max}, holds=bool(holds.all()),
    )


# ---------------------------------------------------------------------------
# Deterministic sweeps for plot data

def bound_vs_n_records(d_vc: int, delta: float, ns) -> list:
    records = []
    for n in ns:
        rep = bnd.vc_bound(0.0, n, delta, d_vc=d_vc)
        records.append({"n": n, "bound": rep.bound_value, "d_vc": d_vc,
                        "delta": delta})
    return records


def default_scenario_program(theta_lo=-10.0, theta_hi=10.0, margin=1.0):
    return scn.one_dim_threshold_program(theta_lo=theta_lo, theta_hi=theta_hi,
                                         margin=margin)


def default_ar1() -> ProcessSpec:
    return ar1_process(a=0.8, sigma=0.6, b_star=0.0, flip_p=0.1)
