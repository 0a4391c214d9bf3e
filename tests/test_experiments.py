import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from seqbounds import bounds as bnd
from seqbounds.estimators import verify_symmetrization
from seqbounds.classes import threshold_class
from seqbounds.losses import zero_one_loss
from seqbounds.experiments import (_clipped_ray_risks, _linear_model_grid,
                                   _margin_empirical_risks,
                                   bound_vs_n_records, chaining_dominance,
                                   clipped_linear_risk,
                                   concentration_exactness, kernel_rad_bound,
                                   margin_linear_risk, margin_rad_coverage,
                                   mixing_tightness, quarter_lemma_grid,
                                   regression_coverage, relative_rate_scaling,
                                   scenario_pac_coverage, symmetrization,
                                   vc_coverage)
from seqbounds.processes import (ar1_process, ar_process, simulate_sequence,
                                 stationary_params, stream)
from seqbounds.scenario import (TauLambdaReport, one_dim_threshold_program,
                                solve_margin_program)


class TestMarginRiskOracle:
    sigma_x, flip_p, gamma = 1.0, 0.1, 0.5

    def quad_oracle(self, w):
        # direct numerical integration of the margin loss over the marginal
        def phi(u):
            return min(1.0, max(0.0, (1.0 - u) / self.gamma))

        def integrand(x):
            val = ((1 - self.flip_p) * phi(w * abs(x))
                   + self.flip_p * phi(-w * abs(x)))
            return val * stats.norm.pdf(x, scale=self.sigma_x)

        return integrate.quad(integrand, -12, 12, limit=200)[0]

    def test_matches_quadrature(self):
        for w in (-1.5, -0.2, 0.0, 0.1, 0.45, 0.9, 2.0, 5.0):
            closed = margin_linear_risk(np.array([w]), self.sigma_x,
                                        self.flip_p, self.gamma)[0]
            assert closed == pytest.approx(self.quad_oracle(w), abs=1e-8)

    def test_matches_monte_carlo(self):
        rng = stream(2025, 0, "points")
        x = rng.normal(0.0, self.sigma_x, 200_000)
        y = np.where(x >= 0, 1.0, -1.0)
        y *= np.where(rng.random(x.size) < self.flip_p, -1.0, 1.0)
        for w in (0.3, 0.8, 1.6):
            losses = np.minimum(1.0, np.maximum(0.0, (1 - y * w * x) / self.gamma))
            se = np.std(losses) / np.sqrt(x.size)
            closed = margin_linear_risk(np.array([w]), self.sigma_x,
                                        self.flip_p, self.gamma)[0]
            assert abs(closed - np.mean(losses)) <= 3 * se

    def test_limits(self):
        # w = 0 scores nothing: loss is 1; huge w approaches the flip rate
        assert margin_linear_risk(np.array([0.0]), 1.0, 0.1, 0.5)[0] == 1.0
        big = margin_linear_risk(np.array([50.0]), 1.0, 0.1, 0.5)[0]
        assert big == pytest.approx(0.1, abs=0.02)


class TestClippedLinearRiskOracle:
    spec = ar_process([0.5, 0.2], 1.0)
    m_clip = 4.0

    def test_matches_monte_carlo(self):
        cov = stationary_params(self.spec).covariance
        rng = stream(808, 0, "points")
        chol = np.linalg.cholesky(cov)
        x = rng.standard_normal((300_000, 2)) @ chol.T
        y = x @ np.array(self.spec.coefficients) + rng.normal(0, 1.0, x.shape[0])
        for w in ([0.0, 0.0], [0.5, 0.2], [-1.5, 0.8], [3.0, -2.0]):
            preds = np.clip(x @ np.asarray(w), -self.m_clip, self.m_clip)
            losses = (y - preds) ** 2
            se = np.std(losses) / np.sqrt(x.shape[0])
            closed = clipped_linear_risk([w], cov, self.spec.coefficients,
                                         self.spec.sigma, self.m_clip)[0]
            assert abs(closed - np.mean(losses)) <= 3 * se

    def test_limits(self):
        cov = stationary_params(self.spec).covariance
        theta = np.array(self.spec.coefficients)
        e_y2 = float(theta @ cov @ theta + 1.0)
        # zero model predicts 0 everywhere
        assert clipped_linear_risk([[0.0, 0.0]], cov, theta, 1.0,
                                   self.m_clip)[0] == pytest.approx(e_y2)
        # huge clip level recovers the unclipped quadratic risk at theta
        wide = clipped_linear_risk([theta], cov, theta, 1.0, 1e6)[0]
        assert wide == pytest.approx(1.0, rel=1e-9)  # noise variance only

    def test_regression_coverage_holds(self):
        result = regression_coverage(self.spec, m_clip=self.m_clip,
                                     radius=2.0, n=1000, replications=100,
                                     delta=0.05, seed=909)
        assert result.holds
        assert result.summary["holds_fraction"] >= 0.95

    def test_rejects_clipped_process(self):
        clipped = ar_process([0.5, 0.2], 1.0, clip_radius=2.0)
        with pytest.raises(ValueError, match="unclipped"):
            regression_coverage(clipped, 4.0, 2.0, 100, 5, 0.05, 1)


class TestCoverageExperiments:
    def test_vc_coverage_short_paths(self):
        spec = ar1_process(0.8, 0.6, b_star=0.0, flip_p=0.1)
        result = vc_coverage(spec, n=500, replications=200, delta=0.05,
                             seed=4242)
        assert result.holds
        assert result.summary["holds_fraction"] >= 0.95
        assert len(result.records) == 200

    def test_threads_do_not_change_results(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        a = vc_coverage(spec, n=300, replications=20, delta=0.05, seed=5,
                        threads=1)
        b = vc_coverage(spec, n=300, replications=20, delta=0.05, seed=5,
                        threads=4)
        assert [r["statistic"] for r in a.records] == \
            [r["statistic"] for r in b.records]

    def test_rate_scaling_records(self):
        result = relative_rate_scaling((500, 2000, 8000), 0.05)
        assert result.holds
        assert len(result.records) == 3  # one per pair

    def test_margin_coverage_rejects_offset_threshold(self):
        spec = ar1_process(0.8, 0.6, b_star=0.3)
        with pytest.raises(ValueError):
            margin_rad_coverage(spec, 0.5, 1.0, 100, 5, 0.05, 1)

    def test_symmetrization_consistent_with_estimator(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        exp = symmetrization(spec, n=200, epsilon=0.2, replications=80,
                             seed=3131)
        est = verify_symmetrization(threshold_class(), zero_one_loss(), spec,
                                    n=200, epsilon=0.2, replications=80,
                                    seed=3131)
        assert exp.summary["lhs_freq"] == est.lhs_freq
        assert exp.summary["rhs_freq"] == est.rhs_freq
        assert exp.holds == est.holds

    def test_scenario_coverage_small(self):
        prog = one_dim_threshold_program(theta_lo=-6.0, theta_hi=6.0,
                                         margin=1.0)
        spec = ar1_process(0.8, 0.6)
        result = scenario_pac_coverage(prog, spec, epsilon=0.3, delta=0.2,
                                       replications=20, seed=606,
                                       ghost_draws=2000)
        assert result.holds
        assert result.summary["infeasible"] == 0

    def test_mixing_grid_shape(self):
        result = mixing_tightness(mus=(10, 50), deltas=(0.1,), betas=(1e-4,),
                                  a_values=(1,))
        assert result.holds
        assert result.summary["cells"] == 2

    def test_bound_vs_n_records(self):
        records = bound_vs_n_records(4, 0.05, [1000, 100])
        assert {r["n"] for r in records} == {100, 1000}
        assert all(r["delta"] == 0.05 for r in records)


@pytest.mark.xfail(strict=True, reason=(
    "near the unit root the correlation time (about 1,000 steps) is half "
    "the path, and the VC bound misses its 0.95 target (holds-fraction "
    "0.515); a fix or any change of behaviour shows up as a pass"))
def test_vc_coverage_near_unit_root():
    spec = ar1_process(0.999, 0.6, b_star=0.0, flip_p=0.1)
    assert vc_coverage(spec, n=2000, replications=200, delta=0.05,
                       seed=12345).holds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 10**7), delta=st.floats(1e-12, 1.0),
       rbar=st.floats(0.0, 1e6))
def test_margin_slack_is_the_marginal_rademacher_bound(n, delta, rbar):
    # the slack margin_rad_coverage takes from the calculator is the
    # hand-written 2 Rbar + sqrt(log(1/delta) / 2n), float for float
    slack = bnd.rademacher_risk_bound("marginal", 0.0, rbar, 1.0, n,
                                      delta).bound_value
    assert slack == 2.0 * rbar + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# Grid sweeps against dense evaluation of every model

def dense_margin_risks(s, w, gamma):
    u = np.outer(w, s)
    return np.mean(np.clip((1.0 - u) / gamma, 0.0, 1.0), axis=1)


def dense_ray_risks(x, y, directions, radii, m_clip):
    w = (directions[:, None, :] * radii[None, :, None]).reshape(-1, x.shape[1])
    preds = np.clip(x @ w.T, -m_clip, m_clip)
    emp = np.mean((y[:, None] - preds) ** 2, axis=0)
    return emp.reshape(len(directions), len(radii))


def polar_grid(radius):
    """The origin and a polar grid of the disc: 50 angles x 25 radii."""
    rr, aa = np.meshgrid(np.linspace(0.0, radius, 26)[1:],
                         np.linspace(0.0, 2 * np.pi, 50, endpoint=False))
    return np.vstack([[0.0, 0.0], np.column_stack(
        [(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])])


def random_values(rng, n, kind, scale):
    if kind == "repeated":
        return scale * rng.choice([-1.5, -0.5, 0.0, 0.25, 2.0], size=n)
    values = scale * rng.standard_normal(n)
    if kind == "zeros":
        values[rng.random(n) < 0.3] = 0.0
    return values


class TestGridSweeps:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
           gamma=st.floats(1e-3, 2.0),
           kind=st.sampled_from(["general", "repeated", "zeros"]))
    def test_margin_sweep_matches_dense(self, seed, n, gamma, kind):
        rng = np.random.default_rng(seed)
        s = random_values(rng, n, kind, rng.uniform(0.1, 3.0))
        nonzero = s[s != 0.0]
        # models whose zone edges fall exactly on data points, plus w = 0
        edges = np.concatenate([1.0 / nonzero, (1.0 - gamma) / nonzero])
        w = np.concatenate([rng.uniform(-3.0, 3.0, 30), [0.0],
                            edges[np.abs(edges) < 1e3]])
        got = _margin_empirical_risks(s, w, gamma)
        assert np.max(np.abs(got - dense_margin_risks(s, w, gamma))) <= 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
           d=st.sampled_from([1, 2]), resolution=st.integers(1, 12),
           clip=st.sampled_from(["none_clipped", "all_clipped", "some"]),
           kind=st.sampled_from(["general", "repeated", "zeros"]),
           grid=st.sampled_from(["model_grid", "random_directions"]))
    def test_regression_sweep_matches_dense(self, seed, n, d, resolution,
                                            clip, kind, grid):
        rng = np.random.default_rng(seed)
        x = random_values(rng, n * d, kind, rng.uniform(0.1, 3.0)).reshape(n, d)
        y = x @ rng.uniform(-1.0, 1.0, d) + rng.standard_normal(n)
        directions, radii = _linear_model_grid(d, rng.uniform(0.1, 3.0),
                                               resolution)
        if grid == "random_directions":
            directions = rng.standard_normal((5, d))
        reach = np.abs(x @ directions.T)
        if clip == "none_clipped":
            m_clip = 2.0 * radii[-1] * max(np.max(reach), 1e-3)
        elif clip == "all_clipped":
            m_clip = 0.5 * radii[0] * (np.min(reach[reach > 0])
                                       if np.any(reach > 0) else 1.0)
        else:
            m_clip = rng.uniform(0.05, 3.0)
        got = _clipped_ray_risks(x, y, directions, radii, m_clip)
        want = dense_ray_risks(x, y, directions, radii, m_clip)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_model_grid_is_origin_plus_rays(self, d):
        # the rays cover the same points as the Cartesian (1-D) or polar
        # (2-D) grid of the coefficient ball, plus the origin
        directions, radii = _linear_model_grid(d, 2.0)
        rays = (directions[:, None, :] * radii[None, :, None]).reshape(-1, d)
        want = (np.linspace(-2.0, 2.0, 51)[:, None] if d == 1
                else polar_grid(2.0))
        want = want[np.any(want != 0.0, axis=1)]
        assert len(rays) == len(want)
        key = lambda pts: pts[np.lexsort(np.round(pts, 12).T[::-1])]
        assert np.max(np.abs(key(rays) - key(want))) <= 1e-15

    def test_margin_coverage_statistics_match_dense(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        result = margin_rad_coverage(spec, 0.5, 1.0, n=300, replications=5,
                                     delta=0.05, seed=11)
        grid = np.linspace(-1.0, 1.0, 401)
        risks = margin_linear_risk(grid, 1.0, 0.1, 0.5)
        for rec in result.records:
            path = simulate_sequence(spec, 300, 11, rec["replication"])
            emp = dense_margin_risks(path.y * path.x, grid, 0.5)
            assert rec["statistic"] == pytest.approx(np.max(risks - emp),
                                                     abs=1e-12)

    def test_regression_coverage_statistics_match_dense(self):
        spec = ar_process([0.5, 0.2], 1.0)
        result = regression_coverage(spec, m_clip=1.0, radius=2.0, n=300,
                                     replications=5, delta=0.05, seed=12)
        w = polar_grid(2.0)
        cov = stationary_params(spec).covariance
        risks = clipped_linear_risk(w, cov, spec.coefficients, 1.0, 1.0)
        for rec in result.records:
            path = simulate_sequence(spec, 300, 12, rec["replication"])
            preds = np.clip(path.x @ w.T, -1.0, 1.0)
            emp = np.mean((path.y[:, None] - preds) ** 2, axis=0)
            assert rec["statistic"] == pytest.approx(np.max(risks - emp),
                                                     abs=1e-12)


def per_cell_concentration_exactness(n_max=30, eps_step=0.01,
                                     ps=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """The grid as one checked scalar call per cell, in cell order."""
    records = []
    ok = True
    i = 0
    eps_grid = np.arange(eps_step, 1.0, eps_step)
    for n in range(1, n_max + 1):
        for p in ps:
            for eps in eps_grid:
                bound = bnd.concentration_tail("hoeffding", 1.0, eps, n)
                tail = bnd.exact_binomial_mean_tail(n, p, eps, strict=True)
                holds = bound >= tail - 1e-15
                ok &= holds
                if not holds or eps in (eps_grid[0], eps_grid[-1]):
                    records.append({"replication": i, "seed": 0,
                                    "statistic": tail, "bound": bound,
                                    "holds": holds})
                i += 1
    return records, {"cells": i, "n_max": n_max}, ok


def per_cell_quarter_lemma_grid(m_max=50, p_step=0.01):
    records = []
    ok = True
    i = 0
    for m in range(1, m_max + 1):
        for k in range(1, int(round(1.0 / p_step))):
            p = k * p_step
            if p <= 1.0 / m:
                continue
            holds = bnd.binomial_quarter_lemma_holds(m, p)
            ok &= holds
            if not holds:
                records.append({"replication": i, "seed": 0, "statistic": p,
                                "bound": 0.25, "holds": holds})
            i += 1
    return records, {"cells": i, "m_max": m_max}, ok


class TestConcentrationGrids:
    """The array grids against the per-cell loops: the same records, in
    the same order, with the same Python types and float bits."""

    @pytest.mark.parametrize("failing", [False, True])
    @pytest.mark.parametrize("grid, per_cell, kwargs, failing_scale", [
        (concentration_exactness, per_cell_concentration_exactness, {}, 40.0),
        (concentration_exactness, per_cell_concentration_exactness,
         {"n_max": 7, "eps_step": 0.037, "ps": (0.0, 0.25, 1.0)}, 40.0),
        (quarter_lemma_grid, per_cell_quarter_lemma_grid, {}, 0.6),
        (quarter_lemma_grid, per_cell_quarter_lemma_grid,
         {"m_max": 13, "p_step": 0.07}, 0.6),
    ])
    def test_matches_per_cell_loop(self, grid, per_cell, kwargs,
                                   failing_scale, failing, monkeypatch):
        # scaling every binomial tail makes cells fail in both versions,
        # which exercises the failure records
        scale = failing_scale if failing else 1.0
        monkeypatch.setattr(bnd, "special", SimpleNamespace(
            bdtrc=lambda k, n, p: special.bdtrc(k, n, p) * scale))
        result = grid(**kwargs)
        records, summary, holds = per_cell(**kwargs)
        assert repr(result.records) == repr(records)
        assert repr(result.summary) == repr(summary)
        assert result.holds is holds
        assert holds is not failing

    @pytest.mark.parametrize("call, name", [
        (lambda: concentration_exactness(eps_step=1.5), "eps_step"),
        (lambda: concentration_exactness(eps_step=0.0), "eps_step"),
        (lambda: concentration_exactness(n_max=0), "n_max"),
        (lambda: concentration_exactness(n_max=2.5), "n_max"),
        (lambda: concentration_exactness(ps=()), "ps"),
        (lambda: concentration_exactness(ps=(0.5, 1.5)), "ps"),
        (lambda: concentration_exactness(ps=(math.nan,)), "ps"),
        (lambda: quarter_lemma_grid(p_step=1.0), "p_step"),
        (lambda: quarter_lemma_grid(p_step=math.nan), "p_step"),
        (lambda: quarter_lemma_grid(m_max=0), "m_max"),
        (lambda: quarter_lemma_grid(m_max=1), "m_max"),
        (lambda: quarter_lemma_grid(p_step=0.7), "m_max=50 and p_step=0.7"),
    ])
    def test_empty_grid_fails_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            call()


@pytest.mark.parametrize("call, removed", [
    (margin_rad_coverage, {"grid_size"}),
    (kernel_rad_bound, {"sign_draws", "dim", "bandwidth"}),
    (chaining_dominance, {"n_points", "max_functions", "sign_draws"}),
    (mixing_tightness, {"seed", "radius", "m_clip", "variance"}),
    (solve_margin_program, {"slack_target"}),
    (TauLambdaReport, {"grid_resolution"}),
])
def test_options_no_caller_sets_are_gone(call, removed):
    # each took one value from every caller; its literal is in the body now
    assert not removed & set(inspect.signature(call).parameters)
