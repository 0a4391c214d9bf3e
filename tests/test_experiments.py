import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from seqbounds.estimators import verify_symmetrization
from seqbounds.classes import threshold_class
from seqbounds.losses import zero_one_loss
from seqbounds.experiments import (_clipped_ray_risks, _linear_model_grid,
                                   _margin_empirical_risks,
                                   bound_vs_n_records, clipped_linear_risk,
                                   margin_linear_risk, margin_rad_coverage,
                                   mixing_tightness, regression_coverage,
                                   relative_rate_scaling,
                                   scenario_pac_coverage, symmetrization,
                                   vc_coverage)
from seqbounds.processes import (ar1_process, ar_process, simulate_sequence,
                                 stationary_params, stream)
from seqbounds.scenario import one_dim_threshold_program


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
