import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from seqbounds import bounds as bnd
from seqbounds import classes
from seqbounds import experiments as xp
from seqbounds.classes import FunctionClassDescriptor
from seqbounds.estimators import (threshold_empirical_risks,
                                  threshold_risk_oracle, violation_rate)
from seqbounds.experiments import (_clipped_ray_risks, _linear_model_grid,
                                   _margin_empirical_risks, chaining_dominance,
                                   clipped_linear_risk,
                                   concentration_exactness, kernel_rad_bound,
                                   margin_linear_risk, margin_rad_coverage,
                                   mixing_tightness, quarter_lemma,
                                   regression_coverage, relative_rate_scaling,
                                   scenario_coverage, symmetrization,
                                   vc_coverage)
from seqbounds.losses import LossSpec
from seqbounds.processes import (SequenceSample, ar1_process, ar_process,
                                 sample_marginal, simulate_sequence,
                                 stationary_params, stream)
from seqbounds.scenario import (TauLambdaReport, certify,
                                one_dim_threshold_program,
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

    def test_tiny_slope_scores_nothing(self):
        # 1 / 1e-300 squares past the float range; the risk is still the
        # limit 1 of w -> 0, without an overflow warning (an error here)
        risks = margin_linear_risk(np.array([1e-300, -1e-300]), 1.0, 0.1, 0.5)
        assert np.array_equal(risks, [1.0, 1.0])


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

    def test_normal_density_is_scipy_norm_pdf(self):
        # bit for bit, including subnormal, underflowing and infinite points
        a = np.concatenate(([0.0, 1e-300, -1e-300, 5e-324, np.inf, -np.inf],
                            np.linspace(-40.0, 40.0, 8001),
                            np.geomspace(1.0, 40.0, 2001)))
        assert np.array_equal(xp._norm_pdf(a), stats.norm.pdf(a))

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
        assert result.records["replication"] == list(range(200))

    def test_rate_scaling_records(self):
        result = relative_rate_scaling()
        assert result.holds
        assert len(result.records["statistic"]) == 3  # one per pair

    def test_margin_coverage_rejects_offset_threshold(self):
        spec = ar1_process(0.8, 0.6, b_star=0.3)
        with pytest.raises(ValueError):
            margin_rad_coverage(spec, 0.5, 1.0, 100, 5, 0.05, 1)

    def test_scenario_coverage_small(self):
        prog = one_dim_threshold_program(theta_lo=-6.0, theta_hi=6.0,
                                         margin=1.0)
        spec = ar1_process(0.8, 0.6)
        result = scenario_coverage(prog, spec, epsilon=0.3, delta=0.2,
                                   replications=20, seed=606)
        assert result.holds
        assert result.summary["infeasible"] == 0

    def test_mixing_grid_shape(self):
        result = mixing_tightness()
        assert result.holds
        assert result.summary["cells"] == len(result.records["bound"]) == 60


@pytest.mark.xfail(strict=True, reason=(
    "near the unit root the correlation time (about 1,000 steps) is half "
    "the path, and the VC bound misses its 0.95 target (holds-fraction "
    "0.515); a fix or any change of behaviour shows up as a pass"))
def test_vc_coverage_near_unit_root():
    spec = ar1_process(0.999, 0.6, b_star=0.0, flip_p=0.1)
    assert vc_coverage(spec, n=2000, replications=200, delta=0.05,
                       seed=12345).holds


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the statistic reads each dichotomy at the midpoint of its cell, so it "
    "understates sup_b L(b) - Lhat(b) (by 4.3e-4 on this path, against a "
    "slack of 0.228); a fix shows up as a pass"))
def test_vc_statistic_is_the_supremum_over_each_cell():
    # Lhat is constant on each cell between sorted points, and L is
    # continuous and monotone on each side of b_star, so the supremum over
    # a cell is the larger of L at its two ends (-inf and +inf outside)
    spec = ar1_process(0.8, 0.6, flip_p=0.1)
    result = vc_coverage(spec, n=2000, replications=1, delta=0.05,
                         seed=12345)
    path = simulate_sequence(spec, 2000, 12345, replication=0)
    _, emps = threshold_empirical_risks(path.x, path.y)
    ends = np.concatenate(([-np.inf], np.sort(path.x), [np.inf]))
    risks = threshold_risk_oracle(spec)(ends)
    sup = np.max(np.maximum(risks[:-1], risks[1:]) - emps)
    assert result.records["statistic"][0] == pytest.approx(sup, abs=1e-12)


@pytest.mark.parametrize("a", [0.8, pytest.param(0.999, marks=pytest.mark.xfail(
    strict=True, reason=(
        "near the unit root the VC-planned path of 310 scenarios spans a "
        "third of one correlation time, and 0.635 of the certificates "
        "violate more than epsilon, against a 0.1 target; a fix or any "
        "change of behaviour shows up as a pass")))])
def test_vc_scenario_certificate_near_unit_root(a):
    # the box scales with the marginal sd, so that no certificate is
    # infeasible for want of room; an infeasible one counts as exceeding
    sigma_x = 0.6 / math.sqrt(1.0 - a * a)
    program = one_dim_threshold_program(-12.0 * sigma_x, 12.0 * sigma_x)
    spec = ar1_process(a, 0.6, 0.0, 0.1)
    exceed = 0
    for r in range(200):
        cert = certify(program, spec, 0.15, 0.1, "vc", 888, replication=r)
        ghost = sample_marginal(spec, 10_000, 888, r, labels=False)
        exceed += not cert.feasible or violation_rate(
            cert.theta_hat, program, ghost) > 0.15
    assert exceed / 200 <= 0.1 + 3.0 * math.sqrt(0.09 / 200)


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


def searchsorted_ray_risks(x, y, directions, radii, m_clip):
    """The per-direction sweep the paired one replaced: each row of
    ``directions`` projected and binned on its own, by a search of radii.
    Rows that no model clips add their moments to the last bin, as in the
    paired sweep."""
    k, m = directions.shape[0], radii.size
    max_e = np.max(np.linalg.norm(directions, axis=1))
    inner = (np.linalg.norm(x, axis=1) * (max_e * radii[-1])
             < m_clip * (1 - 1e-9))
    p = x[~inner] @ directions.T                            # (near rows, k)
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

    x_in, y_near = x[inner], y[~inner][:, None]
    bins_yp, bins_pp = per_bin((y_near * p).ravel()), per_bin((p * p).ravel())
    bins_yp[:, m] += np.einsum("ij,j->i", directions, x_in.T @ y[inner])
    bins_pp[:, m] += np.einsum("ij,jl,il->i", directions, x_in.T @ x_in,
                               directions)
    s_yp, s_pp = inside(bins_yp), inside(bins_pp)
    s_ys = outside(per_bin(np.where(p < 0, -y_near, y_near).ravel()))
    n_out = outside(per_bin())
    total = (float(y @ y) - 2.0 * radii * s_yp + radii ** 2 * s_pp
             - 2.0 * m_clip * s_ys + m_clip ** 2 * n_out)
    return total / len(y)


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
        want = dense_ray_risks(x, y, np.vstack([directions, -directions]),
                               radii, m_clip)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_model_grid_is_origin_plus_rays(self, d):
        # the rays cover the same points as the Cartesian (1-D) or polar
        # (2-D) grid of the coefficient ball, plus the origin
        directions, radii = _linear_model_grid(d, 2.0)
        signed = np.vstack([directions, -directions])
        rays = (signed[:, None, :] * radii[None, :, None]).reshape(-1, d)
        want = (np.linspace(-2.0, 2.0, 51)[:, None] if d == 1
                else polar_grid(2.0))
        want = want[np.any(want != 0.0, axis=1)]
        assert len(rays) == len(want)
        key = lambda pts: pts[np.lexsort(np.round(pts, 12).T[::-1])]
        assert np.max(np.abs(key(rays) - key(want))) <= 1e-15

    def test_model_grid_is_antipodal(self):
        # one row per +-e pair: row j lies on the polar direction phi_j and
        # its negation on phi_j + pi; taking the first 25 polar directions
        # as they are would put the negations up to 6.7e-16 off
        directions, _ = _linear_model_grid(2, 2.0)
        angles = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        polar = np.column_stack([np.cos(angles), np.sin(angles)])
        assert directions.shape == (25, 2)
        assert np.max(np.abs(directions - polar[:25])) <= 5e-16
        assert np.max(np.abs(-directions - polar[25:])) <= 5e-16
        one_dim, _ = _linear_model_grid(1, 2.0)
        assert one_dim.tolist() == [[1.0]]

    @pytest.mark.parametrize("coefficients", [[0.6], [0.5, 0.2]])
    def test_paired_sweep_has_the_bits_of_the_searchsorted_sweep(
            self, coefficients):
        spec = ar_process(coefficients, 1.0)
        directions, radii = _linear_model_grid(len(coefficients), 2.0)
        signed = np.vstack([directions, -directions])
        for r in range(20):
            path = simulate_sequence(spec, 300, 2024, replication=r)
            got = _clipped_ray_risks(path.x, path.y, directions, radii, 1.0)
            want = searchsorted_ray_risks(path.x, path.y, signed, radii, 1.0)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_on_the_clip_boundary(self, d):
        # every point sits at r |p| = M for one radius r of the grid and one
        # direction e, so each bin edge holds points that may count as either
        rng = np.random.default_rng(d)
        m_clip = 0.7
        directions, radii = _linear_model_grid(d, 2.0, resolution=12)
        x = np.vstack([np.outer(m_clip / radii, e) for e in directions])
        x = np.vstack([x, -x])
        y = rng.standard_normal(len(x))
        got = _clipped_ray_risks(x, y, directions, radii, m_clip)
        want = dense_ray_risks(x, y, np.vstack([directions, -directions]),
                               radii, m_clip)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("grid", ["model_grid", "random_directions"])
    @pytest.mark.parametrize("rows", ["both", "all_inner", "none_inner"])
    def test_rows_at_the_inner_boundary(self, d, grid, rows):
        # rows no model clips go in closed form when |x| max|e| R stays
        # under M (1 - 1e-9); put rows a few ulp either side of that edge
        # and of the clip edge M of the longest direction at the last
        # radius, and near rows that the longest direction clips earlier
        rng = np.random.default_rng([d, len(grid), len(rows)])
        m_clip = 0.7
        directions, radii = _linear_model_grid(d, 2.0, resolution=12)
        if grid == "random_directions":
            directions = rng.standard_normal((5, d))
        norms = np.linalg.norm(directions, axis=1)
        ulps = 1.0 + np.arange(-3, 4) * np.finfo(float).eps
        edges = {"both": [1.0 - 1e-9, 1.0, 1.5, 4.0],
                 "all_inner": [1.0 - 2e-9],
                 "none_inner": [1.0 - 1e-9 + 1e-15, 1.0, 1.5, 4.0]}[rows]
        lengths = np.outer(edges, ulps).ravel() * m_clip / (
            norms.max() * radii[-1])
        units = np.vstack([directions[np.argmax(norms)] / norms.max(),
                           rng.standard_normal((3, d))])
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        x = np.vstack([np.outer(lengths, u)
                       for u in np.vstack([units, -units])])
        if rows == "all_inner":
            x = np.vstack([x, np.zeros((1, d))])
        y = rng.standard_normal(len(x))
        inner = (np.linalg.norm(x, axis=1) * norms.max() * radii[-1]
                 < m_clip * (1 - 1e-9))
        assert {"both": 0 < inner.sum() < len(x), "all_inner": inner.all(),
                "none_inner": not inner.any()}[rows]
        got = _clipped_ray_risks(x, y, directions, radii, m_clip)
        want = dense_ray_risks(x, y, np.vstack([directions, -directions]),
                               radii, m_clip)
        assert got.dtype == np.float64
        assert got.shape == (2 * len(directions), radii.size)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_margin_coverage_statistics_match_dense(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        result = margin_rad_coverage(spec, 0.5, 1.0, n=300, replications=5,
                                     delta=0.05, seed=11)
        grid = np.linspace(-1.0, 1.0, 401)
        risks = margin_linear_risk(grid, 1.0, 0.1, 0.5)
        for r, statistic in zip(result.records["replication"],
                                result.records["statistic"]):
            path = simulate_sequence(spec, 300, 11, r)
            emp = dense_margin_risks(path.y * path.x, grid, 0.5)
            assert statistic == pytest.approx(np.max(risks - emp), abs=1e-12)

    def test_regression_coverage_statistics_match_dense(self):
        spec = ar_process([0.5, 0.2], 1.0)
        result = regression_coverage(spec, m_clip=1.0, radius=2.0, n=300,
                                     replications=5, delta=0.05, seed=12)
        w = polar_grid(2.0)
        cov = stationary_params(spec).covariance
        risks = clipped_linear_risk(w, cov, spec.coefficients, 1.0, 1.0)
        for r, statistic in zip(result.records["replication"],
                                result.records["statistic"]):
            path = simulate_sequence(spec, 300, 12, r)
            preds = np.clip(path.x @ w.T, -1.0, 1.0)
            emp = np.mean((path.y[:, None] - preds) ** 2, axis=0)
            assert statistic == pytest.approx(np.max(risks - emp), abs=1e-12)


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


def per_cell_quarter_lemma(m_max=50, p_step=0.01):
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
    the same order, with the same Python types and float bits (the loops
    build one record per row, the grids one list per column)."""

    @pytest.mark.parametrize("failing", [False, True])
    @pytest.mark.parametrize("grid, per_cell, kwargs, failing_scale", [
        (concentration_exactness, per_cell_concentration_exactness, {}, 40.0),
        (quarter_lemma, per_cell_quarter_lemma, {}, 0.6),
    ])
    def test_matches_per_cell_loop(self, grid, per_cell, kwargs,
                                   failing_scale, failing, monkeypatch):
        # scaling every binomial tail makes cells fail in both versions,
        # which exercises the failure records
        scale = failing_scale if failing else 1.0
        monkeypatch.setattr(bnd, "special", SimpleNamespace(
            betainc=lambda a, b, p: special.betainc(a, b, p) * scale))
        result = grid(**kwargs)
        records, summary, holds = per_cell(**kwargs)
        assert repr(result.records) == repr(
            {k: [rec[k] for rec in records] for k in xp.RECORD_COLUMNS})
        assert repr(result.summary) == repr(summary)
        assert result.holds is holds
        assert holds is not failing


def test_hoeffding_grid_is_the_scalar_bound(monkeypatch):
    # a binomial tail above 1 fails every cell, so every cell's bound is kept
    monkeypatch.setattr(bnd, "_binomial_tail",
                        lambda n, p, eps, strict: np.full(
                            np.broadcast_shapes(np.shape(n), np.shape(p),
                                                np.shape(eps)), 2.0))
    records = concentration_exactness().records
    assert records["replication"] == list(range(30 * 5 * 99))
    eps_grid = np.arange(0.01, 1.0, 0.01)
    for i, bound in zip(records["replication"], records["bound"]):
        n, eps = i // (5 * 99) + 1, i % 99
        assert bound == bnd.concentration_tail(
            "hoeffding", 1.0, eps_grid[eps], n)


def test_hoeffding_cells_are_the_scalar_bound():
    rng = np.random.default_rng(29)
    ns = rng.integers(1, 10 ** 6, 500, endpoint=True)
    eps = rng.uniform(0.0, 1.0, 500)
    # tails that underflow to 0, and ones near 1
    eps[:250] *= 3.0 / np.sqrt(ns[:250])
    bound = bnd._exp_tail(ns, [e ** 2 for e in eps], ns * 1.0)
    assert 0.0 < bound.max() and bound.min() == 0.0
    assert bound.tolist() == [bnd.concentration_tail("hoeffding", 1.0, e, n)
                              for n, e in zip(ns.tolist(), eps)]


def test_chaining_dominance_one_distance_matrix_per_instance(monkeypatch):
    calls = []
    original = classes.pseudo_metric_matrix

    def counted(values):
        calls.append(values.shape)
        return original(values)

    monkeypatch.setattr(classes, "pseudo_metric_matrix", counted)
    monkeypatch.setattr(xp, "pseudo_metric_matrix", counted)
    result = chaining_dominance(6, 17)
    assert len(calls) == 6
    monkeypatch.undo()
    records = result.records
    for i, (bound, statistic) in enumerate(zip(records["bound"],
                                               records["statistic"])):
        rng = stream(17, i, "points")
        values = rng.standard_normal((int(rng.integers(2, 13)), 16))
        diameter = float(np.max(classes.pseudo_metric_matrix(values)))
        chain, _ = bnd.chaining_rad_upper_best(
            diameter, lambda eps: math.log(
                classes.covering_number_exhaustive(values, eps)),
            16, max_depth=12)
        assert bound == chain
        # the antithetic estimate of the rows' class from the per-draw sign
        # stream; BLAS sums a block of rows in another order than one row,
        # so the bits need the rows' sums as one product, as the check takes
        draws = stream(17 + i, 0, "signs")
        signs = np.array([draws.integers(0, 2, 16) * 2.0 - 1.0
                          for _ in range(300)])
        per_draw = [max(values @ sg) / 16 for sg in signs]
        sums = signs @ values.T
        assert np.allclose(np.max(sums, axis=1) / 16, per_draw,
                           rtol=0, atol=1e-15)
        vals = 0.5 * (np.max(sums, axis=1) / 16 + np.max(-sums, axis=1) / 16)
        value = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(300))
        assert statistic == value - 3.0 * se


@pytest.mark.parametrize("call, removed", [
    (margin_rad_coverage, {"grid_size"}),
    (kernel_rad_bound, {"sign_draws", "dim", "bandwidth"}),
    (chaining_dominance, {"n_points", "max_functions", "sign_draws"}),
    (mixing_tightness, {"seed", "radius", "m_clip", "variance", "mus",
                        "deltas", "betas", "a_values"}),
    (solve_margin_program, {"slack_target"}),
    (TauLambdaReport, {"grid_resolution"}),
    (scenario_coverage, {"ghost_draws"}),
    (concentration_exactness, {"n_max", "eps_step", "ps"}),
    (quarter_lemma, {"m_max", "p_step"}),
    (relative_rate_scaling, {"tolerance", "ns", "delta"}),
    # fields that nothing reads
    (FunctionClassDescriptor, {"output_range"}),
    (classes.covering_number_exhaustive, {"sample"}),
    (LossSpec, {"lipschitz_link"}),
    (TauLambdaReport, {"method"}),
    (FunctionClassDescriptor, {"functions", "vc_dim"}),
    # replications run in order: no check fans them out to threads
    *((check, {"threads"}) for check in (
        vc_coverage, margin_rad_coverage, regression_coverage,
        symmetrization, scenario_coverage, kernel_rad_bound,
        chaining_dominance)),
    # a sample's provenance fields, which nothing read
    (SequenceSample, {"seed", "replication", "process"}),
    # the check's name picks the relative bound: relative_coverage
    (vc_coverage, {"relative"}),
])
def test_options_no_caller_sets_are_gone(call, removed):
    # each took one value from every caller (its literal is in the body
    # now), or was a field that nothing read
    assert not removed & set(inspect.signature(call).parameters)
