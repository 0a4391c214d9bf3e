import itertools

import numpy as np
import pytest
from scipy import stats

from seqbounds import estimators
from seqbounds.classes import (finite_class, kernel_ball_class,
                               linear_ball_class, threshold_class)
from seqbounds.estimators import (empirical_rademacher,
                                  empirical_rademacher_exact, empirical_risk,
                                  risk_mc, sup_deviation, threshold_classifier,
                                  threshold_empirical_risks,
                                  threshold_ghost_gap, threshold_risk_oracle,
                                  verify_symmetrization, violation_rate)
from seqbounds.losses import zero_one_loss
from seqbounds.processes import (SequenceSample, ar1_process, iid_process,
                                 sample_marginal, simulate_sequence,
                                 stationary_params, stream)
from seqbounds.scenario import one_dim_threshold_program


def make_sample(x, y):
    return SequenceSample(x=np.asarray(x, float), y=np.asarray(y, float),
                          seed=0, replication=0, process="manual")


class TestEmpiricalRisk:
    def test_perfect_classifier(self):
        sample = make_sample([-1.0, 2.0, 0.5], [-1.0, 1.0, 1.0])
        assert empirical_risk(threshold_classifier(0.0), zero_one_loss(), sample) == 0.0

    def test_constant_wrong(self):
        sample = make_sample([1.0, 2.0], [-1.0, -1.0])
        model = lambda x: np.ones_like(np.asarray(x, float))
        assert empirical_risk(model, zero_one_loss(), sample) == 1.0

    def test_half_wrong(self):
        sample = make_sample([-1.0, 1.0], [1.0, 1.0])
        assert empirical_risk(threshold_classifier(0.0), zero_one_loss(), sample) == 0.5

    def test_empty_sample_rejected(self):
        sample = make_sample([], [])
        with pytest.raises(ValueError):
            empirical_risk(threshold_classifier(0.0), zero_one_loss(), sample)


class TestRiskMc:
    def test_noiseless_matching_threshold(self):
        spec = ar1_process(0.6, 1.0, b_star=0.3, flip_p=0.0)
        est = risk_mc(threshold_classifier(0.3), zero_one_loss(), spec,
                      n=200, replications=20, seed=5)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_bayes_risk_equals_flip_probability(self):
        spec = ar1_process(0.6, 1.0, b_star=0.0, flip_p=0.1)
        est = risk_mc(threshold_classifier(0.0), zero_one_loss(), spec,
                      n=400, replications=60, seed=6)
        assert abs(est.value - 0.1) <= 3 * est.std_error

    def test_iid_baseline_analytic_risk(self):
        spec = iid_process(dist="normal", sigma=1.0, b_star=0.0, flip_p=0.2)
        oracle = threshold_risk_oracle(spec)
        b = 0.7
        est = risk_mc(threshold_classifier(b), zero_one_loss(), spec,
                      n=500, replications=60, seed=7)
        assert abs(est.value - oracle(np.array([b]))[0]) <= 3 * est.std_error

    def test_range_and_preconditions(self):
        spec = ar1_process(0.5, 1.0, flip_p=0.4)
        est = risk_mc(threshold_classifier(1.0), zero_one_loss(), spec,
                      n=100, replications=10, seed=8)
        assert 0.0 <= est.value <= 1.0
        with pytest.raises(ValueError):
            risk_mc(threshold_classifier(0.0), zero_one_loss(), spec, 100, 1, 8)

    def test_estimate_json_record(self):
        import json
        spec = ar1_process(0.5, 1.0)
        est = risk_mc(threshold_classifier(0.0), zero_one_loss(), spec,
                      n=50, replications=4, seed=9)
        payload = json.loads(est.to_json())
        assert set(payload) == {"value", "std_error", "replications", "seed"}
        assert payload["replications"] == 4


class TestEmpiricalRademacher:
    def test_singleton_class_exactly_zero(self):
        cls = finite_class([lambda x: np.cos(np.asarray(x, float))])
        est = empirical_rademacher(cls, np.linspace(0, 1, 6), 50, 3)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_linear_ball_single_point(self):
        cls = linear_ball_class(2, 2.0)
        est = empirical_rademacher(cls, np.array([[3.0, 4.0]]), 16, 4)
        assert est.value == pytest.approx(10.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_finite_matches_sign_enumeration(self):
        rng = np.random.default_rng(12)
        n, m = 8, 5
        values = rng.normal(size=(m, n))
        pts = np.arange(n, dtype=float)
        fns = [(lambda row: (lambda x: row[np.asarray(x, int)]))(values[j])
               for j in range(m)]
        cls = finite_class(fns)
        # independent brute force over all 2^8 sign vectors
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            sg = np.array(signs)
            total += max(float(np.dot(row, sg)) / n for row in values)
        exact = total / 2 ** n
        assert empirical_rademacher_exact(cls, pts) == pytest.approx(exact, abs=1e-12)
        est = empirical_rademacher(cls, pts, 400, 13)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_threshold_class_nonnegative(self):
        est = empirical_rademacher(threshold_class(), np.linspace(-1, 1, 9), 64, 5)
        assert est.value >= 0.0

    def test_monotone_and_scaling_in_radius(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(20, 3))
        est1 = empirical_rademacher(linear_ball_class(3, 1.0), pts, 64, 6)
        est2 = empirical_rademacher(linear_ball_class(3, 2.5), pts, 64, 6)
        assert est1.value <= est2.value
        assert est2.value == pytest.approx(2.5 * est1.value, rel=1e-12)

    def test_kernel_ball_runs_and_bounded(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(32, 2))
        est = empirical_rademacher(kernel_ball_class(1.5), pts, 64, 7)
        assert 0.0 <= est.value <= 1.5

    def test_kernel_ball_tiny_bandwidth_gives_identity_gram(self):
        # bandwidth ** 2 underflows; the limit is the identity Gram, whose
        # supremum is radius * sqrt(n) / n for every sign vector
        pts = np.arange(5.0)
        est = empirical_rademacher(kernel_ball_class(1.0, bandwidth=1e-200),
                                   pts, 8, 1)
        assert est.value == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-15)

    def test_codebook_unsupported(self):
        from seqbounds.classes import codebook_class
        with pytest.raises(ValueError):
            empirical_rademacher(codebook_class(2, 1.0), np.zeros((3, 1)), 8, 1)


def _sign_case(kind, n, seed):
    """A class, its points and sup(sigma) for one sign vector, written
    directly from the definition of each class's supremum."""
    rng = np.random.default_rng(seed)
    if kind == "finite":
        values = rng.normal(size=(5, n))
        pts = np.arange(n, dtype=float)
        fns = [(lambda row: (lambda x: row[np.asarray(x, int)]))(values[j])
               for j in range(5)]
        return finite_class(fns), pts, lambda sg: max(values @ sg) / n
    if kind == "threshold1d":
        pts = rng.normal(size=n)
        pts[n // 2] = pts[0]                    # duplicate points
        pts[-1] = pts[1]
        labels = [np.where(pts >= u, 1.0, -1.0) for u in np.unique(pts)]
        labels.append(-np.ones(n))
        return threshold_class(), pts, lambda sg: max(r @ sg for r in labels) / n
    if kind in ("linear_ball", "linear_ball_offset"):
        pts = rng.normal(size=(n, 2))
        offset = kind == "linear_ball_offset"
        x = np.hstack([pts, np.ones((n, 1))]) if offset else pts
        cls = linear_ball_class(2, 1.7, with_offset=offset)
        return cls, pts, lambda sg: 1.7 * np.sqrt(np.sum((sg @ x) ** 2)) / n
    pts = rng.normal(size=(n, 2))
    gram = np.array([[np.exp(-np.sum((a - b) ** 2) / (2 * 0.8 ** 2))
                      for b in pts] for a in pts])
    return (kernel_ball_class(1.3, bandwidth=0.8), pts,
            lambda sg: 1.3 * np.sqrt(max(sg @ gram @ sg, 0.0)) / n)


SIGN_KINDS = ("finite", "threshold1d", "linear_ball", "linear_ball_offset",
              "kernel_ball")


class TestSignScoring:
    @pytest.mark.parametrize("kind", SIGN_KINDS)
    def test_exact_matches_per_sign_loop(self, kind):
        n = 9
        cls, pts, sup = _sign_case(kind, n, 21)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            total += sup(np.array(signs))
        assert empirical_rademacher_exact(cls, pts) == pytest.approx(
            total / 2 ** n, rel=1e-12)

    @pytest.mark.parametrize("kind", SIGN_KINDS)
    @pytest.mark.parametrize("n", [7, 16])
    def test_monte_carlo_matches_per_draw_loop(self, kind, n):
        cls, pts, sup = _sign_case(kind, n, 22)
        draws, seed = 40, 9
        rng = stream(seed, 0, "signs")
        vals = []
        for _ in range(draws):
            sg = rng.integers(0, 2, n) * 2.0 - 1.0
            vals.append(0.5 * (sup(sg) + sup(-sg)))
        est = empirical_rademacher(cls, pts, draws, seed)
        assert est.value == pytest.approx(np.mean(vals), abs=1e-15)
        assert est.std_error == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(draws), abs=1e-15)

    @pytest.mark.parametrize("kind", SIGN_KINDS)
    def test_monte_carlo_scores_signs_in_row_blocks(self, kind, monkeypatch):
        # 23 draws in blocks of 5 give the bits of one (23, n) sign matrix
        cls, pts, _ = _sign_case(kind, 7, 23)
        draws, seed = 23, 9
        signs = stream(seed, 0, "signs").integers(0, 2, (draws, 7)) * 2.0 - 1.0
        sup_rows = estimators._sup_rows
        sup = sup_rows(cls, np.asarray(pts, dtype=float))
        vals = 0.5 * (sup(signs) + sup(-signs))
        rows = []

        def recording_sup_rows(*args):
            inner = sup_rows(*args)
            return lambda s: (rows.append(s.shape[0]), inner(s))[1]

        monkeypatch.setattr(estimators, "_SIGN_BLOCK", 5)
        monkeypatch.setattr(estimators, "_sup_rows", recording_sup_rows)
        est = empirical_rademacher(cls, pts, draws, seed)
        assert max(rows) == 5 and sum(rows) == 2 * draws
        assert est.value == float(np.mean(vals))
        assert est.std_error == float(np.std(vals, ddof=1) / np.sqrt(draws))

    @pytest.mark.parametrize("n", [1, 3, 7, 15, 16, 17, 33])
    def test_sign_matrix_is_the_per_draw_stream(self, n):
        for draws in (1, 2, 5, 300):
            block, per_draw = stream(4, 0, "signs"), stream(4, 0, "signs")
            rows = [per_draw.integers(0, 2, n) for _ in range(draws)]
            assert np.array_equal(block.integers(0, 2, (draws, n)),
                                  np.array(rows))

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(0),
                                        np.array([[0.0, np.nan], [1.0, 2.0]]),
                                        np.array([[np.inf, 0.0]])],
                             ids=["empty", "empty-1d", "nan", "inf"])
    @pytest.mark.parametrize("estimate", [
        lambda cls, pts: empirical_rademacher(cls, pts, 8, 1),
        lambda cls, pts: empirical_rademacher_exact(cls, pts),
    ], ids=["monte-carlo", "exact"])
    def test_points_rejected(self, estimate, points):
        with pytest.raises(ValueError, match="^points"):
            estimate(linear_ball_class(2, 1.0), points)


class TestThresholdMachinery:
    def brute_force_risks(self, xs, ys, thresholds):
        out = []
        for b in thresholds:
            preds = np.where(xs >= b, 1.0, -1.0)
            out.append(np.mean(preds != ys))
        return np.array(out)

    def test_empirical_risks_match_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            xs = rng.normal(size=n)
            ys = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            thresholds, risks = threshold_empirical_risks(xs, ys)
            finite = np.isfinite(thresholds)
            brute = self.brute_force_risks(xs, ys, thresholds[finite])
            assert np.allclose(risks[finite], brute)
            # boundary dichotomies: all +1 and all -1
            assert risks[0] == pytest.approx(np.mean(ys == -1.0))
            assert risks[-1] == pytest.approx(np.mean(ys == 1.0))

    def test_ghost_gap_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n, m = int(rng.integers(2, 25)), int(rng.integers(2, 25))
            train = make_sample(rng.normal(size=n),
                                np.where(rng.random(n) < 0.5, 1.0, -1.0))
            ghost = make_sample(rng.normal(size=m),
                                np.where(rng.random(m) < 0.5, 1.0, -1.0))
            gap = threshold_ghost_gap(train, ghost)
            cand = np.concatenate([train.x, ghost.x])
            cand = np.concatenate([np.sort(cand) - 1e-9, [np.max(cand) + 1.0]])
            brute = max(
                np.mean(np.where(ghost.x >= b, 1.0, -1.0) != ghost.y)
                - np.mean(np.where(train.x >= b, 1.0, -1.0) != train.y)
                for b in cand
            )
            assert gap == pytest.approx(brute, abs=1e-12)


class TestSupDeviation:
    def test_single_function_class(self):
        sample = make_sample([-1.0, 1.0], [1.0, 1.0])
        f = threshold_classifier(0.0)
        cls = finite_class([f])
        result = sup_deviation(cls, zero_one_loss(), sample,
                               risk_oracle=lambda fn: 0.75)
        assert result.value == pytest.approx(0.75 - 0.5)

    def test_zero_when_oracle_matches_empirical(self):
        sample = make_sample([-1.0, 1.0], [-1.0, 1.0])
        f = threshold_classifier(0.0)
        cls = finite_class([f])
        emp = empirical_risk(f, zero_one_loss(), sample)
        result = sup_deviation(cls, zero_one_loss(), sample,
                               risk_oracle=lambda fn: emp)
        assert result.value == 0.0

    def test_threshold_class_value_vs_direct_scan(self):
        spec = ar1_process(0.7, 1.0, b_star=0.2, flip_p=0.1)
        oracle = threshold_risk_oracle(spec)
        path = simulate_sequence(spec, 300, 44)
        res = sup_deviation(threshold_class(), zero_one_loss(), path, oracle)
        thresholds, emps = threshold_empirical_risks(path.x, path.y)
        direct = np.max(oracle(thresholds) - emps)
        assert res.value == pytest.approx(direct)

    def test_loss_kind_checked(self):
        from seqbounds.losses import margin_loss
        path = simulate_sequence(ar1_process(0.5, 1.0), 10, 1)
        with pytest.raises(ValueError):
            sup_deviation(threshold_class(), margin_loss(0.5), path, lambda b: b)


class TestThresholdRiskOracle:
    @pytest.mark.parametrize("spec", [
        ar1_process(0.8, 0.6, flip_p=0.1),
        ar1_process(-0.5, 2.0, b_star=0.7, flip_p=0.3),
        iid_process(mean=1.5, sigma=0.4, b_star=-0.2, flip_p=0.05),
    ])
    def test_matches_norm_cdf_reference(self, spec):
        law = stationary_params(spec)
        mu, scale, bs, p = (law.mean, np.sqrt(law.variance), spec.b_star,
                            spec.flip_p)
        b = np.concatenate(([-np.inf, np.inf, bs], np.linspace(-8, 8, 2001)))
        hi = stats.norm.cdf((np.maximum(b, bs) - mu) / scale)
        lo = stats.norm.cdf((np.minimum(b, bs) - mu) / scale)
        assert np.array_equal(threshold_risk_oracle(spec)(b),
                              p + (1.0 - 2.0 * p) * (hi - lo))


class TestViolationRate:
    def test_trivial_rates(self):
        prog = one_dim_threshold_program(margin=0.5)
        draws = np.array([-1.0, -2.0, -3.0])
        assert violation_rate(np.array([0.0]), prog, draws) == 0.0
        assert violation_rate(np.array([-10.0]), prog, draws) == 1.0

    def test_median_threshold(self):
        spec = ar1_process(0.8, 0.6)
        ghost = sample_marginal(spec, 10_000, 23)
        prog = one_dim_threshold_program(margin=0.5)
        rate = violation_rate(np.array([0.0]), prog, ghost)
        assert abs(rate - 0.5) <= 3.0 / np.sqrt(10_000)

    def test_empty_rejected(self):
        prog = one_dim_threshold_program()
        with pytest.raises(ValueError):
            violation_rate(np.array([0.0]), prog, np.array([]))


class TestSymmetrization:
    def test_precondition_named(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        with pytest.raises(ValueError, match="n\\*eps\\^2 >= 2\\*B\\^2"):
            verify_symmetrization(threshold_class(), zero_one_loss(), spec,
                                  n=10, epsilon=0.2, replications=5, seed=1)

    def test_holds_on_ar1(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        result = verify_symmetrization(threshold_class(), zero_one_loss(),
                                       spec, n=200, epsilon=0.2,
                                       replications=120, seed=21)
        assert result.holds
        assert 0.0 <= result.lhs_freq <= 1.0
        assert result.replications == 120

    def test_singleton_class_holds(self):
        # a single function: both sides are tails of one empirical average
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        oracle = threshold_risk_oracle(spec)
        f = threshold_classifier(0.4)
        cls = finite_class([f])
        result = verify_symmetrization(cls, zero_one_loss(), spec, n=200,
                                       epsilon=0.2, replications=100, seed=22,
                                       risk_oracle=lambda fn: oracle(np.array([0.4]))[0])
        assert result.holds

    def test_finite_class_needs_oracle(self):
        spec = ar1_process(0.8, 0.6)
        cls = finite_class([threshold_classifier(0.0)])
        with pytest.raises(ValueError, match="risk_oracle"):
            verify_symmetrization(cls, zero_one_loss(), spec, n=200,
                                  epsilon=0.2, replications=5, seed=1)
