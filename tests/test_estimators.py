import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from seqbounds import estimators
from seqbounds.classes import (kernel_ball_class, linear_ball_class,
                               threshold_class)
from seqbounds.estimators import (empirical_rademacher,
                                  empirical_rademacher_exact, sup_deviation,
                                  threshold_empirical_risks,
                                  threshold_ghost_gap, threshold_risk_oracle,
                                  violation_rate)
from seqbounds.experiments import symmetrization
from seqbounds.processes import (SequenceSample, ar1_process, iid_process,
                                 markov_binary_process, sample_marginal,
                                 simulate_sequence, stationary_params, stream)
from seqbounds.scenario import one_dim_threshold_program


def make_sample(x, y):
    return SequenceSample(x=np.asarray(x, float), y=np.asarray(y, float))


def brute_ghost_gap(train, ghost):
    """The ghost gap by a direct scan of every dichotomy x >= u of the
    pooled points, u = +inf included."""
    pooled = np.concatenate([train.x, ghost.x])
    return max(
        np.mean(np.where(ghost.x >= u, 1.0, -1.0) != ghost.y)
        - np.mean(np.where(train.x >= u, 1.0, -1.0) != train.y)
        for u in np.append(np.unique(pooled), np.inf)
    )


@st.composite
def two_samples(draw):
    """(train, ghost) as lists of (x, y) on points within +-1e50, each point
    drawn next to its adjacent float above."""
    base = draw(st.lists(st.floats(-1e50, 1e50), min_size=1, max_size=4))
    point = st.sampled_from(base + [float(np.nextafter(v, np.inf))
                                    for v in base])
    pair = st.tuples(point, st.sampled_from([-1.0, 1.0]))
    return (draw(st.lists(pair, min_size=1, max_size=6)),
            draw(st.lists(pair, min_size=1, max_size=6)))


_UP = float(np.nextafter(1.0, 2.0))


class TestEmpiricalRademacher:
    def test_estimate_json_record(self):
        est = empirical_rademacher(threshold_class(), [0.0, 1.0, 2.0], 4, 9)
        payload = json.loads(json.dumps(est.to_dict()))
        assert set(payload) == {"value", "std_error", "replications", "seed"}
        assert payload["replications"] == 4

    def test_singleton_class_exactly_zero(self):
        values = np.cos(np.linspace(0, 1, 6))[None, :]
        est = estimators._sign_average(estimators._finite_sup(values), 6, 50, 3)
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
        # independent brute force over all 2^8 sign vectors
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            sg = np.array(signs)
            total += max(float(np.dot(row, sg)) / n for row in values)
        exact = total / 2 ** n
        est = estimators._sign_average(estimators._finite_sup(values), n, 400, 13)
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

    @pytest.mark.parametrize("cls, points", [
        (linear_ball_class(1, 1.0), np.ones((4, 2))),
        (linear_ball_class(3, 1.0), np.ones((4, 2))),
        # the offset column is the class's, not the points'
        (linear_ball_class(2, 1.0, with_offset=True), np.ones((4, 3))),
        (linear_ball_class(2, 1.0), np.ones(4)),
        (threshold_class(), np.ones((4, 2))),
        (threshold_class(), np.ones((4, 1, 1))),
    ], ids=["ball1-2d", "ball3-2d", "ball2-offset-3d", "ball2-1d",
            "threshold-2d", "threshold-3-axes"])
    def test_points_of_another_dimension_rejected(self, cls, points):
        with pytest.raises(ValueError, match="^points"):
            empirical_rademacher(cls, points, 8, 1)
        with pytest.raises(ValueError, match="^points"):
            empirical_rademacher_exact(cls, points)

    @pytest.mark.parametrize("cls", [linear_ball_class(1, 1.0),
                                     threshold_class()],
                             ids=["ball1", "threshold"])
    def test_one_column_points_read_as_one_dimensional(self, cls):
        pts = np.array([0.3, -1.2, 2.5, 0.7])
        assert empirical_rademacher_exact(cls, pts[:, None]) == \
            empirical_rademacher_exact(cls, pts)


def _exact_by_python_loop(cls, pts):
    """The exact sign expectation with the sum over the 2^n masks added one
    float at a time, left to right."""
    n = pts.shape[0]
    sup = estimators._sup_rows(cls, pts)
    total = 0.0
    for lo in range(0, 1 << n, estimators._SIGN_BLOCK):
        masks = np.arange(lo, min(lo + estimators._SIGN_BLOCK, 1 << n))
        signs = ((masks[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        for v in sup(signs).tolist():
            total += v
    return total / (1 << n)


@pytest.mark.parametrize("cls, points", [
    (linear_ball_class(3, 1.0),
     np.random.default_rng(32).normal(size=(16, 3))),
    (linear_ball_class(2, 1.5, with_offset=True),
     np.random.default_rng(33).normal(size=(16, 2))),
    (threshold_class(), np.random.default_rng(34).normal(size=16)),
    (kernel_ball_class(1.5, bandwidth=0.7),
     np.random.default_rng(35).normal(size=(16, 2))),
], ids=["ball", "ball-offset", "threshold", "kernel"])
def test_exact_rademacher_is_the_left_to_right_sum(cls, points):
    # one block of sign rows up to n = 12, two or more from n = 13
    for n in (*range(1, 15), 16):
        assert empirical_rademacher_exact(cls, points[:n]) == \
            _exact_by_python_loop(cls, points[:n])


def _sign_case(kind, n, seed):
    """The Monte-Carlo estimate (draws, seed) -> estimate, the exact sign
    expectation () -> value and the supremum routine S -> sup per row, as
    the estimators take them, and sup(sigma) for one sign vector, written
    directly from the definition of each class's supremum.  A finite class
    is its (5, n) matrix of values; the expectation over all 2^n sign
    vectors is taken of its routine here."""
    rng = np.random.default_rng(seed)
    if kind == "finite":
        values = rng.normal(size=(5, n))
        sup_rows = estimators._finite_sup(values)
        every = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        return (lambda draws, seed: estimators._sign_average(
                    sup_rows, n, draws, seed),
                lambda: float(np.mean(sup_rows(every))), sup_rows,
                lambda sg: max(values @ sg) / n)
    cls, pts, sup = _class_case(kind, n, rng)
    return (lambda draws, seed: empirical_rademacher(cls, pts, draws, seed),
            lambda: empirical_rademacher_exact(cls, pts),
            estimators._sup_rows(cls, np.asarray(pts, dtype=float)), sup)


def _class_case(kind, n, rng):
    """A class, its points and sup(sigma) for one sign vector."""
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
        _, exact, _, sup = _sign_case(kind, n, 21)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            total += sup(np.array(signs))
        assert exact() == pytest.approx(total / 2 ** n, rel=1e-12)

    @pytest.mark.parametrize("kind", SIGN_KINDS)
    @pytest.mark.parametrize("n", [7, 16])
    def test_monte_carlo_matches_per_draw_loop(self, kind, n):
        estimate, _, _, sup = _sign_case(kind, n, 22)
        draws, seed = 40, 9
        rng = stream(seed, 0, "signs")
        vals = []
        for _ in range(draws):
            sg = rng.integers(0, 2, n) * 2.0 - 1.0
            vals.append(0.5 * (sup(sg) + sup(-sg)))
        est = estimate(draws, seed)
        assert est.value == pytest.approx(np.mean(vals), abs=1e-15)
        assert est.std_error == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(draws), abs=1e-15)

    @pytest.mark.parametrize("kind", SIGN_KINDS)
    def test_monte_carlo_scores_signs_in_row_blocks(self, kind, monkeypatch):
        # 23 draws in blocks of 5 give the bits of one (23, n) sign matrix
        estimate, _, sup, _ = _sign_case(kind, 7, 23)
        draws, seed = 23, 9
        signs = stream(seed, 0, "signs").integers(0, 2, (draws, 7)) * 2.0 - 1.0
        vals = 0.5 * (sup(signs) + sup(-signs))
        rows = []
        sign_average = estimators._sign_average

        def recording_sign_average(inner, *args):
            return sign_average(
                lambda s: (rows.append(s.shape[0]), inner(s))[1], *args)

        monkeypatch.setattr(estimators, "_SIGN_BLOCK", 5)
        monkeypatch.setattr(estimators, "_sign_average", recording_sign_average)
        est = estimate(draws, seed)
        assert max(rows) == 5 and sum(rows) == 2 * draws
        assert est.value == float(np.mean(vals))
        assert est.std_error == float(np.std(vals, ddof=1) / np.sqrt(draws))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), draws=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_threshold_supremum_is_the_dense_one(self, n, draws, seed):
        # points from a few integers, so most cases have ties; the dense
        # reference scores every canonical threshold's labels at once
        rng = np.random.default_rng(seed)
        pts = rng.integers(-3, 4, n).astype(float)
        signs = rng.integers(0, 2, (draws, n)) * 2.0 - 1.0
        labels = np.where(pts >= np.append(np.unique(pts), np.inf)[:, None],
                          1.0, -1.0)
        sup = estimators._sup_rows(threshold_class(), pts)
        assert np.array_equal(sup(signs),
                              np.max(signs @ labels.T, axis=1) / n)

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
            assert gap == pytest.approx(brute_ghost_gap(train, ghost),
                                        abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(two_samples())
    # a midpoint of the two points rounds onto one of them
    @example(([(1.0, -1.0), (_UP, 1.0)], [(1.0, 1.0), (_UP, -1.0)]))
    @example(([(1e16, -1.0), (1e16 + 2, 1.0)], [(1e16, 1.0), (1e16 + 2, -1.0)]))
    def test_ghost_gap_keeps_every_dichotomy(self, samples):
        train, ghost = (make_sample(*zip(*pairs)) for pairs in samples)
        gap = threshold_ghost_gap(train, ghost)
        assert gap == pytest.approx(brute_ghost_gap(train, ghost), abs=1e-12)
        # the gap depends on the order of the pooled points alone
        ranks = np.unique(np.concatenate([train.x, ghost.x]),
                          return_inverse=True)[1].astype(float)
        assert gap == threshold_ghost_gap(
            make_sample(ranks[:len(train.x)], train.y),
            make_sample(ranks[len(train.x):], ghost.y))


    @staticmethod
    def _stable_threshold_errors(xs, ys):
        # the counts with tied x kept in their input order, at each distinct
        # point (the first of its ties) and +inf
        order = np.argsort(xs, kind="stable")
        errors0 = float(np.sum(ys == -1.0))
        steps = np.where(ys[order] == 1.0, 1.0, -1.0)
        errors = np.concatenate(([errors0], errors0 + np.cumsum(steps)))
        distinct, starts = np.unique(xs[order], return_index=True)
        return distinct, errors[np.append(starts, xs.size)]

    @pytest.mark.parametrize("source", ["integers", "markov_binary"])
    def test_tie_order_reaches_no_output(self, monkeypatch, source):
        # the sort may put tied x in any order: the sweep keeps the counts at
        # the starts of tie groups only
        rng = np.random.default_rng(23)
        cases = []
        for r in range(20):
            if source == "integers":
                x, x_ghost = rng.integers(-5, 6, (2, 2000)).astype(float)
            else:
                spec = markov_binary_process(0.9)
                x = simulate_sequence(spec, 2000, 23, replication=r).x
                x_ghost = simulate_sequence(spec, 2000, 24, replication=r).x
            y, y_ghost = np.where(rng.random((2, 2000)) < 0.5, 1.0, -1.0)
            cases.append((make_sample(x, y), make_sample(x_ghost, y_ghost)))

        def outputs():
            return [(threshold_empirical_risks(train.x, train.y),
                     threshold_ghost_gap(train, ghost))
                    for train, ghost in cases]

        got = outputs()
        monkeypatch.setattr(estimators, "_threshold_errors",
                            self._stable_threshold_errors)
        for ((thresholds, risks), gap), ((ref_t, ref_r), ref_gap) in zip(
                got, outputs()):
            assert np.array_equal(thresholds, ref_t)
            assert np.array_equal(risks, ref_r)
            assert gap == ref_gap


class TestSupDeviation:
    def test_threshold_class_value_vs_direct_scan(self):
        spec = ar1_process(0.7, 1.0, b_star=0.2, flip_p=0.1)
        oracle = threshold_risk_oracle(spec)
        path = simulate_sequence(spec, 300, 44)
        thresholds, emps = threshold_empirical_risks(path.x, path.y)
        direct = np.max(oracle(thresholds) - emps)
        assert sup_deviation(path, oracle) == direct


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
        with pytest.raises(ValueError, match=(
                "^epsilon must meet n\\*eps\\^2 >= 2\\*B\\^2")):
            symmetrization(spec, n=10, epsilon=0.2, replications=5, seed=1)

    def test_holds_on_ar1(self):
        spec = ar1_process(0.8, 0.6, flip_p=0.1)
        result = symmetrization(spec, n=200, epsilon=0.2, replications=120,
                                seed=21)
        assert result.holds
        assert 0.0 <= result.summary["lhs_freq"] <= 1.0
        summary, records = result.summary, result.records
        assert records["replication"] == list(range(120))
        assert summary["lhs_freq"] == np.mean(
            [statistic >= 0.2 for statistic in records["statistic"]])
        assert summary["rhs_freq"] == np.mean(
            [bound >= 0.1 for bound in records["bound"]])
        assert result.holds == (summary["lhs_freq"] <= 2.0 * summary["rhs_freq"]
                                + 3.0 * summary["combined_se"])
