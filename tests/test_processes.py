import csv

import numpy as np
import pytest
from scipy import stats

from seqbounds.processes import (SequenceSample, ar1_process, ar_process,
                                 iid_process, markov_binary_process,
                                 process_from_dict, sample_marginal,
                                 sequence_to_csv, simulate_sequence,
                                 stationary_params, stream)

# longer than one chunk of rows of the CSV writer
LONG_PATH = simulate_sequence(ar_process([0.5, 0.2], 1.0), 20_000, 4)


class TestSeeding:
    def test_same_seed_bit_identical(self):
        spec = ar1_process(0.5, 1.0, flip_p=0.2)
        a = simulate_sequence(spec, 500, 123)
        b = simulate_sequence(spec, 500, 123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_streams_differ_by_role_and_replication(self):
        g1 = stream(1, 0, "path").standard_normal(8)
        g2 = stream(1, 0, "ghost").standard_normal(8)
        g3 = stream(1, 1, "path").standard_normal(8)
        assert not np.allclose(g1, g2)
        assert not np.allclose(g1, g3)

    def test_stream_reproducible(self):
        assert np.array_equal(stream(9, 3, "signs").standard_normal(4),
                              stream(9, 3, "signs").standard_normal(4))


class TestAr1:
    def test_zero_a_is_iid(self):
        n = 100_000
        path = simulate_sequence(ar1_process(0.0, 1.0), n, 42)
        lag1 = np.corrcoef(path.x[:-1], path.x[1:])[0, 1]
        assert abs(lag1) <= 3.0 / np.sqrt(n)

    def test_stationary_variance(self):
        n = 100_000
        path = simulate_sequence(ar1_process(0.8, 0.6), n, 7)
        assert np.var(path.x) == pytest.approx(1.0, rel=0.05)

    def test_dependence_is_real(self):
        n = 100_000
        path = simulate_sequence(ar1_process(0.8, 0.6), n, 8)
        lag1 = np.corrcoef(path.x[:-1], path.x[1:])[0, 1]
        assert lag1 == pytest.approx(0.8, rel=0.05)

    def test_strict_stationarity_across_positions(self):
        spec = ar1_process(0.7, 1.0)
        reps, n = 1500, 40
        first, mid = [], []
        for r in range(reps):
            p = simulate_sequence(spec, n, 99, replication=r)
            first.append(p.x[0])
            mid.append(p.x[n // 2])
        v = stationary_params(spec).variance
        se = np.sqrt(2.0 * v ** 2 / reps)  # MC std error of a normal variance
        assert abs(np.var(first) - v) <= 4 * se
        assert abs(np.var(mid) - v) <= 4 * se
        assert abs(np.mean(first)) <= 4 * np.sqrt(v / reps)
        assert abs(np.mean(mid)) <= 4 * np.sqrt(v / reps)

    def test_labels_flip_rate(self):
        spec = ar1_process(0.5, 1.0, b_star=0.0, flip_p=0.25)
        path = simulate_sequence(spec, 50_000, 3)
        noiseless = np.where(path.x >= 0.0, 1.0, -1.0)
        flipped = np.mean(noiseless != path.y)
        assert flipped == pytest.approx(0.25, abs=3.0 / np.sqrt(50_000))


class TestStationaryParams:
    def test_ar1_closed_forms(self):
        assert stationary_params(ar1_process(0.0, 2.0)).variance == pytest.approx(4.0)
        assert stationary_params(ar1_process(0.8, 0.6)).variance == pytest.approx(1.0)

    def test_markov_binary_uniform(self):
        assert stationary_params(markov_binary_process(0.9)).kind == "binary_uniform"

    def test_ar_d_lyapunov_fixed_point(self):
        spec = ar_process([0.5, 0.2], 1.3)
        cov = stationary_params(spec).covariance
        theta = np.array(spec.coefficients)
        comp = np.array([[0.5, 0.2], [1.0, 0.0]])
        q = np.zeros((2, 2))
        q[0, 0] = spec.sigma ** 2
        resid = comp @ cov @ comp.T + q - cov
        assert np.max(np.abs(resid)) < 1e-10

    def test_ar_d_near_unit_root(self):
        # fixed-point iteration of the Lyapunov equation stalls here
        spec = ar_process([0.9999], 1.0)
        path = simulate_sequence(spec, 10, 1)
        assert np.all(np.isfinite(path.x)) and np.all(np.isfinite(path.y))
        cov = stationary_params(spec).covariance
        assert cov[0, 0] == pytest.approx(1.0 / (1.0 - 0.9999 ** 2), rel=1e-9)

    def test_ar_d_reduces_to_ar1(self):
        cov = stationary_params(ar_process([0.8], 0.6)).covariance
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_ar_d_empirical_match(self):
        spec = ar_process([0.5, 0.2], 1.0)
        path = simulate_sequence(spec, 200_000, 17)
        cov = stationary_params(spec).covariance
        emp = np.cov(path.x.T)
        assert np.allclose(emp, cov, rtol=0.05, atol=0.02)


class TestMarginalSampler:
    def test_empty_draw(self):
        ghost = sample_marginal(ar1_process(0.5, 1.0), 0, 1)
        assert len(ghost) == 0

    def test_ar1_ghost_variance(self):
        ghost = sample_marginal(ar1_process(0.8, 0.6), 10_000, 5)
        assert np.var(ghost.x) == pytest.approx(1.0, rel=0.05)

    def test_markov_ghost_balance(self):
        m = 10_000
        ghost = sample_marginal(markov_binary_process(0.9), m, 6)
        assert abs(np.mean(ghost.x == 1.0) - 0.5) <= 3.0 / np.sqrt(m)

    def test_ghost_indistinguishable_from_pooled_paths(self):
        # two-sample KS at level 0.01 between ghost draws and pooled path values
        spec = ar1_process(0.8, 0.6)
        m = 10_000
        ghost = sample_marginal(spec, m, 11)
        pooled = np.concatenate([
            simulate_sequence(spec, 2000, 12, replication=r).x for r in range(5)
        ])
        assert stats.ks_2samp(ghost.x, pooled).pvalue > 0.01

    def test_ghost_independent_of_paths(self):
        spec = ar1_process(0.8, 0.6)
        m = 10_000
        ghost = sample_marginal(spec, m, 21)
        path = simulate_sequence(spec, m, 21)  # same seed, different stream role
        corr = np.corrcoef(ghost.x, path.x)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(m)

    def test_ar_d_ghost_matches_lyapunov(self):
        spec = ar_process([0.5, 0.2], 1.0)
        ghost = sample_marginal(spec, 50_000, 9)
        cov = stationary_params(spec).covariance
        assert np.allclose(np.cov(ghost.x.T), cov, rtol=0.05, atol=0.02)

    def test_ar_d_clipping_bounds_regressors(self):
        spec = ar_process([0.5, 0.2], 1.0, clip_radius=1.5)
        path = simulate_sequence(spec, 5000, 2)
        ghost = sample_marginal(spec, 5000, 2)
        assert np.max(np.linalg.norm(path.x, axis=1)) <= 1.5 + 1e-12
        assert np.max(np.linalg.norm(ghost.x, axis=1)) <= 1.5 + 1e-12


class TestValidationAndExport:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ar1_process(1.0, 1.0)
        with pytest.raises(ValueError):
            ar1_process(0.5, -1.0)
        with pytest.raises(ValueError):
            markov_binary_process(1.0)
        with pytest.raises(ValueError):
            ar_process([1.2], 1.0)  # unstable
        with pytest.raises(ValueError):
            ar1_process(0.5, 1.0, flip_p=1.0)
        with pytest.raises(ValueError):
            simulate_sequence(ar1_process(0.5, 1.0), 0, 1)

    def test_csv_export(self, tmp_path):
        spec = ar_process([0.5, 0.2], 1.0)
        sample = simulate_sequence(spec, 10, 4)
        out = tmp_path / "seq.csv"
        sequence_to_csv(sample, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x0", "x1", "y"]
        assert len(rows) == 11

    @pytest.mark.parametrize("x, y", [
        (np.array([-0.0, 1e-05, 1e16, 0.1 + 0.2, -3.0]),
         np.array([1.0, -1.0, -0.0, 1e-05, 1e16])),
        (np.array([[-0.0, 1e-05], [1e16, -2.5e-300], [0.5, 7.0]]),
         np.array([1e16, -0.0, 1e-05])),
        (np.array([[1e-05, -0.0]]), np.array([-0.0])),        # n = 1
        (np.array([2.0]), np.array([1e-05])),
        (LONG_PATH.x, LONG_PATH.y),
    ])
    def test_csv_matches_csv_writer(self, tmp_path, x, y):
        def reference(sample, path):
            # the row-at-a-time csv.writer export the fast writer replaced
            xs = np.atleast_2d(sample.x.T).T
            header = ["index"] + [f"x{j}" for j in range(xs.shape[1])] + ["y"]
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for i in range(len(sample)):
                    writer.writerow([i] + list(xs[i]) + [sample.y[i]])

        sample = SequenceSample(x=x, y=y, seed=0, replication=0, process="t")
        sequence_to_csv(sample, tmp_path / "fast.csv")
        reference(sample, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            process_from_dict({"kind": "ar1_threshold_labels", "a": 0.5,
                               "sigma": 1.0, "bogus": 1})
        with pytest.raises(ValueError):
            process_from_dict({"kind": "unheard_of"})
        spec = process_from_dict({"kind": "markov_binary", "rho": 0.3})
        assert spec.rho == 0.3

    def test_iid_uniform(self):
        spec = iid_process(dist="uniform", low=-1.0, high=1.0)
        path = simulate_sequence(spec, 20_000, 13)
        assert np.min(path.x) >= -1.0 and np.max(path.x) <= 1.0
        assert np.mean(path.x) == pytest.approx(0.0, abs=0.02)
