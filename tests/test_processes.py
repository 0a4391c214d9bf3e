import csv
import importlib
import importlib.machinery

import numpy as np
import pytest
import scipy
from scipy import signal, stats

from seqbounds.estimators import (sup_deviation, threshold_ghost_gap,
                                  threshold_risk_oracle)
from seqbounds import processes
from seqbounds.processes import (_CSV_CHUNK_ROWS, ProcessSpec, SequenceSample,
                                 _ar_cholesky, ar1_process, ar_process,
                                 iid_process, markov_binary_process,
                                 process_from_dict, sample_marginal,
                                 sequence_to_csv, simulate_sequence,
                                 stationary_params, stream)

# longer than one chunk of rows of the CSV writer
LONG_PATH = simulate_sequence(ar_process([0.5, 0.2], 1.0), 20_000, 4)
# one row past a chunk edge, so the last chunk holds a single row
EDGE_PATH = simulate_sequence(ar_process([0.5, 0.2], 1.0),
                              _CSV_CHUNK_ROWS + 1, 6)
# 0.0 and -0.0 repeated in every column on both sides of the chunk edge
SIGNED_ZEROS = np.where(np.arange(_CSV_CHUNK_ROWS + 10) % 3 == 0, -0.0, 0.0)


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

    @pytest.mark.parametrize("replication", [1.7, "2", None, -1])
    @pytest.mark.parametrize("draw", [
        lambda r: stream(9, r),
        lambda r: simulate_sequence(ar1_process(0.5, 1.0), 5, 9, r),
        lambda r: sample_marginal(ar1_process(0.5, 1.0), 5, 9, r)],
        ids=["stream", "simulate_sequence", "sample_marginal"])
    def test_replication_is_checked_by_name(self, draw, replication):
        # int() would turn 1.7 into replication 1 and "2" into 2
        with pytest.raises(ValueError, match="^replication "):
            draw(replication)


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


class TestArCholeskyCache:
    SPECS = (ar_process([0.5, 0.2], 1.0), ar_process([0.3, -0.1, 0.2], 0.7))

    def test_factor_is_read_only(self):
        spec = self.SPECS[0]
        chol = _ar_cholesky(spec.coefficients, spec.sigma)
        cov = stationary_params(spec).covariance
        assert np.array_equal(chol, np.linalg.cholesky(cov + 1e-15 * np.eye(2)))
        assert not chol.flags.writeable
        with pytest.raises(ValueError):
            chol[0, 0] = 0.0

    def test_alternating_specs_match_fresh_calls(self):
        def draw(spec, r):
            return (simulate_sequence(spec, 50, 9, replication=r),
                    sample_marginal(spec, 50, 9, replication=r))

        fresh = []
        for r in range(4):
            _ar_cholesky.cache_clear()
            fresh.append(draw(self.SPECS[r % 2], r))
        _ar_cholesky.cache_clear()
        for r in range(4):
            for got, want in zip(draw(self.SPECS[r % 2], r), fresh[r]):
                assert np.array_equal(got.x, want.x)
                assert np.array_equal(got.y, want.y)


@pytest.fixture(params=["file", "missing", "broken"])
def filter_loads(request, monkeypatch, tmp_path):
    """The next draw loads scipy's linear filter afresh: from its file, or
    through the package when the file is missing or is no extension
    module.  Returns the modules then imported by name."""
    monkeypatch.setattr(processes, "_SIGTOOLS", None)
    if request.param != "file":
        # the loader looks for the file next to scipy/__init__: point that
        # at an empty folder, or at one whose filter file is no extension
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    if request.param == "broken":
        (tmp_path / "signal").mkdir()
        broken = tmp_path / "signal" / \
            f"_sigtools{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        broken.write_bytes(b"not a shared object")
    imported, import_module = [], importlib.import_module
    monkeypatch.setattr(importlib, "import_module",
                        lambda name, *args: imported.append(name)
                        or import_module(name, *args))
    yield imported
    assert ("scipy.signal._sigtools" in imported) == (request.param != "file")


class TestLinearFilter:
    """Paths are bit-identical to scipy.signal.lfilter (and lfiltic for an
    AR(d) system) called on the same draws, however the filter was loaded."""

    @pytest.mark.parametrize("a", [-0.99, 0.0, 0.8, 0.999])
    def test_ar1_matches_lfilter(self, filter_loads, a):
        spec = ar1_process(a, 0.6)
        for n, replication in [(1, 0), (7, 1), (100_000, 2)]:
            rng = stream(5, replication, "path")
            x0 = rng.normal(0.0, np.sqrt(stationary_params(spec).variance))
            eps = rng.normal(0.0, 0.6, n)
            want, _ = signal.lfilter([1.0], [1.0, -a], eps, zi=[a * x0])
            got = simulate_sequence(spec, n, 5, replication=replication)
            assert got.x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coefficients", [
        [0.6], [0.5, 0.2], [0.3, -0.1, 0.2], [0.4, 0.1, -0.2, 0.1]])
    def test_ar_d_matches_lfiltic_and_lfilter(self, filter_loads, coefficients):
        spec = ar_process(coefficients, 1.0)
        d = len(coefficients)
        a_poly = np.concatenate(([1.0], -np.asarray(coefficients)))
        chol = _ar_cholesky(spec.coefficients, spec.sigma)
        for n, replication in [(1, 0), (50, 1), (100_000, 2)]:
            rng = stream(5, replication, "path")
            state0 = chol @ rng.standard_normal(d)
            noise = rng.normal(0.0, 1.0, n)
            zi = signal.lfiltic([1.0], a_poly, state0)
            want, _ = signal.lfilter([1.0], a_poly, noise, zi=zi)
            got = simulate_sequence(spec, n, 5, replication=replication)
            assert got.y.tobytes() == want.tobytes()
            assert got.x[0].tobytes() == state0.tobytes()
            assert got.x[1:, 0].tobytes() == want[:-1].tobytes()


# every process kind, with label noise and clipping where the kind has them
EVERY_KIND = [
    ar1_process(0.8, 0.6, flip_p=0.1),
    ar_process([0.5, 0.2], 1.0),
    ar_process([0.5, 0.2, -0.1], 1.0, clip_radius=1.5),
    markov_binary_process(0.7),
    iid_process("normal", mean=0.3, sigma=2.0, b_star=0.1, flip_p=0.2),
    iid_process("uniform", low=-1.0, high=2.0, flip_p=0.3),
]


class TestMarginalStart:
    """A path's first draw on its stream is the ghost sampler's draw: the
    whole i.i.d. path, and the start state of the AR(1) and Markov paths.
    An AR(d) path draws its own unclipped start state."""

    @pytest.mark.parametrize("spec", [
        s for s in EVERY_KIND if s.kind != "ar_d_linear_system"],
        ids=lambda s: s.dist or s.kind)
    def test_length_one_path_is_a_marginal_draw(self, spec):
        for replication, labels in [(0, True), (3, True), (1, False)]:
            rng = stream(8, replication, "path")
            if spec.kind != "ar1_threshold_labels":
                x, y = processes._marginal_draws(spec, 1, rng, labels)
            else:   # x_1 = a x_0 + eps_1 continues the stationary x_0
                x0, _ = processes._marginal_draws(spec, 1, rng, False)
                x = spec.a * x0 + rng.normal(0.0, spec.sigma, 1)
                y = processes._threshold_labels(x, spec, rng) if labels \
                    else None
            path = simulate_sequence(spec, 1, 8, replication=replication,
                                     labels=labels)
            assert path.x.tobytes() == x.tobytes()
            assert (path.y is None and y is None) or \
                path.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("spec", [
        s for s in EVERY_KIND if s.kind == "iid_baseline"],
        ids=lambda s: s.dist)
    def test_iid_path_is_a_marginal_draw(self, spec):
        x, y = processes._marginal_draws(spec, 500, stream(8, 2, "path"), True)
        path = simulate_sequence(spec, 500, 8, replication=2)
        assert path.x.tobytes() == x.tobytes()
        assert path.y.tobytes() == y.tobytes()


# every kind that takes sigma, built at a given sigma
SIGMA_KINDS = {
    "ar1": lambda sigma: ar1_process(0.5, sigma),
    "ar_d": lambda sigma: ar_process([0.5, 0.2], sigma),
    "iid_normal": lambda sigma: iid_process("normal", sigma=sigma),
}


class TestSigmaFloor:
    """sigma is at least 1e-50, so the stationary variance stays a normal
    float: below it sigma^2 underflows, the ghost draws collapse to
    the mean and the risk oracle reads NaN."""

    @pytest.mark.parametrize("build", SIGMA_KINDS.values(),
                             ids=SIGMA_KINDS.keys())
    def test_tiny_sigma_rejected_by_name(self, build):
        with pytest.raises(ValueError, match=r"^sigma must be in \[1e-50, "):
            build(1e-300)

    @pytest.mark.parametrize("name", SIGMA_KINDS)
    def test_smallest_sigma_spreads_the_draws(self, name):
        spec = SIGMA_KINDS[name](1e-50)
        ghost = sample_marginal(spec, 200, 3)
        assert np.unique(ghost.x).size > 1
        if name != "ar_d":
            oracle = threshold_risk_oracle(spec)
            risks = oracle(np.array([-1e-50, 0.0, 2e-50]))
            assert np.all(np.isfinite(risks))
            assert np.unique(risks).size == 3

    @pytest.mark.parametrize("sigma", [1e-50, 1e-6, 1.0])
    def test_ar_ghost_covariance_is_the_law_at_any_sigma(self, sigma):
        # the Cholesky jitter scales with sigma^2, as the covariance does:
        # an absolute one swamps the law at small sigma
        spec = ar_process([0.5, 0.2], sigma)
        cov = stationary_params(spec).covariance
        scale = np.max(np.abs(cov))
        chol = _ar_cholesky(spec.coefficients, spec.sigma)
        assert np.max(np.abs(chol @ chol.T - cov)) <= 1e-12 * scale
        ghost = sample_marginal(spec, 20_000, 3, labels=False)
        assert np.max(np.abs(np.cov(ghost.x.T) - cov)) <= 0.05 * scale


class TestLabelsOff:
    """labels=False skips the label draw and keeps x's bits."""

    @pytest.mark.parametrize("draw", [simulate_sequence, sample_marginal])
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
    def test_x_keeps_its_bits(self, draw, spec):
        for n, replication in [(1, 0), (2, 3), (5000, 1)]:
            full = draw(spec, n, 11, replication=replication)
            bare = draw(spec, n, 11, replication=replication, labels=False)
            assert bare.y is None and full.y is not None
            assert bare.x.tobytes() == full.x.tobytes()
            assert bare.x.shape == full.x.shape

    def test_label_readers_fail_by_name(self, tmp_path):
        spec = EVERY_KIND[0]
        bare = simulate_sequence(spec, 50, 3, labels=False)
        full = sample_marginal(spec, 50, 3)
        with pytest.raises(ValueError, match=r"^y\b"):
            sup_deviation(bare, threshold_risk_oracle(spec))
        with pytest.raises(ValueError, match=r"^y\b"):
            threshold_ghost_gap(full, sample_marginal(spec, 50, 3,
                                                      labels=False))
        with pytest.raises(ValueError, match=r"^sample\b"):
            sequence_to_csv(bare, tmp_path / "bare.csv")


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

    def test_csv_rewrite_leaves_no_stale_tail(self, tmp_path):
        # the file is rewritten in place, chunk by chunk, and cut once
        spec = ar_process([0.5, 0.2], 1.0)
        out, fresh = tmp_path / "seq.csv", tmp_path / "fresh.csv"
        sequence_to_csv(simulate_sequence(spec, 5000, 4), out)
        short = simulate_sequence(spec, 3, 5)
        sequence_to_csv(short, out)
        sequence_to_csv(short, fresh)
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("x, y", [
        (np.array([-0.0, 1e-05, 1e16, 0.1 + 0.2, -3.0]),
         np.array([1.0, -1.0, -0.0, 1e-05, 1e16])),
        (np.array([[-0.0, 1e-05], [1e16, -2.5e-300], [0.5, 7.0]]),
         np.array([1e16, -0.0, 1e-05])),
        (np.array([[1e-05, -0.0]]), np.array([-0.0])),        # n = 1
        (np.array([2.0]), np.array([1e-05])),
        (LONG_PATH.x, LONG_PATH.y),
        (EDGE_PATH.x, EDGE_PATH.y),
        (np.column_stack((SIGNED_ZEROS, SIGNED_ZEROS[::-1])),
         np.roll(SIGNED_ZEROS, 1)),
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

        sample = SequenceSample(x=x, y=y)
        sequence_to_csv(sample, tmp_path / "fast.csv")
        reference(sample, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("kind, fields, stray", [
        ("ar1_threshold_labels", {"a": 0.5, "sigma": 1.0, "mean": 3.0,
                                  "clip_radius": 0.1, "rho": 0.3},
         "clip_radius"),
        ("ar1_threshold_labels", {"a": 0.5, "sigma": 1.0, "mean": 3.0},
         "mean"),
        ("ar_d_linear_system", {"coefficients": (0.5,), "sigma": 1.0,
                                "b_star": 0.2}, "b_star"),
        ("markov_binary", {"rho": 0.3, "sigma": 1.0}, "sigma"),
        ("markov_binary", {"rho": 0.3, "coefficients": [0.0, 0.0]},
         "coefficients"),
    ])
    def test_field_off_its_kind_is_rejected_by_name(self, kind, fields,
                                                    stray):
        # the kind's constructor does not take it, so it would reach neither
        # the path nor the law of the process
        with pytest.raises(ValueError, match=f"^{stray} is not a parameter"):
            ProcessSpec(kind=kind, **fields)

    @pytest.mark.parametrize("dist, fields, stray", [
        ("uniform", {"low": 0.0, "high": 1.0, "mean": 5.0}, "mean"),
        ("uniform", {"low": 0.0, "high": 1.0, "sigma": 7.0}, "sigma"),
        ("normal", {"low": 0.0}, "low"),
        ("normal", {"sigma": 2.0, "high": 1.0}, "high"),
    ])
    def test_field_off_its_dist_is_rejected_by_name(self, dist, fields,
                                                    stray):
        # the i.i.d. baseline takes both dists' fields, but each dist's law
        # reads only its own, from the constructor and from a config alike
        message = (f"^{stray} is not a parameter of process kind "
                   f"'iid_baseline' with dist '{dist}'$")
        with pytest.raises(ValueError, match=message):
            iid_process(dist, **fields)
        with pytest.raises(ValueError, match=message):
            process_from_dict({"kind": "iid_baseline", "dist": dist,
                               **fields})

    def test_fields_at_their_defaults_are_accepted(self):
        spec = ProcessSpec(kind="ar1_threshold_labels", a=0.5, sigma=1.0,
                           mean=0, coefficients=None)
        assert spec == ar1_process(0.5, 1.0)

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
