import itertools
import tracemalloc

import numpy as np
import pytest

from seeded import draw_float, each_seed
from seqbounds.bounds import vc_bound
from seqbounds.classes import (FunctionClassDescriptor, UnsupportedClassError,
                               _exhaustive_net_size,
                               covering_number_exhaustive, kernel_ball_class,
                               linear_ball_class, pseudo_metric_matrix,
                               threshold_class)
from seqbounds.estimators import _threshold_errors, empirical_rademacher_exact


def threshold_labels(points):
    """Row k: the labels sign(x - b) of the k-th canonical threshold b, the
    distinct points in ascending order and then +inf (b = u labels x >= u
    with +1)."""
    pts = np.asarray(points, dtype=float).ravel()
    cuts = np.append(np.unique(pts), np.inf)
    return np.where(pts[None, :] >= cuts[:, None], 1.0, -1.0)


def growth_function_exact(cls, points) -> int:
    """Exact number of distinct label vectors the class realizes on ``points``.

    Only enumerable classes are supported: threshold1d, and a finite class
    given as its (m, n) array of labels on the n points.
    """
    if isinstance(cls, np.ndarray):
        return len({tuple(row) for row in cls})
    if cls.kind == "threshold1d":
        pts = np.asarray(points, dtype=float).ravel()
        if np.unique(pts).size != pts.size:
            raise ValueError("threshold1d growth needs pairwise distinct points")
        return len({tuple(row) for row in threshold_labels(pts)})
    raise UnsupportedClassError(
        f"growth function enumeration not available for kind {cls.kind!r}"
    )


def vc_dimension_exact(cls, points) -> int:
    """Largest subset of ``points`` shattered by an enumerable class (as in
    ``growth_function_exact``)."""
    pts = list(points)
    if len(pts) > 12:
        raise ValueError("shattering enumeration is limited to 12 points")
    if isinstance(cls, np.ndarray):
        labels = cls
    elif cls.kind == "threshold1d":
        labels = threshold_labels(pts)
    else:
        raise UnsupportedClassError(
            f"VC enumeration not available for kind {cls.kind!r}"
        )
    for k in range(len(pts), 0, -1):
        for idx in itertools.combinations(range(len(pts)), k):
            realized = {tuple(row[list(idx)]) for row in labels}
            if len(realized) == 2 ** k:
                return k
    return 0


def pseudo_metric(f, f_prime) -> float:
    """Empirical L2 pseudo-distance of two functions given by their values
    on the sample, as the chaining check measures it: the off-diagonal
    entry of ``pseudo_metric_matrix``."""
    return float(pseudo_metric_matrix(np.vstack([f, f_prime]))[0, 1])


def all_sign_labels(n_points):
    """The finite class realizing every +-1 labeling of n points."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n_points)))


class TestGrowthFunction:
    def test_threshold_three_points(self):
        assert growth_function_exact(threshold_class(), [0.0, 1.0, 2.0]) == 4

    def test_singleton_finite(self):
        assert growth_function_exact(np.ones((1, 3)), [0.0, 5.0, -3.0]) == 1

    def test_full_shattering_class(self):
        assert growth_function_exact(all_sign_labels(3), [0, 1, 2]) == 8

    @pytest.mark.parametrize("n", range(1, 13))
    def test_threshold_growth_is_n_plus_one(self, n):
        rng = np.random.default_rng(100 + n)
        pts = rng.normal(size=n)
        while np.unique(pts).size != n:
            pts = rng.normal(size=n)
        assert growth_function_exact(threshold_class(), pts) == n + 1

    def test_growth_below_sauer_cap(self):
        # vc_coverage and relative_coverage pass d_vc = 1 for the threshold
        # class; vc_bound's Sauer form must cap the class's growth at 2n
        # points
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 50, 300):
            pts = rng.permutation(np.arange(2 * n, dtype=float)) * 0.37 - 9.0
            growth = growth_function_exact(threshold_class(), pts)
            assert growth == 2 * n + 1
            for delta in (0.5, 0.05, 1e-6):
                by_dim = vc_bound(0.0, n, delta, d_vc=1).bound_value
                by_growth = vc_bound(0.0, n, delta,
                                     growth_2n=growth).bound_value
                assert by_dim >= by_growth

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            growth_function_exact(threshold_class(), [1.0, 1.0, 2.0])

    def test_non_enumerable_kind_rejected(self):
        with pytest.raises(UnsupportedClassError):
            growth_function_exact(linear_ball_class(2, 1.0), [0.0, 1.0])


class TestPseudoMetric:
    def test_identity_is_zero(self):
        f = np.sin(np.array([0.0, 1.0, 2.0]))
        assert pseudo_metric(f, f) == 0.0

    def test_constant_difference(self):
        assert pseudo_metric(np.ones(7), np.zeros(7)) == pytest.approx(1.0)

    def test_linear_pair(self):
        t = np.array([1.0, 2.0])
        assert pseudo_metric(t, -t) == pytest.approx(
            3.1622776601683795, abs=1e-12)

    def test_symmetry_and_triangle_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = rng.normal(size=(3, 6))
            d01 = pseudo_metric(vals[0], vals[1])
            d10 = pseudo_metric(vals[1], vals[0])
            d02 = pseudo_metric(vals[0], vals[2])
            d12 = pseudo_metric(vals[1], vals[2])
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-12

    def test_nonfinite_rejected(self):
        # NaN used to end in numpy's "zero-size array to reduction
        # operation minimum", and inf in an invalid-value warning
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros((3, 2))
            values[1, 0] = bad
            with pytest.raises(ValueError, match="^values"):
                covering_number_exhaustive(values, 1.0)

    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros((2, 2, 1)),
                                        np.zeros((0, 2)), np.zeros((2, 0)),
                                        [["a", "b"]]],
                             ids=["1-d", "3-d", "no-rows", "no-points",
                                  "text"])
    def test_values_not_a_matrix_rejected(self, values):
        with pytest.raises(ValueError, match="^values"):
            covering_number_exhaustive(values, 1.0)

    def test_tiny_difference_does_not_underflow(self):
        # (1e-170)^2 underflows to 0, which made the two rows one
        values = np.array([[0.0], [1e-170]])
        assert pseudo_metric_matrix(values)[0, 1] == 1e-170
        assert covering_number_exhaustive(values, 1e-171) == 2
        assert pseudo_metric(np.full(2, 1e-170), np.zeros(2)) == 1e-170

    def test_huge_difference_does_not_overflow(self):
        # (2e200)^2 overflowed to inf, with a RuntimeWarning
        values = np.array([[1e200], [-1e200], [0.0]])
        assert pseudo_metric_matrix(values) == pytest.approx(
            np.array([[0.0, 2e200, 1e200], [2e200, 0.0, 1e200],
                      [1e200, 1e200, 0.0]]), rel=1e-15)
        assert covering_number_exhaustive(values, 1e300) == 1
        # open balls: a distance of exactly 1e200 is not below 1e200
        assert covering_number_exhaustive(values, 1e200) == 3


class TestCoveringNumbers:
    def test_singleton(self):
        values = np.array([[1.0, 2.0, 3.0]])
        for eps in (0.01, 1.0, 100.0):
            assert covering_number_exhaustive(values, eps) == 1

    def test_two_functions(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0]])  # distance 1
        assert covering_number_exhaustive(values, 1.5) == 1
        assert covering_number_exhaustive(values, 0.5) == 2

    @staticmethod
    def set_cover_oracle(values, eps):
        """Independent minimal-net search: plain set cover over frozensets."""
        m = len(values)
        cover_sets = []
        for c in range(m):
            d = np.sqrt(np.mean((values - values[c]) ** 2, axis=1))
            cover_sets.append(frozenset(np.flatnonzero(d < eps).tolist()))
        everything = frozenset(range(m))
        for k in range(1, m + 1):
            for combo in itertools.combinations(range(m), k):
                if frozenset().union(*(cover_sets[c] for c in combo)) == everything:
                    return k
        return m

    def test_exhaustive_matches_set_cover_on_random_sets(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            m = int(rng.integers(2, 13))
            values = rng.normal(size=(m, 5))
            dm_max = np.max(np.abs(values)) * 4 + 1
            for eps in (0.2, 0.7, 1.4, dm_max):
                exact = covering_number_exhaustive(values, eps)
                assert exact == self.set_cover_oracle(values, eps)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(10, 4))
        eps_grid = np.linspace(0.05, 4.0, 25)
        counts = [covering_number_exhaustive(values, e) for e in eps_grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            covering_number_exhaustive(np.zeros((2, 2)), 0.0)


def brute_force_net_size(dm, eps):
    """Smallest k such that some k rows have every row strictly within eps."""
    m = dm.shape[0]
    within = dm < eps
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(m), k):
            if within[list(combo)].any(axis=0).all():
                return k


def net_instance(seed):
    """(values, dm, eps, how) of a seed: 1 to 12 functions on 1 to 3
    points, with up to 3 duplicated rows, and an eps that is a distance
    exactly, below or above every distance, or any."""
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 13)), int(rng.integers(1, 4))
    if rng.random() < 0.5:          # coarse values tie distances
        values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (m, d))
    else:
        values = rng.uniform(-2.0, 2.0, (m, d))
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.integers(0, m, 2)
        values[a] = values[b]                           # duplicate rows
    dm = pseudo_metric_matrix(values)
    positive = sorted(set(dm[dm > 0].tolist()))
    how = str(rng.choice(["pairwise", "below", "above", "any"]))
    if how == "pairwise" and positive:
        eps = positive[int(rng.integers(len(positive)))]    # a distance
    elif how == "below":
        eps = positive[0] / 2 if positive else 0.5
    elif how == "above":
        eps = float(dm.max()) + 1.0
    else:
        eps = draw_float(rng, 1e-3, 5.0)
    return values, dm, eps, how


class TestExhaustiveNetSize:
    def test_matches_brute_force(self):
        each_seed(range(300), self.check_against_brute_force)

    @staticmethod
    def check_against_brute_force(seed):
        values, dm, eps, how = net_instance(seed)
        size = _exhaustive_net_size(dm, eps)
        assert size == brute_force_net_size(dm, eps)
        if how == "below":
            assert size == len(np.unique(values, axis=0))
        if how == "above":
            assert size == 1

    @pytest.mark.parametrize("how", ["pairwise", "below", "above"])
    def test_sixteen_functions(self, how):
        rng = np.random.default_rng(16)
        values = rng.normal(size=(16, 4)).round(1)
        values[5], values[11] = values[0], values[3]
        dm = pseudo_metric_matrix(values)
        positive = np.sort(dm[dm > 0])
        eps = {"pairwise": float(positive[positive.size // 2]),
               "below": float(positive[0]) / 2,
               "above": float(dm.max()) + 1.0}[how]
        size = _exhaustive_net_size(dm, eps)
        assert size == brute_force_net_size(dm, eps)
        assert covering_number_exhaustive(values, eps) == size
        if how == "below":
            assert size == 14


def test_net_of_singleton_balls_builds_no_subset_table():
    # a table over the 2^16 subsets would take 512 KiB
    values = np.arange(16.0)[:, None] * np.ones(4)
    dm = pseudo_metric_matrix(values)
    eps = float(np.min(dm[dm > 0])) / 2
    tracemalloc.start()
    try:
        size = _exhaustive_net_size(dm, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 16
    assert peak < 64 * 1024


class TestDescriptors:
    def test_threshold_vc_dim_is_one(self):
        # the d_vc = 1 that vc_coverage and relative_coverage pass
        cls = threshold_class()
        assert vc_dimension_exact(cls, [0.0, 1.0, 2.0, 3.0]) == 1
        rng = np.random.default_rng(1)
        for n in range(1, 13):
            pts = rng.choice(np.linspace(-1e6, 1e6, 4001), n, replace=False)
            assert vc_dimension_exact(cls, pts) == 1

    def test_finite_vc_dim_matches_enumeration(self):
        assert vc_dimension_exact(all_sign_labels(3), [0, 1, 2]) == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            linear_ball_class(0, 1.0)
        with pytest.raises(ValueError):
            linear_ball_class(2, -1.0)
        with pytest.raises(ValueError):
            kernel_ball_class(0.0)
        for kind in ("mystery", "finite"):     # a finite class is its values
            with pytest.raises(UnsupportedClassError):
                FunctionClassDescriptor(kind=kind)

    @pytest.mark.parametrize("flag", ["false", 0, 1.0, [0], None])
    def test_with_offset_is_a_bool(self, flag):
        # a truthy "false" gave the class its intercept column
        with pytest.raises(ValueError, match="^with_offset must be true or "
                                             "false"):
            linear_ball_class(2, 1.0, with_offset=flag)
        assert linear_ball_class(2, 1.0, with_offset=np.bool_(True)).with_offset

    def test_dichotomy_count(self):
        # 3 distinct points give 4 dichotomies; a tie removes one
        for points, count in (([3.0, 1.0, 2.0], 4), ([3.0, 1.0, 3.0], 3)):
            points = np.array(points)
            distinct, errors = _threshold_errors(points, np.ones(3))
            assert distinct.shape == (count - 1,)
            assert errors.shape == (count,)


def ranks(points):
    """0, 1, ... for the distinct points in ascending order; ties share one."""
    return np.unique(points, return_inverse=True)[1].astype(float)


class TestThresholdDichotomies:
    def test_rademacher_depends_on_ranks_alone(self):
        # 1 to 8 points within +-1e50, of every scale, with ties and
        # adjacent floats
        def check(seed):
            rng = np.random.default_rng(seed)
            points = []
            for _ in range(int(rng.integers(1, 9))):
                u = rng.random()
                if points and u < 1 / 8:            # a tie
                    points.append(points[int(rng.integers(len(points)))])
                elif points and u < 1 / 4:          # an adjacent float
                    points.append(float(np.nextafter(
                        points[-1], rng.choice([-1e50, 1e50]))))
                else:
                    points.append(float(rng.choice([-1.0, 1.0]))
                                  * draw_float(rng, 0.0, 1e50))
            self.check_ranks(points)

        each_seed(range(300), check)

    @pytest.mark.parametrize("points", [
        [0.0, 1e16, 2e16],                      # + 1.0 lost above 2^53
        [1e16, 1e16 + 2, 1e16 + 4, -1.0],       # midpoints round onto points
        [1.0, float(np.nextafter(1.0, 2.0)), 3.0, -5.0]])
    def test_rademacher_depends_on_ranks_alone_at(self, points):
        self.check_ranks(points)

    @staticmethod
    def check_ranks(points):
        # sign(x - b) realizes the same labelings on any points of the same
        # order, however large or close together they are
        pts = np.array(points)
        assert (empirical_rademacher_exact(threshold_class(), pts)
                == empirical_rademacher_exact(threshold_class(), ranks(pts)))
