import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from seeded import draw_float, draw_int, each_seed
from seqbounds.bounds import (_RANGE_MAX, _binomial_tail, _check,
                              binomial_quarter_lemma_holds,
                              chaining_rad_upper, chaining_rad_upper_best,
                              class_rad_upper, concentration_tail,
                              exact_binomial_mean_tail,
                              linear_system_induced_vc_dim,
                              mixing_reference_bound, rademacher_risk_bound,
                              regression_vc_bound, vc_bound,
                              vc_relative_bound)
from seqbounds.classes import covering_number_exhaustive, kernel_ball_class
from seqbounds.processes import (ar1_process, ar_process, iid_process,
                                 markov_binary_process, sample_marginal,
                                 simulate_sequence)
from seqbounds.scenario import plan_n_margin, plan_n_vc, violation_bound


class TestConcentrationTail:
    def test_zero_epsilon_is_one(self):
        assert concentration_tail("bounded_difference", [0.1, 0.2], 0.0) == 1.0

    def test_hoeffding_example(self):
        bound = concentration_tail("hoeffding", 1.0, 0.3, 10)
        assert bound == pytest.approx(0.16529888822158653, rel=1e-12)
        tail = exact_binomial_mean_tail(10, 0.5, 0.3, strict=True)
        assert tail == pytest.approx(11.0 / 1024.0)
        assert tail <= bound

    def test_bounded_difference_loss_supremum_form(self):
        # c_i = B/n gives exp(-2 n eps^2 / B^2)
        b, n, eps = 0.7, 57, 0.13
        got = concentration_tail("bounded_difference", b / n, eps, n)
        assert got == pytest.approx(math.exp(-2 * n * eps ** 2 / b ** 2), rel=1e-12)

    @pytest.mark.parametrize("kind, c, eps, n, want", [
        ("hoeffding", 1.0 / _RANGE_MAX, _RANGE_MAX, 2 ** 53, 0.0),
        ("bounded_difference", 1.0 / _RANGE_MAX, _RANGE_MAX, 2 ** 53, 0.0),
        ("hoeffding", _RANGE_MAX, 5e-324, 2 ** 53, 1.0),
        ("bounded_difference", [_RANGE_MAX] * 3, 1e-300, None, 1.0),
        ("hoeffding", [1.0 / _RANGE_MAX] * 3, _RANGE_MAX, None, 0.0),
    ], ids=["hoeffding-0", "bounded-difference-0", "hoeffding-1",
            "bounded-difference-1", "ranges-0"])
    def test_extremes_of_the_domain(self, kind, c, eps, n, want):
        # no square in the exponent overflows, underflows or divides by 0
        assert concentration_tail(kind, c, eps, n) == want

    def test_numpy_integer_n_does_not_wrap(self):
        # n ** 2 of an int64 of 4e9 wrapped, which gave a tail of 1.0
        for kind in ("hoeffding", "bounded_difference"):
            assert concentration_tail(kind, 1.0, 1e-6, np.int64(4 * 10 ** 9)) \
                == concentration_tail(kind, 1.0, 1e-6, 4 * 10 ** 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            concentration_tail("hoeffding", [0.0, 1.0], 0.1)
        with pytest.raises(ValueError):
            concentration_tail("mystery", [1.0], 0.1)
        with pytest.raises(ValueError):
            concentration_tail("hoeffding", 1.0, 0.1)  # scalar needs n


class TestBinomialQuarterLemma:
    def test_fair_coin_example(self):
        assert exact_binomial_mean_tail(10, 0.5, 0.0, strict=False) == \
            pytest.approx(0.623046875)
        assert binomial_quarter_lemma_holds(10, 0.5)

    def test_skewed_example(self):
        # m=3, p=0.9: P(X >= 2.7) = P(X=3) = 0.729
        assert exact_binomial_mean_tail(3, 0.9, 0.0, strict=False) == \
            pytest.approx(0.729)
        assert binomial_quarter_lemma_holds(3, 0.9)

    def test_large_n_matches_binomial_survival(self):
        # C(n, n/2) exceeds the float range from n = 1030 on
        for n in range(1030, 1101):
            k0 = math.floor(n * 0.51) + 1
            assert exact_binomial_mean_tail(n, 0.5, 0.01) == pytest.approx(
                stats.binom.sf(k0 - 1, n, 0.5), rel=1e-9)
        assert exact_binomial_mean_tail(2000, 1.0, 0.0, strict=False) == 1.0
        assert exact_binomial_mean_tail(2000, 0.0, -0.5) == 1.0

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError, match="1/m"):
            binomial_quarter_lemma_holds(5, 0.1)


class TestOracleProperties:
    """The single-path oracles: the incomplete-beta binomial tail, the
    array-free scalar Hoeffding form and the once-per-scale chaining."""

    def test_binomial_tail_matches_exact_sum(self):
        each_seed(range(400), self.check_binomial_tail_sum)

    @staticmethod
    def check_binomial_tail_sum(seed):
        # p = j/20 includes 0 and 1; the cut n (p + eps) is either n p
        # (eps = 0) or k + shift, so eps is negative, zero or exactly on a cut
        rng = np.random.default_rng(seed)
        n, j, k = draw_int(rng, 1, 80), draw_int(rng, 0, 20), draw_int(rng, -3, 83)
        shift = Fraction(int(rng.integers(-1, 2)), 2)
        at_mean, strict = bool(rng.random() < 0.5), bool(rng.random() < 0.5)
        p = j / 20
        cut = n * Fraction(j, 20) if at_mean else k + shift
        eps = 0.0 if at_mean else float(cut / n - Fraction(j, 20))
        k0 = math.floor(cut) + 1 if strict else math.ceil(cut)
        q = Fraction(p)
        exact = sum(math.comb(n, s) * q ** s * (1 - q) ** (n - s)
                    for s in range(max(k0, 0), n + 1))
        got = exact_binomial_mean_tail(n, p, eps, strict=strict)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 13) * exact

    def test_binomial_tail_far_epsilon(self):
        # n (p + eps) overflowed to inf before the cut was clamped
        assert exact_binomial_mean_tail(2, 1.0, 1e308) == 0.0
        assert exact_binomial_mean_tail(2, 0.5, -1e308) == 1.0
        assert exact_binomial_mean_tail(3, 1.0, -1e308, strict=False) == 1.0

    @pytest.mark.parametrize("n", [10 ** 7, 10 ** 9, 2 ** 31, 2 ** 40,
                                   2 ** 53])
    def test_binomial_tail_at_the_mean_for_huge_n(self, n):
        # bdtrc gave 0.4985 for 0.49987 at 10^7, 0.159 at 10^9 and NaN
        # from 2^31 on
        assert exact_binomial_mean_tail(n, 0.5, 0.0) == pytest.approx(
            stats.binom.sf(n // 2, n, 0.5), rel=1e-12)

    def test_binomial_tail_matches_survival_up_to_2_53(self):
        each_seed(range(300), self.check_binomial_tail_survival)

    @staticmethod
    def check_binomial_tail_survival(seed):
        # eps is z standard deviations of S/n, so the tail is neither 0 nor
        # 1 for most draws; k0 follows the documented cut rule.  p is drawn
        # over every scale down to the subnormals half the time
        rng = np.random.default_rng(seed)
        n = draw_int(rng, 1, 2 ** 53)
        p = draw_float(rng, 0.0, 1.0, log=bool(rng.random() < 0.5))
        z = draw_float(rng, -8.0, 8.0, log=False)
        strict = bool(rng.random() < 0.5)
        eps = z * math.sqrt(p * (1.0 - p) / n)
        cut = n * (p + eps)
        if abs(cut - round(cut)) < 1e-9:
            cut = round(cut)
        k0 = math.floor(cut) + 1 if strict else math.ceil(cut)
        want = (0.0 if k0 > n else 1.0 if k0 <= 0
                else stats.binom.sf(k0 - 1, n, p))
        got = exact_binomial_mean_tail(n, p, eps, strict=strict)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_binomial_tail_array_matches_scalar_calls(self):
        each_seed(range(200), self.check_binomial_tail_array)

    @staticmethod
    def check_binomial_tail_array(seed):
        # each eps is normal, on an integer cut k/n - p, +-1e308, zero, or
        # past the top cut (k0 > n); p = 0 and p = 1 appear often
        rng = np.random.default_rng(seed)
        size, strict = draw_int(rng, 1, 40), bool(rng.random() < 0.5)
        n = rng.integers(1, 120, size)
        p = np.where(rng.random(size) < 0.3, rng.integers(0, 2, size) * 1.0,
                     rng.random(size))
        on_cut = rng.integers(-1, n + 2) / n - p
        eps = np.choose(rng.integers(0, 5, size), [
            rng.normal(0.0, 0.5, size), on_cut,
            rng.choice([-1e308, 1e308], size), np.zeros(size),
            1.0 - p + rng.random(size) / 10])
        got = _binomial_tail(n, p, eps, strict)
        want = np.array([exact_binomial_mean_tail(int(k), float(q), float(e),
                                                  strict=strict)
                         for k, q, e in zip(n, p, eps)])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_and_array_hoeffding_agree(self):
        def check(seed):
            rng = np.random.default_rng(seed)
            kind = ("hoeffding", "bounded_difference")[seed % 2]
            c, eps = draw_float(rng, 1e-3, 1e3), draw_float(rng, 0.0, 10.0)
            n = draw_int(rng, 1, 500)
            assert concentration_tail(kind, c, eps, n) == pytest.approx(
                concentration_tail(kind, np.full(n, c), eps), rel=1e-12,
                abs=1e-300)

        each_seed(range(200), check)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, -math.inf, math.inf])
    def test_scalar_and_array_reject_alike(self, c):
        for ranges in (c, [c] * 4):
            with pytest.raises(ValueError, match="^c_or_ranges must be positive"):
                concentration_tail("hoeffding", ranges, 0.1, 4)

    def test_chaining_best_evaluates_each_scale_once(self):
        calls = Counter()

        def log_cov(eps):
            calls[eps] += 1
            return math.log1p(1.0 / eps)

        got = chaining_rad_upper_best(2.0, log_cov, 50, max_depth=12)
        assert len(calls) == 12 and set(calls.values()) == {1}
        loop = [(chaining_rad_upper(2.0, depth, log_cov, 50), depth)
                for depth in range(1, 13)]
        assert got == min(loop, key=lambda vd: vd[0])

    def test_chaining_best_is_the_exact_minimum(self):
        each_seed(range(200), self.check_chaining_best)

    @staticmethod
    def check_chaining_best(seed):
        rng = np.random.default_rng(seed)
        diameter = (0.0 if rng.random() < 1 / 8
                    else draw_float(rng, 1e-6, 1e6))
        logs = [draw_float(rng, 0.0, 50.0, log=False)
                for _ in range(draw_int(rng, 1, 40))]
        n, lipschitz = draw_int(rng, 1, 10 ** 6), draw_float(rng, 0.0, 100.0)
        max_depth = draw_int(rng, 1, 40)

        def log_cov(eps):       # scale D 2^-j reads entry j - 1, cyclically
            return logs[(round(math.log2(diameter / eps)) - 1) % len(logs)]

        got = chaining_rad_upper_best(diameter, log_cov, n, lipschitz,
                                      max_depth)
        loop = [(chaining_rad_upper(diameter, depth, log_cov, n, lipschitz),
                 depth) for depth in range(1, max_depth + 1)]
        assert got == min(loop, key=lambda vd: vd[0])


class TestVcBound:
    def test_frozen_value(self):
        rep = vc_bound(0.0, 10 ** 5, 0.05, d_vc=4)
        assert rep.bound_value == pytest.approx(0.06385483072830438, rel=1e-12)
        assert rep.theorem_tag == "vc-basic-dependent"

    def test_additive_in_empirical_risk(self):
        base = vc_bound(0.0, 2000, 0.05, d_vc=3).bound_value
        shifted = vc_bound(0.1, 2000, 0.05, d_vc=3).bound_value
        assert shifted == pytest.approx(base + 0.1, rel=1e-12)

    def test_growth_one_leaves_confidence_term(self):
        n, delta = 500, 0.1
        rep = vc_bound(0.0, n, delta, growth_2n=1.0)
        assert rep.complexity_term == pytest.approx(0.0, abs=1e-15)
        assert rep.bound_value == pytest.approx(
            2.0 * math.sqrt(2.0 * math.log(2.0 / delta) / n))

    def test_monotone_in_n_and_delta(self):
        vals = [vc_bound(0.0, n, 0.05, d_vc=4).bound_value
                for n in (100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        deltas = [vc_bound(0.0, 1000, d, d_vc=4).bound_value
                  for d in (0.01, 0.05, 0.2, 0.9)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_report_is_sum_of_terms(self):
        rep = vc_bound(0.2, 5000, 0.05, d_vc=2)
        total = (rep.empirical_risk_term + rep.complexity_term
                 + rep.concentration_term)
        assert rep.bound_value == pytest.approx(total, rel=1e-12)
        assert rep.bound_value >= rep.empirical_risk_term

    def test_validation(self):
        with pytest.raises(ValueError):
            vc_bound(0.0, 100, 1.5, d_vc=2)
        with pytest.raises(ValueError):
            vc_bound(0.0, 100, 0.05)  # no capacity
        with pytest.raises(ValueError):
            vc_bound(0.0, 100, 0.05, d_vc=2, growth_2n=4.0)
        with pytest.raises(ValueError):
            vc_bound(0.0, 3, 0.05, d_vc=5)  # n < d


EMP_RISK_CALCULATORS = {
    "vc": lambda e, delta=0.05: vc_bound(e, 100, delta, d_vc=2),
    "vc_relative": lambda e, delta=0.05: vc_relative_bound(
        e, 100, delta, d_vc=2, stationary=True),
    "regression": lambda e, delta=0.05: regression_vc_bound(e, 100, 8, delta,
                                                            4.0),
    "rademacher": lambda e, delta=0.05: rademacher_risk_bound(
        "marginal", e, [0.01], 1.0, 100, delta),
    "mixing": lambda e, delta=0.05: mixing_reference_bound(e, 0.01, 1.0, 50, 1,
                                                           0.0, delta),
}


@pytest.mark.parametrize("calculator", sorted(EMP_RISK_CALCULATORS))
@pytest.mark.parametrize("emp_risk", [math.nan, math.inf, -math.inf, -0.1])
def test_rejects_bad_emp_risk(calculator, emp_risk):
    with pytest.raises(ValueError, match="emp_risk"):
        EMP_RISK_CALCULATORS[calculator](emp_risk)


# (c, the concentration term of EMP_RISK_CALCULATORS at emp 0.1 as a
# function of its confidence term t = log(c / delta))
_CONCENTRATION_FORMS = {
    "vc": (2.0, lambda t: 2.0 * math.sqrt(2.0 * t / 100)),
    "vc_relative": (4.0, lambda t: 2.0 * math.sqrt(0.1 * (t / 100))
                    + 4.0 * (t / 100)),
    "regression": (2.0, lambda t: 2.0 * 4.0 * math.sqrt(2.0 * t / 100)),
    "rademacher": (1.0, lambda t: 1.0 * math.sqrt(t / (2.0 * 100))),
    "mixing": (1.0, lambda t: 1.0 * math.sqrt(t / (2.0 * 50))),
}

# (a planner at delta, c, its plan as a function of t = log(c / delta))
_PLANNERS = {
    "plan_n_vc": (lambda delta: plan_n_vc(0.1, delta, 5), 4.0,
                  lambda t: (5.0 / 0.1) * (5 * math.log(40.0 / 0.1) + t)),
    "plan_n_margin": (lambda delta: plan_n_margin(0.1, delta, 1.0, 1.0), 1.0,
                      lambda t: ((2.0 / 1.0) * 1.0 + math.sqrt(t)) ** 2
                      / 0.1 ** 2),
}


@pytest.mark.parametrize("delta", [1e-310, 5e-324])
@pytest.mark.parametrize("name", [*sorted(EMP_RISK_CALCULATORS),
                                  *sorted(_PLANNERS)])
def test_subnormal_delta_gives_a_finite_bound(name, delta):
    # c / delta overflows here, so log(c / delta) is log c - log delta
    if name in _PLANNERS:
        plan, c, form = _PLANNERS[name]
        assert plan(delta) == math.ceil(form(math.log(c) - math.log(delta)))
        return
    c, form = _CONCENTRATION_FORMS[name]
    rep = EMP_RISK_CALCULATORS[name](0.1, delta)
    assert math.isfinite(rep.bound_value)
    assert rep.concentration_term == form(math.log(c) - math.log(delta))


class TestVcRelativeBound:
    def test_frozen_zero_error_value(self):
        rep = vc_relative_bound(0.0, 10 ** 5, 0.05, d_vc=4, stationary=True)
        assert rep.bound_value == pytest.approx(0.0020664455908926006, rel=1e-12)

    def test_zero_error_collapses_to_4c(self):
        n, delta, d = 2000, 0.1, 3
        c = (d * math.log(2 * math.e * n / d) + math.log(4 / delta)) / n
        rep = vc_relative_bound(0.0, n, delta, d_vc=d, stationary=True)
        assert rep.bound_value == pytest.approx(4.0 * c, rel=1e-12)

    def test_exceeds_additive_at_full_error_on_grid(self):
        # at emp = 1 the relative form dominates the additive one whenever
        # c = (cap + log(4/delta))/n is above ~0.043; this grid stays there
        for d in (1, 2, 5):
            for n in (50, 100, 200):
                if n < d:
                    continue
                for delta in (0.05, 0.2):
                    rel = vc_relative_bound(1.0, n, delta, d_vc=d,
                                            stationary=True).bound_value
                    add = vc_bound(1.0, n, delta, d_vc=d).bound_value
                    assert rel >= add

    def test_fast_rate_crossover(self):
        # with emp = 0 the relative bound wins for every large enough n
        for d in (1, 3, 5):
            for delta in (0.05, 0.01):
                crossed = None
                for n in (10 * d, 100, 1000, 10_000, 100_000, 1_000_000):
                    if n < d:
                        continue
                    rel = vc_relative_bound(0.0, n, delta, d_vc=d,
                                            stationary=True).bound_value
                    add = vc_bound(0.0, n, delta, d_vc=d).bound_value
                    if crossed is None and rel < add:
                        crossed = n
                    if crossed is not None:
                        assert rel < add
                assert crossed is not None

    def test_refuses_nonstationary(self):
        with pytest.raises(ValueError, match="stationary"):
            vc_relative_bound(0.0, 100, 0.05, d_vc=2, stationary=False)

    @pytest.mark.parametrize("flag", ["false", "true", 1, [0], None])
    def test_stationary_is_a_bool(self, flag):
        with pytest.raises(ValueError, match="^stationary must be true or "
                                             "false"):
            vc_relative_bound(0.0, 100, 0.05, d_vc=2, stationary=flag)
        rep = vc_relative_bound(0.0, 100, 0.05, d_vc=2,
                                stationary=np.bool_(True))
        assert rep == vc_relative_bound(0.0, 100, 0.05, d_vc=2,
                                        stationary=True)


class TestRegressionBound:
    def test_induced_dimension(self):
        assert linear_system_induced_vc_dim(2) == 8

    def test_b_one_reduces_to_vc_bound(self):
        a = regression_vc_bound(0.1, 4000, 6, 0.05, 1.0).bound_value
        b = vc_bound(0.1, 4000, 0.05, d_vc=6).bound_value
        assert a == pytest.approx(b, rel=1e-12)

    def test_frozen_value(self):
        rep = regression_vc_bound(0.0, 10 ** 5, 8, 0.05, 4.0)
        inner = vc_bound(0.0, 10 ** 5, 0.05, d_vc=8).bound_value
        assert rep.bound_value == pytest.approx(4.0 * inner, rel=1e-12)
        assert rep.bound_value == pytest.approx(0.3444683849131779, rel=1e-12)


class TestRademacherBound:
    def test_frozen_two_sided(self):
        rep = rademacher_risk_bound("two_sided", 0.1, [0.02, 0.02], 1.0,
                                    1000, 0.05)
        assert rep.bound_value == pytest.approx(0.1787022756020495, rel=1e-12)

    def test_delta_one_kills_concentration(self):
        rep = rademacher_risk_bound("marginal", 0.2, [0.03], 1.0, 100, 1.0)
        assert rep.concentration_term == 0.0
        assert rep.bound_value == pytest.approx(0.2 + 0.06)

    def test_marginal_matches_two_sided_at_equal_terms(self):
        r = 0.017
        a = rademacher_risk_bound("two_sided", 0.1, [r, r], 2.0, 500, 0.1)
        b = rademacher_risk_bound("marginal", 0.1, [r], 2.0, 500, 0.1)
        assert a.bound_value == pytest.approx(b.bound_value, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rademacher_risk_bound("two_sided", 0.1, [0.02], 1.0, 100, 0.05)
        with pytest.raises(ValueError):
            rademacher_risk_bound("marginal", 0.1, [-0.01], 1.0, 100, 0.05)
        with pytest.raises(ValueError):
            rademacher_risk_bound("sideways", 0.1, [0.01], 1.0, 100, 0.05)


class TestClassRadUpper:
    def test_linear(self):
        assert class_rad_upper("linear", 100, m_clip=1.0, radius=2.0,
                               sum_sq_norm=100.0) == pytest.approx(0.8)

    def test_kernel_worst_case(self):
        assert class_rad_upper("kernel_gaussian", 100, m_clip=1.0,
                               radius=2.0) == pytest.approx(0.8)

    def test_margin_linear(self):
        assert class_rad_upper("margin_linear", 100, radius=1.0, gamma=0.5,
                               sum_sq_norm=100.0) == pytest.approx(0.2)

    def test_vq(self):
        assert class_rad_upper("vq", 100, n_codepoints=2, radius=1.0,
                               sum_sq_norm=100.0) == pytest.approx(0.6)

    def test_sup_norm_variant(self):
        got = class_rad_upper("linear", 64, m_clip=1.0, radius=2.0, sup_norm=3.0)
        assert got == pytest.approx(4 * 2 * 3 / 8.0)

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="missing"):
            class_rad_upper("linear", 100, m_clip=1.0, sum_sq_norm=10.0)
        with pytest.raises(ValueError):
            class_rad_upper("linear", 100, m_clip=1.0, radius=1.0)


class TestChaining:
    def test_zero_diameter(self):
        assert chaining_rad_upper(0.0, 5, lambda e: 10.0, 100) == 0.0

    def test_trivial_covering(self):
        val = chaining_rad_upper(2.0, 4, lambda e: 0.0, 100, lipschitz=3.0)
        assert val == pytest.approx(3.0 * 2.0 / 16.0)

    def test_two_function_frozen_value(self):
        val = chaining_rad_upper(1.0, 3, lambda e: math.log(2.0), 100)
        assert val == pytest.approx(0.5620911708577913, rel=1e-12)

    def test_best_depth_never_worse(self):
        # the spectrally-regularized form A * sum ||x_i||^2 / eps^2
        log_cov = lambda eps: 0.3 * 50.0 / eps ** 2
        best, depth = chaining_rad_upper_best(1.5, log_cov, 200)
        for n_depth in (1, 3, 10, 40):
            assert best <= chaining_rad_upper(1.5, n_depth, log_cov, 200) + 1e-15
        assert 1 <= depth <= 40

    def test_negative_log_covering_rejected(self):
        with pytest.raises(ValueError):
            chaining_rad_upper(1.0, 2, lambda e: -0.5, 100)

    def test_finite_past_depth_1023(self):
        # 2.0 ** depth overflows from depth 1024 on
        log_cov = lambda eps: math.log(2.0)
        assert math.isfinite(chaining_rad_upper(1.0, 1024, log_cov, 10))
        best = chaining_rad_upper_best(1.0, log_cov, 10, max_depth=1100)
        assert math.isfinite(best[0])
        loop = [(chaining_rad_upper(1.0, depth, log_cov, 10), depth)
                for depth in range(1, 1101)]
        assert best == min(loop, key=lambda vd: vd[0])


class TestMixingReference:
    def test_inapplicable_example(self):
        assert mixing_reference_bound(0.0, 0.0, 1.0, 100, 1, 1e-3, 0.01) is None

    def test_zero_mixing_reduces_to_marginal(self):
        mu = 150
        mix = mixing_reference_bound(0.05, 0.02, 1.0, mu, 3, 0.0, 0.1)
        marginal = rademacher_risk_bound("marginal", 0.05, [0.02], 1.0, mu, 0.1)
        assert mix.bound_value == pytest.approx(marginal.bound_value, rel=1e-12)

    def test_frozen_value(self):
        rep = mixing_reference_bound(0.0, 0.0, 1.0, 100, 1, 1e-6, 0.05)
        assert rep.bound_value == pytest.approx(0.1225496593904204, rel=1e-12)

    def test_marginal_strictly_tighter_when_applicable(self):
        for mu in (10, 25, 50):
            for beta in (1e-3, 1e-4):
                for delta in (0.05, 0.1, 0.2):
                    n = 2 * 2 * mu
                    rad_n = class_rad_upper("linear", n, m_clip=1.0,
                                            radius=1.0, sum_sq_norm=float(n))
                    rad_mu = class_rad_upper("linear", mu, m_clip=1.0,
                                             radius=1.0, sum_sq_norm=float(mu))
                    mix = mixing_reference_bound(0.0, rad_mu, 1.0, mu, 2,
                                                 beta, delta)
                    if mix is None:
                        continue
                    marg = rademacher_risk_bound("marginal", 0.0, [rad_n],
                                                 1.0, n, delta)
                    assert marg.bound_value < mix.bound_value


_VALUES = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
_LOG2 = lambda e: math.log(2.0)


@pytest.mark.parametrize("name, call", [
    pytest.param("epsilon", lambda: concentration_tail(
        "hoeffding", 1.0, math.nan, 10), id="tail-epsilon-nan"),
    pytest.param("n", lambda: concentration_tail(
        "hoeffding", 1.0, 0.1, 0), id="tail-n-0"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "bounded_difference", [math.nan, 1.0], 0.1), id="tail-ranges-nan"),
    # each raised OverflowError or ZeroDivisionError, or warned of an
    # overflow in the square
    pytest.param("n", lambda: concentration_tail(
        "hoeffding", 1.0, 0.3, 10 ** 200), id="tail-n-1e200"),
    pytest.param("epsilon", lambda: concentration_tail(
        "hoeffding", 1.0, 1e200, 10), id="tail-epsilon-1e200"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "hoeffding", 1e-200, 0.1, 10), id="tail-c-1e-200"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "bounded_difference", 1e-200, 0.1, 10), id="tail-bd-c-1e-200"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "hoeffding", 1e-200, 0.0, 10), id="tail-c-1e-200-epsilon-0"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "bounded_difference", 1e-200, 0.0, 10),
        id="tail-bd-c-1e-200-epsilon-0"),
    pytest.param("c_or_ranges", lambda: concentration_tail(
        "hoeffding", [1e200, 1.0], 0.1), id="tail-ranges-1e200"),
    pytest.param("p", lambda: exact_binomial_mean_tail(10, 1.5, 0.1),
                 id="binomial-p-1.5"),
    pytest.param("p", lambda: exact_binomial_mean_tail(10, math.nan, 0.1),
                 id="binomial-p-nan"),
    pytest.param("n", lambda: exact_binomial_mean_tail(0, 0.5, 0.1),
                 id="binomial-n-0"),
    pytest.param("n", lambda: exact_binomial_mean_tail(2 ** 53 + 1, 0.5, 0.1),
                 id="binomial-n-past-2-53"),
    pytest.param("m", lambda: binomial_quarter_lemma_holds(2 ** 53 + 1, 0.5),
                 id="quarter-m-past-2-53"),
    pytest.param("epsilon", lambda: exact_binomial_mean_tail(10, 0.5, math.nan),
                 id="binomial-epsilon-nan"),
    pytest.param("n", lambda: chaining_rad_upper(1.0, 3, _LOG2, 0),
                 id="chaining-n-0"),
    pytest.param("diameter", lambda: chaining_rad_upper(math.nan, 3, _LOG2, 100),
                 id="chaining-diameter-nan"),
    pytest.param("diameter", lambda: chaining_rad_upper(math.inf, 3, _LOG2, 100),
                 id="chaining-diameter-inf"),
    pytest.param("lipschitz", lambda: chaining_rad_upper(
        1.0, 3, _LOG2, 100, lipschitz=math.nan), id="chaining-lipschitz-nan"),
    pytest.param("log_covering", lambda: chaining_rad_upper(
        1.0, 3, lambda e: math.nan, 100), id="chaining-log-covering-nan"),
    pytest.param("max_depth", lambda: chaining_rad_upper_best(
        1.0, _LOG2, 100, max_depth=0), id="chaining-best-max-depth-0"),
    pytest.param("epsilon", lambda: covering_number_exhaustive(
        _VALUES, math.nan), id="exhaustive-epsilon-nan"),
    pytest.param("m_clip", lambda: class_rad_upper(
        "linear", 100, m_clip=math.nan, radius=1.0, sup_norm=1.0),
        id="rad-upper-m-clip-nan"),
    pytest.param("m_clip", lambda: class_rad_upper(
        "linear", 100, m_clip=-1.0, radius=1.0, sup_norm=1.0),
        id="rad-upper-m-clip-negative"),
    pytest.param("radius", lambda: class_rad_upper(
        "kernel_gaussian", 100, m_clip=1.0, radius=math.nan),
        id="rad-upper-radius-nan"),
    pytest.param("radius", lambda: class_rad_upper(
        "margin_linear", 100, radius=-1.0, gamma=0.5, sup_norm=1.0),
        id="rad-upper-radius-negative"),
    pytest.param("gamma", lambda: class_rad_upper(
        "margin_linear", 100, radius=1.0, gamma=math.nan, sup_norm=1.0),
        id="rad-upper-gamma-nan"),
    pytest.param("gamma", lambda: class_rad_upper(
        "margin_linear", 100, radius=1.0, gamma=-0.5, sup_norm=1.0),
        id="rad-upper-gamma-negative"),
    pytest.param("n_codepoints", lambda: class_rad_upper(
        "vq", 100, n_codepoints=-2, radius=1.0, sum_sq_norm=10.0),
        id="rad-upper-codepoints-negative"),
    pytest.param("n_codepoints", lambda: class_rad_upper(
        "vq", 100, n_codepoints=2.5, radius=1.0, sum_sq_norm=10.0),
        id="rad-upper-codepoints-fraction"),
    pytest.param("n_codepoints", lambda: class_rad_upper(
        "vq", 100, n_codepoints=0, radius=1.0, sum_sq_norm=10.0),
        id="rad-upper-codepoints-0"),
    pytest.param("sum_sq_norm", lambda: class_rad_upper(
        "linear", 100, m_clip=1.0, radius=1.0, sum_sq_norm=math.nan),
        id="rad-upper-sum-sq-norm-nan"),
    pytest.param("sup_norm", lambda: class_rad_upper(
        "linear", 100, m_clip=1.0, radius=1.0, sup_norm=math.nan),
        id="rad-upper-sup-norm-nan"),
    pytest.param("sum_kernel_diag", lambda: class_rad_upper(
        "kernel_gaussian", 100, m_clip=1.0, radius=1.0,
        sum_kernel_diag=math.nan), id="rad-upper-kernel-diag-nan"),
    pytest.param("b", lambda: regression_vc_bound(0.0, 100, 4, 0.05, math.nan),
                 id="regression-b-nan"),
    pytest.param("b", lambda: mixing_reference_bound(
        0.0, 0.1, math.nan, 100, 1, 1e-4, 0.1), id="mixing-b-nan"),
    pytest.param("rad_mu", lambda: mixing_reference_bound(
        0.0, math.nan, 1.0, 100, 1, 1e-4, 0.1), id="mixing-rad-mu-nan"),
    pytest.param("beta_a", lambda: mixing_reference_bound(
        0.0, 0.1, 1.0, 100, 1, math.nan, 0.1), id="mixing-beta-nan"),
    pytest.param("rad_terms", lambda: rademacher_risk_bound(
        "marginal", 0.0, [math.nan], 1.0, 100, 0.1), id="rad-terms-nan"),
    pytest.param("rad_terms", lambda: rademacher_risk_bound(
        "marginal", 0.0, [1e308], 1.0, 100, 0.1), id="rad-terms-huge"),
    pytest.param("rad_mu", lambda: mixing_reference_bound(
        0.0, 1e308, 1.0, 100, 1, 1e-4, 0.1), id="mixing-rad-mu-huge"),
    pytest.param("tau_lambda_sum", lambda: plan_n_margin(0.1, 0.05, 1.0, 1e308),
                 id="plan-margin-count-overflow"),
    pytest.param("epsilon", lambda: plan_n_vc(1e-320, 0.1, 3),
                 id="plan-vc-count-overflow"),
    pytest.param("bandwidth", lambda: kernel_ball_class(1.0, bandwidth=1e308),
                 id="kernel-bandwidth-huge"),
    pytest.param("gamma", lambda: plan_n_margin(0.1, 0.1, math.nan, 1.0),
                 id="plan-gamma-nan"),
    pytest.param("tau_lambda_sum", lambda: plan_n_margin(
        0.1, 0.1, 1.0, math.nan), id="plan-tau-lambda-nan"),
    pytest.param("gamma", lambda: violation_bound(
        "margin", 100, 0.1, tau_lambda_sum=1.0), id="violation-gamma-missing"),
    pytest.param("m", lambda: sample_marginal(ar1_process(0.5, 1.0), math.nan, 1),
                 id="sample-marginal-m-nan"),
    pytest.param("n", lambda: simulate_sequence(ar1_process(0.5, 1.0), 1e308, 1),
                 id="simulate-n-float"),
    pytest.param("seed", lambda: simulate_sequence(ar1_process(0.5, 1.0), 10,
                                                   math.inf), id="simulate-seed-inf"),
    pytest.param("a", lambda: ar1_process(math.nan, 1.0), id="ar1-a-nan"),
    pytest.param("sigma", lambda: ar1_process(0.5, math.inf), id="ar1-sigma-inf"),
    pytest.param("b_star", lambda: ar1_process(0.5, 1.0, b_star=math.nan),
                 id="ar1-b-star-nan"),
    pytest.param("flip_p", lambda: ar1_process(0.5, 1.0, flip_p=math.nan),
                 id="ar1-flip-nan"),
    pytest.param("sigma", lambda: ar_process([0.5], math.nan), id="ar-d-sigma-nan"),
    pytest.param("coefficients", lambda: ar_process([0.5, math.nan], 1.0),
                 id="ar-d-coefficient-nan"),
    pytest.param("rho", lambda: markov_binary_process(math.nan), id="markov-rho-nan"),
    pytest.param("high", lambda: iid_process("uniform", low=0.0, high=math.nan),
                 id="iid-high-nan"),
    pytest.param("low", lambda: iid_process("uniform", low=math.nan, high=1.0),
                 id="iid-low-nan"),
])
def test_numeric_arguments_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()


class TestCheck:
    @pytest.mark.parametrize("kwargs", [
        {}, {"lo": 0}, {"hi": 1}, {"lo": 0, "hi": 1, "lo_open": True},
        {"lo": -1, "hi": 1, "hi_open": True}])
    def test_nan_fails_every_range(self, kwargs):
        with pytest.raises(ValueError, match="^x must be"):
            _check("x", math.nan, **kwargs)

    def test_open_ends(self):
        _check("x", 0.0, 0, 1)
        _check("x", math.inf, 0)
        with pytest.raises(ValueError, match=r"^x must be in \(0, 1\), got 0$"):
            _check("x", 0, 0, 1, lo_open=True, hi_open=True)
        with pytest.raises(ValueError, match=r"^x must be in \[0, inf\), got inf$"):
            _check("x", math.inf, 0, hi_open=True)
        with pytest.raises(ValueError, match=r"^x must be in \(-inf, inf\)"):
            _check("x", -math.inf, lo_open=True, hi_open=True)

    def test_missing(self):
        with pytest.raises(ValueError, match="^x is missing$"):
            _check("x", None, 0)

    @pytest.mark.parametrize("value", [1e308, 3.0, np.float64(2.0), "3"])
    def test_integer_rejects_floats_and_strings(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[1, inf\]"):
            _check("n", value, 1, integer=True)

    def test_integer_accepts_numpy_integers(self):
        _check("n", np.int64(5), 1, integer=True)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    @pytest.mark.parametrize("integer", [True, False])
    def test_bools_are_no_numbers(self, value, integer):
        # a config's true is not 1: it would size an array or seed a stream
        with pytest.raises(ValueError, match=r"^n must be .*got (True|False)$"):
            _check("n", value, integer=integer)
