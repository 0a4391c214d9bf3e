import math

import numpy as np
import pytest
from scipy import stats

from seqbounds.bounds import (binomial_quarter_lemma_holds,
                              chaining_rad_upper, chaining_rad_upper_best,
                              class_rad_upper, concentration_tail,
                              exact_binomial_mean_tail,
                              linear_system_induced_vc_dim,
                              mixing_reference_bound, rademacher_risk_bound,
                              regression_vc_bound, spectral_log_covering,
                              vc_bound, vc_relative_bound)
from seqbounds.classes import (covering_number_exhaustive,
                               covering_number_greedy)


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
    "vc": lambda e: vc_bound(e, 100, 0.05, d_vc=2),
    "vc_relative": lambda e: vc_relative_bound(e, 100, 0.05, d_vc=2,
                                               stationary=True),
    "regression": lambda e: regression_vc_bound(e, 100, 8, 0.05, 4.0),
    "rademacher": lambda e: rademacher_risk_bound("marginal", e, [0.01], 1.0,
                                                  100, 0.05),
    "mixing": lambda e: mixing_reference_bound(e, 0.01, 1.0, 50, 1, 0.0, 0.05),
}


@pytest.mark.parametrize("calculator", sorted(EMP_RISK_CALCULATORS))
@pytest.mark.parametrize("emp_risk", [math.nan, math.inf, -math.inf, -0.1])
def test_rejects_bad_emp_risk(calculator, emp_risk):
    with pytest.raises(ValueError, match="emp_risk"):
        EMP_RISK_CALCULATORS[calculator](emp_risk)


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
        log_cov = spectral_log_covering(0.3, 50.0)
        best, depth = chaining_rad_upper_best(1.5, log_cov, 200)
        for n_depth in (1, 3, 10, 40):
            assert best <= chaining_rad_upper(1.5, n_depth, log_cov, 200) + 1e-15
        assert 1 <= depth <= 40

    def test_negative_log_covering_rejected(self):
        with pytest.raises(ValueError):
            chaining_rad_upper(1.0, 2, lambda e: -0.5, 100)


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
    pytest.param("p", lambda: exact_binomial_mean_tail(10, 1.5, 0.1),
                 id="binomial-p-1.5"),
    pytest.param("p", lambda: exact_binomial_mean_tail(10, math.nan, 0.1),
                 id="binomial-p-nan"),
    pytest.param("n", lambda: exact_binomial_mean_tail(0, 0.5, 0.1),
                 id="binomial-n-0"),
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
    pytest.param("epsilon", lambda: covering_number_greedy(_VALUES, math.nan),
                 id="greedy-epsilon-nan"),
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
    pytest.param("sum_sq_norm", lambda: class_rad_upper(
        "linear", 100, m_clip=1.0, radius=1.0, sum_sq_norm=math.nan),
        id="rad-upper-sum-sq-norm-nan"),
    pytest.param("sup_norm", lambda: class_rad_upper(
        "linear", 100, m_clip=1.0, radius=1.0, sup_norm=math.nan),
        id="rad-upper-sup-norm-nan"),
    pytest.param("sum_kernel_diag", lambda: class_rad_upper(
        "kernel_gaussian", 100, m_clip=1.0, radius=1.0,
        sum_kernel_diag=math.nan), id="rad-upper-kernel-diag-nan"),
    pytest.param("coefficient", lambda: spectral_log_covering(math.nan, 1.0),
                 id="spectral-coefficient-nan"),
    pytest.param("sum_sq_norm", lambda: spectral_log_covering(1.0, math.nan),
                 id="spectral-sum-sq-norm-nan"),
])
def test_numeric_arguments_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()
