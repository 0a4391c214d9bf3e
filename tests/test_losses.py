import numpy as np

from seqbounds.experiments import _clipped_ray_risks, _margin_empirical_risks
from seqbounds.losses import zero_one_loss


def margin_losses(gamma, scores, labels):
    """Per-point margin losses phi(y g) of the margin check: the empirical
    risks of the models w = y g on the single point s = 1."""
    return _margin_empirical_risks(np.array([1.0]),
                                   np.asarray(labels) * scores, gamma)


class TestRangesAndSpecs:
    def test_declared_ranges(self):
        assert zero_one_loss().range_b == 1.0

    def test_values_stay_in_range(self):
        # the margin check's losses lie in [0, 1]; the regression check's
        # clipped squared losses in [0, 4 M^2] for targets within [-M, M]
        rng = np.random.default_rng(5)
        preds = rng.normal(scale=5.0, size=500)
        ys = np.where(rng.random(500) < 0.5, 1.0, -1.0)
        vals = margin_losses(0.3, preds, ys)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)
        m_clip = 1.5
        ys = rng.uniform(-m_clip, m_clip, 500)
        for p, y in zip(preds, ys):
            # the model x -> 1 * x on the point (x, y) = (p, y)
            val = _clipped_ray_risks(np.array([[p]]), np.array([y]),
                                     np.array([[1.0]]), np.array([1.0]),
                                     m_clip)[0, 0]
            assert 0.0 <= val <= 4.0 * m_clip ** 2 + 1e-12


class TestMarginProperties:
    def test_dominates_zero_one(self):
        # misclassification (y g <= 0) forces margin loss 1 when gamma <= 1
        rng = np.random.default_rng(9)
        for gamma in (0.1, 0.5, 1.0):
            g = rng.normal(scale=2.0, size=1000)
            y = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
            margin_vals = margin_losses(gamma, g, y)
            indicator = (np.sign(g) != y) & (y * g <= 0)
            assert np.all(margin_vals[indicator] >= 1.0 - 1e-12)
            assert np.all(indicator.astype(float) <= margin_vals + 1e-12)

    def test_lipschitz_in_score(self):
        gamma = 0.4
        rng = np.random.default_rng(10)
        g = rng.normal(scale=3.0, size=2000)
        h = 1e-6
        up = margin_losses(gamma, g + h, np.ones_like(g))
        down = margin_losses(gamma, g - h, np.ones_like(g))
        deriv = np.abs(up - down) / (2 * h)
        assert np.all(deriv <= 1.0 / gamma + 1e-6)
