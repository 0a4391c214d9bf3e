"""Bounded loss functions: zero-one, piecewise-linear margin, clipped
squared error and nearest-codepoint quantization error."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _SCALE_MAX, _check

LOSS_KINDS = ("zero_one", "margin", "clipped_squared", "vq_nearest")


@dataclass(frozen=True)
class LossSpec:
    """A bounded loss with its range B and scalar-link Lipschitz constant."""

    kind: str
    gamma: float = None        # margin width
    clip: float = None         # clipped_squared: predictions clipped to [-M, M]
    n_codepoints: int = None   # vq_nearest
    ball_radius: float = None  # vq_nearest: inputs/codepoints ball radius
    range_b: float = None
    lipschitz_link: float = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def zero_one_loss():
    return LossSpec(kind="zero_one", range_b=1.0, lipschitz_link=1.0)


def margin_loss(gamma):
    _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
    return LossSpec(kind="margin", gamma=float(gamma), range_b=1.0,
                    lipschitz_link=1.0 / float(gamma))


def clipped_squared_loss(clip):
    _check("clip", clip, 0, _SCALE_MAX, lo_open=True)
    m = float(clip)
    # range 4M^2; the squared residual of a clipped prediction is 4M-Lipschitz
    return LossSpec(kind="clipped_squared", clip=m, range_b=4.0 * m * m,
                    lipschitz_link=4.0 * m)


def vq_loss(n_codepoints, ball_radius):
    _check("n_codepoints", n_codepoints, 1, integer=True)
    _check("ball_radius", ball_radius, 0, _SCALE_MAX, lo_open=True)
    lam = float(ball_radius)
    return LossSpec(kind="vq_nearest", n_codepoints=int(n_codepoints),
                    ball_radius=lam, range_b=4.0 * lam * lam,
                    lipschitz_link=1.0)


def batch_losses(spec: LossSpec, predictions, targets) -> np.ndarray:
    """Per-point losses for the supervised kinds, vectorized."""
    pred = np.asarray(predictions, dtype=float)
    y = np.asarray(targets, dtype=float)
    if spec.kind == "zero_one":
        return (pred != y).astype(float)
    if spec.kind == "margin":
        return np.minimum(1.0, np.maximum(0.0, (1.0 - y * pred) / spec.gamma))
    if spec.kind == "clipped_squared":
        clipped = np.clip(pred, -spec.clip, spec.clip)
        return (y - clipped) ** 2
    raise TypeError(f"loss kind {spec.kind!r} is not a prediction/target loss")


def batch_vq_losses(codebook, xs) -> np.ndarray:
    """Squared distance to the nearest codepoint, one value per input."""
    cb = np.atleast_2d(np.asarray(codebook, dtype=float))
    x = np.asarray(xs, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if cb.shape[1] == 1 else x[None, :]
    sq = np.sum((x[:, None, :] - cb[None, :, :]) ** 2, axis=2)
    return np.min(sq, axis=1)


def eval_loss(spec: LossSpec, prediction_or_model, z) -> float:
    """Loss of one prediction (or model) at one data point.

    For the supervised kinds ``z`` is a pair (x, y) and the first argument
    is either a prediction value or a callable applied to x.  For
    vq_nearest the first argument is the codebook (C x d array) and ``z``
    is the input point itself.
    """
    if spec.kind == "vq_nearest":
        cb = np.atleast_2d(np.asarray(prediction_or_model, dtype=float))
        if cb.shape[0] != spec.n_codepoints:
            raise TypeError(
                f"codebook has {cb.shape[0]} codepoints, loss expects "
                f"{spec.n_codepoints}"
            )
        return float(batch_vq_losses(cb, np.atleast_2d(np.asarray(z, float)))[0])
    try:
        x, y = z
    except (TypeError, ValueError):
        raise TypeError(f"{spec.kind} loss needs a data point (x, y)") from None
    pred = prediction_or_model(x) if callable(prediction_or_model) else prediction_or_model
    pred = np.asarray(pred, dtype=float)
    if pred.ndim != 0 and pred.size != 1:
        raise TypeError(f"{spec.kind} loss needs a scalar prediction")
    return float(batch_losses(spec, pred.reshape(()), float(y)))
