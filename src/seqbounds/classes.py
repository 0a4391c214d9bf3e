"""Hypothesis-class descriptors and their capacity quantities.

A finite class is its (m, n) matrix of values on n points: the empirical L2
pseudo-metric between its rows and its exact covering number.  The threshold
class's dichotomies are swept in ``estimators``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _SCALE_MAX, _as_floats, _check, _check_flag, _set_floats

KINDS = ("threshold1d", "linear_ball", "kernel_ball")


class UnsupportedClassError(ValueError):
    """The operation does not support this class kind."""


@dataclass(frozen=True)
class FunctionClassDescriptor:
    """A hypothesis class with its capacity metadata.

    Only the fields relevant to ``kind`` are set; use the module-level
    constructors (``threshold_class``, ...) rather than building instances
    by hand.
    """

    kind: str
    dim: int = None                # linear_ball: input dimension
    radius: float = None           # linear_ball / kernel_ball
    with_offset: bool = False      # linear_ball: include an intercept term
    bandwidth: float = None        # kernel_ball: gaussian kernel width

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedClassError(f"unknown class kind {self.kind!r}")
        _check_flag("with_offset", self.with_offset)
        if self.kind == "linear_ball":
            _check("dim", self.dim, 1, integer=True)
            _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)
        elif self.kind == "kernel_ball":
            _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)
            _check("bandwidth", self.bandwidth, 0, _SCALE_MAX, lo_open=True)
        _set_floats(self)


def threshold_class():
    """1-D thresholds x -> sign(x - b) with sign(0) = +1 (fixed orientation)."""
    return FunctionClassDescriptor(kind="threshold1d")


def linear_ball_class(dim, radius, with_offset=False):
    return FunctionClassDescriptor(
        kind="linear_ball", dim=dim, radius=radius, with_offset=with_offset
    )


def kernel_ball_class(radius, bandwidth=1.0):
    return FunctionClassDescriptor(
        kind="kernel_ball", radius=radius, bandwidth=bandwidth
    )


def pseudo_metric_matrix(values: np.ndarray) -> np.ndarray:
    """Pairwise empirical L2 pseudo-distances between rows of ``values``.

    A square overflows, or underflows, where a pair's largest difference
    leaves [1e-150, 1e150]; such a pair is measured in the power-of-two
    unit of that difference."""
    with np.errstate(over="ignore"):
        diffs = values[:, None, :] - values[None, :, :]
        # np.mean sums and divides by the count just so, at a third of its cost
        dm = np.sqrt(np.add.reduce(diffs ** 2, axis=2) / values.shape[1])
    # pairs within [1e-150, 1e140] need no unit (the diagonal is always 0)
    if np.count_nonzero((dm < 1e-150) | (dm > 1e140)) > dm.shape[0]:
        peak = np.max(np.abs(diffs), axis=2)
        odd = (peak > 1e150) | ((peak > 0) & (peak < 1e-150))
        unit = np.ldexp(1.0, np.frexp(peak[odd])[1] - 1)
        dm[odd] = unit * np.sqrt(np.mean((diffs[odd] / unit[:, None]) ** 2,
                                         axis=1))
    return dm


# the size of each subset of up to 16 rows, indexed by its bitmask
_SUBSET_SIZE = np.zeros(1 << 16, dtype=np.int8)
for _i in range(16):
    _SUBSET_SIZE[1 << _i:2 << _i] = _SUBSET_SIZE[:1 << _i] + 1


def _exhaustive_net_size(dm: np.ndarray, epsilon: float) -> int:
    """Smallest number of rows whose open epsilon-balls cover every row.

    Exact: a table over all 2^m subsets, built one row at a time, holds each
    subset's covered rows (as a bitmask); _SUBSET_SIZE gives its size.  When
    every ball holds only its own row, only that row covers it, so the net
    is all m rows and no table is built.
    """
    m = dm.shape[0]
    inside = dm < epsilon
    if np.count_nonzero(inside) == m:       # the diagonal: 0 < epsilon
        return m
    balls = inside @ (1 << np.arange(m, dtype=np.int64))
    cover = np.zeros(1 << m, dtype=np.int64)
    for i, ball in enumerate(balls):
        # the subsets that contain row i are those without it, plus row i
        cover[1 << i:2 << i] = cover[:1 << i] | ball
    return int(_SUBSET_SIZE[:1 << m][cover == (1 << m) - 1].min())


def covering_number_exhaustive(values, epsilon: float) -> int:
    """Minimal proper epsilon-net size of the rows of the (m, n) matrix
    ``values`` by exhaustive subset search (limited to 16 functions)."""
    _check("epsilon", epsilon, 0, lo_open=True)
    values = _as_floats("values", values)
    if values.ndim != 2 or not values.size or not np.isfinite(values).all():
        raise ValueError("values must be a non-empty matrix of finite numbers")
    if values.shape[0] > 16:
        raise ValueError("exhaustive covering search is limited to 16 functions")
    return _exhaustive_net_size(pseudo_metric_matrix(values), epsilon)
