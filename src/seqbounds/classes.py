"""Hypothesis-class descriptors and their capacity quantities.

The empirical L2 pseudo-metric and the exact covering number of a finite
evaluated function set.  The threshold class's dichotomies are swept in
``estimators``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import _SCALE_MAX, _check, _set_floats

KINDS = ("finite", "threshold1d", "linear_ball", "kernel_ball")


class UnsupportedClassError(ValueError):
    """The operation does not support this class kind."""


@dataclass(frozen=True)
class FunctionClassDescriptor:
    """A hypothesis class with its capacity metadata.

    Only the fields relevant to ``kind`` are set; use the module-level
    constructors (``finite_class``, ``threshold_class``, ...) rather than
    building instances by hand.
    """

    kind: str
    functions: tuple = None        # finite: callables on the evaluation grid
    dim: int = None                # linear_ball: input dimension
    radius: float = None           # linear_ball / kernel_ball
    with_offset: bool = False      # linear_ball: include an intercept term
    bandwidth: float = None        # kernel_ball: gaussian kernel width
    vc_dim: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedClassError(f"unknown class kind {self.kind!r}")
        if self.kind == "finite":
            if not self.functions:
                raise ValueError("finite class needs at least one function")
        elif self.kind == "threshold1d":
            object.__setattr__(self, "vc_dim", 1)
        elif self.kind == "linear_ball":
            _check("dim", self.dim, 1, integer=True)
            _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)
            object.__setattr__(
                self, "vc_dim", self.dim + 1 if self.with_offset else self.dim
            )
        elif self.kind == "kernel_ball":
            _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)
            _check("bandwidth", self.bandwidth, 0, _SCALE_MAX, lo_open=True)
        _set_floats(self)


def finite_class(functions, vc_dim=None):
    return FunctionClassDescriptor(
        kind="finite", functions=tuple(functions), vc_dim=vc_dim)


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


@dataclass
class PseudoMetricSample:
    """Evaluation points t_1..t_n with cached function evaluations."""

    points: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape[0] < 1:
            raise ValueError("need at least one evaluation point")

    @property
    def n(self):
        return self.points.shape[0]

    def evaluate(self, f):
        """Vector of f over the sample points (cached per function object)."""
        # the entry keeps f alive, so its id cannot pass to another function
        key = id(f)
        if key not in self._cache:
            try:
                vals = np.asarray(f(self.points), dtype=float)
                if vals.shape != (self.n,):
                    raise ValueError
            except (TypeError, ValueError):
                vals = np.array([float(f(t)) for t in self.points])
            if not np.all(np.isfinite(vals)):
                raise ValueError("function evaluations must be finite")
            self._cache[key] = (f, vals)
        return self._cache[key][1]


def evaluation_matrix(functions, sample: PseudoMetricSample = None) -> np.ndarray:
    """Rows of function values; accepts callables, a finite descriptor,
    or an already-evaluated 2-D array."""
    if isinstance(functions, np.ndarray):
        if functions.ndim != 2:
            raise ValueError("evaluated function set must be a 2-D array")
        return np.asarray(functions, dtype=float)
    if isinstance(functions, FunctionClassDescriptor):
        if functions.kind != "finite":
            raise UnsupportedClassError("need a finite class or explicit values")
        functions = functions.functions
    if sample is None:
        raise ValueError("callables need a PseudoMetricSample to evaluate on")
    return np.vstack([sample.evaluate(f) for f in functions])


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


def covering_number_exhaustive(functions, epsilon: float,
                               sample: PseudoMetricSample = None) -> int:
    """Minimal proper epsilon-net size by exhaustive subset search
    (limited to 16 functions)."""
    _check("epsilon", epsilon, 0, lo_open=True)
    values = evaluation_matrix(functions, sample)
    dm = pseudo_metric_matrix(values)
    if dm.shape[0] > 16:
        raise ValueError("exhaustive covering search is limited to 16 functions")
    return _exhaustive_net_size(dm, epsilon)

