"""Stationary dependent data generators with seeded, splittable streams
and closed-form marginal (ghost) samplers.

Importing this module loads no scipy.  The path simulators run scipy's
compiled linear filter (the routine behind ``scipy.signal.lfilter``),
which the import system finds and loads from its file on the first draw,
so ``scipy.signal`` and the subpackages it imports stay unloaded; the
AR(d) stationary covariance imports ``scipy.linalg``, the one scipy
subpackage imported here."""
from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import stat
import threading
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import (_SCALE_MAX, _SCALE_MIN, _as_floats, _check,
                     _from_kind_dict, _parameters, _set_floats)

_MASK64 = (1 << 64) - 1


def stream(seed: int, replication: int = 0, role: str = "path") -> np.random.Generator:
    """Counter-based generator keyed by (seed, replication, stream role).

    Streams for different (replication, role) pairs are mutually
    independent, so replicated experiments can draw paths, ghost samples
    and sign vectors without sharing state.
    """
    _check("seed", seed, integer=True)
    _check("replication", replication, 0, integer=True)
    key = (int(replication), zlib.crc32(role.encode("utf-8")))
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ProcessSpec:
    """A stationary data-generating process; see the constructors below."""

    kind: str
    a: float = None              # ar1 coefficient, |a| < 1
    sigma: float = None          # innovation standard deviation
    b_star: float = 0.0          # label threshold
    flip_p: float = 0.0          # independent label-flip probability
    coefficients: tuple = None   # ar_d autoregression coefficients
    clip_radius: float = None    # ar_d: emitted regressors clipped to this ball
    rho: float = None            # markov_binary stickiness, lag-1 autocorrelation
    dist: str = None             # iid_baseline: "normal" | "uniform"
    mean: float = 0.0
    low: float = None
    high: float = None

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == "iid_baseline" and self.dist not in ("normal", "uniform"):
            raise ValueError("iid_baseline dist must be 'normal' or 'uniform'")
        # a field set off its default must be a parameter of the kind's
        # constructor, and of the i.i.d. baseline one that its dist reads:
        # no other field reaches its path or its law
        taken = _parameters(_BUILDERS[self.kind])[0] | {"kind"}
        what = f"process kind {self.kind!r}"
        if self.kind == "iid_baseline":
            taken -= {"normal": {"low", "high"},
                      "uniform": {"mean", "sigma"}}[self.dist]
            what += f" with dist {self.dist!r}"
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in taken and value is not f.default and \
                    not np.array_equal(value, f.default):
                raise ValueError(f"{f.name} is not a parameter of {what}")
        if self.kind == "ar_d_linear_system":
            coefficients = _as_floats("coefficients", self.coefficients)
            if coefficients.ndim != 1 or not coefficients.size:
                raise ValueError("coefficients must be a non-empty list")
            for c in coefficients:
                _check("coefficients", c, lo_open=True, hi_open=True)
            object.__setattr__(self, "coefficients", tuple(coefficients.tolist()))
            if self.clip_radius is not None:
                _check("clip_radius", self.clip_radius, 0, lo_open=True, hi_open=True)
            if _companion_spectral_radius(self.coefficients) >= 1 - 1e-9:
                raise ValueError("coefficients must define a stable system")
        if self.kind == "ar1_threshold_labels":
            _check("a", self.a, -1, 1, lo_open=True, hi_open=True)
        # the spread of the marginal: rho for the binary chain, the support
        # for the uniform baseline and the noise level sigma otherwise, at
        # least _SCALE_MIN so that sigma^2 and the stationary variance stay
        # normal floats
        if self.kind == "markov_binary":
            _check("rho", self.rho, 0, 1, hi_open=True)
        elif self.dist == "uniform":
            _check("low", self.low, -_SCALE_MAX, _SCALE_MAX)
            _check("high", self.high, self.low, _SCALE_MAX, lo_open=True)
        else:
            _check("sigma", self.sigma, _SCALE_MIN, _SCALE_MAX)
        if self.kind in ("ar1_threshold_labels", "iid_baseline"):
            _check("mean", self.mean, -_SCALE_MAX, _SCALE_MAX)
            _check("b_star", self.b_star, lo_open=True, hi_open=True)
            _check("flip_p", self.flip_p, 0, 1, hi_open=True)
        _set_floats(self)

    @property
    def order(self):
        return len(self.coefficients) if self.coefficients else 1


def _companion(coefficients):
    """Companion matrix of the autoregression: the state (y_t, ..., y_{t-d+1})
    advances as state' = C state + (noise, 0, ..., 0)."""
    theta = np.asarray(coefficients, dtype=float)
    d = theta.size
    comp = np.zeros((d, d))
    comp[0, :] = theta
    comp[1:, :-1] = np.eye(d - 1)
    return comp


def _companion_spectral_radius(coefficients):
    return float(np.max(np.abs(np.linalg.eigvals(_companion(coefficients)))))


def ar1_process(a, sigma, b_star=0.0, flip_p=0.0):
    return ProcessSpec(kind="ar1_threshold_labels", a=a, sigma=sigma,
                       b_star=b_star, flip_p=flip_p)


def ar_process(coefficients, sigma, clip_radius=None):
    return ProcessSpec(kind="ar_d_linear_system", coefficients=coefficients,
                       sigma=sigma, clip_radius=clip_radius)


def markov_binary_process(rho):
    return ProcessSpec(kind="markov_binary", rho=rho)


def iid_process(dist="normal", mean=0.0, sigma=None, low=None, high=None,
                b_star=0.0, flip_p=0.0):
    if sigma is None and dist == "normal":      # sigma 1 by default
        sigma = 1.0
    return ProcessSpec(kind="iid_baseline", dist=dist, mean=mean, sigma=sigma,
                       low=low, high=high, b_star=b_star, flip_p=flip_p)


_BUILDERS = {"ar1_threshold_labels": ar1_process,
             "ar_d_linear_system": ar_process,
             "markov_binary": markov_binary_process,
             "iid_baseline": iid_process}


@dataclass(frozen=True)
class SequenceSample:
    """Ordered pairs (x_i, y_i): a simulated path or a ghost sample (y is
    None when drawn with ``labels=False``)."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return self.x.shape[0]


@dataclass(frozen=True)
class MarginalLaw:
    """Closed-form stationary marginal parameters of a process."""

    kind: str                    # "normal" | "binary_uniform" | "multivariate_normal" | "uniform"
    mean: float = 0.0
    variance: float = None
    covariance: np.ndarray = None
    low: float = None
    high: float = None


def stationary_params(spec: ProcessSpec) -> MarginalLaw:
    """Stationary marginal law of the x-component."""
    if spec.kind == "markov_binary":
        return MarginalLaw(kind="binary_uniform")
    if spec.kind == "ar_d_linear_system":
        cov = _lyapunov_covariance(spec.coefficients, spec.sigma)
        return MarginalLaw(kind="multivariate_normal", covariance=cov)
    if spec.dist == "uniform":
        return MarginalLaw(kind="uniform", low=spec.low, high=spec.high,
                           mean=(spec.low + spec.high) / 2.0)
    return MarginalLaw(kind="normal", mean=spec.mean, variance=_variance(spec))


def _variance(spec):
    """Stationary variance of x for the AR(1) path and the normal baseline."""
    if spec.kind == "ar1_threshold_labels":
        return spec.sigma ** 2 / (1.0 - spec.a ** 2)
    return spec.sigma ** 2


def _lyapunov_covariance(coefficients, sigma):
    """Stationary state covariance: the solution S of S = C S C' + Q for the
    companion matrix C and innovation covariance Q = sigma^2 e_1 e_1'."""
    d = len(coefficients)
    q = np.zeros((d, d))
    q[0, 0] = sigma ** 2
    from scipy import linalg
    return linalg.solve_discrete_lyapunov(_companion(coefficients), q)


@functools.lru_cache(maxsize=64)
def _ar_cholesky(coefficients, sigma):
    """Read-only Cholesky factor of the stationary state covariance of the
    autoregression, shared by every path and ghost draw of that system; its
    jitter 1e-15 sigma^2 I scales with the covariance, as sigma^2 does."""
    cov = _lyapunov_covariance(coefficients, sigma)
    chol = np.linalg.cholesky(cov + 1e-15 * sigma ** 2 * np.eye(len(cov)))
    chol.flags.writeable = False
    return chol


def _load_sigtools():
    """``scipy.signal._sigtools`` loaded from its file, which skips
    ``scipy.signal/__init__`` and the subpackages that imports; the import
    system finds the file next to ``scipy/__init__``.  If the file is
    missing or does not load, it is imported through the package."""
    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.signal._sigtools", [str(Path(scipy.__file__).parent / "signal")])
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
    return importlib.import_module("scipy.signal._sigtools")


_SIGTOOLS = None
_SIGTOOLS_LOCK = threading.Lock()


def _sigtools():
    """``scipy.signal._sigtools``, loaded on the first call only: the lock
    makes threads that draw their first paths at once load it once."""
    global _SIGTOOLS
    with _SIGTOOLS_LOCK:
        if _SIGTOOLS is None:
            _SIGTOOLS = _load_sigtools()
    return _SIGTOOLS


def _filter(a, x, zi):
    """y_t = x_t - a_1 y_{t-1} - ... - a_N y_{t-N} (a_0 = 1) continued from
    the filter state zi: the first output of ``scipy.signal.lfilter([1.0],
    a, x, zi=zi)``, computed by the routine that call runs, with the
    arguments it passes."""
    y, _ = _sigtools()._linear_filter(np.atleast_1d([1.0]), np.atleast_1d(a),
                                      np.asarray(x), -1, np.asarray(zi))
    return y


def _threshold_labels(x, spec, rng):
    signs = np.where(x >= spec.b_star, 1.0, -1.0)
    if spec.flip_p > 0:
        flips = rng.random(x.shape[0]) < spec.flip_p
        signs = signs * np.where(flips, -1.0, 1.0)
    return signs


def _marginal_draws(spec, m, rng, labels):
    """m independent draws of (x, y) from the stationary marginal of
    ``spec``, taken from ``rng``: labels are drawn after x, and y is None
    without them.  An AR(d) draw scales each row of x onto the clip ball
    if it lies outside."""
    y = None
    if spec.kind == "markov_binary":
        x = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        return x, (x.copy() if labels else None)
    if spec.kind == "ar_d_linear_system":
        theta = np.asarray(spec.coefficients, dtype=float)
        chol = _ar_cholesky(spec.coefficients, spec.sigma)
        g = rng.standard_normal((m, theta.size)) @ chol.T
        if labels:
            y = g @ theta + rng.normal(0.0, spec.sigma, m)
        return _clip_rows(g, spec.clip_radius), y
    if spec.dist == "uniform":
        x = rng.uniform(spec.low, spec.high, m)
    else:
        x = rng.normal(spec.mean, np.sqrt(_variance(spec)), m)
    if labels:
        y = _threshold_labels(x, spec, rng)
    return x, y


def simulate_sequence(spec: ProcessSpec, n: int, seed: int,
                      replication: int = 0, *,
                      labels: bool = True) -> SequenceSample:
    """Length-n path started from the stationary law (bit-reproducible).

    The path stream first draws from the stationary marginal, as the ghost
    sampler does (``_marginal_draws``): the whole path of the i.i.d.
    baseline, x_1 of the Markov path and the x_0 that the AR(1) recursion
    continues.  An AR(d) path draws its unclipped start state itself.  With
    ``labels=False`` no label is drawn and y is None.  Labels are drawn
    after x from the same stream, so x keeps its bits either way.
    """
    _check("n", n, 1, integer=True)
    rng = stream(seed, replication, "path")
    if spec.kind == "iid_baseline":
        return SequenceSample(*_marginal_draws(spec, n, rng, labels))
    if spec.kind == "ar_d_linear_system":
        x, y = _simulate_ar_d(spec, n, rng)
        return SequenceSample(x, y if labels else None)
    x0, _ = _marginal_draws(spec, 1, rng, False)
    if spec.kind == "markov_binary":
        switch = rng.random(n - 1) < (1.0 - spec.rho) / 2.0
        x = np.cumprod(np.concatenate((x0, np.where(switch, -1.0, 1.0))))
        return SequenceSample(x, x.copy() if labels else None)
    x = _filter([1.0, -spec.a], rng.normal(0.0, spec.sigma, n), spec.a * x0)
    return SequenceSample(x, _threshold_labels(x, spec, rng) if labels
                          else None)


def _simulate_ar_d(spec, n, rng):
    theta = np.asarray(spec.coefficients, dtype=float)
    d = theta.size
    chol = _ar_cholesky(spec.coefficients, spec.sigma)
    state0 = chol @ rng.standard_normal(d)          # (y_0, y_-1, ..., y_{-d+1})
    noise = rng.normal(0.0, spec.sigma, n)
    a_poly = np.concatenate(([1.0], -theta))
    # the filter state that continues the recursion from state0, as
    # scipy.signal.lfiltic([1.0], a_poly, state0) computes it: each entry is
    # subtracted from 0.0, which keeps the sign of a zero
    zi = np.zeros(d)
    for m in range(d):
        zi[m] -= np.sum(a_poly[m + 1:] * state0[:d - m])
    ys = _filter(a_poly, noise, zi)
    full = np.concatenate((state0[::-1], ys))       # y_{-d+1} .. y_n
    windows = np.lib.stride_tricks.sliding_window_view(full, d)[:n]
    x = windows[:, ::-1].copy()                     # x_i = (y_{i-1}, ..., y_{i-d})
    x = _clip_rows(x, spec.clip_radius)
    return x, ys


def _clip_rows(x, radius):
    if radius is None:
        return x
    norms = np.linalg.norm(x, axis=1)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale[:, None]


def sample_marginal(spec: ProcessSpec, m: int, seed: int,
                    replication: int = 0, *,
                    labels: bool = True) -> SequenceSample:
    """m mutually independent draws from the stationary marginal of (x, y).

    This is the ghost sample: entry i is distributed like z_i of a path
    but the draws are independent of each other and of every path stream.
    They come from the sampler that starts each path (``_marginal_draws``)
    on the replication's ghost stream.  With ``labels=False`` no label is
    drawn and y is None; labels are drawn after x from the same stream, so
    x keeps its bits either way.
    """
    _check("m", m, 0, integer=True)
    return SequenceSample(*_marginal_draws(
        spec, m, stream(seed, replication, "ghost"), labels))


def _write_text(path, chunks):
    """Write the text chunks to ``path`` in place.

    The file is opened without truncation, so rewriting an existing file
    reuses its blocks instead of freeing them all; a regular file that was
    longer is then cut to the written length, and a device or a pipe
    (``/dev/null``, a FIFO) is left as it is.  The mode of a new file is
    what ``open(path, "w")`` gives.  A write that fails part way leaves a
    partial file, as a truncating rewrite does.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        size = 0
        for chunk in chunks:
            data = memoryview(chunk.encode())
            while data:
                written = os.write(fd, data)
                data, size = data[written:], size + written
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode) and status.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


# rows per write: a chunk's text, the repr of each of its distinct floats
# included, is held at once
_CSV_CHUNK_ROWS = 2048


def sequence_to_csv(sample: SequenceSample, path):
    """Write the sample as CSV with columns index, x components, y.

    The text is what ``csv.writer`` writes for the same rows (float repr,
    ``\\r\\n`` line ends), written in place (``_write_text``) in chunks of
    rows so that the whole file is never held in memory.  Each distinct
    float of a chunk is formatted once (distinct by bit pattern, so -0.0
    keeps its sign) and the cells are filled by index: the regressors of an
    autoregression are lags of y, so most values appear in several columns.
    """
    if sample.y is None:
        raise ValueError("sample has no labels: it was drawn with labels=False")
    x = np.atleast_2d(sample.x.T).T
    header = ["index"] + [f"x{j}" for j in range(x.shape[1])] + ["y"]

    def chunks():
        yield ",".join(header) + "\r\n"
        for start in range(0, len(sample), _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, len(sample))
            block = np.column_stack((x[start:stop], sample.y[start:stop]))
            block = block.astype(float, copy=False)
            bits, index = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(float).tolist())),
                            dtype=object)
            columns = text[index.reshape(block.shape)].T.tolist()
            rows = zip(map(str, range(start, stop)), *columns)
            yield "\r\n".join(map(",".join, rows)) + "\r\n"

    _write_text(path, chunks())


def process_from_dict(d: dict) -> ProcessSpec:
    """Build a ProcessSpec from a JSON-style dict: its kind names the
    constructor above, and the other keys are that constructor's arguments."""
    return _from_kind_dict(_BUILDERS, d, "process")
