"""Stationary dependent data generators with seeded, splittable streams
and closed-form marginal (ghost) samplers."""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy import linalg, signal

PROCESS_KINDS = (
    "ar1_threshold_labels",
    "ar_d_linear_system",
    "markov_binary",
    "iid_baseline",
)

_MASK64 = (1 << 64) - 1


def stream(seed: int, replication: int = 0, role: str = "path") -> np.random.Generator:
    """Counter-based generator keyed by (seed, replication, stream role).

    Streams for different (replication, role) pairs are mutually
    independent, so replicated experiments can draw paths, ghost samples
    and sign vectors without sharing state.
    """
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
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == "ar1_threshold_labels":
            if self.a is None or abs(self.a) >= 1:
                raise ValueError("ar1 needs |a| < 1")
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("ar1 needs sigma > 0")
            _check_flip(self.flip_p)
        elif self.kind == "ar_d_linear_system":
            if not self.coefficients:
                raise ValueError("ar_d needs at least one coefficient")
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("ar_d needs sigma > 0")
            if _companion_spectral_radius(self.coefficients) >= 1 - 1e-9:
                raise ValueError("ar_d coefficients must define a stable system")
        elif self.kind == "markov_binary":
            if self.rho is None or not (0 <= self.rho < 1):
                raise ValueError("markov_binary needs 0 <= rho < 1")
        elif self.kind == "iid_baseline":
            if self.dist == "normal":
                if self.sigma is None or self.sigma <= 0:
                    raise ValueError("iid normal needs sigma > 0")
            elif self.dist == "uniform":
                if self.low is None or self.high is None or self.low >= self.high:
                    raise ValueError("iid uniform needs low < high")
            else:
                raise ValueError("iid_baseline dist must be 'normal' or 'uniform'")
            _check_flip(self.flip_p)

    @property
    def order(self):
        return len(self.coefficients) if self.coefficients else 1


def _check_flip(p):
    if not (0 <= p < 1):
        raise ValueError("flip_p must lie in [0, 1)")


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
    return ProcessSpec(kind="ar1_threshold_labels", a=float(a), sigma=float(sigma),
                       b_star=float(b_star), flip_p=float(flip_p))


def ar_process(coefficients, sigma, clip_radius=None):
    return ProcessSpec(kind="ar_d_linear_system",
                       coefficients=tuple(float(c) for c in coefficients),
                       sigma=float(sigma),
                       clip_radius=None if clip_radius is None else float(clip_radius))


def markov_binary_process(rho):
    return ProcessSpec(kind="markov_binary", rho=float(rho))


def iid_process(dist="normal", mean=0.0, sigma=1.0, low=None, high=None,
                b_star=0.0, flip_p=0.0):
    return ProcessSpec(kind="iid_baseline", dist=dist, mean=float(mean),
                       sigma=None if dist != "normal" else float(sigma),
                       low=low, high=high, b_star=float(b_star),
                       flip_p=float(flip_p))


@dataclass(frozen=True)
class SequenceSample:
    """One simulated path: ordered pairs (x_i, y_i) plus its provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    replication: int
    process: str

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
    if spec.kind == "ar1_threshold_labels":
        v = spec.sigma ** 2 / (1.0 - spec.a ** 2)
        return MarginalLaw(kind="normal", mean=0.0, variance=v)
    if spec.kind == "markov_binary":
        return MarginalLaw(kind="binary_uniform")
    if spec.kind == "ar_d_linear_system":
        return MarginalLaw(kind="multivariate_normal",
                           covariance=_lyapunov_covariance(spec))
    if spec.kind == "iid_baseline":
        if spec.dist == "normal":
            return MarginalLaw(kind="normal", mean=spec.mean,
                               variance=spec.sigma ** 2)
        return MarginalLaw(kind="uniform", low=spec.low, high=spec.high,
                           mean=(spec.low + spec.high) / 2.0)
    raise ValueError(f"no stationary law for kind {spec.kind!r}")


def _lyapunov_covariance(spec: ProcessSpec):
    """Stationary state covariance: the solution S of S = C S C' + Q for the
    companion matrix C and innovation covariance Q = sigma^2 e_1 e_1'."""
    d = len(spec.coefficients)
    q = np.zeros((d, d))
    q[0, 0] = spec.sigma ** 2
    return linalg.solve_discrete_lyapunov(_companion(spec.coefficients), q)


def _threshold_labels(x, b_star, flip_p, rng):
    signs = np.where(x >= b_star, 1.0, -1.0)
    if flip_p > 0:
        flips = rng.random(x.shape[0]) < flip_p
        signs = signs * np.where(flips, -1.0, 1.0)
    return signs


def simulate_sequence(spec: ProcessSpec, n: int, seed: int,
                      replication: int = 0) -> SequenceSample:
    """Length-n path started from the stationary law (bit-reproducible)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed, replication, "path")
    if spec.kind == "ar1_threshold_labels":
        v = spec.sigma ** 2 / (1.0 - spec.a ** 2)
        x0 = rng.normal(0.0, np.sqrt(v))
        eps = rng.normal(0.0, spec.sigma, n)
        x, _ = signal.lfilter([1.0], [1.0, -spec.a], eps, zi=[spec.a * x0])
        y = _threshold_labels(x, spec.b_star, spec.flip_p, rng)
    elif spec.kind == "ar_d_linear_system":
        x, y = _simulate_ar_d(spec, n, rng)
    elif spec.kind == "markov_binary":
        s0 = 1.0 if rng.random() < 0.5 else -1.0
        switch = rng.random(n - 1) < (1.0 - spec.rho) / 2.0 if n > 1 else np.array([])
        steps = np.concatenate(([s0], np.where(switch, -1.0, 1.0)))
        x = np.cumprod(steps)
        y = x.copy()
    elif spec.kind == "iid_baseline":
        if spec.dist == "normal":
            x = rng.normal(spec.mean, spec.sigma, n)
        else:
            x = rng.uniform(spec.low, spec.high, n)
        y = _threshold_labels(x, spec.b_star, spec.flip_p, rng)
    else:
        raise ValueError(f"cannot simulate kind {spec.kind!r}")
    return SequenceSample(x=x, y=y, seed=int(seed), replication=int(replication),
                          process=spec.kind)


def _simulate_ar_d(spec, n, rng):
    theta = np.asarray(spec.coefficients, dtype=float)
    d = theta.size
    cov = _lyapunov_covariance(spec)
    chol = np.linalg.cholesky(cov + 1e-15 * np.eye(d))
    state0 = chol @ rng.standard_normal(d)          # (y_0, y_-1, ..., y_{-d+1})
    noise = rng.normal(0.0, spec.sigma, n)
    a_poly = np.concatenate(([1.0], -theta))
    zi = signal.lfiltic([1.0], a_poly, state0)
    ys, _ = signal.lfilter([1.0], a_poly, noise, zi=zi)
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
                    replication: int = 0) -> SequenceSample:
    """m mutually independent draws from the stationary marginal of (x, y).

    This is the ghost sample: entry i is distributed like z_i of a path
    but the draws are independent of each other and of every path stream.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    rng = stream(seed, replication, "ghost")
    law = stationary_params(spec)
    if spec.kind == "ar1_threshold_labels" or (
        spec.kind == "iid_baseline" and spec.dist == "normal"
    ):
        x = rng.normal(law.mean, np.sqrt(law.variance), m)
        y = _threshold_labels(x, spec.b_star, spec.flip_p, rng)
    elif spec.kind == "iid_baseline":
        x = rng.uniform(spec.low, spec.high, m)
        y = _threshold_labels(x, spec.b_star, spec.flip_p, rng)
    elif spec.kind == "markov_binary":
        x = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        y = x.copy()
    elif spec.kind == "ar_d_linear_system":
        theta = np.asarray(spec.coefficients, dtype=float)
        d = theta.size
        chol = np.linalg.cholesky(law.covariance + 1e-15 * np.eye(d))
        g = rng.standard_normal((m, d)) @ chol.T
        y = g @ theta + rng.normal(0.0, spec.sigma, m)
        x = _clip_rows(g, spec.clip_radius)
    else:
        raise ValueError(f"no marginal sampler for kind {spec.kind!r}")
    return SequenceSample(x=x, y=y, seed=int(seed), replication=int(replication),
                          process=spec.kind + ":ghost")


_CSV_CHUNK_ROWS = 8192


def sequence_to_csv(sample: SequenceSample, path):
    """Write the sample as CSV with columns index, x components, y.

    The text is what ``csv.writer`` writes for the same rows (float repr,
    ``\\r\\n`` line ends), formatted a column at a time and written in chunks
    of rows so that the whole file is never held in memory.
    """
    x = np.atleast_2d(sample.x.T).T
    header = ["index"] + [f"x{j}" for j in range(x.shape[1])] + ["y"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(sample), _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, len(sample))
            columns = [map(str, range(start, stop))]
            columns += [map(repr, x[start:stop, j].tolist())
                        for j in range(x.shape[1])]
            columns.append(map(repr, sample.y[start:stop].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def process_from_dict(d: dict) -> ProcessSpec:
    """Build a ProcessSpec from a JSON-style dict, rejecting unknown keys."""
    allowed = {
        "ar1_threshold_labels": {"kind", "a", "sigma", "b_star", "flip_p"},
        "ar_d_linear_system": {"kind", "coefficients", "sigma", "clip_radius"},
        "markov_binary": {"kind", "rho"},
        "iid_baseline": {"kind", "dist", "mean", "sigma", "low", "high",
                         "b_star", "flip_p"},
    }
    kind = d.get("kind")
    if kind not in allowed:
        raise ValueError(f"unknown process kind {kind!r}")
    unknown = set(d) - allowed[kind]
    if unknown:
        raise ValueError(f"unknown process fields {sorted(unknown)}")
    params = {k: v for k, v in d.items() if k != "kind"}
    if kind == "ar1_threshold_labels":
        return ar1_process(**params)
    if kind == "ar_d_linear_system":
        return ar_process(**params)
    if kind == "markov_binary":
        return markov_binary_process(**params)
    return iid_process(**params)
