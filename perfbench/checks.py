"""Independent checks of every operation's output.

Each check recomputes what the program reports from the theory, apart from
the program's own code: brute-force empirical risks at every threshold,
true risks by numerical integration of the normal law, the stationary
covariance by ``scipy.linalg.solve_discrete_lyapunov``, binomial tails by
``scipy.stats.binom``, planner sizes by their formulas and exact Rademacher
values by a vectorised enumeration of all sign vectors.  Paths and ghost
samples are the program's inputs, so they are drawn with its seeded
generators.  The thresholds of the statistical checks on path moments are
six or more standard errors wide, so no seed fails them by chance.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
from scipy import linalg, stats

from seqbounds import cli
from seqbounds.processes import (process_from_dict, sample_marginal,
                                 simulate_sequence, stream)

RECORD_COLUMNS = ["replication", "seed", "statistic", "bound", "holds"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANELS = 14    # unit panels; normal integrands are below 1e-40 beyond


class CheckError(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckError(message)


def close(a, b, rel=0.0, abs_=0.0):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# output files

def strict_json(raw, what):
    def reject(token):
        raise CheckError(f"{what} holds the non-JSON constant {token}")

    try:
        return json.loads(raw, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{what} is not valid JSON: {exc}") from None


def parse_records(raw, what):
    reader = csv.DictReader(io.StringIO(raw.decode()))
    require(reader.fieldnames == RECORD_COLUMNS,
            f"{what} has columns {reader.fieldnames}, want {RECORD_COLUMNS}")
    rows = []
    for row in reader:
        require(row["holds"] in ("True", "False"),
                f"{what}: holds is {row['holds']!r}")
        rows.append({"replication": int(row["replication"]),
                     "seed": int(row["seed"]),
                     "statistic": float(row["statistic"]),
                     "bound": float(row["bound"]),
                     "holds": row["holds"] == "True"})
    return rows


class Outputs:
    """The files one CLI run wrote, checked for format as they are read."""

    FILES = ("summary.json", "meta.json", "records.csv", "sequence.csv")

    def __init__(self, op):
        self.raw = {name: (op.out_dir / name).read_bytes()
                    for name in self.FILES if (op.out_dir / name).exists()}
        self.summary = strict_json(self.raw["summary.json"],
                                   f"{op.name}/summary.json")
        strict_json(self.raw["meta.json"], f"{op.name}/meta.json")
        self.records = (parse_records(self.raw["records.csv"],
                                      f"{op.name}/records.csv")
                        if "records.csv" in self.raw else None)

    def digests(self):
        """Digests of the files that must not change between passes."""
        return {k: hashlib.sha256(v).hexdigest() for k, v in self.raw.items()
                if k != "meta.json"}


# ---------------------------------------------------------------------------
# numerical integration of normal laws

def integrate_normal(f, lo, hi, scale):
    """Integral of f(t) * pdf(t) over [lo, hi] with 0 <= lo, for a centred
    normal pdf of standard deviation ``scale``; composite 20-point
    Gauss-Legendre on panels one standard deviation wide.  ``f`` gets an
    array with one extra trailing axis for the nodes."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(np.broadcast(lo, hi).shape)
    for k in range(_PANELS):
        a = np.clip(lo, k * scale, (k + 1) * scale)
        b = np.clip(hi, k * scale, (k + 1) * scale)
        half = np.maximum(b - a, 0.0) / 2.0
        t = ((a + b) / 2.0)[..., None] + half[..., None] * _NODES
        pdf = np.exp(-0.5 * (t / scale) ** 2) / (scale * math.sqrt(2 * math.pi))
        total = total + half * ((f(t) * pdf) @ _WEIGHTS)
    return total


def threshold_risk(b, variance, flip_p):
    """P(sign(x - b) != y) for x ~ N(0, variance), y = sign(x) flipped with
    probability flip_p: the mass between 0 and b, by symmetry of the law."""
    between = integrate_normal(lambda t: np.ones_like(t), 0.0, np.abs(b),
                               math.sqrt(variance))
    return flip_p + (1.0 - 2.0 * flip_p) * between


def brute_threshold_risks(x, y, thresholds):
    """Empirical zero-one risk of sign(x - b), evaluated one threshold at a
    time over the whole sample."""
    out = np.empty(thresholds.size)
    for i in range(0, thresholds.size, 256):
        b = thresholds[i:i + 256, None]
        out[i:i + 256] = np.mean(np.where(x >= b, 1.0, -1.0) != y, axis=1)
    return out


def midpoint_thresholds(x):
    xs = np.unique(x)
    return np.concatenate(([-np.inf], (xs[:-1] + xs[1:]) / 2.0, [np.inf]))


def stationary_cov(process):
    coefficients = np.asarray(process["coefficients"], dtype=float)
    d = coefficients.size
    companion = np.zeros((d, d))
    companion[0] = coefficients
    companion[1:, :-1] = np.eye(d - 1)
    q = np.zeros((d, d))
    q[0, 0] = process["sigma"] ** 2
    return linalg.solve_discrete_lyapunov(companion, q)


def ar1_variance(process):
    return process["sigma"] ** 2 / (1.0 - process["a"] ** 2)


# ---------------------------------------------------------------------------

class Checker:
    """Runs the check an operation names; pools sampled paths so that their
    moments can be checked against the stationary law once at the end."""

    def __init__(self):
        # process config as JSON -> pooled sums over the sampled paths
        self.moments = {}

    def check(self, op, outcome):
        getattr(self, op.check)(op, outcome)

    def sampled(self, replications):
        return sorted({0, replications // 2, replications - 1})

    def path(self, process, n, seed, r):
        sample = simulate_sequence(process_from_dict(process), n, seed,
                                   replication=r)
        pool = self.moments.setdefault(json.dumps(process, sort_keys=True), {
            "count": 0, "xx": 0.0, "lag": 0.0, "lag_norm": 0.0, "flips": 0})
        x = sample.x
        pool["count"] += x.shape[0]
        pool["xx"] = pool["xx"] + (x.T @ x if x.ndim == 2 else float(x @ x))
        if x.ndim == 1:
            pool["lag"] += float(x[1:] @ x[:-1])
            pool["lag_norm"] += float(x[1:] @ x[1:])
            pool["flips"] += int(np.sum(sample.y != np.where(x >= 0, 1.0, -1.0)))
        return sample

    # -- coverage ops -------------------------------------------------------

    def _coverage_records(self, op, out, slack):
        cfg, summary = op.config, out.summary["summary"]
        records = out.records
        require(len(records) == cfg["replications"],
                f"{op.name}: {len(records)} records")
        for rec in records:
            require(close(rec["bound"], slack, rel=1e-12),
                    f"{op.name}: bound {rec['bound']} != {slack}")
            require(rec["holds"] == (rec["statistic"] <= rec["bound"]),
                    f"{op.name}: holds flag of replication {rec['replication']}")
        frac = float(np.mean([rec["holds"] for rec in records]))
        require(frac == summary["holds_fraction"],
                f"{op.name}: holds fraction {summary['holds_fraction']} != {frac}")
        require(frac >= 1.0 - cfg["delta"],
                f"{op.name}: holds fraction {frac} < {1.0 - cfg['delta']}")
        return records

    def _threshold_coverage(self, op, out, relative):
        cfg = op.config
        n, delta = cfg["n"], cfg["delta"]
        if relative:
            c = (math.log(2.0 * math.e * n) + math.log(4.0 / delta)) / n
            slack = 4.0 * c
        else:
            slack = 2.0 * math.sqrt(2.0 * (math.log(2.0 * math.e * n)
                                           + math.log(2.0 / delta)) / n)
        records = self._coverage_records(op, out, slack)
        variance = ar1_variance(cfg["process"])
        for r in self.sampled(cfg["replications"]):
            path = self.path(cfg["process"], n, cfg["seed"], r)
            b = midpoint_thresholds(path.x)
            emp = brute_threshold_risks(path.x, path.y, b)
            dev = threshold_risk(b, variance, cfg["process"]["flip_p"]) - emp
            if relative:
                dev = dev - 2.0 * np.sqrt(emp * c)
            stat = float(np.max(dev))
            require(close(records[r]["statistic"], stat, abs_=1e-9),
                    f"{op.name}: replication {r} statistic "
                    f"{records[r]['statistic']} != {stat}")

    def vc_coverage(self, op, out):
        self._threshold_coverage(op, out, relative=False)

    def relative_coverage(self, op, out):
        self._threshold_coverage(op, out, relative=True)

    def margin_rad_coverage(self, op, out):
        cfg = op.config
        n, gamma, radius = cfg["n"], cfg["gamma"], cfg["radius"]
        variance = ar1_variance(cfg["process"])
        flip = cfg["process"]["flip_p"]
        rad = radius * math.sqrt(n * variance) / (gamma * n)
        slack = 2.0 * rad + math.sqrt(math.log(1.0 / cfg["delta"]) / (2.0 * n))
        records = self._coverage_records(op, out, slack)
        grid = np.linspace(-radius, radius, 401)

        def margin_risk_abs(s):
            # E phi(s |x|) with phi(u) = clip((1 - u) / gamma, 0, 1)
            s = np.asarray(s, dtype=float)
            pos = np.maximum(s, 1e-300)
            knee, zero = np.maximum((1.0 - gamma) / pos, 0.0), 1.0 / pos
            flat = 2.0 * integrate_normal(np.ones_like, 0.0, knee,
                                          math.sqrt(variance))
            slope = 2.0 * integrate_normal(
                lambda t: (1.0 - pos[:, None] * t) / gamma, knee, zero,
                math.sqrt(variance))
            return np.where(s > 0, flat + slope, 1.0)

        risks = ((1.0 - flip) * margin_risk_abs(grid)
                 + flip * margin_risk_abs(-grid))
        for r in self.sampled(cfg["replications"]):
            path = self.path(cfg["process"], n, cfg["seed"], r)
            u = np.outer(grid, path.y * path.x)
            emp = np.mean(np.clip((1.0 - u) / gamma, 0.0, 1.0), axis=1)
            stat = float(np.max(risks - emp))
            require(close(records[r]["statistic"], stat, abs_=1e-9),
                    f"{op.name}: replication {r} statistic "
                    f"{records[r]['statistic']} != {stat}")

    def regression_coverage(self, op, out):
        cfg = op.config
        n, m_clip, radius = cfg["n"], cfg["m_clip"], cfg["radius"]
        process = cfg["process"]
        theta = np.asarray(process["coefficients"], dtype=float)
        d = theta.size
        d_induced = d * d + d + 2
        b = 4.0 * m_clip ** 2
        slack = 2.0 * b * math.sqrt(2.0 * (
            d_induced * math.log(2.0 * math.e * n / d_induced)
            + math.log(2.0 / cfg["delta"])) / n)
        records = self._coverage_records(op, out, slack)
        # the model grid of the experiment: the origin and a polar grid
        radii = np.linspace(0.0, radius, 26)[1:]
        angles = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        rr, aa = np.meshgrid(radii, angles)
        w = np.vstack([[0.0, 0.0], np.column_stack(
            [(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])])
        cov = stationary_cov(process)
        e_y2 = theta @ cov @ theta + process["sigma"] ** 2
        s = np.sqrt(np.einsum("ij,jk,ik->i", w, cov, w))
        a = m_clip / np.where(s > 0, s, 1.0)     # unused where s == 0
        # u = w.x = s z, clip(u) = s clip(z, +-a); E[y | u] = cov(y, u) u / s^2
        inner = 2.0 * integrate_normal(lambda t: t * t, 0.0, a, 1.0)
        tail_z = 2.0 * integrate_normal(lambda t: t, a, np.inf, 1.0)
        tail_p = 2.0 * integrate_normal(np.ones_like, a, np.inf, 1.0)
        e_zc = inner + a * tail_z
        e_c2 = inner + a * a * tail_p
        cov_yu = w @ (cov @ theta)
        risks = np.where(s > 0, e_y2 - 2.0 * cov_yu * e_zc + s * s * e_c2, e_y2)
        for r in self.sampled(cfg["replications"]):
            path = self.path(process, n, cfg["seed"], r)
            preds = np.clip(path.x @ w.T, -m_clip, m_clip)
            emp = np.mean((path.y[:, None] - preds) ** 2, axis=0)
            stat = float(np.max(risks - emp))
            require(close(records[r]["statistic"], stat, abs_=1e-9),
                    f"{op.name}: replication {r} statistic "
                    f"{records[r]['statistic']} != {stat}")

    def symmetrization(self, op, out):
        cfg = op.config
        n, eps, reps = cfg["n"], cfg["epsilon"], cfg["replications"]
        summary, records = out.summary["summary"], out.records
        require(len(records) == reps, f"{op.name}: {len(records)} records")
        lhs = float(np.mean([rec["statistic"] >= eps for rec in records]))
        rhs = float(np.mean([rec["bound"] >= eps / 2.0 for rec in records]))
        require(lhs == summary["lhs_freq"] and rhs == summary["rhs_freq"],
                f"{op.name}: frequencies disagree with the records")
        se = math.sqrt(lhs * (1 - lhs) / reps + 4.0 * rhs * (1 - rhs) / reps)
        require(lhs <= 2.0 * rhs + 3.0 * se,
                f"{op.name}: {lhs} > 2 * {rhs} + 3 * {se}")
        variance = ar1_variance(cfg["process"])
        spec = process_from_dict(cfg["process"])
        for r in self.sampled(reps):
            train = self.path(cfg["process"], n, cfg["seed"], r)
            ghost = sample_marginal(spec, n, cfg["seed"], replication=r)
            b = midpoint_thresholds(train.x)
            dev = float(np.max(threshold_risk(b, variance, spec.flip_p)
                               - brute_threshold_risks(train.x, train.y, b)))
            pooled = midpoint_thresholds(np.concatenate([train.x, ghost.x]))
            gap = float(np.max(brute_threshold_risks(ghost.x, ghost.y, pooled)
                               - brute_threshold_risks(train.x, train.y, pooled)))
            require(close(records[r]["statistic"], dev, abs_=1e-9)
                    and close(records[r]["bound"], gap, abs_=1e-12),
                    f"{op.name}: replication {r} gives ({records[r]['statistic']}, "
                    f"{records[r]['bound']}), want ({dev}, {gap})")

    def simulate_csv(self, op, out):
        cfg = op.config
        process, n = cfg["process"], cfg["n"]
        text = out.raw["sequence.csv"].decode()
        header, _, body = text.partition("\n")
        d = len(process["coefficients"])
        require(header.strip() == ",".join(
            ["index"] + [f"x{j}" for j in range(d)] + ["y"]),
            f"{op.name}: sequence.csv header {header!r}")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        require(table.shape == (n, d + 2), f"{op.name}: table {table.shape}")
        index, x, y = table[:, 0], table[:, 1:1 + d], table[:, -1]
        require(np.array_equal(index, np.arange(n)), f"{op.name}: index column")
        # x_i = (y_{i-1}, ..., y_{i-d}): each column shifts the outputs
        require(np.array_equal(x[1:, 0], y[:-1]), f"{op.name}: x0 is not lagged y")
        for j in range(1, d):
            require(np.array_equal(x[1:, j], x[:-1, j - 1]),
                    f"{op.name}: x{j} is not lagged x{j - 1}")
        resid = y - x @ np.asarray(process["coefficients"])
        require(close(np.var(resid), process["sigma"] ** 2, rel=0.05),
                f"{op.name}: innovation variance {np.var(resid)}")
        require(abs(np.corrcoef(resid, x[:, 0])[0, 1]) < 0.02,
                f"{op.name}: innovations correlate with the regressors")
        cov = stationary_cov(process)
        err = np.max(np.abs(np.cov(x.T, bias=True) - cov)) / cov[0, 0]
        require(err < 0.05, f"{op.name}: path covariance off by {err:.3f}")
        summary = out.summary["summary"]
        require(summary["n"] == n and summary["file"] == "sequence.csv",
                f"{op.name}: summary {summary}")
        require(close(summary["x_mean"], float(np.mean(x)), abs_=1e-12)
                and close(summary["x_var"], float(np.var(x)), rel=1e-9),
                f"{op.name}: summary moments disagree with the file")

    # -- scenario ops -------------------------------------------------------

    @staticmethod
    def plan_margin(program, epsilon, delta):
        """Planner size and violation bound from the theorem, for programs
        whose pieces have constant unit psi (tau_k = 1)."""
        theta_set = program["theta_set"]
        if theta_set["kind"] == "ball":
            lam = theta_set["radius"]
        else:
            lam = math.hypot(*np.maximum(np.abs(theta_set["lo"]),
                                         np.abs(theta_set["hi"])))
        tau_lambda = len(program["pieces"]) * lam
        gamma = program["margin"]
        n = math.ceil(((2.0 / gamma) * tau_lambda
                       + math.sqrt(math.log(1.0 / delta))) ** 2 / epsilon ** 2)
        bound = ((2.0 / gamma) * tau_lambda / math.sqrt(n)
                 + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
        return n, bound

    def _theta_hat(self, program, xs):
        xs = xs.reshape(xs.shape[0], -1)
        return xs.max(axis=0) + program["margin"]

    def scenario_coverage(self, op, out):
        cfg = op.config
        reps, eps, delta = cfg["replications"], cfg["epsilon"], cfg["delta"]
        n, _ = self.plan_margin(cfg["program"], eps, delta)
        require(n == 20_578, f"{op.name}: planned {n} scenarios, want 20578")
        summary, records = out.summary["summary"], out.records
        require(len(records) == reps, f"{op.name}: {len(records)} records")
        exceed = float(np.mean([not rec["holds"] for rec in records]))
        threshold = delta + 3.0 * math.sqrt(delta * (1 - delta) / reps)
        require(exceed == summary["exceed_frequency"] and exceed <= threshold,
                f"{op.name}: exceed frequency {exceed} vs {threshold}")
        spec = process_from_dict(cfg["process"])
        for r in self.sampled(reps):
            path = self.path(cfg["process"], n, cfg["seed"], r)
            theta = self._theta_hat(cfg["program"], path.x)
            ghost = sample_marginal(spec, 10_000, cfg["seed"], replication=r)
            rate = float(np.mean(ghost.x > theta[0]))
            # a ghost draw within the 1e-9 solver tightening of theta may flip
            require(close(records[r]["statistic"], rate, abs_=1.5e-4)
                    and records[r]["holds"] == (records[r]["statistic"] <= eps),
                    f"{op.name}: replication {r} violation rate "
                    f"{records[r]['statistic']} != {rate}")

    def certificate(self, op, out):
        cfg = op.config
        cert = out.summary["summary"]["certificate"]
        eps, delta = cfg["epsilon"], cfg["delta"]
        n, bound = self.plan_margin(cfg["program"], eps, delta)
        want_n = {"1d": 20_578, "ball": 20_578, "2d": 37_489}[op.params["program"]]
        require(n == want_n and cert["n_used"] == n,
                f"{op.name}: n_used {cert['n_used']}, planner {n}, want {want_n}")
        require(cert["feasible"] and close(cert["violation_bound"], bound,
                                           rel=1e-12) and bound <= eps,
                f"{op.name}: violation bound {cert['violation_bound']} vs {bound}")
        path = self.path(cfg["process"], n, cfg["seed"], 0)
        theta = self._theta_hat(cfg["program"], path.x)
        got = np.asarray(cert["theta_hat"])
        require(np.max(np.abs(got - theta)) <= 1e-6,
                f"{op.name}: theta_hat {got} != max x + margin {theta}")
        ghost = sample_marginal(process_from_dict(cfg["process"]), 10_000,
                                cfg["seed"])
        gx = ghost.x.reshape(ghost.x.shape[0], -1)
        rate = float(np.mean(np.any(gx > got, axis=1)))
        require(rate <= eps, f"{op.name}: ghost violation rate {rate} > {eps}")

    # -- capacity ops -------------------------------------------------------

    def concentration_exactness(self, op, out):
        ps, eps_count, n_max = (0.1, 0.3, 0.5, 0.7, 0.9), 99, 30
        summary, records = out.summary["summary"], out.records
        require(summary["cells"] == n_max * len(ps) * eps_count
                and len(records) == n_max * len(ps) * 2,
                f"{op.name}: {summary['cells']} cells, {len(records)} records")
        for rec in records:
            i = rec["replication"]
            n, rest = divmod(i, len(ps) * eps_count)
            p_index, e_index = divmod(rest, eps_count)
            n += 1
            p = Fraction(str(ps[p_index]))
            eps = Fraction(e_index + 1, 100)
            k0 = math.floor(n * (p + eps)) + 1          # S/n - p > eps
            tail = float(stats.binom.sf(k0 - 1, n, float(p))) if k0 <= n else 0.0
            hoeffding = min(1.0, math.exp(-2.0 * n * float(eps) ** 2))
            require(close(rec["statistic"], tail, rel=1e-9, abs_=1e-300),
                    f"{op.name}: tail(n={n}, p={p}, eps={eps}) "
                    f"{rec['statistic']} != {tail}")
            require(close(rec["bound"], hoeffding, rel=1e-12)
                    and tail <= hoeffding and rec["holds"],
                    f"{op.name}: Hoeffding cell n={n}, p={p}, eps={eps}")

    def quarter_lemma(self, op, out):
        cells = [(m, k) for m in range(1, 51) for k in range(1, 100)
                 if k * 0.01 > 1.0 / m]
        require(out.summary["summary"]["cells"] == len(cells),
                f"{op.name}: {out.summary['summary']['cells']} cells, "
                f"want {len(cells)}")
        m = np.array([c[0] for c in cells])
        k = np.array([c[1] for c in cells])
        k0 = -((-m * k) // 100)                          # ceil(m p), exactly
        tails = stats.binom.sf(k0 - 1, m, k / 100.0)
        require(np.all(tails > 0.25), f"{op.name}: a cell has tail <= 1/4")
        require(out.records == [], f"{op.name}: failing cells recorded")

    def chaining_dominance(self, op, out):
        cfg = op.config
        records = out.records
        require(len(records) == cfg["instances"]
                and all(rec["holds"] and rec["bound"] >= rec["statistic"]
                        for rec in records),
                f"{op.name}: a chaining bound is below its estimate")
        n_points = 16
        signs = np.where((np.arange(1 << n_points)[:, None]
                          >> np.arange(n_points)) & 1, 1.0, -1.0)
        for i in self.sampled(cfg["instances"]):
            rng = stream(cfg["seed"], i, "points")
            m = int(rng.integers(2, 13))
            values = rng.standard_normal((m, n_points))
            dist = np.sqrt(np.mean((values[:, None] - values[None]) ** 2, axis=2))
            diameter = float(dist.max())
            subsets = (np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1
            sizes = subsets.sum(axis=1)

            def log_cover(eps):
                # smallest set of class members within (strictly) eps of all
                covered = (subsets @ (dist < eps)) > 0
                return math.log(int(sizes[covered.all(axis=1)].min()))

            best = min(
                diameter / 2 ** depth + sum(
                    6.0 * diameter * 2.0 ** -j
                    * math.sqrt(log_cover(diameter * 2.0 ** -j) / n_points)
                    for j in range(1, depth + 1))
                for depth in range(1, 13))
            exact_rad = float(np.mean(np.max(signs @ values.T, axis=1))) / n_points
            require(close(records[i]["bound"], best, rel=1e-9),
                    f"{op.name}: instance {i} chaining bound "
                    f"{records[i]['bound']} != {best}")
            require(best >= exact_rad,
                    f"{op.name}: instance {i} chaining bound {best} below the "
                    f"exact Rademacher value {exact_rad}")

    def rademacher_exact(self, op, value):
        x = op.params["points"]
        n = x.shape[0]
        total = 0.0
        for lo in range(0, 1 << n, 4096):
            signs = np.where((np.arange(lo, lo + 4096)[:, None]
                              >> np.arange(n)) & 1, 1.0, -1.0)
            total += float(np.sum(np.linalg.norm(signs @ x, axis=1)))
        want = total / (1 << n) / n
        require(close(value, want, rel=1e-10),
                f"{op.name}: {value} != enumeration {want}")

    def planner_grid(self, op, rows):
        require(rows[0][1] == 2258 and rows[1][1] == 900,
                f"{op.name}: planner values {rows[0][1]}, {rows[1][1]}")
        for (method, eps, delta, cap), n, bound in rows[2:]:
            if method == "vc":
                val = (5.0 / eps) * (cap * math.log(40.0 / eps)
                                     + math.log(4.0 / delta))
                want = (4.0 * cap * math.log(2.0 * math.e * n / cap)
                        + math.log(4.0 / delta)) / n
            else:
                val = ((2.0 / cap) + math.sqrt(math.log(1.0 / delta))) ** 2 / eps ** 2
                want = ((2.0 / cap) / math.sqrt(n)
                        + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
            require(n == math.ceil(val) or close(n, val, rel=1e-9),
                    f"{op.name}: {method} plan {n} for formula value {val}")
            require(close(bound, want, rel=1e-12) and bound <= eps,
                    f"{op.name}: {method} bound {bound} at n={n}, eps={eps}")

    def binomial_tail(self, op, value):
        n, p, eps = op.params["n"], op.params["p"], op.params["epsilon"]
        k0 = math.floor(n * (Fraction(str(p)) + Fraction(str(eps)))) + 1
        want = float(stats.binom.sf(k0 - 1, n, p))
        require(close(value, want, rel=1e-9),
                f"{op.name}: {value} != binom.sf {want}")

    # -- run-level checks ---------------------------------------------------

    def path_moments(self):
        """Pooled sampled paths of each process against its stationary law
        (its mean is zero)."""
        for key, pool in self.moments.items():
            process, count = json.loads(key), pool["count"]
            if process["kind"] == "ar_d_linear_system":
                cov = stationary_cov(process)
                err = np.max(np.abs(pool["xx"] / count - cov)) / cov[0, 0]
                # relative standard error about sqrt(2 sum_k rho_k^2 / N)
                require(err < 6 * math.sqrt(6.0 / count),
                        f"{key}: pooled covariance off by {err:.4f}")
                continue
            a, variance = process["a"], ar1_variance(process)
            se = variance * math.sqrt(2 * (1 + a * a) / (1 - a * a) / count)
            require(abs(pool["xx"] / count - variance) <= 6 * se,
                    f"{key}: pooled variance {pool['xx'] / count} vs {variance}")
            lag = pool["lag"] / pool["lag_norm"]
            require(abs(lag - a) <= 6 * math.sqrt((1 - a * a) / count) + 0.01,
                    f"{key}: pooled lag-1 correlation {lag} vs {a}")
            flip_p, rate = process["flip_p"], pool["flips"] / count
            require(abs(rate - flip_p) <= 6 * math.sqrt(max(flip_p, 1e-4) / count),
                    f"{key}: label flip rate {rate} vs {flip_p}")

    def threads_agree(self, op):
        """The same config at threads=2 writes the same records."""
        out_dir = op.out_dir.parent / f"{op.name}_threads2"
        code = cli.run({**op.config, "threads": 2}, out_dir)
        require(code == 0, f"{op.name} at threads=2: exit code {code}")
        require((out_dir / "records.csv").read_bytes()
                == (op.out_dir / "records.csv").read_bytes(),
                f"{op.name}: records at threads=2 differ from threads=1")
