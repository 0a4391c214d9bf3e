"""Pseudo-linear random programs with margin: sample-size planners,
violation bounds, a feasibility/optimization solver and PAC certificates.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.spatial import ConvexHull, QhullError

from .bounds import _SCALE_MAX, _check, _check_entries
from .processes import ProcessSpec, simulate_sequence

_CEIL_GUARD = 1e-9


def _planned(value: float, arguments: str) -> int:
    """ceil(value) as a planned scenario count, guarded against float slop
    pushing an exact integer up by one.  More than 1e300 scenarios is
    reported against the planner ``arguments``."""
    if not value <= 1e300:
        raise ValueError(f"{arguments} plan more than 1e300 scenarios")
    return int(math.ceil(value - _CEIL_GUARD * max(1.0, abs(value))))


# ---------------------------------------------------------------------------
# Program description

@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, broadcasting over rows of a batch."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, float)))
        object.__setattr__(self, "offset", np.asarray(self.offset, float).ravel())
        _check_entries("matrix", self.matrix)
        _check_entries("offset", self.offset)
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ValueError("matrix rows must match offset length")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1 and self.matrix.shape[1] == 1:
            x = np.atleast_1d(x)[:, None] if x.ndim == 1 else x.reshape(1, 1)
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        return x @ self.matrix.T + self.offset

    def to_dict(self):
        return {"matrix": self.matrix.tolist(), "offset": self.offset.tolist()}

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, {"matrix", "offset"}, "affine map")
        return cls(matrix=np.asarray(d["matrix"], float),
                   offset=np.asarray(d["offset"], float))


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, float).ravel())
        object.__setattr__(self, "hi", np.asarray(self.hi, float).ravel())
        _check_entries("lo", self.lo)
        _check_entries("hi", self.hi)
        if self.lo.shape != self.hi.shape or not np.all(self.lo <= self.hi):
            raise ValueError("box needs lo <= hi componentwise")

    @property
    def dim(self):
        return self.lo.size

    def sup_norm(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def vertices(self):
        cols = [(l, h) for l, h in zip(self.lo, self.hi)]
        return np.array(list(itertools.product(*cols)))

    def contains(self, theta, tol=1e-9):
        return bool(np.all(theta >= self.lo - tol) and np.all(theta <= self.hi + tol))

    def to_dict(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)

    def sup_norm(self):
        return float(self.radius)

    def contains(self, theta, tol=1e-9):
        return bool(np.linalg.norm(theta) <= self.radius + tol)

    def to_dict(self):
        return {"kind": "ball", "radius": self.radius}


def _set_from_dict(d):
    kind = d.get("kind")
    if kind == "box":
        _reject_unknown(d, {"kind", "lo", "hi"}, "box")
        return Box(lo=d["lo"], hi=d["hi"])
    if kind == "ball":
        _reject_unknown(d, {"kind", "radius"}, "ball")
        return Ball(radius=float(d["radius"]))
    raise ValueError(f"unknown set kind {kind!r}")


def _reject_unknown(d, allowed, what):
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")


@dataclass(frozen=True)
class ConstraintPiece:
    """One piece f_k(x, theta) = psi_k(x) . theta + eta_k(x) (theta map is
    the identity in this version, keeping the program linear in theta)."""

    psi: AffineMap   # x -> coefficient vector on theta
    eta: AffineMap   # x -> scalar offset

    def __post_init__(self):
        if self.eta.matrix.shape[0] != 1:
            raise ValueError("eta must map into R")

    def to_dict(self):
        return {"psi": self.psi.to_dict(), "eta": self.eta.to_dict()}

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, {"psi", "eta"}, "constraint piece")
        return cls(psi=AffineMap.from_dict(d["psi"]),
                   eta=AffineMap.from_dict(d["eta"]))


@dataclass(frozen=True)
class ScenarioProgramSpec:
    """min c.theta over Theta subject to max_k f_k(x, theta) <= 0 for all x."""

    objective: np.ndarray
    pieces: tuple
    theta_set: object            # Box or Ball
    margin: float
    x_domain: Box = None         # bounded uncertainty domain, for tau
    indicator_vc_dim: int = None

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, float).ravel())
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("program needs at least one constraint piece")
        _check_entries("objective", self.objective)
        _check("margin", self.margin, 0, _SCALE_MAX, lo_open=True)
        if self.x_domain is not None and not isinstance(self.x_domain, Box):
            raise ValueError("x_domain must be a box")
        if self.indicator_vc_dim is not None:
            _check("indicator_vc_dim", self.indicator_vc_dim, 1, integer=True)
        p = self.objective.size
        for piece in self.pieces:
            if piece.psi.matrix.shape[0] != p:
                raise ValueError("psi output dimension must match theta dimension")

    @property
    def dim_theta(self):
        return self.objective.size

    def piece_tables(self, xs):
        """Per piece: (Psi, h) with rows psi_k(x_i) and values eta_k(x_i)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        return [(piece.psi(xs), piece.eta(xs).ravel()) for piece in self.pieces]

    def constraint_values(self, xs, theta):
        """f(x_i, theta) = max_k psi_k(x_i).theta + eta_k(x_i) per scenario."""
        tables = self.piece_tables(xs)
        vals = np.stack([psi_t @ theta + h for psi_t, h in tables], axis=0)
        return np.max(vals, axis=0)

    def to_dict(self):
        d = {
            "objective": self.objective.tolist(),
            "pieces": [p.to_dict() for p in self.pieces],
            "theta_set": self.theta_set.to_dict(),
            "margin": self.margin,
            "x_domain": None if self.x_domain is None else self.x_domain.to_dict(),
            "indicator_vc_dim": self.indicator_vc_dim,
        }
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, {"objective", "pieces", "theta_set", "margin",
                            "x_domain", "indicator_vc_dim"}, "program")
        return cls(
            objective=np.asarray(d["objective"], float),
            pieces=tuple(ConstraintPiece.from_dict(p) for p in d["pieces"]),
            theta_set=_set_from_dict(d["theta_set"]),
            margin=float(d["margin"]),
            x_domain=None if d.get("x_domain") is None else _set_from_dict(d["x_domain"]),
            indicator_vc_dim=d.get("indicator_vc_dim"),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def one_dim_threshold_program(theta_lo=-5.0, theta_hi=5.0, margin=1.0,
                              x_domain=None):
    """min theta s.t. x - theta <= 0: the canonical 1-D program whose
    indicator class {1{x > theta}} has VC dimension 1."""
    piece = ConstraintPiece(
        psi=AffineMap(matrix=[[0.0]], offset=[-1.0]),
        eta=AffineMap(matrix=[[1.0]], offset=[0.0]),
    )
    dom = None if x_domain is None else Box(lo=[x_domain[0]], hi=[x_domain[1]])
    return ScenarioProgramSpec(
        objective=[1.0], pieces=(piece,), theta_set=Box(lo=[theta_lo], hi=[theta_hi]),
        margin=margin, x_domain=dom, indicator_vc_dim=1,
    )


# ---------------------------------------------------------------------------
# Planners and violation bounds

def plan_n_vc(epsilon: float, delta: float, d_vc: int) -> int:
    """Smallest planned scenario count (5/eps)(d log(40/eps) + log(4/delta))."""
    _check("epsilon", epsilon, 0, 1, lo_open=True, hi_open=True)
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("d_vc", d_vc, 1, integer=True)
    val = (5.0 / epsilon) * (d_vc * math.log(40.0 / epsilon)
                             + math.log(4.0 / delta))
    return _planned(val, f"epsilon = {epsilon:g} and d_vc = {d_vc}")


def plan_n_margin(epsilon: float, delta: float, gamma: float,
                  tau_lambda_sum: float) -> int:
    """Margin-method scenario count (1/eps^2)((2/gamma) sum tau_k Lambda_k
    + sqrt(log(1/delta)))^2."""
    _check("epsilon", epsilon, 0, 1, lo_open=True, hi_open=True)
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
    _check("tau_lambda_sum", tau_lambda_sum, 0, lo_open=True, hi_open=True)
    root = (2.0 / gamma) * tau_lambda_sum + math.sqrt(math.log(1.0 / delta))
    # beyond 1e150 the float squares below would overflow or divide by zero
    val = root ** 2 / epsilon ** 2 if root / epsilon <= 1e150 else math.inf
    return _planned(val, f"tau_lambda_sum = {tau_lambda_sum:g}, gamma = "
                         f"{gamma:g} and epsilon = {epsilon:g}")


def violation_bound(method: str, n: int, delta: float, *, d_vc: int = None,
                    gamma: float = None, tau_lambda_sum: float = None) -> float:
    """Violation-probability bound of a feasible point at sample size n.

    vc: (4 d log(2en/d) + log(4/delta)) / n (zero-error form); margin:
    (2/gamma) sum tau_k Lambda_k / sqrt(n) + sqrt(log(1/delta) / 2n).
    The caller asserts feasibility (with margin, where required).
    """
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("n", n, 1, integer=True)
    if method == "vc":
        _check("d_vc", d_vc, 1, integer=True)
        return (4.0 * d_vc * math.log(2.0 * math.e * n / d_vc)
                + math.log(4.0 / delta)) / n
    if method == "margin":
        _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
        _check("tau_lambda_sum", tau_lambda_sum, 0, lo_open=True, hi_open=True)
        return ((2.0 / gamma) * tau_lambda_sum / math.sqrt(n)
                + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# tau / Lambda suprema

@dataclass(frozen=True)
class TauLambdaReport:
    taus: tuple
    lambdas: tuple
    method: str              # "closed_form"

    @property
    def sum(self):
        return float(np.sum(np.asarray(self.taus) * np.asarray(self.lambdas)))


def tau_lambda(program: ScenarioProgramSpec) -> TauLambdaReport:
    """Per-piece suprema tau_k = sup_x ||psi_k(x)|| and Lambda_k = sup_theta ||theta||.

    Closed form: the theta map is the identity (ball radius / farthest box
    corner) and psi is affine, whose norm over a box domain is maximized at
    a vertex.  Constant psi needs no domain; otherwise the x domain must be
    a bounded box (set it from the process clipping radius if needed).
    """
    lam = program.theta_set.sup_norm()
    lambdas = tuple(lam for _ in program.pieces)
    taus = []
    for piece in program.pieces:
        if not np.any(piece.psi.matrix):
            taus.append(float(np.linalg.norm(piece.psi.offset)))
            continue
        if program.x_domain is None:
            raise ValueError("matrix of a psi map is non-zero, so tau needs "
                             "a bounded x_domain")
        dom = program.x_domain
        if dom.dim > 16:
            raise ValueError("vertex enumeration is limited to 16 dimensions")
        vals = np.linalg.norm(piece.psi(dom.vertices()), axis=1)
        taus.append(float(np.max(vals)))
    return TauLambdaReport(taus=tuple(taus), lambdas=lambdas,
                           method="closed_form")


# ---------------------------------------------------------------------------
# Solver

@dataclass(frozen=True)
class SolveResult:
    theta: np.ndarray
    feasible: bool
    objective: float
    max_violation: float      # max_i f(x_i, theta) + margin at the returned point
    rows_solved: int          # scenario constraint rows handed to the solver
    used_fallback: bool       # whether the min-slack program ran
    solver: str               # what gave theta: closed_form, highs or slsqp


_TIGHTEN = 1e-9
# Qhull's cost grows steeply with dimension (20,000 Gaussian points on one
# 2-core x86 VM core: 12 ms in 4-D, 70 ms in 5-D, 0.9 s in 6-D); above this
# dimension the solver gets every row.
_HULL_MAX_DIM = 4


def _extreme_scenarios(xs):
    """Indices of the extreme points of the scenario cloud (all rows when
    the hull is degenerate, too small or too high-dimensional)."""
    n, d = xs.shape
    if d == 1:
        return np.unique([np.argmin(xs[:, 0]), np.argmax(xs[:, 0])])
    if n <= d + 1 or d > _HULL_MAX_DIM:
        return np.arange(n)
    try:
        return np.sort(ConvexHull(xs).vertices)
    except QhullError:
        return np.arange(n)


def solve_margin_program(program: ScenarioProgramSpec, scenarios,
                         mode: str = "optimize", margin: float = None) -> SolveResult:
    """Solve min c.theta s.t. f(x_i, theta) <= -margin over the theta set.

    The program is linear in theta.  Every piece psi_k(x).theta + eta_k(x)
    is affine in x for fixed theta, so its maximum over the scenarios falls
    on an extreme point of their convex hull: the solver only gets the rows
    of those scenarios (min and max for 1-D x, the Qhull vertices
    otherwise), which leaves the feasible set unchanged (Calafiore & Campi,
    IEEE TAC 2006).  A 1-D ball is the interval [-r, r] and is solved as
    that box.  On a box, when every row bounds at most one theta
    coordinate, the rows only narrow the box and the optimum is read off
    in closed form; a row that couples coordinates sends the LP to HiGHS.
    Balls in two or more dimensions are solved by SLSQP on the smooth
    epigraph form.  The feasible flag always comes from an exact post-hoc
    evaluation of the constraints at the returned point over all scenarios
    and from the theta set's own membership test, never from solver
    status.  In feasibility mode, or when the program is infeasible, the
    minimal worst-case slack point is returned.
    """
    if mode not in ("optimize", "feasibility"):
        raise ValueError(f"unknown mode {mode!r}")
    gamma = program.margin if margin is None else margin
    _check("margin", gamma, 0, _SCALE_MAX)
    gamma = float(gamma)
    xs = np.asarray(getattr(scenarios, "x", scenarios), dtype=float)
    if xs.shape[0] == 0:
        raise ValueError("need at least one scenario")
    _check_entries("scenarios", xs)
    if xs.ndim == 1:
        xs = xs[:, None]
    tables = program.piece_tables(xs[_extreme_scenarios(xs)])
    psi_all = np.vstack([t[0] for t in tables])
    h_all = np.concatenate([t[1] for t in tables])

    theta_set = program.theta_set
    if isinstance(theta_set, Ball) and program.dim_theta == 1:
        theta_set = Box([-theta_set.radius], [theta_set.radius])
    if isinstance(theta_set, Box):
        theta, used_fallback, solver = _solve_box(
            theta_set, program.objective, psi_all, h_all, gamma, mode)
    else:
        theta, used_fallback, solver = _solve_ball(program, psi_all, h_all,
                                                   gamma, mode)

    theta = np.asarray(theta, dtype=float)
    resid = float(np.max(program.constraint_values(xs, theta)) + gamma)
    feasible = resid <= 0 and program.theta_set.contains(theta)
    return SolveResult(theta=theta, feasible=bool(feasible),
                       objective=float(program.objective @ theta),
                       max_violation=resid, rows_solved=psi_all.shape[0],
                       used_fallback=used_fallback, solver=solver)


def _solve_box(box, objective, psi_all, h_all, gamma, mode):
    bounds = list(zip(box.lo, box.hi))
    b = -gamma - h_all - _TIGHTEN
    if mode == "optimize":
        if np.all(np.count_nonzero(psi_all, axis=1) <= 1):
            theta = _bound_rows_optimum(box, objective, psi_all, b)
            if theta is not None:
                return theta, False, "closed_form"
        else:
            # HiGHS reads a cost of 1e20 or more as infinite; scaling c by
            # its largest magnitude keeps the argmin
            scale = np.max(np.abs(objective))
            c = objective / scale if scale > 0 else objective
            res = optimize.linprog(c=c, A_ub=psi_all, b_ub=b, bounds=bounds,
                                   method="highs")
            if res.status == 0:
                return res.x, False, "highs"
        # infeasible (or numerically stuck): fall through to the min-slack
        # point so the result can report the best residual
    # min s s.t. psi.theta + h + gamma <= s, with s shifted by gamma + max h
    # so that no right-hand side reaches 1e20, which HiGHS reads as infinite
    p = box.dim
    c = np.zeros(p + 1)
    c[-1] = 1.0
    a = np.hstack([psi_all, -np.ones((psi_all.shape[0], 1))])

    def min_slack(unit):
        return optimize.linprog(
            c=c, A_ub=a, b_ub=(np.max(h_all) - h_all) / unit,
            bounds=list(zip(box.lo / unit, box.hi / unit)) + [(None, None)],
            method="highs",
        )

    unit = 1.0
    res = min_slack(unit)
    excess = math.frexp(box.sup_norm())[1] - 66
    if res.status != 0 and excess > 0:
        # HiGHS also reads a theta bound of 1e20 or more as infinite, which
        # can leave s unbounded below or a side of the box empty; the least
        # slack then lies at the scale of the box, so theta and s are taken
        # in the power-of-two unit that brings the box within 2**66, exactly
        unit = math.ldexp(1.0, excess)
        res = min_slack(unit)
    if res.status != 0:
        raise RuntimeError(f"LP solver failed with status {res.status}")
    return res.x[:p] * unit, True, "highs"


def _bound_rows_optimum(box, objective, psi_all, b):
    """argmin of objective.theta over the box cut by the rows psi.theta <= b,
    each with at most one non-zero coefficient, or None when the cut box is
    empty.  Each row a.theta_j <= b moves one end of [lo_j, hi_j] to b/a, so
    the LP separates by coordinate: theta_j sits at the end its cost points
    to, and a zero cost takes the vertex HiGHS returns: the end of smaller
    magnitude (the lower one on a tie), or the lower end when no row has a
    non-zero coefficient."""
    rows, cols = np.nonzero(psi_all)
    constant = np.ones(b.size, dtype=bool)
    constant[rows] = False
    if np.any(b[constant] < 0):
        return None
    a = psi_all[rows, cols]
    with np.errstate(over="ignore"):
        cut = b[rows] / a
    lo, hi = box.lo.copy(), box.hi.copy()
    np.maximum.at(lo, cols[a < 0], cut[a < 0])
    np.minimum.at(hi, cols[a > 0], cut[a > 0])
    if not np.all(lo <= hi):
        return None
    nearer = np.where(np.abs(lo) <= np.abs(hi), lo, hi) if rows.size else lo
    return np.where(objective > 0, lo, np.where(objective < 0, hi, nearer))


def _solve_ball(program, psi_all, h_all, gamma, mode):
    ball = program.theta_set
    p = program.dim_theta
    if mode == "optimize":
        cons = [
            {"type": "ineq",
             "fun": lambda th: -gamma - _TIGHTEN - h_all - psi_all @ th,
             "jac": lambda th: -psi_all},
            {"type": "ineq",
             "fun": lambda th: ball.radius ** 2 - th @ th,
             "jac": lambda th: -2.0 * th},
        ]
        res = optimize.minimize(
            lambda th: program.objective @ th, np.zeros(p),
            jac=lambda th: program.objective, constraints=cons,
            method="SLSQP", options={"maxiter": 500, "ftol": 1e-12},
        )
        if res.success:
            return res.x, False, "slsqp"
    # min-slack epigraph: variables (theta, s)
    def obj(z):
        return z[-1]

    cons = [
        {"type": "ineq",
         "fun": lambda z: z[-1] - gamma - h_all - psi_all @ z[:p],
         "jac": lambda z: np.hstack([-psi_all, np.ones((psi_all.shape[0], 1))])},
        {"type": "ineq",
         "fun": lambda z: ball.radius ** 2 - z[:p] @ z[:p],
         "jac": lambda z: np.concatenate([-2.0 * z[:p], [0.0]])},
    ]
    z0 = np.zeros(p + 1)
    z0[-1] = float(np.max(h_all) + gamma + 1.0)
    res = optimize.minimize(obj, z0, jac=lambda z: np.eye(p + 1)[-1],
                            constraints=cons, method="SLSQP",
                            options={"maxiter": 500, "ftol": 1e-12})
    if not res.success:
        raise RuntimeError(f"SLSQP failed: {res.message}")
    return res.x[:p], True, "slsqp"


# ---------------------------------------------------------------------------
# Certification

@dataclass(frozen=True)
class Certificate:
    theta_hat: tuple
    n_used: int
    epsilon: float
    delta: float
    method: str
    violation_bound: float    # None when infeasible
    feasible: bool
    seed: int

    def to_dict(self):
        return {
            "theta_hat": list(self.theta_hat),
            "n_used": self.n_used,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "method": self.method,
            "violation_bound": self.violation_bound,
            "feasible": self.feasible,
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def certify(program: ScenarioProgramSpec, spec: ProcessSpec, epsilon: float,
            delta: float, method: str, seed: int,
            replication: int = 0) -> Certificate:
    """Plan n, draw n dependent scenarios from one path, solve, and bind
    the solution to its theorem-derived violation bound.

    An infeasible solve yields a certificate with feasible=False and no
    violation claim.
    """
    _check("epsilon", epsilon, 0, 1, lo_open=True, hi_open=True)
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    if method == "vc":
        if program.indicator_vc_dim is None:
            raise ValueError(
                "vc method needs the indicator-class VC dimension on the program"
            )
        n = plan_n_vc(epsilon, delta, program.indicator_vc_dim)
        gamma_solve = 0.0
    elif method == "margin":
        tl = tau_lambda(program)
        if tl.sum == 0:
            raise ValueError("offset and matrix of every psi map are zero, or "
                             "theta_set is {0}: tau_lambda_sum is 0")
        n = plan_n_margin(epsilon, delta, program.margin, tl.sum)
        gamma_solve = program.margin
    else:
        raise ValueError(f"unknown method {method!r}")
    path = simulate_sequence(spec, n, seed, replication=replication)
    result = solve_margin_program(program, path.x, mode="optimize",
                                  margin=gamma_solve)
    vb = None
    if result.feasible:
        if method == "vc":
            vb = violation_bound("vc", n, delta, d_vc=program.indicator_vc_dim)
        else:
            vb = violation_bound("margin", n, delta, gamma=program.margin,
                                 tau_lambda_sum=tl.sum)
    return Certificate(
        theta_hat=tuple(float(t) for t in result.theta), n_used=n,
        epsilon=epsilon, delta=delta, method=method, violation_bound=vb,
        feasible=result.feasible, seed=int(seed),
    )
