"""Pseudo-linear random programs with margin: sample-size planners,
violation bounds, a feasibility/optimization solver and PAC certificates.

The solver is exact up to rounding and needs no LP package: a box (or a
1-D ball) whose rows each bound one coordinate is solved in closed form,
and any other program by Seidel's incremental LP, in numpy.  No solve loads
``scipy.optimize``; the module attribute ``optimize`` imports it on first
access, for callers that read or wrap it.  ``scipy.spatial`` is imported on
first use, for the hull of a scenario cloud in 2 to 4 dimensions, only for
a program with a piece whose psi depends on x: a constant psi collapses to
one row before any hull.  Importing this module and the planners load
neither.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (_RANGE_MAX, _SCALE_MAX, _SCALE_MIN, _as_floats, _check,
                     _check_entries, _from_dict, _from_kind_dict,
                     _log_capacity, _log_over, _mcdiarmid, _sized)
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
    """x -> matrix @ x + offset, applied to each row of a batch."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(_as_floats("matrix", self.matrix)))
        object.__setattr__(self, "offset", _as_floats("offset", self.offset).ravel())
        _check_entries("matrix", self.matrix)
        _check_entries("offset", self.offset)
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ValueError("matrix rows must match offset length")

    @property
    def constant(self):
        """Whether the map ignores x: its matrix is zero."""
        return not self.matrix.any()

    def __call__(self, x):
        """The map at each row of an (n, d) batch.  A one-column x is
        multiplied by broadcasting: a matmul with one inner term costs far
        more than the product it computes."""
        x = np.asarray(x, dtype=float)
        d = self.matrix.shape[1]
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"x must be an (n, {d}) batch, not shape {x.shape}")
        if d == 1:
            return x * self.matrix[:, 0] + self.offset
        return x @ self.matrix.T + self.offset

    def to_dict(self):
        return {"matrix": self.matrix.tolist(), "offset": self.offset.tolist()}


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_floats("lo", self.lo).ravel())
        object.__setattr__(self, "hi", _as_floats("hi", self.hi).ravel())
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
        return bool((theta >= self.lo - tol).all()
                    and (theta <= self.hi + tol).all())

    def to_dict(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        _check("radius", self.radius, 0, _SCALE_MAX, lo_open=True)
        object.__setattr__(self, "radius", float(self.radius))

    def sup_norm(self):
        return self.radius

    def contains(self, theta, tol=1e-9):
        # tol is relative beyond radius 1: a point put on the sphere of a
        # large ball has a norm rounded by far more than 1e-9
        return bool(np.linalg.norm(theta)
                    <= self.radius + tol * max(1.0, self.radius))

    def to_dict(self):
        return {"kind": "ball", "radius": self.radius}


# readers of nested program objects, called as reader(d, key)
_set_from_dict = functools.partial(_from_kind_dict, {"box": Box, "ball": Ball})
_affine_from_dict = functools.partial(_from_dict, AffineMap)


@dataclass(frozen=True)
class ConstraintPiece:
    """One piece f_k(x, theta) = psi_k(x) . theta + eta_k(x) (theta map is
    the identity in this version, keeping the program linear in theta)."""

    psi: AffineMap   # x -> coefficient vector on theta
    eta: AffineMap   # x -> scalar offset

    def __post_init__(self):
        if self.eta.matrix.shape[0] != 1:
            raise ValueError("eta must map into R")

    def values(self, xs, theta):
        """f_k(x_i, theta) per row x_i of ``xs``; a constant psi_k adds the
        one number psi_k.theta to every eta_k(x_i)."""
        return ((self.psi.offset if self.psi.constant else self.psi(xs))
                @ theta + self.eta(xs)[:, 0])

    def to_dict(self):
        return {"psi": self.psi.to_dict(), "eta": self.eta.to_dict()}


_piece_from_dict = functools.partial(
    _from_dict, ConstraintPiece, psi=_affine_from_dict, eta=_affine_from_dict)


def _pieces_from_list(pieces, key):
    if not isinstance(pieces, (list, tuple)):
        raise ValueError(f"{key} must be a list of objects")
    return [_piece_from_dict(p, key) for p in pieces]


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
        object.__setattr__(self, "objective", _as_floats("objective", self.objective).ravel())
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("program needs at least one constraint piece")
        _check_entries("objective", self.objective)
        # rejected by name here, before a plan of more than 1e300 scenarios
        _check("margin", self.margin, _SCALE_MIN, _SCALE_MAX)
        object.__setattr__(self, "margin", float(self.margin))
        if self.x_domain is not None and not isinstance(self.x_domain, Box):
            raise ValueError("x_domain must be a box")
        if self.indicator_vc_dim is not None:
            _check("indicator_vc_dim", self.indicator_vc_dim, 1, integer=True)
        p = self.objective.size
        for piece in self.pieces:
            if piece.psi.matrix.shape[0] != p:
                raise ValueError("psi output dimension must match theta dimension")
        widths = {m.matrix.shape[1] for piece in self.pieces
                  for m in (piece.psi, piece.eta)}
        if len(widths) > 1:
            raise ValueError(f"pieces read x of different widths {sorted(widths)}: "
                             f"every psi and eta matrix needs as many columns")
        if self.x_domain is not None and self.x_domain.dim != self.dim_x:
            raise ValueError(f"x_domain has dimension {self.x_domain.dim}, "
                             f"the pieces read x of width {self.dim_x}")

    @property
    def dim_x(self):
        """The width of x: the column count of every psi and eta matrix."""
        return self.pieces[0].psi.matrix.shape[1]

    def constraint_values(self, xs, theta):
        """f(x_i, theta) = max_k psi_k(x_i).theta + eta_k(x_i) per scenario.
        ``theta`` holds one entry per objective coordinate, each at most
        1e50 in magnitude as every entry of the program is; anything else
        (NaN, an infinity, another shape) fails with a ValueError naming
        theta."""
        theta = _as_floats("theta", theta)
        if theta.shape != self.objective.shape:
            raise ValueError(f"theta must hold {self.objective.size} entries, "
                             f"one per objective coordinate, not shape "
                             f"{theta.shape}")
        _check_entries("theta", theta)
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        vals = [piece.values(xs, theta) for piece in self.pieces]
        return vals[0] if len(vals) == 1 else np.max(np.stack(vals), axis=0)

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

    @classmethod
    def from_dict(cls, d):
        return _from_dict(
            cls, d, "program", theta_set=_set_from_dict,
            pieces=_pieces_from_list,
            x_domain=lambda x, key: x if x is None else _set_from_dict(x, key))


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
                             + _log_over(4.0, delta))
    return _planned(val, f"epsilon = {epsilon:g} and d_vc = {d_vc}")


def plan_n_margin(epsilon: float, delta: float, gamma: float,
                  tau_lambda_sum: float) -> int:
    """Margin-method scenario count (1/eps^2)((2/gamma) sum tau_k Lambda_k
    + sqrt(log(1/delta)))^2."""
    _check("epsilon", epsilon, 0, 1, lo_open=True, hi_open=True)
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    # in range, gamma or tau_lambda_sum alone plans at most 6.4e203 scenarios
    # at epsilon 0.1: past 1e300 takes a tiny epsilon or two extreme values
    _check("gamma", gamma, _SCALE_MIN, _SCALE_MAX)
    _check("tau_lambda_sum", tau_lambda_sum, 0, _RANGE_MAX, lo_open=True)
    root = (2.0 / gamma) * tau_lambda_sum + math.sqrt(_log_over(1.0, delta))
    # beyond 1e150 the float squares below would overflow or divide by zero
    val = root ** 2 / epsilon ** 2 if root / epsilon <= 1e150 else math.inf
    return _planned(val, f"epsilon = {epsilon:g}, gamma = {gamma:g} and "
                         f"tau_lambda_sum = {tau_lambda_sum:g}")


def violation_bound(method: str, n: int, delta: float, *, d_vc: int = None,
                    gamma: float = None, tau_lambda_sum: float = None) -> float:
    """Violation-probability bound of a feasible point at sample size n.

    vc: (4 d log(2en/d) + log(4/delta)) / n for n >= d (zero-error form);
    margin: (2/gamma) sum tau_k Lambda_k / sqrt(n)
    + sqrt(log(1/delta) / 2n).
    The caller asserts feasibility (with margin, where required).  The value
    is finite for every accepted input: a margin capacity term past the
    float range (a vacuous bound) is reported as the largest float.
    """
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
    _check("n", n, 1, integer=True)
    if method == "vc":
        _check("d_vc", d_vc, 1, integer=True)
        return (4.0 * _log_capacity(n, d_vc) + _log_over(4.0, delta)) / n
    if method == "margin":
        _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
        _check("tau_lambda_sum", tau_lambda_sum, 0, lo_open=True, hi_open=True)
        capacity = (2.0 / gamma) * tau_lambda_sum / math.sqrt(n)
        if capacity == math.inf:
            # 2 / gamma or its product overflowed.  In this order only a
            # term past the float range can, and such a bound is vacuous
            # (as is any above 1): it is reported as the largest float
            capacity = min(tau_lambda_sum / math.sqrt(n) / gamma * 2.0,
                           sys.float_info.max)
        return capacity + _mcdiarmid(1.0, delta, n)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# tau / Lambda suprema

@dataclass(frozen=True)
class TauLambdaReport:
    taus: tuple
    lambdas: tuple

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
        if piece.psi.constant:
            taus.append(float(np.linalg.norm(piece.psi.offset)))
            continue
        if program.x_domain is None:
            raise ValueError("matrix of a psi map is non-zero, so tau needs "
                             "a bounded x_domain")
        dom = program.x_domain
        if dom.dim > 16:
            raise ValueError(f"x_domain has dimension {dom.dim}; vertex "
                             f"enumeration is limited to 16")
        vals = np.linalg.norm(piece.psi(dom.vertices()), axis=1)
        taus.append(float(np.max(vals)))
    return TauLambdaReport(taus=tuple(taus), lambdas=lambdas)


# ---------------------------------------------------------------------------
# Solver

@dataclass(frozen=True)
class SolveResult:
    """A solve of solve_margin_program.  ``feasible`` and ``max_violation``
    are computed at theta over every scenario, whatever the solver found.
    A point with ``used_fallback`` False is the optimize program's: every
    row holds at it to within _FEASIBLE_TOL of its scale, so its
    ``max_violation`` exceeds 0 only by rounding at theta's own scale."""

    theta: np.ndarray
    feasible: bool
    objective: float
    max_violation: float      # max_i f(x_i, theta) + margin at the returned point
    rows_solved: int          # constraint rows handed to the solver
    used_fallback: bool       # whether the min-slack program gave theta
    solver: str               # what gave theta: closed_form (bounds on a box
                              # or 1-D ball) or seidel (the incremental LP)


_TIGHTEN = 1e-9
# The incremental LP takes a row a.z <= b as met at z when a.z - b is at
# most _ROW_TOL times the row's rounding scale (see _seidel)
_ROW_TOL = 1e-12
# A point of the optimize program is kept when each row psi.theta + h +
# margin is at most _FEASIBLE_TOL times its scale |psi|.|theta| + |h| +
# margin; otherwise the min-slack point is returned
_FEASIBLE_TOL = 1e-9
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
    from scipy.spatial import ConvexHull, QhullError
    try:
        return np.sort(ConvexHull(xs).vertices)
    except QhullError:
        return np.arange(n)


def _scenario_rows(program, xs, name):
    """``xs`` as an (n, d) float array of n >= 1 finite x of the width d
    that the program reads (a 1-D array is n scalars when d is 1); a
    mismatch fails with a ValueError that starts with ``name``."""
    xs = _as_floats(name, xs)
    d = program.dim_x
    if xs.ndim == 1 and d == 1:
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ValueError(f"{name} must be x of width {d}, in an array of "
                         f"shape (n, {d}){' or (n,)' if d == 1 else ''}, "
                         f"not {xs.shape}")
    if xs.shape[0] == 0:
        raise ValueError(f"{name} must hold at least one x")
    _check_entries(name, xs)
    return xs


def _binding_rows(program, xs):
    """The constraint rows that can bind, stacked piece by piece, and each
    piece's largest eta: (Psi, h, tops).

    A piece whose psi is constant gives the one row (psi offset, largest
    eta_k(x_i)), and that largest eta is its entry of ``tops``; the others
    give their rows at the extreme scenarios, whose hull is only computed
    when such a piece exists, and None."""
    extreme = None
    psi_rows, h_rows, tops = [], [], []
    for piece in program.pieces:
        if piece.psi.constant:
            top = np.max(piece.eta(xs))
            psi_rows.append(piece.psi.offset[None, :])
            h_rows.append([top])
            tops.append(top)
            continue
        if extreme is None:
            extreme = xs[_extreme_scenarios(xs)]
        psi_rows.append(piece.psi(extreme))
        h_rows.append(piece.eta(extreme)[:, 0])
        tops.append(None)
    return np.vstack(psi_rows), np.concatenate(h_rows), tops


def solve_margin_program(program: ScenarioProgramSpec, scenarios,
                         mode: str = "optimize", margin: float = None) -> SolveResult:
    """Solve min c.theta s.t. f(x_i, theta) <= -margin over the theta set.

    The program is linear in theta, and the solver only gets the rows that
    can bind, which leaves the feasible set unchanged (Calafiore & Campi,
    IEEE TAC 2006).  A piece whose psi is constant gives one row, psi_k.theta
    + max_i eta_k(x_i) <= -margin, whatever the dimension of x.  Any other
    piece psi_k(x).theta + eta_k(x) is affine in x for fixed theta, so its
    maximum over the scenarios falls on an extreme point of their convex
    hull: it gives the rows of those scenarios (min and max for 1-D x, the
    Qhull vertices in 2 to 4 dimensions, every scenario above).  On a box
    or a 1-D ball, when every row bounds at most one theta coordinate, the
    rows only narrow the box and the optimum is read off in closed form
    (``solver`` "closed_form").  Any other program, and the min-slack
    program, is solved by Seidel's incremental LP (``solver`` "seidel", see
    _solve), exact up to rounding; no solve loads ``scipy.optimize``.  In
    both, a zero cost takes the point nearest the origin.  The rows count
    as feasible when the min-slack point meets them, and the optimize point
    is then kept (``used_fallback`` False) when every row holds at it to
    within _FEASIBLE_TOL of the row's scale |psi|.|theta| + |h| + margin,
    so that ``max_violation`` can exceed 0 only by rounding at that scale.
    Otherwise, or in feasibility mode, the minimal worst-case slack point
    is returned.  The feasible flag always comes from an exact post-hoc
    evaluation of the constraints at the returned point over all scenarios
    and from the theta set's own membership test.  A piece whose psi is
    constant is evaluated through its one row, as psi_k.theta + max_i
    eta_k(x_i): rounding is monotone, so max_i fl(c + eta_k(x_i)) equals
    fl(c + max_i eta_k(x_i)) bit for bit (every value is finite, as
    entries are at most 1e50 in magnitude); only the other pieces are
    evaluated at every scenario.  ``scenarios`` (or their
    ``x``) hold x of the program's width ``dim_x``: a mismatch fails with a
    ValueError naming ``scenarios``, as do rows whose scales lie so far
    apart that rounding loses the min-slack point (see _solve).
    """
    if mode not in ("optimize", "feasibility"):
        raise ValueError(f"unknown mode {mode!r}")
    gamma = program.margin if margin is None else margin
    _check("margin", gamma, 0, _SCALE_MAX)
    gamma = float(gamma)
    xs = _scenario_rows(program, getattr(scenarios, "x", scenarios),
                        "scenarios")
    psi_all, h_all, tops = _binding_rows(program, xs)
    theta, used_fallback, solver = _solve(program.theta_set,
                                          program.objective, psi_all, h_all,
                                          gamma, mode)
    # a constant psi_k takes its largest value at its row (see above)
    worst = max(np.max(piece.values(xs, theta)) if top is None
                else piece.psi.offset @ theta + top
                for piece, top in zip(program.pieces, tops))
    resid = float(worst + gamma)
    feasible = resid <= 0 and program.theta_set.contains(theta)
    return SolveResult(theta=theta, feasible=bool(feasible),
                       objective=float(program.objective @ theta),
                       max_violation=resid, rows_solved=psi_all.shape[0],
                       used_fallback=used_fallback, solver=solver)


def _solve(theta_set, objective, psi_all, h_all, gamma, mode):
    """theta, whether the min-slack program ran, and what gave theta
    (closed_form or seidel).  A box, or a 1-D ball as [-r, r], is the box
    [lo, hi] of the closed form and the LP; a larger ball is the LP's ball.

    The min-slack program is min t s.t. psi.theta - t <= -h over the theta
    set, whose t lies within +-S, S the largest |psi|.sup|theta| + |h|.  t
    is taken in a power-of-two unit M > max |psi|, so that each row's t
    coefficient is its largest: the incremental LP then eliminates t first,
    and theta is not solved through a t that rounding may have lost.  It
    runs first, unless the closed form applies: the optimize LP runs only
    when the min-slack point meets its rows, as a point far out in a large
    set can meet rows that no point meets by less than its own rounding.
    The min-slack program always has a point; where the big rows fix theta
    only to more than a small row's scale, rounding can still lose it
    (see _on_row), and a ValueError naming scenarios is raised."""
    p = objective.size
    if isinstance(theta_set, Box):
        q, radius, lo, hi = 0, 0.0, theta_set.lo, theta_set.hi
    elif p == 1:
        q, radius, hi = 0, 0.0, np.array([theta_set.radius])
        lo = -hi
    else:
        q, radius, lo, hi = p, theta_set.radius, np.empty(0), np.empty(0)
    b = -gamma - h_all - _TIGHTEN
    if q == 0 and mode == "optimize":
        # np.nonzero lists the coefficients row by row: a row with two repeats
        rows = np.nonzero(psi_all)[0]
        if not (rows[1:] == rows[:-1]).any():
            theta = _bound_rows_optimum(lo, hi, objective, psi_all, b,
                                        rows.size < b.size)
            if theta is not None:
                return theta, False, "closed_form"
            mode = "feasibility"
    reach = (np.abs(psi_all) @ np.maximum(np.abs(lo), np.abs(hi)) if q == 0
             else radius * np.linalg.norm(psi_all, axis=1))
    unit = math.ldexp(1.0, math.frexp(np.max(np.abs(psi_all)))[1])
    bound = float(np.max(reach + np.abs(h_all))) / unit
    slack = _incremental_lp(
        np.eye(p + 1)[-1],
        np.hstack([psi_all, np.full((h_all.size, 1), -unit)]), -h_all,
        np.append(lo, -bound), np.append(hi, bound), q, radius)
    if slack is None:
        raise ValueError("scenarios give constraint rows whose scales lie "
                         "too far apart for the min-slack program")
    slack = slack[:p]
    if mode == "optimize" and np.all(psi_all @ slack <= b):
        theta = _incremental_lp(objective, psi_all, b, lo, hi, q, radius)
        if theta is not None and np.all(
                psi_all @ theta + h_all + gamma <= _FEASIBLE_TOL * (
                    np.abs(psi_all) @ np.abs(theta) + np.abs(h_all) + gamma)):
            return theta, False, "seidel"
    return slack, True, "seidel"


def __getattr__(name):
    """``optimize`` is ``scipy.optimize``, imported on first access and then
    bound as a module global (PEP 562).  No solve calls it; it stays for the
    callers that read or wrap it, as perfbench/tracer.py does."""
    global optimize
    if name != "optimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize
    return optimize


def _box_argmin(c, lo, hi):
    """argmin of c.z over [lo, hi]; a zero cost takes the point nearest 0."""
    return np.where(c > 0, lo, np.where(c < 0, hi, np.clip(0.0, lo, hi)))


def _bound_rows_optimum(lo, hi, objective, psi_all, b, blank):
    """argmin of objective.theta over the box [lo, hi] cut by the rows
    psi.theta <= b, each with at most one non-zero coefficient, or None when
    the cut box is empty; ``blank`` tells whether a row has none.  Each row
    a.theta_j <= b moves one end of [lo_j, hi_j] to b/a, so the LP
    separates by coordinate.

    b = -gamma - h - _TIGHTEN is never -0.0, and not below 1e-25 in
    magnitude otherwise, so the zero ends b/a of one side of a column all
    have one sign and its tightest end is one float; a tie with the box
    end goes to the cut."""
    if blank and (b[~psi_all.any(axis=1)] < 0).any():
        return None
    with np.errstate(all="ignore"):     # 0 / 0 and x / 0 are masked below
        cut = b[:, None] / psi_all
    low = cut.max(axis=0, where=psi_all < 0, initial=-np.inf)
    high = cut.min(axis=0, where=psi_all > 0, initial=np.inf)
    lo = np.where(low >= lo, low, lo)
    hi = np.where(high <= hi, high, hi)
    if not (lo <= hi).all():
        return None
    return _box_argmin(objective, lo, hi)


def _incremental_lp(c, a, b, lo, hi, q=0, radius=0.0):
    """min c.z s.t. a z <= b over the z whose first q coordinates lie in the
    ball of ``radius`` and whose others lie in the box [lo, hi]: z, or None
    when no z meets the rows.  The rows are taken in a fixed random order
    (seed 0), so a program always gives the same z, and z is put back into
    its set where rounding left it by an ulp."""
    order = np.append(0, np.random.default_rng(0).permutation(b.size) + 1)
    rows, rhs = np.vstack([c, a])[order], np.append(0.0, b)[order]
    z = _seidel(rows, rhs, np.abs(rows), np.abs(rhs), q, radius, lo, hi)
    if z is not None:
        z[q:] = np.clip(z[q:], lo, hi)
        norm = np.linalg.norm(z[:q])
        if norm > radius:
            z[:q] *= radius / norm
    return z


def _seidel(a, b, sa, sb, q, radius, lo, hi):
    """Seidel's randomized incremental LP (Discrete Comput. Geom. 1991) on
    min a[0].z s.t. a[1:] z <= b[1:] over a ball of ``radius`` in z[:q]
    times the box [lo, hi] in z[q:]: z, or None when no z meets the rows.

    z starts at the set's own optimum; a zero cost takes the point nearest
    the origin, which keeps z as small as the rows let it be.  One product
    finds the next row that z violates; the optimum of the rows so far
    then lies on that row's hyperplane, or there is none.  On the
    hyperplane the row eliminates the box coordinate of largest
    coefficient, whose two box ends become rows, or else cuts the ball in
    a ball one dimension smaller (Matousek, Sharir & Welzl, Algorithmica
    1996), and the earlier rows are solved there; a row with no non-zero
    coefficient has no hyperplane.  sa and sb carry each
    entry's rounding scale, the sum of the magnitudes it was computed from:
    a row counts as violated when a.z - b exceeds _ROW_TOL (sa.|z| + sb)."""
    if q == 1:
        q, lo, hi = 0, np.append(-radius, lo), np.append(radius, hi)
    c = a[0]
    norm = np.linalg.norm(c[:q])
    z = np.concatenate([-radius / norm * c[:q] if norm > 0 else np.zeros(q),
                        _box_argmin(c[q:], lo, hi)])
    i = 1
    while True:
        over = _missed(a[i:], b[i:], sa[i:], sb[i:], z)
        if not over.any():
            return z
        j = i + int(np.argmax(over))
        z = _on_row(a, b, sa, sb, q, radius, lo, hi, j)
        if z is None:
            return None
        i = j + 1


def _missed(a, b, sa, sb, z):
    """Which rows a z <= b the point z misses by more than _ROW_TOL of
    their rounding scale sa.|z| + sb."""
    return a @ z - b > _ROW_TOL * (sa @ np.abs(z) + sb)


def _on_row(a, b, sa, sb, q, radius, lo, hi, j):
    """The optimum of _seidel's rows a[1:j] on the hyperplane a[j].z = b[j],
    or None when there is none."""
    aj, bj = a[j], b[j]
    if np.any(aj[q:]):
        k = q + int(np.argmax(np.abs(aj[q:])))
        keep = np.arange(aj.size) != k
        # z_k = beta - g.y over the other coordinates y
        g, beta = aj[keep] / aj[k], bj / aj[k]
        sg, sbeta = sa[j, keep] / abs(aj[k]), sb[j] / abs(aj[k])
        end_lo, end_hi = lo[k - q], hi[k - q]
        a2 = np.vstack([a[:j, keep] - np.outer(a[:j, k], g), -g, g])
        b2 = np.append(b[:j] - a[:j, k] * beta,
                       [end_hi - beta, beta - end_lo])
        sa2 = np.vstack([sa[:j, keep] + np.outer(sa[:j, k], sg), sg, sg])
        sb2 = np.append(sb[:j] + sa[:j, k] * sbeta,
                        [abs(end_hi) + sbeta, abs(end_lo) + sbeta])
        y = _seidel(a2, b2, sa2, sb2, q, radius, np.delete(lo, k - q),
                    np.delete(hi, k - q))
        if y is None:
            return None
        z = np.insert(y, k, beta - g @ y)
        # beta - g.y is exact to its own rounding, which can exceed the
        # scale of an earlier row far smaller than row j.  z_k then moves
        # onto the rows that it misses, each solved for z_k at y, when they
        # all bound it from one side and every row up to j holds there
        miss = _missed(a[1:j], b[1:j], sa[1:j], sb[1:j], z)
        col = a[1:j][miss, k]
        if miss.any() and ((col < 0).all() or (col > 0).all()):
            ends = (b[1:j][miss] - a[1:j][miss][:, keep] @ y) / col
            moved = np.insert(y, k, ends.max() if col[0] < 0 else ends.min())
            if lo[k - q] <= moved[k] <= hi[k - q] and not _missed(
                    a[1:j + 1], b[1:j + 1], sa[1:j + 1], sb[1:j + 1],
                    moved).any():
                return moved
        return z
    if not aj.any():
        return None
    # the hyperplane u.theta = bj meets the ball in the ball about
    # theta0 = t u / |u| of radius sqrt(radius^2 - t^2), t = bj / |u|,
    # spanned by the columns but k of the Householder reflection that takes
    # u to the axis k
    u = aj[:q]
    norm = np.linalg.norm(u)
    if bj < -radius * norm - _ROW_TOL * (radius * sa[j, :q].sum() + sb[j]):
        return None
    t = min(max(bj / norm, -radius), radius)
    theta0 = t / norm * u
    k = int(np.argmax(np.abs(u)))
    v = u / norm
    v[k] += 1.0 if v[k] >= 0 else -1.0
    basis = np.delete(np.eye(q) - np.outer(v, v) / abs(v[k]), k, axis=1)
    a2 = np.hstack([a[:j, :q] @ basis, a[:j, q:]])
    b2 = b[:j] - a[:j, :q] @ theta0
    sa2 = np.hstack([sa[:j, :q] @ np.abs(basis), sa[:j, q:]])
    sb2 = sb[:j] + sa[:j, :q] @ (np.abs(u) * (sb[j] / norm ** 2))
    y = _seidel(a2, b2, sa2, sb2, q - 1,
                math.sqrt(max((radius - t) * (radius + t), 0.0)), lo, hi)
    return None if y is None else np.concatenate([theta0 + basis @ y[:q - 1],
                                                  y[q - 1:]])


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
        # every field is a scalar but theta_hat: no deep copy is needed
        return {**vars(self), "theta_hat": list(self.theta_hat)}


def certify(program: ScenarioProgramSpec, spec: ProcessSpec, epsilon: float,
            delta: float, method: str, seed: int,
            replication: int = 0) -> Certificate:
    """Plan n, draw n dependent scenarios from one path, solve, and bind
    the solution to its theorem-derived violation bound.

    An infeasible solve yields a certificate with feasible=False and no
    violation claim.  The program never reads labels, so the path is drawn
    without them; x_i of an AR(d) path holds its last d values, so the
    program must read x of width ``spec.order`` (else a ValueError names
    ``process``).  A path that numpy cannot make fails with a ValueError
    that names epsilon, or margin when the margin plan's factor 2 / margin
    is larger than epsilon's 1 / epsilon: that plan grows as
    ((2 / margin) sum_k tau_k Lambda_k / epsilon)^2.  The planner checks
    epsilon and delta, before any path is drawn.
    """
    if method == "vc":
        if program.indicator_vc_dim is None:
            raise ValueError(
                "vc method needs the indicator-class VC dimension on the program"
            )
        capacity = {"d_vc": program.indicator_vc_dim}
        n = plan_n_vc(epsilon, delta, **capacity)
        gamma_solve = 0.0
    elif method == "margin":
        tl_sum = tau_lambda(program).sum
        if tl_sum == 0:
            raise ValueError("offset and matrix of every psi map are zero, or "
                             "theta_set is {0}: tau_lambda_sum is 0")
        capacity = {"gamma": program.margin, "tau_lambda_sum": tl_sum}
        n = plan_n_margin(epsilon, delta, **capacity)
        gamma_solve = program.margin
    else:
        raise ValueError(f"unknown method {method!r}")
    if spec.order != program.dim_x:
        raise ValueError(f"process draws x of width {spec.order}, the program "
                         f"reads x of width {program.dim_x}")
    key = ("margin" if method == "margin" and program.margin < 2.0 * epsilon
           else "epsilon")
    result = _sized(key, lambda: solve_margin_program(
        program, simulate_sequence(spec, n, seed, replication=replication,
                                   labels=False).x,
        mode="optimize", margin=gamma_solve))
    vb = (violation_bound(method, n, delta, **capacity) if result.feasible
          else None)
    return Certificate(
        theta_hat=tuple(float(t) for t in result.theta), n_used=n,
        epsilon=epsilon, delta=delta, method=method, violation_bound=vb,
        feasible=result.feasible, seed=int(seed),
    )
