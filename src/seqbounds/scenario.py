"""Pseudo-linear random programs with margin: sample-size planners,
violation bounds, a feasibility/optimization solver and PAC certificates.

``scipy.optimize`` and ``scipy.spatial`` are imported on first use: the
LP solve of a coupled-row box or ball program loads ``optimize`` (the
module attribute ``optimize``, which a caller may replace), and the hull
of a scenario cloud in 2 to 4 dimensions loads ``spatial``, only for a
program with a piece whose psi depends on x: a constant psi collapses to
one row before any hull.  Importing this module and the planners load
neither.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (_SCALE_MAX, _as_floats, _check, _check_entries,
                     _from_dict, _from_kind_dict, _log_capacity, _log_over,
                     _mcdiarmid)
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
        """The map at one x (a vector) or at each row of a batch.  A constant
        map is its offset (a read-only row per x), and a one-column x is
        multiplied by broadcasting: a matmul with one inner term costs far
        more than the product it computes."""
        x = np.asarray(x, dtype=float)
        d = self.matrix.shape[1]
        if x.ndim <= 1 and d == 1:
            x = np.atleast_1d(x)[:, None] if x.ndim == 1 else x.reshape(1, 1)
        if x.shape[-1:] != (d,):
            raise ValueError(f"x must have {d} columns, not shape {x.shape}")
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        if self.constant:
            return np.broadcast_to(self.offset, (x.shape[0], self.offset.size))
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
        return bool(np.all(theta >= self.lo - tol) and np.all(theta <= self.hi + tol))

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
        _check("margin", self.margin, 0, _SCALE_MAX, lo_open=True)
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
    def dim_theta(self):
        return self.objective.size

    @property
    def dim_x(self):
        """The width of x: the column count of every psi and eta matrix."""
        return self.pieces[0].psi.matrix.shape[1]

    def constraint_values(self, xs, theta):
        """f(x_i, theta) = max_k psi_k(x_i).theta + eta_k(x_i) per scenario;
        a constant psi_k adds the one number psi_k.theta to every eta_k."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        vals = [(piece.psi.offset if piece.psi.constant else piece.psi(xs))
                @ theta + piece.eta(xs)[:, 0] for piece in self.pieces]
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
    _check("gamma", gamma, 0, _SCALE_MAX, lo_open=True)
    _check("tau_lambda_sum", tau_lambda_sum, 0, lo_open=True, hi_open=True)
    root = (2.0 / gamma) * tau_lambda_sum + math.sqrt(_log_over(1.0, delta))
    # beyond 1e150 the float squares below would overflow or divide by zero
    val = root ** 2 / epsilon ** 2 if root / epsilon <= 1e150 else math.inf
    return _planned(val, f"tau_lambda_sum = {tau_lambda_sum:g}, gamma = "
                         f"{gamma:g} and epsilon = {epsilon:g}")


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
    theta: np.ndarray
    feasible: bool
    objective: float
    max_violation: float      # max_i f(x_i, theta) + margin at the returned point
    rows_solved: int          # constraint rows handed to the solver
    used_fallback: bool       # whether the min-slack program ran
    solver: str               # what gave theta: closed_form or highs
    status: int               # HiGHS status of the LP that gave theta, None
                              # for the closed form
    cuts: int                 # Kelley cuts added on a ball, 0 on a box


_TIGHTEN = 1e-9
# A ball's cut LP point within this relative distance of the sphere is put
# on it, after at most _MAX_CUTS cuts, by the rows that bind there within
# _BIND_TOL of their scale: an LP vertex holds its rows to rounding (see
# _solve_ball)
_SPHERE_TOL = 1e-7
_MAX_CUTS = 100
_BIND_TOL = 1e-9
# A box LP that fails is solved again in a unit that brings the box within
# 2**_UNIT_BITS (see _box_linprog)
_UNIT_BITS = 30
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
    """The constraint rows that can bind, stacked piece by piece: (Psi, h).

    A piece whose psi is constant gives the one row (psi offset, largest
    eta_k(x_i)); the others give their rows at the extreme scenarios, whose
    hull is only computed when such a piece exists."""
    extreme = None
    psi_rows, h_rows = [], []
    for piece in program.pieces:
        if piece.psi.constant:
            psi_rows.append(piece.psi.offset[None, :])
            h_rows.append([np.max(piece.eta(xs))])
            continue
        if extreme is None:
            extreme = xs[_extreme_scenarios(xs)]
        psi_rows.append(piece.psi(extreme))
        h_rows.append(piece.eta(extreme)[:, 0])
    return np.vstack(psi_rows), np.concatenate(h_rows)


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
    Qhull vertices in 2 to 4 dimensions, every scenario above).  On a box,
    when every row bounds at most one theta coordinate, the rows only
    narrow the box and the optimum is read off in closed form; a row that couples coordinates sends the LP to HiGHS.
    A ball of radius r is the box [-r, r]^p cut by tangent planes, one per
    LP point outside the ball; an optimum on the sphere is put there in
    closed form from the rows that bind (see _solve_ball), and a 1-D ball
    is just the box.  The feasible flag always comes from an exact post-hoc
    evaluation of the constraints at the returned point over all scenarios
    and from the theta set's own membership test, never from solver
    status.  In feasibility mode, or when the program is infeasible, the
    minimal worst-case slack point is returned.  ``scenarios`` (or their
    ``x``) hold x of the program's width ``dim_x``: a mismatch fails with a
    ValueError naming ``scenarios``.
    """
    if mode not in ("optimize", "feasibility"):
        raise ValueError(f"unknown mode {mode!r}")
    gamma = program.margin if margin is None else margin
    _check("margin", gamma, 0, _SCALE_MAX)
    gamma = float(gamma)
    xs = _scenario_rows(program, getattr(scenarios, "x", scenarios),
                        "scenarios")
    psi_all, h_all = _binding_rows(program, xs)

    if isinstance(program.theta_set, Box):
        theta, used_fallback, status = _solve_box(
            program.theta_set, program.objective, psi_all, h_all, gamma, mode)
        cuts = 0
    else:
        theta, used_fallback, status, cuts = _solve_ball(
            program.theta_set.radius, program.objective, psi_all, h_all,
            gamma, mode)

    theta = np.asarray(theta, dtype=float)
    resid = float(np.max(program.constraint_values(xs, theta)) + gamma)
    feasible = resid <= 0 and program.theta_set.contains(theta)
    return SolveResult(theta=theta, feasible=bool(feasible),
                       objective=float(program.objective @ theta),
                       max_violation=resid, rows_solved=psi_all.shape[0],
                       used_fallback=used_fallback,
                       solver="closed_form" if status is None else "highs",
                       status=status, cuts=cuts)


def _solve_box(box, objective, psi_all, h_all, gamma, mode, cuts=None):
    """theta, whether the min-slack program ran, and the HiGHS status of the
    LP that gave theta (None for the closed form), over the box cut by the
    hard rows cuts[:, :-1].theta <= cuts[:, -1] (no slack in the min-slack
    program)."""
    cuts = np.empty((0, box.dim + 1)) if cuts is None else cuts
    b = -gamma - h_all - _TIGHTEN
    if mode == "optimize":
        rows = np.vstack([psi_all, cuts[:, :-1]])
        b = np.concatenate([b, cuts[:, -1]])
        if np.all(np.count_nonzero(rows, axis=1) <= 1):
            theta = _bound_rows_optimum(box, objective, rows, b)
            if theta is not None:
                return theta, False, None
        else:
            # HiGHS reads a cost of 1e20 or more as infinite; scaling c by
            # its largest magnitude keeps the argmin
            scale = np.max(np.abs(objective))
            c = objective / scale if scale > 0 else objective
            status, theta = _box_linprog(box, c, rows, b)
            if status == 0:
                return theta, False, status
        # infeasible (or numerically stuck): fall through to the min-slack
        # point so the result can report the best residual
    # min s s.t. psi.theta + h + gamma <= s, with s shifted by gamma + max h
    # so that no right-hand side reaches 1e20, which HiGHS reads as infinite
    c = np.zeros(box.dim + 1)
    c[-1] = 1.0
    a = np.block([[psi_all, -np.ones((psi_all.shape[0], 1))],
                  [cuts[:, :-1], np.zeros((cuts.shape[0], 1))]])
    status, theta = _box_linprog(box, c, a, np.concatenate(
        [np.max(h_all) - h_all, cuts[:, -1]]), free=1)
    if status != 0:
        raise RuntimeError(f"LP solver failed with status {status}")
    return theta, True, status


def __getattr__(name):
    """``optimize`` is ``scipy.optimize``, imported on first access and then
    bound as a module global (PEP 562)."""
    global optimize
    if name != "optimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize
    return optimize


class _NullStdout:
    """File descriptor 1 points at the null device while any thread is
    inside, as HiGHS prints some status lines with C's printf whatever its
    options say.  The first thread in and the last one out switch it, under
    a lock, so that solves on two threads overlap; Python's and C's buffered
    stdout are flushed at each switch."""

    lock, inside, saved, libc = threading.Lock(), 0, None, None

    def _switch(self, fd):
        if sys.stdout is not None:
            sys.stdout.flush()
        if self.libc is None:
            self.libc = ctypes.CDLL(None)
        self.libc.fflush(None)
        os.dup2(fd, 1)
        os.close(fd)

    def __enter__(self):
        with self.lock:
            if not self.inside:
                try:
                    self.saved = os.dup(1)
                except OSError:     # no file descriptor 1 to keep clean
                    self.saved = None
                else:
                    self._switch(os.open(os.devnull, os.O_WRONLY))
            self.inside += 1

    def __exit__(self, *exc):
        with self.lock:
            self.inside -= 1
            if not self.inside and self.saved is not None:
                self._switch(self.saved)


_NULL_STDOUT = _NullStdout()


def _box_linprog(box, c, a_ub, b_ub, free=0):
    """HiGHS on min c.z s.t. a_ub z <= b_ub over z = (theta in the box,
    ``free`` unbounded variables): the solver status and theta (None unless
    the status is 0).

    HiGHS reads a bound of 1e20 or more as infinite, which can leave the LP
    unbounded or a side of the box empty, and it stalls on a box far larger
    than the right-hand sides (status 4 on [-1e17, 1e17]^2 with the rows
    theta_1 + theta_2 >= 1 and >= 2).  When the first solve fails on a box
    beyond 2**_UNIT_BITS, z is solved again in the power-of-two unit that
    brings the box within it, where the rounding of a coordinate stays near
    the solver's 1e-7 tolerance; z and b_ub are divided by the unit
    exactly.  A solve that succeeds keeps its bits, and so does a proof
    that the rows are infeasible: in the unit, right-hand sides far below
    the box fall within the solver's tolerance, so the proof would be
    lost."""
    # the module attribute, as a caller sees it (see __getattr__)
    linprog = sys.modules[__name__].optimize.linprog

    def solve(unit):
        bounds = list(zip(box.lo / unit, box.hi / unit))
        with _NULL_STDOUT:
            return linprog(c=c, A_ub=a_ub, b_ub=b_ub / unit,
                           bounds=bounds + [(None, None)] * free,
                           method="highs")

    p = box.dim
    res = solve(1.0)
    if res.status == 0:
        return 0, res.x[:p]
    excess = math.frexp(box.sup_norm())[1] - _UNIT_BITS
    # a bound HiGHS reads as infinite only relaxes the LP, except a lower
    # bound of 1e20 or more, an upper one of -1e20 or less, or such a
    # right-hand side, which empty it
    proven = (res.status == 2 and np.all(box.lo < 1e20)
              and np.all(box.hi > -1e20) and np.all(b_ub > -1e20))
    if not proven and excess > 0:
        unit = math.ldexp(1.0, excess)
        res = solve(unit)
        if res.status == 0:
            # a coordinate whose box lies far below the unit can come back
            # outside it, by the solver's tolerance at the unit
            return 0, np.clip(res.x[:p] * unit, box.lo, box.hi)
    return res.status, None


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


def _solve_ball(radius, objective, psi_all, h_all, gamma, mode):
    """Kelley's cutting planes (J. SIAM 1960) on the box [-r, r]^p: each LP
    point theta outside the ball adds the hard row u.theta <= r, u = theta /
    |theta|, until theta lies in the ball (the optimum), within _SPHERE_TOL
    of the sphere, or where a cut no longer moves it (HiGHS's tolerance
    stalls the cuts near 2e-8 relative).  Then theta goes on the sphere.
    The rows that bind at theta (within tolerance of -gamma, with cost c;
    in min-slack mode, the rows tied at the largest value, each tie with
    row j an equality (a_i - a_j).theta = h_j - h_i, with cost a_j) have
    an affine set with least-norm point theta0 and null-space projector P,
    whose least cost on the ball is at theta0 - sqrt(r^2 - |theta0|^2) Pc /
    |Pc|.  The LP's cost bounds the optimum from below, and along that set
    it rises from theta to the sphere by at most |c| sqrt(|theta|^2 - r^2):
    the point is kept when its cost is within that and every row holds at
    it, else theta is scaled onto the sphere.  Returns theta, whether the
    min-slack program ran, the status of the last box LP (see _solve_box)
    and the number of cuts."""
    p = objective.size
    box = Box(-radius * np.ones(p), radius * np.ones(p))
    cuts, last = np.empty((0, p + 1)), None
    while True:
        theta, slack, status = _solve_box(box, objective, psi_all, h_all,
                                          gamma, mode, cuts)
        norm = np.linalg.norm(theta)
        if norm <= radius:
            return theta, slack, status, len(cuts)
        if (norm <= radius * (1.0 + _SPHERE_TOL) or len(cuts) == _MAX_CUTS
                or np.array_equal(theta, last)):
            break
        # the cuts only shrink the LP: once infeasible, it stays so
        mode = "feasibility" if slack else mode
        cuts, last = np.vstack([cuts, np.append(theta / norm, radius)]), theta
    values = psi_all @ theta + h_all
    tol = _BIND_TOL * (radius * np.abs(psi_all).sum(axis=1)
                       + np.abs(h_all) + gamma)
    j = np.argmax(values)
    if slack:
        tied = values >= values[j] - tol
        rows, rhs = psi_all[tied] - psi_all[j], h_all[j] - h_all[tied]
        cost, bound = psi_all[j], values[j]
    else:
        tied = values >= -gamma - _TIGHTEN - tol
        rows, rhs = psi_all[tied], -gamma - _TIGHTEN - h_all[tied]
        cost, bound = objective, objective @ theta
    pinv = np.linalg.pinv(rows)
    theta0, pc = pinv @ rhs, cost - pinv @ (rows @ cost)
    n0 = np.linalg.norm(theta0)
    point = theta0 - (np.sqrt(max((radius - n0) * (radius + n0), 0.0)) * pc
                      / max(np.linalg.norm(pc), np.finfo(float).tiny))
    reach = bound + np.linalg.norm(cost) * np.sqrt((norm - radius)
                                                   * (norm + radius))
    at = psi_all @ point + h_all
    holds = (np.max(at) <= reach if slack else objective @ point <= reach
             and np.all(at <= -gamma - _TIGHTEN + tol))
    return ((point if holds else theta * (radius / norm)), slack, status,
            len(cuts))


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
        return {**asdict(self), "theta_hat": list(self.theta_hat)}


def certify(program: ScenarioProgramSpec, spec: ProcessSpec, epsilon: float,
            delta: float, method: str, seed: int,
            replication: int = 0) -> Certificate:
    """Plan n, draw n dependent scenarios from one path, solve, and bind
    the solution to its theorem-derived violation bound.

    An infeasible solve yields a certificate with feasible=False and no
    violation claim.  The program never reads labels, so the path is drawn
    without them; x_i of an AR(d) path holds its last d values, so the
    program must read x of width ``spec.order`` (else a ValueError names
    ``process``).
    """
    _check("epsilon", epsilon, 0, 1, lo_open=True, hi_open=True)
    _check("delta", delta, 0, 1, lo_open=True, hi_open=True)
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
    path = simulate_sequence(spec, n, seed, replication=replication,
                             labels=False)
    result = solve_margin_program(program, path.x, mode="optimize",
                                  margin=gamma_solve)
    vb = (violation_bound(method, n, delta, **capacity) if result.feasible
          else None)
    return Certificate(
        theta_hat=tuple(float(t) for t in result.theta), n_used=n,
        epsilon=epsilon, delta=delta, method=method, violation_bound=vb,
        feasible=result.feasible, seed=int(seed),
    )
