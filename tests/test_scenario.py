import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from seqbounds.estimators import violation_rate
from seqbounds.processes import (ar1_process, ar_process, sample_marginal,
                                 simulate_sequence)
from seqbounds.scenario import (_HULL_MAX_DIM, AffineMap, Ball, Box,
                                ConstraintPiece, ScenarioProgramSpec, certify,
                                one_dim_threshold_program, plan_n_margin,
                                plan_n_vc, solve_margin_program, tau_lambda,
                                violation_bound)


def two_dim_program(margin=0.5):
    # f(x, theta) = x * theta_1 + theta_2, minimize theta_1 + theta_2
    piece = ConstraintPiece(psi=AffineMap([[1.0], [0.0]], [0.0, 1.0]),
                            eta=AffineMap([[0.0]], [0.0]))
    return ScenarioProgramSpec(objective=[1.0, 1.0], pieces=(piece,),
                               theta_set=Box([-5.0, -5.0], [5.0, 5.0]),
                               margin=margin, x_domain=Box([-2.0], [2.0]))


class TestPlanners:
    def test_plan_vc_frozen(self):
        assert plan_n_vc(0.1, 1e-6, 5) == 2258
        assert plan_n_vc(0.01, 1e-9, 10) == 52526

    def test_plan_margin_frozen(self):
        assert plan_n_margin(0.1, math.exp(-1.0), 1.0, 1.0) == 900
        assert plan_n_margin(0.05, 0.1, 0.5, 2.0) == 36233

    def test_monotone_in_epsilon(self):
        for delta in (0.1, 1e-3):
            for d in (1, 4, 9):
                assert plan_n_vc(0.05, delta, d) > plan_n_vc(0.1, delta, d)
        assert plan_n_margin(0.05, 0.1, 1.0, 1.0) > plan_n_margin(0.1, 0.1, 1.0, 1.0)

    def test_margin_large_gamma_limit(self):
        eps, delta = 0.1, 0.1
        limit = math.ceil(math.log(1.0 / delta) / eps ** 2)
        assert plan_n_margin(eps, delta, 1e12, 1.0) == limit

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            plan_n_vc(0.0, 0.1, 3)
        with pytest.raises(ValueError):
            plan_n_vc(0.1, 1.0, 3)
        with pytest.raises(ValueError):
            plan_n_margin(0.1, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            plan_n_margin(0.1, 0.1, 1.0, 0.0)


class TestViolationBound:
    def test_vc_frozen(self):
        assert violation_bound("vc", 2258, 1e-6, d_vc=5) == pytest.approx(
            0.07587275694233535, rel=1e-12)

    def test_margin_frozen(self):
        got = violation_bound("margin", 900, math.exp(-1.0), gamma=1.0,
                              tau_lambda_sum=1.0)
        assert got == pytest.approx(0.09023689270621825, rel=1e-12)

    def test_planner_consistency_vc_grid(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.1, 0.01, 1e-6):
                for d in range(1, 11):
                    n = plan_n_vc(eps, delta, d)
                    assert violation_bound("vc", n, delta, d_vc=d) <= eps

    def test_planner_consistency_margin_grid(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.1, 0.01, 1e-6):
                for gamma in (0.1, 0.5, 1.0):
                    n = plan_n_margin(eps, delta, gamma, 1.0)
                    got = violation_bound("margin", n, delta, gamma=gamma,
                                          tau_lambda_sum=1.0)
                    assert got <= eps

    def test_method_validation(self):
        with pytest.raises(ValueError):
            violation_bound("vc", 100, 0.1)
        with pytest.raises(ValueError):
            violation_bound("other", 100, 0.1, d_vc=1)


class TestTauLambda:
    def test_constant_psi(self):
        prog = one_dim_threshold_program()
        report = tau_lambda(prog)
        assert report.taus == (1.0,)
        assert report.method == "closed_form"

    def test_ball_lambda(self):
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.5)
        assert tau_lambda(prog).lambdas == (3.0,)

    def test_affine_psi_on_interval(self):
        report = tau_lambda(two_dim_program())
        assert report.taus[0] == pytest.approx(math.sqrt(5.0))

    def test_box_lambda_is_farthest_corner(self):
        prog = ScenarioProgramSpec(
            objective=[1.0, 1.0], pieces=two_dim_program().pieces,
            theta_set=Box([-1.0, -3.0], [2.0, 1.0]), margin=0.5,
            x_domain=Box([-2.0], [2.0]))
        assert tau_lambda(prog).lambdas[0] == pytest.approx(math.sqrt(4 + 9))

    def test_unbounded_domain_rejected(self):
        prog = ScenarioProgramSpec(
            objective=[1.0, 1.0], pieces=two_dim_program().pieces,
            theta_set=Box([-5.0, -5.0], [5.0, 5.0]), margin=0.5, x_domain=None)
        with pytest.raises(ValueError, match="bounded"):
            tau_lambda(prog)


class TestSolver:
    def test_one_dim_analytic_optimum(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        res = solve_margin_program(prog, np.array([0.2, 0.5]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(0.6, abs=1e-4)
        assert res.max_violation <= 0.0

    def test_one_dim_ball_set(self):
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.1)
        res = solve_margin_program(prog, np.array([0.2, 0.5]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(0.6, abs=1e-4)

    def test_two_dim_analytic_optimum(self):
        # theta_2 <= -gamma - |theta_1| on scenarios {1, -1}:
        # min theta_1 + theta_2 = (gamma - 5) - 5 at theta = (gamma - 5, -5)
        gamma = 0.5
        prog = two_dim_program(margin=gamma)
        res = solve_margin_program(prog, np.array([1.0, -1.0]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(gamma - 5.0, abs=1e-4)
        assert res.theta[1] == pytest.approx(-5.0, abs=1e-4)

    def test_feasibility_mode_slack_point(self):
        prog = one_dim_threshold_program(margin=0.1)
        res = solve_margin_program(prog, np.array([-3.0, -2.5]),
                                   mode="feasibility")
        assert res.feasible
        assert res.max_violation <= 0.0

    def test_contradictory_scenarios_report_residual(self):
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-10.0], [10.0]), margin=0.1)
        res = solve_margin_program(prog, np.array([1.0]))
        assert not res.feasible
        # best achievable max f + gamma is exactly the margin
        assert res.max_violation == pytest.approx(0.1, abs=1e-6)

    def test_feasible_flag_is_posthoc(self):
        prog = one_dim_threshold_program(margin=0.1)
        res = solve_margin_program(prog, np.array([0.0]))
        vals = prog.constraint_values(np.array([0.0]), res.theta)
        assert res.feasible == bool(np.max(vals) <= -0.1)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            solve_margin_program(one_dim_threshold_program(), np.array([]))

    @pytest.mark.parametrize("cost", [1e20, 1e50])
    def test_huge_objective_is_still_minimized(self, cost):
        # HiGHS reads a cost of 1e20 or more as infinite
        xs = np.random.default_rng(0).standard_normal(100)
        prog = ScenarioProgramSpec(
            objective=[cost], pieces=one_dim_threshold_program().pieces,
            theta_set=Box([-10.0], [10.0]), margin=1.0)
        res = solve_margin_program(prog, xs)
        assert res.feasible and not res.used_fallback
        assert res.theta[0] == pytest.approx(np.max(xs) + 1.0, abs=1e-6)

    @pytest.mark.parametrize("value", [1e20, 1e30, 1e50])
    def test_huge_scenario_reports_its_residual(self, value):
        # HiGHS reads a right-hand side of 1e20 or more as infinite
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        res = solve_margin_program(prog, [value, 0.0])
        assert res.used_fallback and not res.feasible
        assert res.theta[0] == 10.0
        assert res.max_violation == value

    @pytest.mark.parametrize("lo, hi", [(-1e20, 1e20), (-1e30, 1e30),
                                        (-1e50, 1e50), (1e30, 1e50)])
    def test_feasibility_mode_in_a_huge_box(self, lo, hi):
        # HiGHS reads a theta bound of 1e20 or more as infinite, which left
        # the min-slack LP unbounded
        prog = one_dim_threshold_program(margin=0.1, theta_lo=lo, theta_hi=hi)
        res = solve_margin_program(prog, [0.0, 1.0], mode="feasibility")
        assert res.feasible and res.used_fallback
        assert np.all(np.isfinite(res.theta)) and lo <= res.theta[0] <= hi
        optimum = solve_margin_program(prog, [0.0, 1.0])
        assert optimum.solver == "closed_form"
        assert optimum.theta[0] == max(lo, 1.0 + 0.1 + 1e-9)

    @pytest.mark.parametrize("bound", [10.0, 1e20, 1e30, 1e50])
    def test_min_slack_point_in_a_huge_box_keeps_its_value(self, bound):
        # theta >= 1.1 and theta <= 0.9 cannot both hold; the least
        # worst-case slack is 0.1, at theta = 1
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-bound], [bound]),
                                   margin=0.1)
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(prog, np.array([1.0]), mode=mode)
            assert not res.feasible and res.used_fallback
            assert res.theta[0] == pytest.approx(1.0, abs=1e-9)
            assert res.max_violation == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("scenarios, margin, name", [
        ([0.0, 1.0], math.nan, "margin"),
        ([0.0, 1.0], math.inf, "margin"),
        ([0.0, 1.0], -0.1, "margin"),
        ([math.nan, 1.0], None, "scenarios"),
        ([math.inf, 1.0], None, "scenarios"),
        ([0.0, -math.inf], None, "scenarios"),
    ])
    def test_inputs_rejected_by_name(self, scenarios, margin, name):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            solve_margin_program(prog, scenarios, margin=margin)

    @pytest.mark.parametrize("draw", [math.nan, math.inf, -math.inf])
    def test_violation_rate_draws_rejected_by_name(self, draw):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10)
        with pytest.raises(ValueError, match=r"^draws\b"):
            violation_rate(np.array([0.0]), prog, np.array([draw, 1.0]))

    def test_coupled_rows_go_to_highs(self):
        res = solve_margin_program(two_dim_program(), np.array([1.0, -1.0]))
        assert res.solver == "highs" and not res.used_fallback

    def test_two_dim_ball_goes_to_slsqp(self):
        prog = ScenarioProgramSpec(objective=[1.0, 1.0],
                                   pieces=two_dim_program().pieces,
                                   theta_set=Ball(3.0), margin=0.5)
        assert solve_margin_program(prog, np.array([0.5])).solver == "slsqp"


def random_box_program(rng, dim_x, pieces, x_dependent):
    """Random program over a box of theta, with 1 to 3 theta coordinates."""
    p = int(rng.integers(1, 4))
    made = []
    for _ in range(pieces):
        psi_matrix = (rng.normal(size=(p, dim_x)) if x_dependent
                      else np.zeros((p, dim_x)))
        made.append(ConstraintPiece(
            psi=AffineMap(psi_matrix, rng.normal(size=p)),
            eta=AffineMap(rng.normal(size=(1, dim_x)), rng.normal(size=1))))
    half = rng.uniform(0.5, 4.0, size=p)
    return ScenarioProgramSpec(objective=rng.normal(size=p), pieces=made,
                               theta_set=Box(-half, half),
                               margin=float(rng.uniform(0.01, 2.0)))


def random_cloud(rng, n, dim_x, kind):
    if kind == "duplicates":
        pool = rng.normal(size=(int(rng.integers(1, 4)), dim_x))
        return pool[rng.integers(0, pool.shape[0], size=n)]
    if kind == "collinear":
        return rng.normal(size=dim_x) + np.outer(rng.normal(size=n),
                                                 rng.normal(size=dim_x))
    return rng.normal(size=(n, dim_x)) * rng.uniform(0.1, 3.0)


def full_row_solve(program, xs, mode):
    """Every scenario row handed to HiGHS, as before the hull reduction:
    (used_fallback, objective, max_violation, feasible)."""
    used_fallback, theta = full_row_theta(program, xs, mode)
    gamma = program.margin
    resid = float(np.max(program.constraint_values(xs, theta)) + gamma)
    feasible = resid <= 0.0 and program.theta_set.contains(theta)
    return used_fallback, float(program.objective @ theta), resid, feasible


def full_row_theta(program, xs, mode):
    """(used_fallback, theta) of HiGHS on every scenario row."""
    tables = program.piece_tables(xs)
    psi = np.vstack([t[0] for t in tables])
    h = np.concatenate([t[1] for t in tables])
    gamma, p = program.margin, program.dim_theta
    bounds = list(zip(program.theta_set.lo, program.theta_set.hi))
    res = None
    if mode == "optimize":
        res = optimize.linprog(program.objective, A_ub=psi,
                               b_ub=-gamma - h - 1e-9, bounds=bounds,
                               method="highs")
    used_fallback = res is None or res.status != 0
    if used_fallback:
        res = optimize.linprog(
            np.eye(p + 1)[-1], A_ub=np.hstack([psi, -np.ones((len(h), 1))]),
            b_ub=-gamma - h, bounds=bounds + [(None, None)], method="highs")
        assert res.status == 0
    return used_fallback, res.x[:p]


class TestHullReduction:
    def test_acceptance_program_solves_two_rows(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        n = plan_n_margin(0.15, 0.1, 1.0, 10.0)
        path = simulate_sequence(ar1_process(0.8, 0.6, flip_p=0.1), n, 888)
        res = solve_margin_program(prog, path.x)
        assert n == 20_578
        assert res.rows_solved == 2
        assert not res.used_fallback
        assert res.feasible
        assert res.theta[0] == pytest.approx(np.max(path.x) + 1.0 + 1e-9,
                                             abs=1e-9)

    def test_square_cloud_keeps_its_corners(self):
        corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        inner = np.random.default_rng(0).uniform(-0.9, 0.9, size=(50, 2))
        prog = random_box_program(np.random.default_rng(1), 2, 2, True)
        res = solve_margin_program(prog, np.vstack([inner, corners]))
        assert res.rows_solved == 4 * 2

    @pytest.mark.parametrize("xs", [
        np.outer(np.arange(10.0), [1.0, 2.0]),        # collinear: Qhull fails
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # n <= d + 1
        np.random.default_rng(2).normal(size=(30, _HULL_MAX_DIM + 1)),
    ])
    def test_degenerate_clouds_solve_every_row(self, xs):
        prog = random_box_program(np.random.default_rng(3), xs.shape[1], 1,
                                  True)
        assert solve_margin_program(prog, xs).rows_solved == xs.shape[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim_x=st.sampled_from([1, 2, 3, _HULL_MAX_DIM + 1]),
           n=st.integers(1, 40), pieces=st.integers(1, 3),
           x_dependent=st.booleans(),
           mode=st.sampled_from(["optimize", "feasibility"]),
           cloud=st.sampled_from(["general", "duplicates", "collinear"]))
    def test_matches_full_row_solve(self, seed, dim_x, n, pieces, x_dependent,
                                    mode, cloud):
        rng = np.random.default_rng(seed)
        prog = random_box_program(rng, dim_x, pieces, x_dependent)
        xs = random_cloud(rng, n, dim_x, cloud)
        res = solve_margin_program(prog, xs, mode=mode)
        used_fallback, objective, resid, feasible = full_row_solve(prog, xs,
                                                                   mode)
        assert res.rows_solved <= n * pieces
        assert res.used_fallback == used_fallback
        assert res.feasible == feasible
        if used_fallback:
            # the min-slack value is unique, its point need not be
            assert res.max_violation == pytest.approx(resid, abs=1e-7)
        else:
            assert res.objective == pytest.approx(objective, abs=1e-7)


def x_bounds_program(theta_set, dim):
    """x_k - theta_k <= -1 for each coordinate k, as in the benchmark."""
    pieces = tuple(ConstraintPiece(psi=AffineMap(np.zeros((dim, dim)),
                                                 -np.eye(dim)[k]),
                                   eta=AffineMap(np.eye(dim)[k:k + 1], [0.0]))
                   for k in range(dim))
    return ScenarioProgramSpec(objective=np.ones(dim), pieces=pieces,
                               theta_set=theta_set, margin=1.0)


def no_scipy_solver(*args, **kwargs):
    raise AssertionError("a scipy solver was called")


def random_bound_program(rng):
    """Random program whose constant psi rows each bound at most one of 1
    to 3 theta coordinates, with exact zeros in the objective.  eta and the
    margin scale with the coefficients, so that the bounds b/a land near
    the box; about half of the programs are infeasible on a normal cloud."""
    p = int(rng.integers(1, 4))
    pieces, sizes = [], []
    for _ in range(int(rng.integers(1, 4))):
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        offset = np.zeros(p)
        # one piece in eight is all-zero: it holds or fails for every theta
        offset[rng.integers(p)] = rng.choice([-1.0, 1.0]) * size * (
            rng.random() >= 0.125)
        pieces.append(ConstraintPiece(
            psi=AffineMap(np.zeros((p, 1)), offset),
            eta=AffineMap(size * rng.normal(0.0, 0.2, size=(1, 1)),
                          size * rng.normal(0.0, 0.5, size=1))))
        sizes.append(size)
    lo = rng.uniform(-5.0, 1.0, size=p)
    objective = rng.normal(size=p) * (rng.random(size=p) < 0.7)
    return ScenarioProgramSpec(
        objective=objective, pieces=pieces,
        theta_set=Box(lo, lo + rng.uniform(0.0, 8.0, p)),
        margin=float(rng.uniform(0.01, 0.5) * min(sizes)))


class TestClosedForm:
    @pytest.mark.parametrize("kind", ["1d", "2d", "ball"])
    def test_acceptance_programs_skip_scipy(self, kind, monkeypatch):
        monkeypatch.setattr(optimize, "linprog", no_scipy_solver)
        monkeypatch.setattr(optimize, "minimize", no_scipy_solver)
        prog, spec, eps = {
            "1d": (x_bounds_program(Box([-10.0], [10.0]), 1),
                   ar1_process(0.8, 0.6, flip_p=0.1), 0.15),
            "2d": (x_bounds_program(Box([-10.0] * 2, [10.0] * 2), 2),
                   ar_process([0.5, 0.2], 1.0), 0.3),
            "ball": (x_bounds_program(Ball(10.0), 1),
                     ar1_process(0.8, 0.6, flip_p=0.1), 0.15),
        }[kind]
        n = plan_n_margin(eps, 0.1, 1.0, tau_lambda(prog).sum)
        xs = simulate_sequence(spec, n, 888).x.reshape(n, -1)
        res = solve_margin_program(prog, xs)
        assert res.solver == "closed_form"
        assert res.feasible and not res.used_fallback
        assert np.array_equal(res.theta, np.max(xs, axis=0) + 1.0 + 1e-9)

    @pytest.mark.parametrize("xs, feasible, theta", [
        ([0.2, 0.5], True, 0.5 + 0.1 + 1e-9),
        ([-2.0, 2.5], True, 2.5 + 0.1 + 1e-9),
        # no feasible point: the min-slack point is the ball's right end
        ([5.0], False, 3.0),
    ])
    def test_one_dim_ball_is_an_interval(self, xs, feasible, theta,
                                         monkeypatch):
        monkeypatch.setattr(optimize, "minimize", no_scipy_solver)
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.1)
        res = solve_margin_program(prog, np.array(xs))
        assert res.feasible == feasible
        assert res.theta[0] == theta
        if not feasible:
            assert res.max_violation == 2.1

    @pytest.mark.parametrize("lo, hi", [(-4.0, 4.0), (-4.0, 3.0), (-3.0, 4.0)])
    @pytest.mark.parametrize("psi", [0.0, -1.0])
    def test_zero_cost_takes_the_highs_vertex(self, lo, hi, psi):
        # x - 10 - psi.theta <= -gamma holds on the whole box, so only the
        # tie-break decides theta
        piece = ConstraintPiece(psi=AffineMap([[0.0]], [psi]),
                                eta=AffineMap([[1.0]], [-10.0]))
        prog = ScenarioProgramSpec(objective=[0.0], pieces=(piece,),
                                   theta_set=Box([lo], [hi]), margin=0.1)
        xs = np.array([-1.0, 1.0])
        res = solve_margin_program(prog, xs)
        assert res.solver == "closed_form"
        assert np.array_equal(res.theta,
                              full_row_theta(prog, xs[:, None], "optimize")[1])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
    def test_matches_linprog(self, seed, n):
        rng = np.random.default_rng(seed)
        prog = random_bound_program(rng)
        xs = rng.normal(size=n)
        res = solve_margin_program(prog, xs)
        used_fallback, objective, resid, feasible = full_row_solve(
            prog, xs[:, None], "optimize")
        assert res.used_fallback == used_fallback
        assert res.feasible == feasible
        if used_fallback:
            assert res.max_violation == pytest.approx(resid, abs=1e-9)
        else:
            # a zero cost leaves theta_j free: HiGHS's vertex is matched too
            _, theta = full_row_theta(prog, xs[:, None], "optimize")
            assert res.solver == "closed_form"
            assert res.objective == pytest.approx(objective, abs=1e-9)
            assert res.theta == pytest.approx(theta, abs=1e-9)


class TestCertify:
    def test_margin_certificate(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        spec = ar1_process(0.8, 0.6)
        cert = certify(prog, spec, 0.15, 0.1, "margin", seed=99)
        assert cert.feasible
        assert cert.violation_bound <= 0.15
        assert cert.n_used == plan_n_margin(0.15, 0.1, 1.0, 10.0)
        # the certificate's point really satisfies the margin constraints
        path = simulate_sequence(spec, cert.n_used, 99)
        vals = prog.constraint_values(path.x, np.asarray(cert.theta_hat))
        assert np.max(vals) <= -1.0

    def test_vc_certificate(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        spec = ar1_process(0.8, 0.6)
        cert = certify(prog, spec, 0.15, 0.1, "vc", seed=101)
        assert cert.feasible
        assert cert.n_used == plan_n_vc(0.15, 0.1, 1)
        assert cert.violation_bound <= 0.15
        ghost = sample_marginal(spec, 10_000, 101)
        assert violation_rate(np.asarray(cert.theta_hat), prog, ghost) <= 0.15

    def test_infeasible_program_certificate(self):
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-10.0], [10.0]), margin=0.5,
                                   indicator_vc_dim=1)
        cert = certify(prog, ar1_process(0.5, 1.0), 0.2, 0.1, "vc", seed=4)
        assert not cert.feasible
        assert cert.violation_bound is None

    def test_parameter_errors(self):
        prog = one_dim_threshold_program()
        spec = ar1_process(0.5, 1.0)
        with pytest.raises(ValueError):
            certify(prog, spec, 1.5, 0.1, "margin", seed=1)
        with pytest.raises(ValueError):
            certify(prog, spec, 0.1, 0.1, "other", seed=1)
        bare = ScenarioProgramSpec(objective=[1.0], pieces=prog.pieces,
                                   theta_set=Box([-5.0], [5.0]), margin=1.0)
        with pytest.raises(ValueError, match="VC dimension"):
            certify(bare, spec, 0.1, 0.1, "vc", seed=1)


class TestSerialization:
    def test_program_json_roundtrip(self):
        prog = two_dim_program()
        back = ScenarioProgramSpec.from_json(prog.to_json())
        assert np.array_equal(back.objective, prog.objective)
        assert back.margin == prog.margin
        xs = np.array([[0.5], [-1.0]])
        theta = np.array([0.7, -0.3])
        assert np.allclose(back.constraint_values(xs, theta),
                           prog.constraint_values(xs, theta))

    def test_program_unknown_fields_rejected(self):
        d = one_dim_threshold_program().to_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError):
            ScenarioProgramSpec.from_dict(d)

    def test_certificate_json(self):
        prog = one_dim_threshold_program(margin=1.0)
        cert = certify(prog, ar1_process(0.8, 0.6), 0.3, 0.2, "margin", seed=2)
        payload = json.loads(cert.to_json())
        assert payload["feasible"] is True
        assert payload["method"] == "margin"
        assert payload["n_used"] == cert.n_used


class TestProgramNumbersRejectedByName:
    """Each malformed program number fails when the program is built (or,
    for tau, when it is certified) with a ValueError naming it."""

    @staticmethod
    def program(**changes):
        d = one_dim_threshold_program(theta_lo=-10.0, theta_hi=10.0).to_dict()
        for path, value in changes.items():
            target = d
            keys = path.split(".")
            for key in keys[:-1]:
                target = target[int(key) if key.isdigit() else key]
            target[keys[-1]] = value
        return ScenarioProgramSpec.from_dict(d)

    @pytest.mark.parametrize("path, value, name", [
        ("objective", [math.nan], "objective"),
        ("objective", [math.inf], "objective"),
        ("objective", [1e308], "objective"),
        ("pieces.0.psi.matrix", [[math.nan]], "matrix"),
        ("pieces.0.eta.offset", [math.nan], "offset"),
        ("pieces.0.eta.matrix", [[1e308]], "matrix"),
        ("theta_set", {"kind": "box", "lo": [-1e308], "hi": [10.0]}, "lo"),
        ("theta_set", {"kind": "box", "lo": [-10.0], "hi": [math.inf]}, "hi"),
        ("x_domain", {"kind": "ball", "radius": 3.0}, "x_domain"),
        ("indicator_vc_dim", math.nan, "indicator_vc_dim"),
        ("indicator_vc_dim", 0, "indicator_vc_dim"),
    ])
    def test_spec(self, path, value, name):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            self.program(**{path: value})

    @pytest.mark.parametrize("path, value, name", [
        # psi = 0: the constraint does not depend on theta
        ("pieces.0.psi.offset", [0.0], "offset"),
        # psi depends on x, and there is no x domain to bound tau over
        ("pieces.0.psi.matrix", [[-1.0]], "matrix"),
    ])
    def test_tau(self, path, value, name):
        prog = self.program(**{path: value})
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            certify(prog, ar1_process(0.8, 0.6), 0.3, 0.1, "margin", seed=1)
