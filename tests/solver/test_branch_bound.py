"""Tests for the branch & bound MILP solver, differential vs scipy.milp."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.solver.branch_bound import solve_milp
from repro.solver.simplex import LinearProgram, LpStatus


def test_simple_knapsack():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binary
    lp = LinearProgram(
        c=np.array([-5.0, -4.0, -3.0]),
        a_ub=np.array([[2.0, 3.0, 1.0]]),
        b_ub=np.array([5.0]),
        ub=np.ones(3),
    )
    res = solve_milp(lp, np.array([True, True, True]))
    assert res.is_optimal
    # a=1, b=1 uses the full budget of 5 for value 9.
    assert res.objective == pytest.approx(-9.0)
    assert res.x == pytest.approx([1.0, 1.0, 0.0])
    ref = milp(
        c=lp.c,
        constraints=[LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)],
        integrality=np.ones(3),
        bounds=Bounds(np.zeros(3), np.ones(3)),
    )
    assert res.objective == pytest.approx(ref.fun)


def test_integer_rounding_not_truncation():
    # LP optimum fractional; integer optimum requires branching both ways.
    # max x + y s.t. 2x + 2y <= 5 integer -> best 2 (e.g. x=2,y=0)
    lp = LinearProgram(
        c=np.array([-1.0, -1.0]),
        a_ub=np.array([[2.0, 2.0]]),
        b_ub=np.array([5.0]),
    )
    res = solve_milp(lp, np.array([True, True]))
    assert res.is_optimal
    assert res.objective == pytest.approx(-2.0)
    assert np.allclose(res.x, np.round(res.x))


def test_mixed_integer_continuous():
    # min -x - 10y, y integer, x continuous; x <= 2.5, x + y <= 4
    lp = LinearProgram(
        c=np.array([-1.0, -10.0]),
        a_ub=np.array([[1.0, 0.0], [1.0, 1.0]]),
        b_ub=np.array([2.5, 4.0]),
    )
    res = solve_milp(lp, np.array([False, True]))
    assert res.is_optimal
    # y=4, x=0 gives -40; y=3, x=1 gives -31... so y=4.
    assert res.x[1] == pytest.approx(4.0)
    assert res.objective == pytest.approx(-40.0)


def test_infeasible_milp():
    # 2x == 3 with x integer has no solution.
    lp = LinearProgram(
        c=np.array([1.0]),
        a_eq=np.array([[2.0]]),
        b_eq=np.array([3.0]),
        ub=np.array([10.0]),
    )
    res = solve_milp(lp, np.array([True]))
    assert res.status is LpStatus.INFEASIBLE


def test_gap_reported():
    lp = LinearProgram(
        c=np.array([-3.0, -2.0]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([4.0]),
        ub=np.array([3.0, 3.0]),
    )
    res = solve_milp(lp, np.array([True, True]))
    assert res.is_optimal
    assert res.gap <= 1e-6


@st.composite
def random_milp(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    x_feas = rng.integers(0, 4, size=n).astype(float)
    b = a @ x_feas + rng.integers(0, 3, size=m)
    c = rng.integers(-5, 6, size=n).astype(float)
    ub = np.full(n, 6.0)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True
    return LinearProgram(c=c, a_ub=a, b_ub=b.astype(float), ub=ub), mask


#: HiGHS status for "Solve error": it reports this on some feasible
#: instances, with and without presolve.
_HIGHS_SOLVE_ERROR = 4


def _enumerated_optimum(lp, mask):
    """Optimum by brute force: every integer assignment of the masked
    variables, with the continuous rest solved by ``linprog``.
    ``None`` when no assignment is feasible."""
    best = None
    ranges = [range(int(lp.lb[j]), int(lp.ub[j]) + 1)
              for j in np.flatnonzero(mask)]
    free = ~mask
    for values in itertools.product(*ranges):
        x_int = np.asarray(values, dtype=float)
        rhs = lp.b_ub - lp.a_ub[:, mask] @ x_int
        value = float(lp.c[mask] @ x_int)
        if free.any():
            rest = linprog(
                lp.c[free], A_ub=lp.a_ub[:, free], b_ub=rhs,
                bounds=list(zip(lp.lb[free], lp.ub[free])),
            )
            if rest.status != 0:
                continue
            value += rest.fun
        elif np.any(rhs < -1e-9):
            continue
        if best is None or value < best:
            best = value
    return best


def _reference_optimum(lp, mask):
    """scipy's MILP optimum, or ``None`` when the instance is infeasible.

    HiGHS accepts integer values within its own integrality tolerance
    (x = 2.0000005 for an integer x), which moves the objective by more
    than 1e-6; the objective is therefore taken at the integer-rounded
    point when that point is feasible within 1e-6. On a HiGHS solve
    error the optimum comes from enumeration instead.
    """
    ref = milp(
        c=lp.c,
        constraints=[LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)],
        integrality=mask.astype(float),
        bounds=Bounds(lp.lb, lp.ub),
    )
    if ref.status == _HIGHS_SOLVE_ERROR:
        return _enumerated_optimum(lp, mask)
    if not ref.success:
        return None
    x = ref.x.copy()
    x[mask] = np.round(x[mask])
    if (
        np.all(lp.a_ub @ x <= lp.b_ub + 1e-6)
        and np.all(x >= lp.lb - 1e-6)
        and np.all(x <= lp.ub + 1e-6)
    ):
        return float(lp.c @ x)
    return ref.fun


def _pinned(a, b, c, mask):
    return (
        LinearProgram(c=np.array(c, float), a_ub=np.array(a, float),
                      b_ub=np.array(b, float), ub=np.full(len(c), 6.0)),
        np.array(mask),
    )


@settings(max_examples=40, deadline=None)
@given(random_milp())
# HiGHS solve errors on feasible instances: the first solves with
# presolve off, the second fails either way.
@example(_pinned([[2, -3], [3, 1], [2, 1], [2, -2]], [-5, 7, 7, -3],
                 [-2, 3], [False, True]))
@example(_pinned([[-2, -2, 1], [-2, 1, 3], [0, 0, -2]], [3, 4, 0],
                 [4, 2, -3], [True, False, False]))
def test_matches_scipy_milp(problem):
    lp, mask = problem
    ours = solve_milp(lp, mask)
    ref = _reference_optimum(lp, mask)
    assert ours.is_optimal == (ref is not None)
    if ref is not None:
        assert ours.objective == pytest.approx(ref, rel=1e-6, abs=1e-6)
        assert np.all(lp.a_ub @ ours.x <= lp.b_ub + 1e-6)
        frac = np.abs(ours.x[mask] - np.round(ours.x[mask]))
        assert np.all(frac <= 1e-6)


def test_node_cap_returns_best_incumbent_interrupted():
    """Exhausting the node budget mid-search must return the best
    incumbent found so far flagged ``interrupted``, never raise — the
    anytime ladder depends on budgeted solves degrading gracefully."""
    # Near-degenerate knapsack (value ≈ weight): weak LP bounds force a
    # deep tree, so node caps genuinely cut the search short.
    rng = np.random.default_rng(7)
    n = 16
    w = rng.integers(10, 30, size=n).astype(float)
    v = w + rng.integers(0, 3, size=n).astype(float)
    lp = LinearProgram(
        c=-v, a_ub=w[None, :], b_ub=np.array([w.sum() / 2]), ub=np.ones(n)
    )
    mask = np.ones(n, dtype=bool)

    full = solve_milp(lp, mask)
    assert full.is_optimal and not full.interrupted
    assert full.nodes_explored > 2

    # Sweep caps below the full tree: every capped run must come back
    # without raising, and at least one holds an interrupted incumbent.
    capped = None
    for cap in range(1, full.nodes_explored):
        res = solve_milp(lp, mask, max_nodes=cap)
        assert not res.is_optimal or res.x is not None
        if res.x is not None and res.interrupted:
            capped = res
            break
    assert capped is not None, "no cap produced an interrupted incumbent"
    assert capped.status is LpStatus.ITERATION_LIMIT
    # The incumbent is feasible and integral, merely not proven optimal.
    assert np.all(lp.a_ub @ capped.x <= lp.b_ub + 1e-6)
    assert np.all(np.abs(capped.x[mask] - np.round(capped.x[mask])) <= 1e-6)
    assert capped.objective >= full.objective - 1e-9


def test_deadline_returns_incumbent_interrupted():
    """An already-expired deadline still yields the root incumbent when
    one exists (the first dive finds it before the clock check trips)."""
    lp = LinearProgram(
        c=np.array([-5.0, -4.0, -3.0]),
        a_ub=np.array([[2.0, 3.0, 1.0]]),
        b_ub=np.array([5.0]),
        ub=np.ones(3),
    )
    mask = np.array([True, True, True])
    res = solve_milp(lp, mask, deadline_s=0.0)
    # Depending on where the clock trips, either we finished the tiny
    # tree (optimal) or we hold an interrupted incumbent — never a
    # crash, never a None x with a feasible problem and zero progress
    # flagged optimal.
    if res.x is not None:
        assert np.all(lp.a_ub @ res.x <= lp.b_ub + 1e-6)
        if res.interrupted:
            assert res.status is LpStatus.ITERATION_LIMIT
    else:
        assert res.interrupted
