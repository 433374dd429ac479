"""Eqs. 1–7 allocation problem: semantics and solver cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    AllocationProblem,
    solve_allocation,
    solve_bruteforce,
    solve_dp,
    solve_local_search,
    solve_milp_encoding,
)
from repro.errors import ConfigurationError, InfeasibleError


def make_problem(G=4, demand=(10, 5, 2), capacity=(20, 12, 8),
                 service=(1.0, 2.0, 3.0)):
    return AllocationProblem(
        num_gpus=G,
        demand=np.asarray(demand, dtype=float),
        capacity=np.asarray(capacity),
        service_ms=np.asarray(service, dtype=float),
    )


# -- problem semantics -------------------------------------------------------

def test_validation():
    with pytest.raises(ConfigurationError):
        make_problem(G=0)
    with pytest.raises(ConfigurationError):
        make_problem(demand=(-1, 5, 2))
    with pytest.raises(ConfigurationError):
        make_problem(capacity=(0, 12, 8))
    with pytest.raises(ConfigurationError):
        make_problem(service=(0.0, 2.0, 3.0))
    with pytest.raises(ConfigurationError):
        AllocationProblem(num_gpus=2, demand=np.array([1.0]),
                          capacity=np.array([1, 2]),
                          service_ms=np.array([1.0]))


def test_evaluate_cascade_eq4_eq5():
    # One instance of runtime 0 (cap 20) faces demand 30: serves 20 and
    # cascades 10. Runtime 1 then sees 15, serves its capacity of 12 and
    # cascades 3, which the last runtime absorbs unconditionally.
    p = make_problem(G=3, demand=(30, 5, 0))
    cost = p.evaluate(np.array([1, 1, 1]))
    expected = (
        p.mean_latency(0, 20.0) * 20
        + p.mean_latency(1, 12.0) * 12
        + p.mean_latency(2, 3.0) * 3
    )
    assert cost == pytest.approx(expected)


def test_evaluate_last_runtime_takes_everything():
    # Last runtime takes the full remainder even beyond its capacity.
    p = make_problem(G=2, demand=(0, 0, 100), capacity=(20, 12, 8))
    cost = p.evaluate(np.array([0, 0, 2]))
    assert cost == pytest.approx(p.mean_latency(2, 50.0) * 100)


def test_evaluate_stranded_demand_is_infinite():
    p = make_problem(G=1, demand=(0, 0, 5))
    assert p.evaluate(np.array([1, 0, 0])) == float("inf")


def test_evaluate_zero_allocation_zero_demand_ok():
    p = make_problem(G=1, demand=(0, 0, 0))
    assert p.evaluate(np.array([0, 0, 1])) == 0.0


def test_evaluate_arity_checked():
    p = make_problem()
    with pytest.raises(ConfigurationError):
        p.evaluate(np.array([1, 1]))
    with pytest.raises(ConfigurationError):
        p.evaluate(np.array([-1, 2, 3]))


def test_lower_bounds_eq3_eq7():
    p = make_problem(G=10, demand=(45, 5, 0), capacity=(20, 12, 8))
    lb = p.lower_bounds()
    assert lb.tolist() == [2, 0, 1]  # floor(45/20)=2, floor(5/12)=0, Eq.7


def test_lower_bounds_infeasible_raises_and_relaxes():
    p = make_problem(G=2, demand=(100, 50, 10), capacity=(10, 10, 10))
    with pytest.raises(InfeasibleError):
        p.lower_bounds()
    lb = p.lower_bounds(relax=True)
    assert lb.sum() <= 2
    assert lb[-1] >= 1  # Eq. 7 survives relaxation


def test_relaxation_impossible_when_even_one_gpu_short():
    p = make_problem(G=1, demand=(100, 50, 10), capacity=(10, 10, 10))
    lb = p.lower_bounds(relax=True)
    assert lb.tolist() == [0, 0, 1]


def test_is_feasible():
    p = make_problem(G=4, demand=(30, 5, 2), capacity=(20, 12, 8))
    assert p.is_feasible(np.array([1, 2, 1]))
    assert not p.is_feasible(np.array([1, 1, 1]))  # wrong GPU total
    assert not p.is_feasible(np.array([0, 3, 1]))  # violates Eq. 3
    assert not p.is_feasible(np.array([2, 2, 0]))  # violates Eq. 7


def test_is_feasible_false_when_strict_bounds_exceed_gpus():
    # Strict Eq. 3 bounds need 3 + 3 GPUs of the 2 available: no
    # allocation is feasible, which is an answer, not an error.
    p = AllocationProblem(num_gpus=2, demand=[30, 30], capacity=[10, 10],
                          service_ms=[1, 2])
    with pytest.raises(InfeasibleError):
        p.lower_bounds()
    assert not p.is_feasible([1, 1])
    assert p.is_feasible([0, 2], relaxed=True)


# -- solver cross-validation ---------------------------------------------------

def test_dp_matches_bruteforce_basic():
    p = make_problem(G=6, demand=(40, 10, 4))
    dp = solve_dp(p)
    brute = solve_bruteforce(p)
    assert dp.objective == pytest.approx(brute.objective)
    assert p.is_feasible(dp.allocation)


def test_dp_prefers_short_runtimes_for_short_heavy_demand():
    # Nearly all demand in bin 0 and the short runtime is much faster:
    # the DP must give bin 0 the GPUs rather than pooling at the top.
    p = AllocationProblem(
        num_gpus=5,
        demand=np.array([50.0, 0.0, 0.0]),
        capacity=np.array([50, 30, 10]),
        service_ms=np.array([1.0, 3.0, 9.0]),
    )
    res = solve_dp(p)
    assert res.allocation[0] >= 2
    assert res.allocation[-1] >= 1


def test_local_search_matches_dp_on_small_instances():
    p = make_problem(G=8, demand=(60, 25, 10), capacity=(25, 15, 10),
                     service=(1.0, 2.5, 4.0))
    dp = solve_dp(p)
    local = solve_local_search(p)
    assert local.objective <= dp.objective * 1.02 + 1e-9
    assert p.is_feasible(local.allocation)


def test_milp_encoding_matches_dp_on_tiny_instance():
    p = make_problem(G=3, demand=(15, 6, 2), capacity=(20, 12, 8))
    dp = solve_dp(p)
    milp = solve_milp_encoding(p, tangents_per_choice=10)
    assert milp.objective == pytest.approx(dp.objective, rel=0.02)
    # The MILP's internal objective is a valid lower bound.
    assert milp.stats["lower_bound"] <= dp.objective + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.floats(min_value=0, max_value=30), min_size=3, max_size=3),
)
def test_dp_equals_bruteforce_randomised(gpus, demand):
    p = AllocationProblem(
        num_gpus=gpus,
        demand=np.asarray(demand),
        capacity=np.array([18, 11, 7]),
        service_ms=np.array([1.0, 2.0, 3.5]),
    )
    try:
        dp = solve_dp(p)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_bruteforce(p)
        return
    brute = solve_bruteforce(p)
    assert dp.objective == pytest.approx(brute.objective, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=4, max_value=20),
       st.integers(min_value=0, max_value=10_000))
def test_local_search_feasible_and_near_dp(gpus, seed):
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0, 40, size=4)
    p = AllocationProblem(
        num_gpus=gpus,
        demand=demand,
        capacity=np.array([30, 20, 14, 9]),
        service_ms=np.array([1.0, 1.8, 2.7, 4.1]),
    )
    try:
        local = solve_local_search(p)
    except InfeasibleError:
        return
    assert p.is_feasible(local.allocation)
    dp = solve_dp(p)
    assert local.objective <= dp.objective * 1.05 + 1e-6


# -- facade ---------------------------------------------------------------

def test_solve_allocation_auto_dispatch():
    small = make_problem(G=4)
    assert solve_allocation(small).solver == "dp"
    big = AllocationProblem(
        num_gpus=200,
        demand=np.array([100.0, 50.0, 25.0]),
        capacity=np.array([20, 12, 8]),
        service_ms=np.array([1.0, 2.0, 3.0]),
    )
    assert solve_allocation(big).solver == "local"
    with pytest.raises(ConfigurationError):
        solve_allocation(small, method="quantum")


def test_solver_reports_time_and_stats():
    res = solve_allocation(make_problem(), method="dp")
    assert res.solve_time_s >= 0
    assert res.stats["final_labels"] >= 1


def test_from_profiles_roundtrip():
    from repro.runtimes.models import bert_base
    from repro.runtimes.registry import build_polymorph_set

    registry = build_polymorph_set(bert_base())
    demand = np.linspace(10, 3, len(registry))
    p = AllocationProblem.from_profiles(10, demand, list(registry))
    assert p.num_runtimes == len(registry)
    res = solve_allocation(p)
    assert p.is_feasible(res.allocation)
    with pytest.raises(ConfigurationError):
        AllocationProblem.from_profiles(10, demand[:3], list(registry))
