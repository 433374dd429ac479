"""The stage-vectorised ``solve_dp`` against the scalar reference DP.

``tests/core/dp_reference.py`` keeps the per-label Python DP the
vectorised sweep replaced. Both must agree exactly — the same
allocation (tie-breaks included), bit-equal objectives, the same
``final_labels`` count and the same :class:`InfeasibleError` outcome —
because the deployed allocation, and with it every simulation golden,
follows from which tied optimum the DP reports.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.allocation import _DP_SCALE_LIMIT, AllocationProblem, solve_dp
from repro.errors import DeadlineExceeded, InfeasibleError
from repro.runtimes.models import get_model
from repro.runtimes.registry import build_polymorph_set
from repro.runtimes.staircase import polymorph_lengths_for_count
from tests.core.dp_reference import solve_dp as solve_dp_reference

#: The benchmark's operating point for the co-located generative
#: workload: bert-large, 8 runtimes, 64 GPUs, ~27 requests per 450 ms
#: SLO window — far below one instance's capacity, so most labels tie.
_GEN_COLOCATED_DEMAND = (7.32, 12.38, 4.88, 1.63, 0.18, 0.18, 0.09, 0.09)


def _bert_large_profiles(num_runtimes=8):
    model = get_model("bert-large")
    return list(build_polymorph_set(
        model,
        max_lengths=polymorph_lengths_for_count(model.max_length, num_runtimes),
    ))


def _outcome(solver, problem, relax, warm):
    try:
        result = solver(problem, relax=relax, warm_start=warm)
    except InfeasibleError:
        return None
    return result


def assert_same_as_reference(problem, relax=False, warm=None):
    new = _outcome(solve_dp, problem, relax, warm)
    ref = _outcome(solve_dp_reference, problem, relax, warm)
    assert (new is None) == (ref is None), (new, ref)
    if new is None:
        return
    assert np.array_equal(new.allocation, ref.allocation), (
        new.allocation, ref.allocation
    )
    assert new.allocation.dtype == ref.allocation.dtype
    assert new.objective == ref.objective
    assert new.stats == ref.stats


@st.composite
def dp_cases(draw, max_runtimes=6, max_gpus=40):
    num_runtimes = draw(st.integers(min_value=1, max_value=max_runtimes))
    num_gpus = draw(st.integers(min_value=1, max_value=max_gpus))
    capacity = np.array(draw(st.lists(
        st.integers(min_value=1, max_value=160),
        min_size=num_runtimes, max_size=num_runtimes,
    )))
    fractions = np.array(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=num_runtimes, max_size=num_runtimes,
    )))
    regime = draw(st.sampled_from(["light", "heavy", "integral"]))
    if regime == "light":
        # Demand far below one instance's capacity: max(B, 1) clamps the
        # batch, so many (cost, carry) labels tie exactly.
        demand = fractions * capacity / 4.0
    elif regime == "heavy":
        demand = fractions * capacity * 3.0 * num_gpus / num_runtimes
    else:
        demand = np.round(fractions * 12.0)
    service = np.sort(np.array(draw(st.lists(
        st.floats(min_value=0.5, max_value=30.0),
        min_size=num_runtimes, max_size=num_runtimes,
    ))))
    problem = AllocationProblem(
        num_gpus=num_gpus,
        demand=demand,
        capacity=capacity,
        service_ms=service,
        overhead_ms=draw(st.sampled_from([0.0, 0.8, 1.5])),
    )
    relax = draw(st.booleans())
    warm_kind = draw(st.sampled_from(["none", "random", "previous"]))
    warm = None
    if warm_kind == "random":
        # Any split of the GPUs: feasible or not, the solver validates it.
        cuts = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=num_gpus),
            min_size=num_runtimes - 1, max_size=num_runtimes - 1,
        )))
        warm = np.diff([0, *cuts, num_gpus])
    elif warm_kind == "previous":
        # Last period's optimum for a drifted demand, as the scheduler
        # warm-starts: often feasible, sometimes not.
        drift = draw(st.floats(min_value=0.5, max_value=1.5))
        previous = AllocationProblem(
            num_gpus=num_gpus, demand=demand * drift, capacity=capacity,
            service_ms=service, overhead_ms=problem.overhead_ms,
        )
        try:
            warm = solve_dp_reference(previous, relax=True).allocation
        except InfeasibleError:
            warm = None
    return problem, relax, warm


@settings(max_examples=300, deadline=None)
@given(dp_cases())
# The warm bound prunes the first label's expansions into one bucket,
# so a later label inserts that bucket first: buckets are ordered by
# first insertion, which here differs from ascending GPUs used.
@example((
    AllocationProblem(
        num_gpus=3, demand=[0.25, 0.25, 0.25, 0.5, 0.0],
        capacity=[1, 1, 1, 2, 1], service_ms=[1.0, 1.0, 1.0, 2.0, 2.0],
        overhead_ms=0.0,
    ),
    False,
    np.array([0, 0, 0, 0, 3]),
))
def test_vectorised_dp_matches_scalar_reference(case):
    problem, relax, warm = case
    assert_same_as_reference(problem, relax=relax, warm=warm)


@pytest.mark.parametrize("warm", [None, "even", "previous"])
def test_gen_colocated_shape_matches_reference(warm):
    profiles = _bert_large_profiles()
    demand = np.array(_GEN_COLOCATED_DEMAND)
    problem = AllocationProblem.from_profiles(64, demand, profiles)
    if warm == "even":
        warm = np.full(8, 8)
    elif warm == "previous":
        drifted = AllocationProblem.from_profiles(64, demand * 1.1, profiles)
        warm = solve_dp_reference(drifted).allocation
    assert_same_as_reference(problem, warm=warm)


# -- deadline contract at the DP's scale limit ----------------------------------

def _scale_limit_problem():
    profiles = _bert_large_profiles()
    demand = np.array(_GEN_COLOCATED_DEMAND) * 4.0
    return AllocationProblem.from_profiles(_DP_SCALE_LIMIT, demand, profiles)


def test_tiny_budget_returns_warm_incumbent_at_scale_limit():
    problem = _scale_limit_problem()
    warm = np.full(8, problem.num_gpus // 8)
    assert problem.is_feasible(warm)
    result = solve_dp(problem, warm_start=warm, budget_s=1e-4)
    assert result.stats["interrupted"] is True
    assert result.stats["warm_started"] is True
    assert np.array_equal(result.allocation, warm)
    assert result.objective == problem.evaluate(warm)


def test_tiny_budget_without_incumbent_raises_at_scale_limit():
    problem = _scale_limit_problem()
    with pytest.raises(DeadlineExceeded):
        solve_dp(problem, budget_s=1e-4)
