import numpy as np
import pytest

from kcdr.errors import ConstraintInfeasibleError, OracleBudgetError
from kcdr.geometry import point_set
from kcdr.solvers import (
    AssignmentConstraint,
    anchored_feasible_radius,
    exact_constrained,
    exact_discrete_kcenter,
    feasible_assignment,
    feasible_assignment_bruteforce,
)

FOUR = point_set([[0.0], [1.0], [10.0], [11.0]])
CAP2 = AssignmentConstraint(kind="capacitated", capacity=2)


def two_site_fair():
    # 2 blue + 2 red at each of two locations 10 apart
    coords = [[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]]
    ps = point_set(coords, multiplicity=[2, 2, 2, 2], color=[1, 2, 1, 2])
    cons = AssignmentConstraint(
        kind="fair", lower_frac=0.5, upper_frac=0.5, num_colors=2
    )
    return ps, cons


class TestConstraintValidation:
    def test_capacitated_needs_capacity(self):
        with pytest.raises(ValueError):
            AssignmentConstraint(kind="capacitated")

    def test_fair_needs_ordered_fracs(self):
        with pytest.raises(ValueError):
            AssignmentConstraint(
                kind="fair", lower_frac=0.8, upper_frac=0.2, num_colors=2
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AssignmentConstraint(kind="balanced")

    def test_color_bounds_arithmetic(self):
        cons = AssignmentConstraint(
            kind="fair", lower_frac=0.5, upper_frac=0.5, num_colors=2
        )
        assert cons.color_bounds(4) == (2, 2)
        assert cons.color_bounds(3) == (2, 1)  # empty band: infeasible to hold


class TestFeasibleAssignment:
    def test_worked_capacitated_split(self):
        got = feasible_assignment(FOUR, [0, 2], 1.0, CAP2)
        assert got is not None
        # capacity forces the left pair onto slot 0 and the right onto slot 1
        assert got[0] == {0: 1} and got[1] == {0: 1}
        assert got[2] == {1: 1} and got[3] == {1: 1}

    def test_capacity_one_infeasible(self):
        cons = AssignmentConstraint(kind="capacitated", capacity=1)
        assert feasible_assignment(FOUR, [0, 2], 1.0, cons) is None

    def test_fair_two_site_radius_zero(self):
        ps, cons = two_site_fair()
        got = feasible_assignment(ps, [0, 2], 0.0, cons)
        assert got is not None

    def test_fair_needs_colors(self):
        cons = AssignmentConstraint(
            kind="fair", lower_frac=0.0, upper_frac=1.0, num_colors=2
        )
        with pytest.raises(ValueError, match="color"):
            feasible_assignment(FOUR, [0], 100.0, cons)

    def test_units_may_split_across_slots(self):
        # one point of weight 2 feeding two capacity-1 slots at distance 0
        ps = point_set([[5.0], [5.0]], multiplicity=[2, 1])
        cons = AssignmentConstraint(kind="capacitated", capacity=2)
        got = feasible_assignment(ps, [0, 1], 0.0, cons)
        assert got is not None
        assert sum(got[0].values()) == 2

    def test_monotone_in_radius(self):
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            ps = point_set(rng.normal(size=(6, 2)) * 3.0)
            cons = AssignmentConstraint(kind="capacitated", capacity=3)
            r = float(rng.uniform(0.2, 3.0))
            if feasible_assignment(ps, [0, 1], r, cons) is not None:
                assert feasible_assignment(ps, [0, 1], r + 1.0, cons) is not None

    @pytest.mark.parametrize(
        "mult, capacity",
        [
            ([2_000_000_000, 2_000_000_000], 2_000_000_000),  # total supply
            ([3_000_000_000, 1], 3_000_000_000),  # one point's supply
            ([1, 1], 3_000_000_000),  # the load cap alone
        ],
    )
    def test_int32_edge_is_a_domain_error(self, mult, capacity):
        # maximum_flow wraps capacities above int32, so these must not reach it
        ps = point_set([[0.0], [1.0]], multiplicity=mult)
        cons = AssignmentConstraint(kind="capacitated", capacity=capacity)
        with pytest.raises(ValueError, match="int32"):
            feasible_assignment(ps, [0, 1], 1.0, cons)

    def test_agrees_with_enumeration(self):
        for seed in range(30):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 3))
            ps = point_set(
                rng.normal(size=(n, 2)) * 3.0, color=rng.integers(1, 3, size=n)
            )
            radius = float(rng.uniform(0.5, 5.0))
            anchors = list(range(k))
            for cons in (
                AssignmentConstraint(kind="capacitated", capacity=(n + k - 1) // k),
                AssignmentConstraint(
                    kind="fair", lower_frac=0.25, upper_frac=1.0, num_colors=2
                ),
            ):
                flow = feasible_assignment(ps, anchors, radius, cons)
                enum = feasible_assignment_bruteforce(ps, anchors, radius, cons)
                assert (flow is None) == (enum is None)


class TestBruteforceHook:
    def test_custom_predicate(self):
        ps = point_set([[0.0], [1.0]])
        got = feasible_assignment_bruteforce(
            ps, [0, 1], 10.0, lambda assign: assign == (1, 0)
        )
        assert got == [{1: 1}, {0: 1}]

    def test_size_guard(self):
        ps = point_set(np.zeros((13, 1)))
        with pytest.raises(OracleBudgetError):
            feasible_assignment_bruteforce(ps, [0], 1.0, lambda a: True)


class TestAnchoredFeasibleRadius:
    def test_worked_case(self):
        r, assignment = anchored_feasible_radius(FOUR, [0, 2], CAP2)
        assert r == 1.0
        assert len(assignment) == 4

    def test_infeasible_raises(self):
        cons = AssignmentConstraint(kind="capacitated", capacity=1)
        with pytest.raises(ConstraintInfeasibleError, match="constraint infeasible"):
            anchored_feasible_radius(FOUR, [0, 2], cons)


class TestExactConstrained:
    def test_worked_capacitated(self):
        sol = exact_constrained(FOUR, 2, CAP2)
        assert sol.value == 1.0
        assert sorted(sol.anchor_indices) == [0, 2]

    def test_vacuous_constraint_is_vanilla(self):
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            n = int(rng.integers(3, 9))
            ps = point_set(rng.normal(size=(n, 2)) * 3.0)
            cons = AssignmentConstraint(kind="capacitated", capacity=n)
            assert exact_constrained(ps, 2, cons).value == exact_discrete_kcenter(ps, 2).value

    def test_constraints_only_restrict(self):
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            n = int(rng.integers(4, 9))
            ps = point_set(rng.normal(size=(n, 2)) * 3.0)
            cons = AssignmentConstraint(kind="capacitated", capacity=(n + 1) // 2)
            assert exact_constrained(ps, 2, cons).value >= exact_discrete_kcenter(ps, 2).value - 1e-12

    def test_fair_two_site_zero(self):
        ps, cons = two_site_fair()
        assert exact_constrained(ps, 2, cons).value == 0.0

    def test_infeasible_capacity(self):
        cons = AssignmentConstraint(kind="capacitated", capacity=1)
        with pytest.raises(ConstraintInfeasibleError, match="constraint infeasible"):
            exact_constrained(FOUR, 2, cons)

    def test_continuous_1d_midpoint(self):
        ps = point_set([[0.0], [1.0]])
        cons = AssignmentConstraint(kind="capacitated", capacity=2)
        sol = exact_constrained(ps, 1, cons, continuous_1d=True)
        assert sol.value == 0.5
        assert sol.anchor_indices == (None,)  # synthesized midpoint anchor
        assert sol.anchor_positions[0, 0] == 0.5

    def test_continuous_1d_movement_bound(self):
        # shifting every point by at most delta moves the continuous optimum
        # by at most delta; the anchored variant does not satisfy this
        cons = AssignmentConstraint(kind="capacitated", capacity=4)
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            n = int(rng.integers(3, 7))
            xs = rng.normal(size=(n, 1)) * 2.0
            delta = 0.05
            shift = rng.uniform(-delta, delta, size=(n, 1))
            a = exact_constrained(point_set(xs), 2, cons, continuous_1d=True).value
            b = exact_constrained(point_set(xs + shift), 2, cons, continuous_1d=True).value
            assert abs(a - b) <= delta + 1e-9

    def test_continuous_1d_rejects_higher_dim(self):
        ps = point_set([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="dim"):
            exact_constrained(ps, 1, CAP2, continuous_1d=True)
