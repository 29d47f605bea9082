import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from kcdr import solvers
from kcdr.errors import ConstraintInfeasibleError, OracleBudgetError
from kcdr.geometry import pairwise_distances, point_set
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


# ---------------------------------------------------------------------------
# Reference implementations: the per-multiset r_lb loop of exact_constrained
# and the dense-matrix build of _route.  The batched pre-pass and the sparse
# flow network must give exactly their answers.


def _ref_exact_constrained(ps, k, constraint, continuous_1d=False):
    idx = ps.distinct_indices()
    locs = ps.coords[idx]
    if continuous_1d:
        vals = locs[:, 0]
        mids = (vals[:, None] + vals[None, :]) / 2.0
        pos_vals = np.unique(np.concatenate([vals, mids.ravel()]))
        positions = pos_vals[:, None]
        loc_by_val = {float(v): int(i) for v, i in zip(vals, idx)}
        anchor_src = [loc_by_val.get(float(v)) for v in pos_vals]
    else:
        positions = locs
        anchor_src = [int(i) for i in idx]
    m = positions.shape[0]
    dall = pairwise_distances(ps.coords, positions)
    radii = np.unique(dall)
    combos = []
    for combo in itertools.combinations_with_replacement(range(m), k):
        r_lb = float(dall[:, list(combo)].min(axis=1).max())
        combos.append((r_lb, combo))
    combos.sort(key=lambda t: t[0])
    best, best_combo, best_units = math.inf, None, None
    for r_lb, combo in combos:
        if r_lb >= best:
            break
        found = solvers._min_radius_fixed_anchors(
            ps, positions[list(combo)], constraint, radii, best
        )
        if found is None:
            continue
        r, units = found
        if r < best:
            best, best_combo, best_units = r, combo, units
    if best_combo is None:
        return None
    return (
        best,
        tuple(anchor_src[c] for c in best_combo),
        solvers._partition_from_units(best_units),
    )


def _ref_capacities(mask, supply, lower, upper):
    np_, nc = mask.shape
    total = int(supply.sum())
    SS, TT, S, T = 0, 1, 2, 3
    pts, ctr = 4, 4 + np_
    cap = np.zeros((4 + np_ + nc, 4 + np_ + nc), dtype=np.int32)
    for i in range(np_):
        cap[SS, pts + i] = supply[i]
        for j in range(nc):
            if mask[i, j]:
                cap[pts + i, ctr + j] = supply[i]
    for j in range(nc):
        cap[ctr + j, T] = upper - lower
        if lower:
            cap[ctr + j, TT] = lower
    if lower:
        cap[SS, T] = nc * lower
    cap[T, S] = total
    cap[S, TT] = total
    return cap


def _ref_route(mask, supply, lower, upper):
    np_, nc = mask.shape
    total = int(supply.sum())
    if total == 0:
        return np.zeros((np_, nc), dtype=np.int64)
    if upper < lower or total > nc * upper or total < nc * lower:
        return None
    pts, ctr = 4, 4 + np_
    res = maximum_flow(csr_matrix(_ref_capacities(mask, supply, lower, upper)), 0, 1)
    if res.flow_value != total + nc * lower:
        return None
    units = res.flow.toarray()[pts : pts + np_, ctr : ctr + nc]
    return np.maximum(units, 0).astype(np.int64)


def _tie_heavy_constrained(rng):
    """Integer grid points with repeats, capacitated or fair, k in 1..3."""
    n = int(rng.integers(1, 8))
    dim = int(rng.integers(1, 3))
    ps = point_set(
        rng.integers(0, 4, size=(n, dim)).astype(float),
        multiplicity=rng.integers(1, 4, size=n),
        color=rng.integers(1, 3, size=n),
    )
    k = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        capacity = max(1, math.ceil(ps.total_weight / k) + int(rng.integers(-1, 3)))
        cons = AssignmentConstraint(kind="capacitated", capacity=capacity)
    else:
        lo = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
        cons = AssignmentConstraint(
            kind="fair", lower_frac=lo, upper_frac=float(rng.choice([0.5, 0.75, 1.0])),
            num_colors=2,
        )
    continuous = dim == 1 and rng.random() < 0.3
    return ps, k, cons, continuous


class TestBatchedPrepassMatchesEnumeration:
    # 128 cuts the pre-pass into chunks of several prefixes whose ends
    # differ; 16 gives one prefix per chunk and a few columns per block.
    @pytest.mark.parametrize("block_elems", [solvers._BLOCK_ELEMS, 128, 16])
    def test_tie_heavy_instances(self, block_elems, monkeypatch):
        monkeypatch.setattr(solvers, "_BLOCK_ELEMS", block_elems)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
        seen = set()
        for _ in range(1000):
            ps, k, cons, continuous = _tie_heavy_constrained(rng)
            want = _ref_exact_constrained(ps, k, cons, continuous)
            try:
                sol = exact_constrained(ps, k, cons, continuous_1d=continuous)
                got = (sol.value, sol.anchor_indices, sol.partition)
            except ConstraintInfeasibleError:
                got = None
            assert got == want
            seen.update(
                name
                for name, hit in (
                    ("infeasible", want is None),
                    ("fair", cons.kind == "fair"),
                    ("continuous", continuous),
                    ("repeated anchor", want is not None and len(set(want[1])) < k),
                )
                if hit
            )
        assert seen == {"infeasible", "fair", "continuous", "repeated anchor"}

    def test_multisets_follow_itertools_order(self):
        for m, j in ((1, 0), (1, 3), (4, 1), (5, 2), (6, 4)):
            want = list(itertools.combinations_with_replacement(range(m), j))
            assert [tuple(r) for r in solvers._multisets(m, j).tolist()] == want


class TestSparseRouteMatchesDense:
    def test_random_masks(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(32)))
        seen = set()
        for _ in range(600):
            np_ = int(rng.integers(0, 9))
            nc = int(rng.integers(1, 5))
            mask = rng.random((np_, nc)) < rng.choice([0.2, 0.6, 1.0])
            supply = rng.integers(1, 5, size=np_)
            mode = int(rng.integers(0, 3))
            if mode == 2 and np_:
                # loads pinned: feasible only when nc divides the supply
                supply[0] += -(int(supply.sum()) % nc) % nc
                lower = upper = int(supply.sum()) // nc
            else:
                lower = int(rng.integers(0, 4)) if mode else 0
                upper = lower + int(rng.integers(0, 12))
            graph = solvers._flow_network(mask, supply, lower, upper)
            dense = csr_matrix(_ref_capacities(mask, supply, lower, upper))
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(graph, part), getattr(dense, part))
            assert graph.data.dtype == dense.data.dtype
            got = solvers._route(mask, supply, lower, upper)
            want = _ref_route(mask, supply, lower, upper)
            if want is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)
                assert got.dtype == np.int64
            seen.update(
                name
                for name, hit in (
                    ("infeasible", want is None),
                    ("lower>0", lower > 0 and want is not None),
                    ("lower==upper", lower == upper and want is not None and np_ > 0),
                    ("empty row", (~mask).all(axis=1).any()),
                )
                if hit
            )
        assert seen == {"infeasible", "lower>0", "lower==upper", "empty row"}


class TestLargeFlow:
    def test_capacitated_radius_at_fifty_thousand_points(self):
        # the dense (n+k+4)^2 network would need 10 GB here
        rng = np.random.Generator(np.random.Philox(key=np.uint64(33)))
        n, k = 50_000, 4
        ps = point_set(rng.normal(size=(n, 2)), multiplicity=rng.integers(1, 3, size=n))
        capacity = math.ceil(1.1 * ps.total_weight / k)
        cons = AssignmentConstraint(kind="capacitated", capacity=capacity)
        anchors = [0, 1, 2, 3]
        r, assignment = anchored_feasible_radius(ps, anchors, cons)
        loads = np.zeros(k, dtype=np.int64)
        dist = pairwise_distances(ps.coords, ps.coords[anchors])
        for i, slots in enumerate(assignment):
            assert sum(slots.values()) == ps.multiplicity[i]
            for j, u in slots.items():
                loads[j] += u
                assert dist[i, j] <= r
        assert (loads <= capacity).all()
        assert r in set(np.unique(dist).tolist())
