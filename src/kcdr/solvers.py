"""k-center solvers: greedy, relaxed-greedy, and brute-force oracles.

All solvers restrict centers to data points (anchored).  The exact_* oracles
enumerate and are guarded by a combination budget; they exist to certify the
fast paths on small instances.  Assignment constraints (capacities, color
fairness) are checked by an integral max-flow routine, with an exhaustive
enumeration twin for differential testing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import ConstraintInfeasibleError, OracleBudgetError
from .geometry import PointSet, pairwise_distances

COMBINATION_BUDGET = 10**6
ENUMERATION_MAX_POINTS = 12
# Element cap on the oracles' per-call distance blocks (float64, 512 KiB).
_BLOCK_ELEMS = 1 << 16
_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class KCenterSolution:
    center_indices: tuple[int, ...]
    value: float

    def to_dict(self) -> dict:
        return {"center_indices": list(self.center_indices), "value": self.value}


@dataclass(frozen=True)
class OutliersSolution:
    """Outlier entries repeat an index once per discarded weight unit."""

    center_indices: tuple[int, ...]
    outlier_indices: tuple[int, ...]
    value: float

    def to_dict(self) -> dict:
        return {
            "center_indices": list(self.center_indices),
            "outlier_indices": list(self.outlier_indices),
            "value": self.value,
        }


class GonzalezRun(NamedTuple):
    S: list[int]
    solution: KCenterSolution


def kcenter_value(ps: PointSet, center_indices) -> float:
    """Max over all points of the distance to the nearest listed center."""
    centers = ps.coords[np.asarray(center_indices, dtype=np.int64)]
    return float(pairwise_distances(ps.coords, centers).min(axis=1).max())


def gonzalez(ps: PointSet, k: int, start_index: int = 0) -> GonzalezRun:
    """Furthest-first traversal collecting k+1 picks; ties go to the lowest index.

    The solution's centers are the first k picks and its value is the distance
    of pick k+1 to them, which equals the greedy covering radius.  If fewer
    than k+1 distinct locations exist the traversal stops early with value 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= start_index < ps.n:
        raise ValueError("start_index out of range")
    coords = ps.coords
    S = [start_index]
    dmin = np.linalg.norm(coords - coords[start_index], axis=1)
    last_pick_dist = 0.0
    while len(S) < k + 1:
        m = float(dmin.max())
        if m == 0.0:
            break
        i = int(np.argmax(dmin))  # argmax returns the first (lowest) index on ties
        S.append(i)
        last_pick_dist = m
        dmin = np.minimum(dmin, np.linalg.norm(coords - coords[i], axis=1))
    if len(S) == k + 1:
        return GonzalezRun(S, KCenterSolution(tuple(S[:k]), last_pick_dist))
    return GonzalezRun(S, KCenterSolution(tuple(S), 0.0))


def fpq(ps: PointSet, q: PointSet) -> tuple[int, float]:
    """Furthest point query: (index, distance) of the point furthest from q."""
    if ps.n == 0 or q.n == 0:
        raise ValueError("fpq requires nonempty point and query sets")
    if ps.dim != q.dim:
        raise ValueError("dimension mismatch")
    d = pairwise_distances(ps.coords, q.coords).min(axis=1)
    i = int(np.argmax(d))
    return i, float(d[i])


def exact_fpq_oracle(ps: PointSet, selected: list[int]) -> int:
    """The exact furthest-point oracle in the shape relaxed_gonzalez expects."""
    return fpq(ps, ps.subset(selected))[0]


def relaxed_gonzalez(
    ps: PointSet,
    k: int,
    fpq_oracle: Callable[[PointSet, list[int]], int],
    alpha: float = 1.0,
    start_index: int = 0,
) -> tuple[list[int], float]:
    """Furthest-first traversal through an approximate furthest-point oracle.

    Collects k+1 picks, takes D = min pairwise distance among them, and
    returns (first k picks, alpha * D).  With the exact oracle (alpha = 1)
    this matches gonzalez up to tie-breaking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not 0 <= start_index < ps.n:
        raise ValueError("start_index out of range")
    S = [start_index]
    for _ in range(k):
        j = fpq_oracle(ps, list(S))
        if not isinstance(j, (int, np.integer)) or not 0 <= j < ps.n:
            raise ValueError("oracle returned invalid index")
        S.append(int(j))
    d = pairwise_distances(ps.coords[S])
    iu = np.triu_indices(len(S), k=1)
    dmin = float(d[iu].min())
    return S[:k], alpha * dmin


def _distinct(ps: PointSet) -> tuple[np.ndarray, np.ndarray]:
    idx = ps.distinct_indices()
    return idx, ps.coords[idx]


def _check_budget(m: int, k: int):
    if math.comb(m, k) > COMBINATION_BUDGET:
        raise OracleBudgetError(
            f"oracle budget exceeded: C({m},{k}) > {COMBINATION_BUDGET}"
        )


def _unit_value(block: np.ndarray, mult: np.ndarray, z: int) -> np.ndarray:
    """Per (prefix, last) row of a (prefixes, lasts, points) distance block,
    the (z+1)-th largest weight unit over the points.

    Extracts the furthest remaining point z+1 times (fewer when there are
    fewer points); the unit sought always lies among those, because every
    point carries at least one unit.  Ties among points do not matter: only
    the distance of the unit is returned.  Overwrites block.
    """
    if z == 0:
        return block.max(axis=2)
    n = block.shape[2]
    rows = block.reshape(-1, n)
    base = np.arange(len(rows)) * n
    flat = rows.reshape(-1)
    out = np.empty(len(rows))
    seen = np.zeros(len(rows), dtype=np.int64)
    for _ in range(min(z + 1, n)):
        r = rows.argmax(axis=1)
        at = base + r
        after = seen + mult[r]
        hit = (seen <= z) & (after > z)
        out[hit] = flat[at[hit]]
        seen = after
        flat[at] = -np.inf
    return out.reshape(block.shape[:2])


def _chunk_sizes(n: int, m: int) -> tuple[int, int]:
    """Prefixes per chunk and last columns per block, so that a (prefixes,
    lasts, n) distance block stays near _BLOCK_ELEMS elements."""
    per_chunk = max(1, _BLOCK_ELEMS // (n * m))
    return per_chunk, max(1, _BLOCK_ELEMS // (per_chunk * n))


def _extension_values(
    cols: np.ndarray, pref: np.ndarray, lo: int, width: int, mult: np.ndarray, z: int
) -> np.ndarray:
    """(prefixes, m - lo) values of every prefix row of pref extended by each
    last column lo..m-1 of cols (m locations x n points)."""
    m = cols.shape[0]
    prefix_min = cols[pref].min(axis=1, initial=np.inf)[:, None, :]
    vals = np.empty((len(pref), m - lo))
    for c in range(lo, m, width):
        block = np.minimum(prefix_min, cols[None, c : c + width])
        vals[:, c - lo : c - lo + block.shape[1]] = _unit_value(block, mult, z)
    return vals


def _best_subset(dmat: np.ndarray, mult: np.ndarray, k: int, z: int) -> tuple[float, tuple[int, ...]]:
    """Lexicographically first k-subset of dmat's columns minimising the
    (z+1)-th largest weight unit of the rows' distance to the subset.

    Scores a chunk of (k-1)-prefixes against every later last column per
    numpy call, so temporaries stay near _BLOCK_ELEMS elements.  Every value
    is an element of dmat, so it equals the per-subset enumeration's exactly;
    a row-major argmin inside a chunk and a strict < across chunks keep its
    tie-break.  Requires 1 <= k <= columns and z < total weight.
    """
    n, m = dmat.shape
    cols = np.ascontiguousarray(dmat.T)
    per_chunk, width = _chunk_sizes(n, m)
    prefixes = itertools.combinations(range(m - 1), k - 1)
    best_val = math.inf
    best: tuple[int, ...] | None = None
    while True:
        pref = np.array(list(itertools.islice(prefixes, per_chunk)), dtype=np.intp)
        if len(pref) == 0:
            break
        ends = pref[:, -1] if k > 1 else np.full(len(pref), -1)
        lo = int(ends.min()) + 1
        vals = _extension_values(cols, pref, lo, width, mult, z)
        vals[ends[:, None] >= np.arange(lo, m)] = np.inf
        i = int(vals.argmin())
        if vals.flat[i] < best_val:
            p, j = divmod(i, vals.shape[1])
            best_val = float(vals.flat[i])
            best = (*pref[p].tolist(), lo + j)
    assert best is not None
    return best_val, best


def _best_single(ps: PointSet, locs: np.ndarray, z: int) -> tuple[float, tuple[int]]:
    """_best_subset at k=1 without the n x m matrix: distances come in blocks
    of about _BLOCK_ELEMS elements, the first minimal location wins."""
    width = max(1, _BLOCK_ELEMS // ps.n)
    best_val, best = math.inf, -1
    for c in range(0, len(locs), width):
        block = np.ascontiguousarray(pairwise_distances(ps.coords, locs[c : c + width]).T)[None]
        vals = _unit_value(block, ps.multiplicity, z)[0]
        i = int(vals.argmin())
        if vals[i] < best_val:
            best_val, best = float(vals[i]), c + i
    return best_val, (best,)


def exact_discrete_kcenter(ps: PointSet, k: int) -> KCenterSolution:
    """Brute-force optimum over k-subsets of distinct points.

    Returns the lexicographically smallest optimal center tuple.  Errors out
    rather than enumerate more than COMBINATION_BUDGET subsets.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    idx, locs = _distinct(ps)
    m = len(idx)
    if k >= m:
        return KCenterSolution(tuple(int(i) for i in idx), 0.0)
    _check_budget(m, k)
    if k == 1:
        best_val, best = _best_single(ps, locs, 0)
    else:
        dmat = pairwise_distances(ps.coords, locs)
        best_val, best = _best_subset(dmat, ps.multiplicity, k, 0)
    return KCenterSolution(tuple(int(idx[c]) for c in best), best_val)


def _outlier_split(dists: np.ndarray, mult: np.ndarray, z: int) -> tuple[float, np.ndarray]:
    """Drop the z largest-distance weight units; return (remaining max, dropped indices)."""
    rep_d = np.repeat(dists, mult)
    rep_i = np.repeat(np.arange(len(dists)), mult)
    order = np.lexsort((rep_i, -rep_d))
    value = float(rep_d[order[z]]) if z < len(rep_d) else 0.0
    return value, rep_i[order[:z]]


def exact_discrete_outliers(ps: PointSet, k: int, z: int) -> OutliersSolution:
    """Brute-force k-center with z outliers; multiplicities count toward z.

    For fixed centers the optimal outliers are the z furthest weight units, so
    only center subsets are enumerated.  Ties between optima resolve to the
    lexicographically smallest center tuple.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if z < 0:
        raise ValueError("z must be >= 0")
    if z >= ps.total_weight:
        all_units = np.repeat(np.arange(ps.n), ps.multiplicity)
        return OutliersSolution((), tuple(int(i) for i in all_units), 0.0)
    idx, locs = _distinct(ps)
    m = len(idx)
    kk = min(k, m)
    _check_budget(m, kk)
    if kk == 1:
        best_val, best = _best_single(ps, locs, z)
        d = pairwise_distances(ps.coords, locs[list(best)])[:, 0]
    else:
        dmat = pairwise_distances(ps.coords, locs)
        best_val, best = _best_subset(dmat, ps.multiplicity, kk, z)
        d = dmat[:, best].min(axis=1)
    _, dropped = _outlier_split(d, ps.multiplicity, z)
    return OutliersSolution(
        tuple(int(idx[c]) for c in best),
        tuple(int(i) for i in dropped),
        best_val,
    )


def _greedy_units(ps: PointSet, remaining: np.ndarray, m: int) -> list[int]:
    """One furthest-first round over the units still present; pads with
    distance-zero units in index order once locations run out."""
    cand = np.nonzero(remaining > 0)[0]
    if len(cand) == 0:
        return []
    coords = ps.coords
    start = int(cand[0])
    picked = [start]
    used = {start: 1}
    dmin = np.linalg.norm(coords[cand] - coords[start], axis=1)
    while len(picked) < m:
        mx = float(dmin.max())
        if mx == 0.0:
            break
        j = int(cand[int(np.argmax(dmin))])
        picked.append(j)
        used[j] = used.get(j, 0) + 1
        dmin = np.minimum(dmin, np.linalg.norm(coords[cand] - coords[j], axis=1))
    if len(picked) < m:
        for i in cand:
            i = int(i)
            while len(picked) < m and used.get(i, 0) < remaining[i]:
                picked.append(i)
                used[i] = used.get(i, 0) + 1
    return picked


def peel_witness(ps: PointSet, k: int, z: int) -> PointSet:
    """Outlier-robust witness: z+1 furthest-first rounds, deleting picks between rounds.

    Each round removes one weight unit per pick, so co-located copies can be
    collected across (or, when locations are exhausted, within) rounds.  The
    result carries min(total weight, (k+1)(z+1)) units and its k-center-with-
    z-outliers cost is within a factor 3 of the full set's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if z < 0:
        raise ValueError("z must be >= 0")
    remaining = ps.multiplicity.copy()
    taken = np.zeros(ps.n, dtype=np.int64)
    for _ in range(z + 1):
        picks = _greedy_units(ps, remaining, k + 1)
        if not picks:
            break
        for i in picks:
            remaining[i] -= 1
            taken[i] += 1
    keep = np.nonzero(taken > 0)[0]
    return PointSet(
        ps.coords[keep],
        taken[keep],
        None if ps.color is None else ps.color[keep],
    )


# ---------------------------------------------------------------------------
# assignment constraints


@dataclass(frozen=True)
class AssignmentConstraint:
    """Capacity or color-fairness requirement on a k-clustering.

    capacitated: every cluster covers at most L weight units.
    fair: for every color i with total weight n_i, every cluster contains
    between ceil(a * n_i) and floor(b * n_i) units of color i.
    """

    kind: str
    capacity: int | None = None
    lower_frac: float | None = None
    upper_frac: float | None = None
    num_colors: int | None = None

    def __post_init__(self):
        if self.kind == "capacitated":
            if self.capacity is None or self.capacity < 1:
                raise ValueError("capacitated constraint requires capacity >= 1")
        elif self.kind == "fair":
            if self.lower_frac is None or self.upper_frac is None:
                raise ValueError("fair constraint requires lower_frac and upper_frac")
            if not (0.0 <= self.lower_frac <= self.upper_frac <= 1.0):
                raise ValueError("fair constraint requires 0 <= lower_frac <= upper_frac <= 1")
            if self.num_colors is None or self.num_colors < 1:
                raise ValueError("fair constraint requires num_colors >= 1")
        else:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def color_bounds(self, color_total: int) -> tuple[int, int]:
        lo = math.ceil(self.lower_frac * color_total - 1e-9)
        hi = math.floor(self.upper_frac * color_total + 1e-9)
        return max(lo, 0), hi

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "lower_frac": self.lower_frac,
            "upper_frac": self.upper_frac,
            "num_colors": self.num_colors,
        }


def _flow_network(mask: np.ndarray, supply: np.ndarray, lower: int, upper: int) -> csr_matrix:
    """Capacity graph of _route: node 0 is the super-source, 1 the
    super-sink, 2 the source S, 3 the sink T, then one node per point and
    one per center.

    The edges come in the row-major order that csr_matrix gives the dense
    capacity matrix, zero capacities dropped, so this is that same CSR
    graph; it has at most n*k + n + 2k + 3 edges.
    """
    SS, TT, S, T = 0, 1, 2, 3
    np_, nc = mask.shape
    total = int(supply.sum())
    pts, ctr = 4, 4 + np_
    n_nodes = 4 + np_ + nc
    pi, cj = np.nonzero(mask)
    head = np.array([[SS, T, nc * lower], [S, TT, total], [T, S, total]])
    edges = np.concatenate([
        head[:1],
        np.column_stack([np.full(np_, SS), pts + np.arange(np_), supply]),
        head[1:],
        np.column_stack([pts + pi, ctr + cj, supply[pi]]),
        np.column_stack([
            np.repeat(ctr + np.arange(nc), 2),
            np.tile([TT, T], nc),
            np.tile([lower, upper - lower], nc),
        ]),
    ])
    edges = edges[edges[:, 2] != 0]
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(edges[:, 0], minlength=n_nodes), out=indptr[1:])
    return csr_matrix(
        (edges[:, 2].astype(np.int32), edges[:, 1].astype(np.int32), indptr),
        shape=(n_nodes, n_nodes),
    )


def _route(mask: np.ndarray, supply: np.ndarray, lower: int, upper: int) -> np.ndarray | None:
    """Integral routing of supplies to centers along permitted edges.

    Every unit must be placed; every center must take between lower and upper
    units.  Lower bounds are folded into a single max-flow via the standard
    circulation transform.  Returns the units matrix (points x centers) or
    None if infeasible.
    """
    np_, nc = mask.shape
    total = int(supply.sum())
    if total == 0:
        return np.zeros((np_, nc), dtype=np.int64)
    if upper < lower or total > nc * upper or total < nc * lower:
        return None
    # maximum_flow takes int32 capacities; int64 ones wrap silently.
    if total + nc * lower > _INT32_MAX or upper - lower > _INT32_MAX:
        raise ValueError(
            f"flow network exceeds int32: {total} units, {nc} centers, "
            f"loads {lower}..{upper}"
        )
    res = maximum_flow(_flow_network(mask, supply, lower, upper), 0, 1)
    if res.flow_value != total + nc * lower:
        return None
    units = res.flow[4 : 4 + np_, 4 + np_ :].toarray()  # point rows x center columns
    return np.maximum(units, 0).astype(np.int64)


def _assignment_dicts(units: np.ndarray) -> list[dict[int, int]]:
    return [
        {j: int(u) for j, u in enumerate(row) if u > 0}
        for row in units
    ]


def _check_colors(ps: PointSet, constraint: AssignmentConstraint):
    if ps.color is None:
        raise ValueError("fair constraint requires a colored point set")
    if ps.n and (ps.color.min() < 1 or ps.color.max() > constraint.num_colors):
        raise ValueError("point colors must lie in [1, num_colors]")


def _feasible_units(
    ps: PointSet,
    center_positions: np.ndarray,
    radius: float,
    constraint: AssignmentConstraint,
    dmat: np.ndarray | None = None,
) -> np.ndarray | None:
    if dmat is None:
        dmat = pairwise_distances(ps.coords, center_positions)
    mask = dmat <= radius
    nc = center_positions.shape[0]
    if constraint.kind == "capacitated":
        return _route(mask, ps.multiplicity, 0, constraint.capacity)
    _check_colors(ps, constraint)
    units = np.zeros((ps.n, nc), dtype=np.int64)
    for color in range(1, constraint.num_colors + 1):
        rows = np.nonzero(ps.color == color)[0]
        n_i = int(ps.multiplicity[rows].sum())
        if n_i == 0:
            continue
        lo, hi = constraint.color_bounds(n_i)
        sub = _route(mask[rows], ps.multiplicity[rows], lo, hi)
        if sub is None:
            return None
        units[rows] += sub
    return units


def feasible_assignment(
    ps: PointSet,
    center_indices,
    radius: float,
    constraint: AssignmentConstraint,
) -> list[dict[int, int]] | None:
    """Integral assignment of every weight unit to a center within radius.

    Returns, per point, a dict {center slot: units} (units of one point may
    split across slots), or None when no feasible assignment exists.  Center
    slots follow the order of center_indices; repeated indices are distinct
    slots.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    centers = list(center_indices)
    if not centers:
        raise ValueError("empty center list")
    for c in centers:
        if not 0 <= c < ps.n:
            raise ValueError("center index out of range")
    units = _feasible_units(ps, ps.coords[centers], radius, constraint)
    return None if units is None else _assignment_dicts(units)


def feasible_assignment_bruteforce(
    ps: PointSet,
    center_indices,
    radius: float,
    constraint: AssignmentConstraint | Callable[[tuple[int, ...]], bool],
) -> list[dict[int, int]] | None:
    """Exhaustive twin of feasible_assignment: tries all k^n whole-point maps.

    Each point goes to exactly one slot (no unit splitting), so this matches
    the flow routine on multiplicity-one inputs.  `constraint` may also be a
    plain predicate over assignment tuples, which is the supported hook for
    custom assignment rules at this scale.
    """
    if ps.n > ENUMERATION_MAX_POINTS:
        raise OracleBudgetError(
            f"enumeration limited to {ENUMERATION_MAX_POINTS} points"
        )
    centers = list(center_indices)
    if not centers:
        raise ValueError("empty center list")
    nc = len(centers)
    dmat = pairwise_distances(ps.coords, ps.coords[centers])
    ok_slots = [np.nonzero(dmat[i] <= radius)[0] for i in range(ps.n)]
    if any(len(s) == 0 for s in ok_slots):
        return None

    if isinstance(constraint, AssignmentConstraint):
        if constraint.kind == "capacitated":
            cap = constraint.capacity

            def accept(assign: tuple[int, ...]) -> bool:
                loads = np.zeros(nc, dtype=np.int64)
                for i, j in enumerate(assign):
                    loads[j] += ps.multiplicity[i]
                return bool((loads <= cap).all())

        else:
            _check_colors(ps, constraint)
            bounds = {}
            for color in range(1, constraint.num_colors + 1):
                rows = np.nonzero(ps.color == color)[0]
                n_i = int(ps.multiplicity[rows].sum())
                if n_i:
                    bounds[color] = constraint.color_bounds(n_i)

            def accept(assign: tuple[int, ...]) -> bool:
                counts = {c: np.zeros(nc, dtype=np.int64) for c in bounds}
                for i, j in enumerate(assign):
                    c = int(ps.color[i])
                    if c in counts:
                        counts[c][j] += ps.multiplicity[i]
                for c, (lo, hi) in bounds.items():
                    if (counts[c] < lo).any() or (counts[c] > hi).any():
                        return False
                return True

    else:
        accept = constraint

    for assign in itertools.product(*(tuple(int(j) for j in s) for s in ok_slots)):
        if accept(assign):
            return [{j: int(ps.multiplicity[i])} for i, j in enumerate(assign)]
    return None


@dataclass(frozen=True)
class ConstrainedSolution:
    """Constrained clustering optimum under anchored cluster radii.

    partition lists one cluster slot per weight unit, units of point i
    consecutive (a point's units may legitimately split across clusters).
    anchor_indices holds the data-point index behind each anchor, or None for
    synthesized midpoint anchors in the 1-d continuous mode.
    """

    value: float
    anchor_indices: tuple[int | None, ...]
    anchor_positions: np.ndarray
    partition: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "anchor_indices": [None if i is None else int(i) for i in self.anchor_indices],
            "anchor_positions": self.anchor_positions.tolist(),
            "partition": list(self.partition),
        }


def _partition_from_units(units: np.ndarray) -> tuple[int, ...]:
    out: list[int] = []
    for row in units:
        for j, u in enumerate(row):
            out.extend([j] * int(u))
    return tuple(out)


def _min_radius_fixed_anchors(
    ps: PointSet,
    positions: np.ndarray,
    constraint: AssignmentConstraint,
    radii: np.ndarray,
    cutoff: float,
) -> tuple[float, np.ndarray] | None:
    """Smallest feasible radius below cutoff for one fixed anchor tuple."""
    dmat = pairwise_distances(ps.coords, positions)
    r_lb = float(dmat.min(axis=1).max())
    lo = int(np.searchsorted(radii, r_lb, side="left"))
    hi = int(np.searchsorted(radii, cutoff, side="left")) - 1
    if hi < lo:
        return None
    best_units = _feasible_units(ps, positions, float(radii[hi]), constraint, dmat)
    if best_units is None:
        return None
    best_i = hi
    while lo < best_i:
        mid = (lo + best_i) // 2
        units = _feasible_units(ps, positions, float(radii[mid]), constraint, dmat)
        if units is None:
            lo = mid + 1
        else:
            best_i = mid
            best_units = units
    return float(radii[best_i]), best_units


def anchored_feasible_radius(
    ps: PointSet,
    center_indices,
    constraint: AssignmentConstraint,
) -> tuple[float, list[dict[int, int]]]:
    """Min feasible radius when the anchors are fixed in advance (no enumeration)."""
    centers = list(center_indices)
    positions = ps.coords[centers]
    radii = np.unique(pairwise_distances(ps.coords, positions))
    found = _min_radius_fixed_anchors(ps, positions, constraint, radii, math.inf)
    if found is None:
        raise ConstraintInfeasibleError("constraint infeasible")
    r, units = found
    return r, _assignment_dicts(units)


def _multisets(m: int, j: int) -> np.ndarray:
    """Every j-multiset of range(m) as a sorted row, rows in the lexicographic
    order of itertools.combinations_with_replacement."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(j):
        start = rows[:, -1] if rows.shape[1] else np.zeros(len(rows), dtype=np.intp)
        counts = m - start
        parent = np.repeat(np.arange(len(rows)), counts)
        step = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], start[parent] + step])
    return rows


def _multiset_bounds(
    dall: np.ndarray, mult: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unconstrained radius of every k-multiset of dall's columns, in
    lexicographic multiset order.

    Returns (r_lb, prefixes, offsets): the multisets extending prefix row p
    by a last column >= the prefix's end occupy r_lb[offsets[p]:offsets[p+1]].
    Chunks of prefixes are scored per numpy call as in _best_subset, so every
    value is an element of dall and no per-multiset object is built.
    """
    n, m = dall.shape
    cols = np.ascontiguousarray(dall.T)
    pref = _multisets(m, k - 1)
    ends = pref[:, -1] if k > 1 else np.zeros(len(pref), dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(m - ends)])
    r_lb = np.empty(offsets[-1])
    per_chunk, width = _chunk_sizes(n, m)
    for p in range(0, len(pref), per_chunk):
        chunk_ends = ends[p : p + per_chunk]
        lo = int(chunk_ends.min())
        vals = _extension_values(cols, pref[p : p + per_chunk], lo, width, mult, 0)
        keep = np.arange(lo, m) >= chunk_ends[:, None]
        r_lb[offsets[p] : offsets[p + len(chunk_ends)]] = vals[keep]
    return r_lb, pref, offsets


def exact_constrained(
    ps: PointSet,
    k: int,
    constraint: AssignmentConstraint,
    continuous_1d: bool = False,
) -> ConstrainedSolution:
    """Constrained k-center optimum by anchor enumeration plus radius search.

    Anchors range over multisets of k distinct data locations, so co-located
    points can host several clusters.  Candidate radii are the point-anchor
    distances; feasibility at a radius is monotone, so each anchor tuple is
    resolved by binary search and pruned against the best value so far.

    With continuous_1d (dim 1 only), anchors additionally range over pairwise
    midpoints and radii over half-distances, which makes the result the exact
    continuous optimum on the line.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ps.n == 0:
        raise ValueError("empty point set")
    idx, locs = _distinct(ps)
    if continuous_1d:
        if ps.dim != 1:
            raise ValueError("continuous_1d mode requires dim == 1")
        vals = locs[:, 0]
        mids = (vals[:, None] + vals[None, :]) / 2.0
        pos_vals = np.unique(np.concatenate([vals, mids.ravel()]))
        positions = pos_vals[:, None]
        loc_by_val = {float(v): int(i) for v, i in zip(vals, idx)}
        anchor_src: list[int | None] = [loc_by_val.get(float(v)) for v in pos_vals]
    else:
        positions = locs
        anchor_src = [int(i) for i in idx]

    m = positions.shape[0]
    if math.comb(m + k - 1, k) > COMBINATION_BUDGET:
        raise OracleBudgetError(
            f"oracle budget exceeded: C({m + k - 1},{k}) > {COMBINATION_BUDGET}"
        )
    dall = pairwise_distances(ps.coords, positions)
    radii = np.unique(dall)
    r_lb, pref, offsets = _multiset_bounds(dall, ps.multiplicity, k)

    best = math.inf
    best_combo: tuple[int, ...] | None = None
    best_units: np.ndarray | None = None
    for i in np.argsort(r_lb, kind="stable"):
        if r_lb[i] >= best:
            break
        p = int(np.searchsorted(offsets, i, side="right")) - 1
        start = int(pref[p, -1]) if k > 1 else 0
        combo = (*pref[p].tolist(), start + int(i - offsets[p]))
        found = _min_radius_fixed_anchors(
            ps, positions[list(combo)], constraint, radii, best
        )
        if found is None:
            continue
        r, units = found
        if r < best:
            best, best_combo, best_units = r, combo, units
    if best_combo is None:
        raise ConstraintInfeasibleError("constraint infeasible")
    return ConstrainedSolution(
        value=best,
        anchor_indices=tuple(anchor_src[c] for c in best_combo),
        anchor_positions=positions[list(best_combo)].copy(),
        partition=_partition_from_units(best_units),
    )
