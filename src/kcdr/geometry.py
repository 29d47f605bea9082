"""Finite point multisets in Euclidean space and the metric primitives built on them.

Everything downstream (solvers, projections, streaming) speaks PointSet: an
immutable bundle of coordinates, positive integer multiplicities, and optional
per-point colors.  This module also carries greedy nets, a doubling-dimension
upper estimate, the deterministic dataset generators, and the text format for
point sets on disk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

# estimate_doubling_dimension builds an m x m distance matrix over the
# distinct locations: 200 MB of float64 at this cap.
DOUBLING_MAX_POINTS = 5_000

@dataclass(frozen=True)
class PointSet:
    """Ordered multiset of points in R^dim.

    coords is an (n, dim) float64 array, multiplicity an (n,) positive int64
    array, color an (n,) int64 array or None (all points colored or none).
    Instances are immutable; the backing arrays are marked read-only.
    """

    coords: np.ndarray
    multiplicity: np.ndarray
    color: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-d array of shape (n, dim)")
        if coords.shape[1] < 1:
            raise ValueError("dim must be at least 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        mult = np.asarray(self.multiplicity, dtype=np.int64)
        if mult.shape != (coords.shape[0],):
            raise ValueError("multiplicity must have one entry per point")
        if coords.shape[0] and mult.min() < 1:
            raise ValueError("multiplicity entries must be >= 1")
        color = self.color
        if color is not None:
            color = np.asarray(color, dtype=np.int64)
            if color.shape != (coords.shape[0],):
                raise ValueError("color must have one entry per point or be absent")
        for arr in (coords, mult, color):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "multiplicity", mult)
        object.__setattr__(self, "color", color)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def total_weight(self) -> int:
        return int(self.multiplicity.sum())

    def subset(self, indices) -> "PointSet":
        idx = np.asarray(indices, dtype=np.int64)
        return PointSet(
            self.coords[idx],
            self.multiplicity[idx],
            None if self.color is None else self.color[idx],
        )

    def distinct_indices(self) -> np.ndarray:
        """Indices of the first occurrence of every distinct location, ascending."""
        seen = {}
        for i in range(self.n):
            key = self.coords[i].tobytes()
            if key not in seen:
                seen[key] = i
        return np.array(sorted(seen.values()), dtype=np.int64)


def point_set(points, multiplicity=None, color=None) -> PointSet:
    """Build a PointSet from plain sequences; multiplicity defaults to all ones."""
    coords = np.asarray(points, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    if multiplicity is None:
        multiplicity = np.ones(coords.shape[0], dtype=np.int64)
    return PointSet(coords, multiplicity, color)


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Distance matrix between rows of a and rows of b (or a itself)."""
    return cdist(a, a if b is None else b)


def build_epsilon_net(ps: PointSet, r: float) -> PointSet:
    """Greedy net in index order: a point joins iff it is > r from all net points.

    The result covers ps at radius r (every point within r of some net point)
    and is an r-packing (net points pairwise > r apart).  Duplicate locations
    never add net points, so the net depends only on the distinct locations.
    """
    if ps.n == 0:
        raise ValueError("empty point set")
    if r <= 0:
        raise ValueError("net radius must be > 0")
    chosen: list[int] = []
    for i in range(ps.n):
        p = ps.coords[i]
        if not chosen:
            chosen.append(i)
            continue
        d = np.min(np.linalg.norm(ps.coords[chosen] - p, axis=1))
        if d > r:
            chosen.append(i)
    return ps.subset(chosen)


def estimate_doubling_dimension(ps: PointSet) -> float:
    """Upper estimate of the doubling dimension via greedy half-radius nets.

    Walks a x2 ladder of radii between the smallest and largest nonzero
    pairwise distance; for each radius r and each point y of an r-net, counts
    the greedy (r/2)-net of the ball B(y, r) and returns log2 of the largest
    count seen.  Greedy nets over-cover, so this never underestimates the
    metric's true doubling dimension on the sampled scales.  Refuses more
    than DOUBLING_MAX_POINTS distinct locations with ValueError.
    """
    distinct = ps.distinct_indices()
    if len(distinct) < 2:
        raise ValueError("degenerate set: need at least two distinct points")
    if len(distinct) > DOUBLING_MAX_POINTS:
        raise ValueError(
            f"doubling-dimension estimate limited to {DOUBLING_MAX_POINTS} "
            f"distinct points, got {len(distinct)}"
        )
    locs = ps.subset(distinct)
    dmat = pairwise_distances(locs.coords)
    nonzero = dmat[dmat > 0]
    rmin, rmax = float(nonzero.min()), float(nonzero.max())
    radii = []
    r = rmin
    while True:
        radii.append(r)
        if r >= rmax:
            break
        r *= 2.0
    worst = 1
    for r in radii:
        net = build_epsilon_net(locs, r)
        for y in net.coords:
            ball_idx = np.nonzero(np.linalg.norm(locs.coords - y, axis=1) <= r)[0]
            ball = locs.subset(ball_idx)
            count = build_epsilon_net(ball, r / 2.0).n
            worst = max(worst, count)
    return math.log2(worst)


# ---------------------------------------------------------------------------
# dataset generators

DATASET_KINDS = (
    "gaussian-clusters",
    "sphere-net",
    "line",
    "orthonormal-plus-origin",
    "outlier-tightness",
    "grid-uniform",
)


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters for a deterministic synthetic dataset.

    Not every field applies to every kind; generate_dataset validates the ones
    its kind consumes and reports the offending field by name otherwise.
    """

    kind: str
    dim: int
    n: int = 0
    k: int = 0
    z: int = 0
    separation: float = 4.0
    delta: int = 0
    seed: int = 0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _require(cond: bool, field: str, why: str):
    if not cond:
        raise ValueError(f"dataset field {field!r}: {why}")


def _simplex_vertices(k: int) -> np.ndarray:
    # k+1 vertices in R^k, pairwise distance exactly 1
    v = np.eye(k)
    c = (1.0 + math.sqrt(k + 1.0)) / k
    apex = np.full(k, c)
    verts = np.vstack([apex, v]) / math.sqrt(2.0)
    return verts


def generate_dataset(spec: DatasetSpec) -> PointSet:
    """Generate the dataset described by spec; a pure function of (spec, seed)."""
    _require(spec.kind in DATASET_KINDS, "kind", f"unknown kind {spec.kind!r}")
    _require(spec.dim >= 1, "dim", "must be >= 1")
    rng = _rng(spec.seed)
    d = spec.dim

    if spec.kind == "gaussian-clusters":
        _require(spec.n >= 1, "n", "must be >= 1")
        _require(spec.k >= 1, "k", "must be >= 1")
        _require(spec.z >= 0, "z", "must be >= 0")
        _require(spec.separation > 0, "separation", "must be > 0")
        centers = rng.normal(size=(spec.k, d)) * spec.separation
        assign = np.arange(spec.n) % spec.k
        coords = centers[assign] + rng.normal(size=(spec.n, d))
        if spec.z:
            out = rng.normal(size=(spec.z, d))
            out *= (10.0 * spec.separation * math.sqrt(d)) / np.linalg.norm(
                out, axis=1, keepdims=True
            )
            coords = np.vstack([coords, out])
        return point_set(coords)

    if spec.kind == "sphere-net":
        _require(spec.n >= 1, "n", "must be >= 1")
        coords = rng.normal(size=(spec.n, d))
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        return point_set(coords)

    if spec.kind == "line":
        _require(spec.n >= 1, "n", "must be >= 1")
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        coords = np.arange(spec.n, dtype=np.float64)[:, None] * u[None, :]
        return point_set(coords)

    if spec.kind == "orthonormal-plus-origin":
        _require(1 <= spec.k, "k", "must be >= 1")
        _require(spec.k <= d, "k", "must be <= dim")
        coords = np.vstack([np.eye(d)[: spec.k], np.zeros((1, d))])
        return point_set(coords)

    if spec.kind == "outlier-tightness":
        _require(spec.k >= 1, "k", "must be >= 1")
        _require(spec.z >= 1, "z", "must be >= 1")
        _require(d >= spec.k, "dim", "must be >= k to embed the simplex")
        verts = _simplex_vertices(spec.k)
        locs = np.zeros((spec.k + 1, d))
        locs[:, : spec.k] = verts
        extra = locs[0] + (locs[1] - locs[0]) / 3.0
        coords = np.vstack([locs, extra[None, :]])
        mult = np.full(spec.k + 2, spec.z, dtype=np.int64)
        mult[-1] = 1
        return PointSet(coords, mult)

    # grid-uniform
    _require(spec.n >= 1, "n", "must be >= 1")
    _require(spec.delta >= 2, "delta", "must be >= 2")
    coords = rng.integers(1, spec.delta + 1, size=(spec.n, d)).astype(np.float64)
    return point_set(coords)


def with_colors(ps: PointSet, colors) -> PointSet:
    """Attach a color vector to an existing PointSet."""
    return replace(ps, color=np.asarray(colors, dtype=np.int64))


# ---------------------------------------------------------------------------
# text format
#
# header line: "d n"
# then one point per line: d whitespace-separated floats, optionally followed
# by "m=<mult>" and/or "c=<color>".

def write_pointset_text(ps: PointSet, path: str):
    with open(path, "w") as fh:
        fh.write(f"{ps.dim} {ps.n}\n")
        for i in range(ps.n):
            parts = [repr(float(x)) for x in ps.coords[i]]
            if ps.multiplicity[i] != 1:
                parts.append(f"m={int(ps.multiplicity[i])}")
            if ps.color is not None:
                parts.append(f"c={int(ps.color[i])}")
            fh.write(" ".join(parts) + "\n")


def read_pointset_text(path: str) -> PointSet:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("point-set header must be 'd n'")
        d, n = int(header[0]), int(header[1])
        coords = np.zeros((n, d))
        mult = np.ones(n, dtype=np.int64)
        colors: list[int | None] = []
        for i in range(n):
            tokens = fh.readline().split()
            if len(tokens) < d:
                raise ValueError(f"point line {i} has fewer than {d} coordinates")
            coords[i] = [float(tok) for tok in tokens[:d]]
            color_i = None
            for tok in tokens[d:]:
                if tok.startswith("m="):
                    mult[i] = int(tok[2:])
                elif tok.startswith("c="):
                    color_i = int(tok[2:])
                else:
                    raise ValueError(f"unrecognized token {tok!r} on point line {i}")
            colors.append(color_i)
    has_color = [c is not None for c in colors]
    if any(has_color) and not all(has_color):
        raise ValueError("either every point has a color or none does")
    color_arr = np.array([c for c in colors], dtype=np.int64) if all(has_color) and n else None
    return PointSet(coords, mult, color_arr)
