"""Linear sketch primitives for the streaming engine.

Everything here is a commutative-group value: updates add, deletions subtract,
and a cancelled item leaves no trace.  Buckets that return to zero are pruned
from their dict, so two states that saw the same net update multiset compare
equal field by field regardless of arrival order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

HASH_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class HashFn:
    """Pairwise-independent hash x -> (a x + b) mod p over big ints."""

    a: int
    b: int

    def value(self, x: int) -> int:
        return (self.a * x + self.b) % HASH_PRIME


def _draw_hash(rng: np.random.Generator) -> HashFn:
    a = int(rng.integers(1, HASH_PRIME))
    b = int(rng.integers(0, HASH_PRIME))
    return HashFn(a, b)


class OneSparse:
    """Exact recovery of a bucket holding at most one distinct nonneg item id.

    Tracks the net weight and the exact weighted first and second moments of
    the item ids (big ints, so ids of any size are safe).  For a bucket whose
    per-id net weights are nonnegative, sq_sum == weight * mean^2 holds iff
    exactly one id is present: the difference is the weighted variance.  That
    makes decode() deterministic, with no fingerprint failure probability.
    """

    __slots__ = ("weight", "id_sum", "sq_sum")

    def __init__(self, weight: int = 0, id_sum: int = 0, sq_sum: int = 0):
        self.weight = weight
        self.id_sum = id_sum
        self.sq_sum = sq_sum

    def update(self, item_id: int, delta: int):
        self.weight += delta
        self.id_sum += delta * item_id
        self.sq_sum += delta * item_id * item_id

    def is_zero(self) -> bool:
        return self.weight == 0 and self.id_sum == 0 and self.sq_sum == 0

    def copy(self) -> "OneSparse":
        return OneSparse(self.weight, self.id_sum, self.sq_sum)

    def decode(self) -> tuple[int, int] | None:
        if self.weight <= 0:
            return None
        q, r = divmod(self.id_sum, self.weight)
        if r != 0 or q < 0:
            return None
        if self.sq_sum != self.weight * q * q:
            return None
        return q, self.weight

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OneSparse)
            and self.weight == other.weight
            and self.id_sum == other.id_sum
            and self.sq_sum == other.sq_sum
        )

    def __repr__(self) -> str:
        return f"OneSparse({self.weight}, {self.id_sum}, {self.sq_sum})"


@dataclass
class CellSketch:
    """Hashed-bank sparse recovery for a whole nonneg integer vector.

    rows x width banks of OneSparse buckets; decode() peels singletons until
    the residual is empty, recovering every (id, count) pair, or reports
    failure when the support was too dense to peel.
    """

    rows: int
    width: int
    index_hashes: list[HashFn]
    buckets: dict[tuple[int, int], OneSparse] = field(default_factory=dict)

    @classmethod
    def build(cls, rows: int, width: int, rng: np.random.Generator) -> "CellSketch":
        return cls(
            rows=rows,
            width=width,
            index_hashes=[_draw_hash(rng) for _ in range(rows)],
        )

    def _bucket_key(self, row: int, item_id: int) -> tuple[int, int]:
        return row, self.index_hashes[row].value(item_id) % self.width

    def update(self, item_id: int, delta: int):
        for r in range(self.rows):
            key = self._bucket_key(r, item_id)
            b = self.buckets.get(key)
            if b is None:
                b = OneSparse()
                self.buckets[key] = b
            b.update(item_id, delta)
            if b.is_zero():
                del self.buckets[key]

    @property
    def allocated_words(self) -> int:
        return 3 * self.rows * self.width

    @property
    def resident_words(self) -> int:
        return 3 * len(self.buckets)

    def decode(self) -> dict[int, int] | None:
        """Queue peel: O(buckets + peels * rows) one-sparse tests.

        The queue starts with every bucket in sorted key order; a peel
        re-queues only the buckets it changed.  The one-sparse test is exact,
        so on a nonneg vector the result does not depend on peel order.
        """
        work = {k: b.copy() for k, b in self.buckets.items()}
        out: dict[int, int] = {}
        peels_left = 4 * len(work) + 8
        queue = deque(sorted(work))
        while queue and work:
            key = queue.popleft()
            b = work.get(key)
            got = None if b is None else b.decode()
            if got is None:
                continue
            if not peels_left:
                return None
            peels_left -= 1
            item_id, w = got
            out[item_id] = out.get(item_id, 0) + w
            for r in range(self.rows):
                key = self._bucket_key(r, item_id)
                b = work.get(key)
                if b is not None:
                    b.update(item_id, -w)
                    if b.is_zero():
                        del work[key]
                    else:
                        queue.append(key)
        return None if work else out


@dataclass
class TwoLevelSampler:
    """Recover original items per grid cell from a stream of (cell, point) pairs.

    Outer level: each of `rows` repetitions hashes the cell id to one of
    `width` buckets, so all pairs of one cell land together.  Inner level:
    pairs enter subsampling level l only when the point hash has l low zero
    bits, thinning co-resident points geometrically until some bucket is
    1-sparse.  Supports both "one point of this cell" recovery and drawing a
    near-uniform pair from the whole support.
    """

    rows: int
    width: int
    levels: int
    point_space: int
    row_hashes: list[HashFn]
    sub_hash: HashFn
    buckets: dict[tuple[int, int, int], OneSparse] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        rows: int,
        width: int,
        levels: int,
        point_space: int,
        rng: np.random.Generator,
    ) -> "TwoLevelSampler":
        return cls(
            rows=rows,
            width=width,
            levels=levels,
            point_space=point_space,
            row_hashes=[_draw_hash(rng) for _ in range(rows)],
            sub_hash=_draw_hash(rng),
        )

    def encode_pair(self, cell_id: int, point_id: int) -> int:
        return cell_id * self.point_space + point_id

    def decode_pair(self, pair_id: int) -> tuple[int, int]:
        return divmod(pair_id, self.point_space)

    def update(self, cell_id: int, point_id: int, delta: int):
        pair = self.encode_pair(cell_id, point_id)
        sub = self.sub_hash.value(point_id)
        for r in range(self.rows):
            idx = self.row_hashes[r].value(cell_id) % self.width
            for lvl in range(self.levels + 1):
                if lvl and sub % (1 << lvl):
                    break
                key = (r, lvl, idx)
                b = self.buckets.get(key)
                if b is None:
                    b = OneSparse()
                    self.buckets[key] = b
                b.update(pair, delta)
                if b.is_zero():
                    del self.buckets[key]

    @property
    def allocated_words(self) -> int:
        return 3 * self.rows * self.width * (self.levels + 1)

    @property
    def resident_words(self) -> int:
        return 3 * len(self.buckets)

    def recover_point(self, cell_id: int) -> int | None:
        """One original point id of the given cell, or None if recovery failed."""
        for r in range(self.rows):
            idx = self.row_hashes[r].value(cell_id) % self.width
            for lvl in range(self.levels + 1):
                b = self.buckets.get((r, lvl, idx))
                if b is None:
                    continue
                got = b.decode()
                if got is None:
                    continue
                cell, point = self.decode_pair(got[0])
                if cell == cell_id:
                    return point
        return None

    def is_empty(self) -> bool:
        return not self.buckets

    def sample(self) -> tuple[int, int] | None:
        """A (cell id, point id) pair from the support, or None when empty.

        Scans subsampling levels from sparsest down; the survivor at the first
        decodable level is near-uniform over the support under fresh hash
        seeds.  Raises SamplerDecodeError when data is present but nothing
        decodes.
        """
        from .errors import SamplerDecodeError

        if self.is_empty():
            return None
        by_level: dict[int, list[tuple[int, int, int]]] = {}
        for key in self.buckets:
            by_level.setdefault(key[1], []).append(key)
        for lvl in range(self.levels, -1, -1):
            keys = by_level.get(lvl)
            if not keys:
                continue
            for key in sorted(keys):
                got = self.buckets[key].decode()
                if got is not None:
                    return self.decode_pair(got[0])
        raise SamplerDecodeError("no decodable bucket in a nonempty sampler")
