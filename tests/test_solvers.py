import itertools

import numpy as np
import pytest

from kcdr import solvers
from kcdr.errors import OracleBudgetError
from kcdr.geometry import DatasetSpec, generate_dataset, pairwise_distances, point_set
from kcdr.solvers import (
    exact_discrete_kcenter,
    exact_discrete_outliers,
    exact_fpq_oracle,
    fpq,
    gonzalez,
    kcenter_value,
    peel_witness,
    relaxed_gonzalez,
)

LINE = point_set([[0.0], [10.0], [4.0]])


def random_instance(seed, n_hi=12, k_hi=3, d_hi=4):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n = int(rng.integers(2, n_hi + 1))
    k = int(rng.integers(1, k_hi + 1))
    d = int(rng.integers(1, d_hi + 1))
    return point_set(rng.normal(size=(n, d)) * 5.0), k


class TestGonzalez:
    def test_worked_line_instance(self):
        run = gonzalez(LINE, 2, start_index=0)
        assert run.S == [0, 1, 2]  # 0, then 10, then 4
        assert run.solution.center_indices == (0, 1)
        assert run.solution.value == 4.0

    def test_k_at_least_n(self):
        assert gonzalez(LINE, 3).solution.value == 0.0
        assert gonzalez(LINE, 7).solution.value == 0.0

    def test_all_duplicates(self):
        ps = point_set([[2.0, 2.0]] * 5)
        run = gonzalez(ps, 2)
        assert run.solution.value == 0.0
        assert run.S == [0]

    def test_value_recomputable_from_centers(self):
        for seed in range(20):
            ps, k = random_instance(seed)
            sol = gonzalez(ps, k).solution
            recomputed = kcenter_value(ps, sol.center_indices)
            assert recomputed <= sol.value + 1e-9

    def test_factor_two_versus_exact(self):
        for seed in range(50):
            ps, k = random_instance(seed)
            greedy = gonzalez(ps, k).solution.value
            exact = exact_discrete_kcenter(ps, k).value
            assert greedy <= 2.0 * exact + 1e-9

    def test_pick_spread_is_witness(self):
        # min pairwise distance among the k+1 picks bounds the greedy value
        for seed in range(50):
            ps, k = random_instance(seed)
            run = gonzalez(ps, k)
            if len(run.S) < 2:
                continue
            d = pairwise_distances(ps.coords[run.S])
            spread = float(d[np.triu_indices(len(run.S), k=1)].min())
            assert spread >= run.solution.value - 1e-9


class TestFPQ:
    def test_query_equals_data(self):
        _, dist = fpq(LINE, LINE)
        assert dist == 0.0

    def test_enumerated_case(self):
        idx, dist = fpq(point_set([[0.0], [5.0]]), point_set([[1.0]]))
        assert idx == 1
        assert dist == 4.0

    def test_duplicate_tie_break(self):
        ps = point_set([[0.0], [5.0], [5.0]])
        idx, _ = fpq(ps, point_set([[0.0]]))
        assert idx == 1

    def test_empty_rejected(self):
        import numpy as _np
        from kcdr.geometry import PointSet

        empty = PointSet(_np.zeros((0, 1)), _np.zeros(0, dtype=_np.int64))
        with pytest.raises(ValueError):
            fpq(empty, LINE)


class TestRelaxedGonzalez:
    def test_exact_oracle_matches_worked_case(self):
        centers, est = relaxed_gonzalez(LINE, 2, exact_fpq_oracle)
        assert est == 4.0
        assert centers == [0, 1]

    def test_k_at_least_n(self):
        _, est = relaxed_gonzalez(LINE, 3, exact_fpq_oracle)
        assert est == 0.0

    def test_declared_alpha_scales_estimate(self):
        # the oracle is exact but declared 2-approximate: estimate 2D = 8,
        # inside [OPT, 4*OPT] = [4, 16]
        _, est = relaxed_gonzalez(LINE, 2, exact_fpq_oracle, alpha=2.0)
        assert est == 8.0
        assert 4.0 <= est <= 16.0

    def test_bad_oracle_index(self):
        with pytest.raises(ValueError, match="invalid index"):
            relaxed_gonzalez(LINE, 2, lambda ps, s: 99)

    def test_estimate_band_versus_exact(self):
        for seed in range(30):
            ps, k = random_instance(seed)
            _, est = relaxed_gonzalez(ps, k, exact_fpq_oracle)
            opt = exact_discrete_kcenter(ps, k).value
            assert opt / 2.0 - 1e-9 <= est <= 2.0 * opt + 1e-9


class TestExactDiscreteKCenter:
    def test_worked_case_lexicographic(self):
        sol = exact_discrete_kcenter(LINE, 2)
        assert sol.value == 4.0
        assert sol.center_indices == (0, 1)

    def test_k_at_least_distinct(self):
        assert exact_discrete_kcenter(LINE, 3).value == 0.0

    def test_two_tight_clusters(self):
        ps = point_set([[0.0], [0.0], [7.0], [7.0]])
        assert exact_discrete_kcenter(ps, 2).value == 0.0

    def test_budget_guard(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
        big = point_set(rng.normal(size=(500, 2)))
        with pytest.raises(OracleBudgetError, match="oracle budget exceeded"):
            exact_discrete_kcenter(big, 3)


class TestExactDiscreteOutliers:
    def test_tightness_instance_discrete_third(self):
        ps = generate_dataset(DatasetSpec(kind="outlier-tightness", dim=2, k=1, z=2))
        sol = exact_discrete_outliers(ps, 1, 2)
        assert sol.value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_tightness_instance_continuous_sixth(self):
        # 1-d continuous optimum by unit expansion: drop any 2 of the 5 weight
        # units, best center is the midpoint of the survivors
        ps = generate_dataset(DatasetSpec(kind="outlier-tightness", dim=2, k=1, z=2))
        xs = [float(ps.coords[i, 0]) for i in range(ps.n) for _ in range(int(ps.multiplicity[i]))]
        assert all(abs(float(c)) < 1e-12 for c in ps.coords[:, 1])
        cont = min(
            (max(keep) - min(keep)) / 2.0 for keep in itertools.combinations(xs, 3)
        )
        assert cont == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_z_zero_reduces_to_kcenter(self):
        for seed in range(20):
            ps, k = random_instance(seed)
            a = exact_discrete_outliers(ps, k, 0)
            b = exact_discrete_kcenter(ps, k)
            assert a.value == b.value

    def test_single_point(self):
        assert exact_discrete_outliers(point_set([[4.0]]), 2, 3).value == 0.0

    def test_z_swallows_everything(self):
        sol = exact_discrete_outliers(LINE, 1, 3)
        assert sol.value == 0.0

    def test_multiplicity_counts_toward_z(self):
        # heavy far point: one unit of z is not enough, two are
        ps = point_set([[0.0], [100.0]], multiplicity=[3, 2])
        assert exact_discrete_outliers(ps, 1, 1).value == 100.0
        assert exact_discrete_outliers(ps, 1, 2).value == 0.0


class TestPeelWitness:
    def test_z_zero_is_gonzalez_prefix(self):
        for seed in range(10):
            ps, k = random_instance(seed)
            wit = peel_witness(ps, k, 0)
            picks = gonzalez(ps, k).S
            want = sorted(map(tuple, ps.coords[picks]))
            got = sorted(map(tuple, wit.coords))
            assert got == want

    def test_exhaustion_returns_everything(self):
        ps = point_set([[float(i)] for i in range(6)])  # (k+1)(z+1) = 6
        wit = peel_witness(ps, 1, 2)
        assert sorted(wit.coords[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_size_cap(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        ps = point_set(rng.normal(size=(30, 2)))
        wit = peel_witness(ps, 2, 2)
        assert wit.total_weight == 9  # (k+1)(z+1)

    def test_factor_three_floor(self):
        for seed in range(60):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            n = int(rng.integers(3, 15))
            k = int(rng.integers(1, 3))
            z = int(rng.integers(0, 3))
            ps = point_set(rng.normal(size=(n, 2)) * 4.0)
            full = exact_discrete_outliers(ps, k, z).value
            wit = exact_discrete_outliers(peel_witness(ps, k, z), k, z).value
            assert wit >= full / 3.0 - 1e-9


# ---------------------------------------------------------------------------
# Per-subset reference enumerators: the oracles' definition, one numpy call
# per k-subset.  The batched oracles must match them exactly.


def _ref_kcenter(ps, k):
    idx = ps.distinct_indices()
    m = len(idx)
    if k >= m:
        return tuple(int(i) for i in idx), 0.0
    dmat = pairwise_distances(ps.coords, ps.coords[idx])
    best_val, best = float("inf"), None
    for combo in itertools.combinations(range(m), k):
        val = float(dmat[:, combo].min(axis=1).max())
        if val < best_val:
            best_val, best = val, combo
    return tuple(int(idx[c]) for c in best), best_val


def _ref_split(dists, mult, z):
    rep_d = np.repeat(dists, mult)
    rep_i = np.repeat(np.arange(len(dists)), mult)
    order = np.lexsort((rep_i, -rep_d))
    value = float(rep_d[order[z]]) if z < len(rep_d) else 0.0
    return value, tuple(int(i) for i in rep_i[order[:z]])


def _ref_outliers(ps, k, z):
    if z >= ps.total_weight:
        return (), tuple(int(i) for i in np.repeat(np.arange(ps.n), ps.multiplicity)), 0.0
    idx = ps.distinct_indices()
    m = len(idx)
    dmat = pairwise_distances(ps.coords, ps.coords[idx])
    best_val, best = float("inf"), None
    for combo in itertools.combinations(range(m), min(k, m)):
        val, _ = _ref_split(dmat[:, combo].min(axis=1), ps.multiplicity, z)
        if val < best_val:
            best_val, best = val, combo
    _, dropped = _ref_split(dmat[:, best].min(axis=1), ps.multiplicity, z)
    return tuple(int(idx[c]) for c in best), dropped, best_val


def _assert_oracles_match_reference(ps, k, z):
    kc = exact_discrete_kcenter(ps, k)
    assert (kc.center_indices, kc.value) == _ref_kcenter(ps, k)
    out = exact_discrete_outliers(ps, k, z)
    assert (out.center_indices, out.outlier_indices, out.value) == _ref_outliers(ps, k, z)


class TestBatchedOraclesMatchEnumeration:
    # Smaller block caps cut these small instances into chunks whose
    # prefixes change head mid-chunk (128) or into one prefix per chunk and
    # a few columns per block (16), so every chunking path runs.
    @pytest.mark.parametrize("block_elems", [solvers._BLOCK_ELEMS, 128, 16])
    def test_tie_heavy_instances(self, block_elems, monkeypatch):
        # Integer coordinates in 0..4 make equal distances and co-located
        # points common, so the lexicographic tie-break is exercised.
        monkeypatch.setattr(solvers, "_BLOCK_ELEMS", block_elems)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(23)))
        seen = set()
        for _ in range(2000):
            n = int(rng.integers(1, 13))
            ps = point_set(
                rng.integers(0, 5, size=(n, int(rng.integers(1, 3)))).astype(float),
                multiplicity=rng.integers(1, 4, size=n),
            )
            k = int(rng.integers(1, 6))
            z = int(rng.integers(0, 6))
            m = len(ps.distinct_indices())
            seen.update(
                name
                for name, hit in (
                    ("k=1", k == 1),
                    ("k>=m", k >= m),
                    ("z>=W", z >= ps.total_weight),
                    ("z+1>n", z < ps.total_weight and z + 1 > n),
                )
                if hit
            )
            _assert_oracles_match_reference(ps, k, z)
        assert seen == {"k=1", "k>=m", "z>=W", "z+1>n"}

    def test_wide_prefixes(self):
        # k=8 over 18 locations: C(18,7) prefixes, the sweep-greedy witness shape.
        rng = np.random.Generator(np.random.Philox(key=np.uint64(24)))
        i = np.arange(18)
        ps = point_set(
            np.column_stack([i % 5, i // 5, rng.integers(0, 5, size=18)]).astype(float),
            multiplicity=rng.integers(1, 4, size=18),
        )
        _assert_oracles_match_reference(ps, 8, 2)


class TestSingleCenterBlocks:
    def test_k1_oracles_score_column_blocks(self, monkeypatch):
        # k=1 passes the budget up to 10^6 locations, so the oracles must not
        # build the n x m matrix; grid points make ties and repeats common.
        rng = np.random.Generator(np.random.Philox(key=np.uint64(25)))
        ps = point_set(
            rng.integers(0, 40, size=(2000, 2)).astype(float),
            multiplicity=rng.integers(1, 3, size=2000),
        )
        want_kc = _ref_kcenter(ps, 1)
        want_out = _ref_outliers(ps, 1, 3)
        sizes = []

        def recording(a, b=None):
            out = pairwise_distances(a, b)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(solvers, "pairwise_distances", recording)
        kc = exact_discrete_kcenter(ps, 1)
        assert (kc.center_indices, kc.value) == want_kc
        out = exact_discrete_outliers(ps, 1, 3)
        assert (out.center_indices, out.outlier_indices, out.value) == want_out
        assert len(sizes) > 2
        assert max(sizes) <= max(solvers._BLOCK_ELEMS, ps.n)
