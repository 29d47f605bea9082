import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kcdr.geometry import (
    DOUBLING_MAX_POINTS,
    DatasetSpec,
    build_epsilon_net,
    estimate_doubling_dimension,
    generate_dataset,
    pairwise_distances,
    point_set,
    read_pointset_text,
    with_colors,
    write_pointset_text,
)


coords_strategy = st.lists(
    st.lists(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    ),
    min_size=1,
    max_size=12,
)


class TestPointSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            point_set([[0.0, float("nan")]])

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            point_set([[0.0]], multiplicity=[0])

    def test_rejects_partial_color_vector(self):
        with pytest.raises(ValueError):
            point_set([[0.0], [1.0]], color=[1])

    def test_total_weight_sums_multiplicities(self):
        ps = point_set([[0.0], [1.0]], multiplicity=[3, 4])
        assert ps.total_weight == 7

    def test_backing_arrays_immutable(self):
        ps = point_set([[0.0, 1.0]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0


@given(coords_strategy)
def test_triangle_inequality(rows):
    ps = point_set(rows)
    d = pairwise_distances(ps.coords)
    for a in range(ps.n):
        for b in range(ps.n):
            for c in range(ps.n):
                assert d[a, c] <= d[a, b] + d[b, c] + 1e-9


class TestEpsilonNet:
    def test_singleton(self):
        net = build_epsilon_net(point_set([[0.0]]), 1.0)
        assert net.n == 1

    def test_greedy_scan_by_hand(self):
        # index order: 0 joins, 0.5 is within r of 0, 3 is beyond r
        ps = point_set([[0.0], [0.5], [3.0]])
        net = build_epsilon_net(ps, 1.0)
        assert net.coords[:, 0].tolist() == [0.0, 3.0]

    def test_duplicates_collapse(self):
        ps = point_set([[2.0, 2.0]] * 9)
        assert build_epsilon_net(ps, 0.25).n == 1

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            build_epsilon_net(point_set([[0.0]]), 0.0)

    @given(coords_strategy, st.floats(0.1, 20))
    def test_covering_and_packing(self, rows, r):
        ps = point_set(rows)
        net = build_epsilon_net(ps, r)
        assert pairwise_distances(ps.coords, net.coords).min(axis=1).max() <= r
        d = pairwise_distances(net.coords)
        off = d[np.triu_indices(net.n, k=1)]
        if off.size:
            assert off.min() > r


class TestDoublingDimension:
    def test_line_is_low_dimensional(self):
        coords = np.zeros((16, 4))
        coords[:, 0] = np.arange(16)
        assert estimate_doubling_dimension(point_set(coords)) <= 3.0

    def test_two_points(self):
        assert estimate_doubling_dimension(point_set([[0.0], [5.0]])) <= 1.0

    def test_multiplicity_invariance(self):
        two = point_set([[0.0], [5.0]])
        dup = point_set([[0.0], [5.0], [0.0], [5.0]])
        assert estimate_doubling_dimension(dup) == estimate_doubling_dimension(two)

    def test_degenerate_set(self):
        with pytest.raises(ValueError, match="degenerate set"):
            estimate_doubling_dimension(point_set([[1.0], [1.0]]))

    def test_size_cap_is_a_domain_error(self):
        # the estimate's m x m matrix must not end in a bare MemoryError
        coords = np.arange(DOUBLING_MAX_POINTS + 1, dtype=float)[:, None]
        with pytest.raises(ValueError, match="limited to"):
            estimate_doubling_dimension(point_set(coords))

    def test_subset_estimate_within_slack(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
        ps = point_set(rng.normal(size=(20, 2)))
        full = estimate_doubling_dimension(ps)
        for seed in range(3):
            r2 = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            idx = sorted(r2.choice(20, size=10, replace=False).tolist())
            sub = estimate_doubling_dimension(ps.subset(idx))
            assert sub <= full + 1.0


class TestGenerateDataset:
    def test_orthonormal_plus_origin(self):
        ps = generate_dataset(DatasetSpec(kind="orthonormal-plus-origin", dim=3, k=2))
        want = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        assert ps.coords.tolist() == want

    def test_outlier_tightness_shape(self):
        ps = generate_dataset(DatasetSpec(kind="outlier-tightness", dim=2, k=1, z=2))
        assert ps.n == 3
        assert ps.total_weight == 5
        assert ps.multiplicity.tolist() == [2, 2, 1]
        d = pairwise_distances(ps.coords)
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)
        # the light point sits a third of the way along the first edge
        assert d[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_simplex_pairwise_unit(self):
        ps = generate_dataset(DatasetSpec(kind="outlier-tightness", dim=5, k=4, z=1))
        d = pairwise_distances(ps.coords[:5])
        off = d[np.triu_indices(5, k=1)]
        assert np.allclose(off, 1.0, atol=1e-9)

    def test_determinism(self):
        spec = DatasetSpec(kind="gaussian-clusters", dim=3, n=20, k=2, seed=9)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert np.array_equal(a.coords, b.coords)

    def test_invalid_parameter_names_field(self):
        with pytest.raises(ValueError, match="'k'"):
            generate_dataset(DatasetSpec(kind="orthonormal-plus-origin", dim=2, k=5))
        with pytest.raises(ValueError, match="'delta'"):
            generate_dataset(DatasetSpec(kind="grid-uniform", dim=2, n=5, delta=1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            generate_dataset(DatasetSpec(kind="moebius", dim=2))


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        ps = point_set(
            [[0.5, -1.25], [3.0, 4.0]], multiplicity=[2, 1], color=[1, 2]
        )
        path = tmp_path / "ps.txt"
        write_pointset_text(ps, str(path))
        back = read_pointset_text(str(path))
        assert np.array_equal(back.coords, ps.coords)
        assert np.array_equal(back.multiplicity, ps.multiplicity)
        assert np.array_equal(back.color, ps.color)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 1\n2.5e-3\n")
        assert read_pointset_text(str(path)).coords[0, 0] == 2.5e-3

    def test_partial_colors_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n0.0 c=1\n1.0\n")
        with pytest.raises(ValueError):
            read_pointset_text(str(path))

    def test_with_colors(self):
        ps = with_colors(point_set([[0.0], [1.0]]), [2, 1])
        assert ps.color.tolist() == [2, 1]
