import json
import math

import numpy as np
import pytest

from kcdr.cli import main
from kcdr.geometry import (
    DOUBLING_MAX_POINTS,
    DatasetSpec,
    point_set,
    read_pointset_text,
    write_pointset_text,
)
from kcdr.harness import (
    ExperimentConfig,
    ratio_of,
    run_dimred_sweep,
    run_lowerbound_demo,
    run_streaming_demo,
    write_json,
    write_records_csv,
)
from kcdr.streaming import StreamUpdate, write_stream_text

CSV_HEADER = (
    "dataset_seed,map_seed,variant,alpha,d,t,opt_original,opt_projected,"
    "ratio,method_original,method_projected"
)


def sweep_config(**kw) -> ExperimentConfig:
    spec = DatasetSpec(
        kind=kw.pop("kind", "gaussian-clusters"),
        dim=kw.pop("dim", 6),
        n=kw.pop("n", 30),
        k=kw.pop("k", 2),
        separation=4.0,
        seed=kw.pop("dataset_seed", 1),
    )
    return ExperimentConfig(dataset=spec, **kw)


class TestRatioOf:
    def test_degenerate_zero_over_zero(self):
        assert ratio_of(0.0, 0.0) == 1.0

    def test_positive_over_zero(self):
        assert ratio_of(5.0, 0.0) == math.inf

    def test_plain_division(self):
        assert ratio_of(6.0, 3.0) == 2.0


class TestDimredSweep:
    def test_capped_t_is_near_isometry(self):
        # alpha equal to c0 makes the capped map unit-scale: only the random
        # rotation at t == d separates the two objective values
        rep = run_dimred_sweep(sweep_config(alpha=3.0, map_seeds=(0, 1, 2, 3, 4)))
        assert rep["t"] == 6
        assert 0.5 <= rep["median_ratio"] <= 2.0

    def test_degenerate_instance_ratio_one(self):
        rep = run_dimred_sweep(
            sweep_config(dim=3, n=3, k=5, dataset_seed=0, alpha=2.0, map_seeds=(0, 1))
        )
        assert [r["ratio"] for r in rep["records"]] == [1.0, 1.0]

    def test_report_embeds_config_and_records(self):
        cfg = sweep_config(alpha=2.0, map_seeds=(3, 4))
        rep = run_dimred_sweep(cfg)
        assert rep["config"] == cfg.to_dict()
        assert len(rep["records"]) == 2
        assert {r["map_seed"] for r in rep["records"]} == {3, 4}
        ratios = sorted(r["ratio"] for r in rep["records"])
        assert rep["min_ratio"] == ratios[0]
        assert rep["max_ratio"] == ratios[-1]

    def test_deterministic(self):
        cfg = sweep_config(alpha=2.0, map_seeds=(0, 1, 2))
        assert run_dimred_sweep(cfg) == run_dimred_sweep(cfg)


class TestLowerboundDemo:
    def test_full_dimension_no_shrinkage(self):
        rep = run_lowerbound_demo(64, 64, range(5))
        assert 0.7 <= rep["median_min_col_norm"] <= 1.3
        assert 0.35 <= rep["separation_proxy"] <= 0.65

    def test_single_column_only_fluctuates(self):
        rep = run_lowerbound_demo(1, 32, range(5))
        assert 0.7 <= rep["median_min_col_norm"] <= 1.3

    def test_small_t_shrinks_a_column(self):
        rep = run_lowerbound_demo(64, 4, range(20))
        assert rep["median_min_col_norm"] < 0.5

    def test_per_seed_records_retained(self):
        rep = run_lowerbound_demo(8, 4, [7, 9])
        assert [r["seed"] for r in rep["per_seed"]] == [7, 9]
        assert all(0 <= r["argmin"] < 8 for r in rep["per_seed"])
        assert rep["separation_proxy"] == rep["median_min_col_norm"] / 2.0


class TestStreamingDemo:
    def test_random_round_trip(self):
        rep = run_streaming_demo(d=3, t=3, delta=64, k=3, n_survivors=120, n_cancelled=30, seed=2)
        assert 0.25 <= rep["value_ratio"] <= 4.0
        assert rep["centers_in_stream"]
        assert rep["n_updates"] == 120 + 2 * 30
        assert rep["n_survivors"] <= 120
        lv = rep["space"]["levels"][rep["query"]["level"]]
        assert lv["cells"] <= rep["space"]["budget_per_level"]
        assert rep["config"]["stream"]["delta"] == 64

    def test_repeated_point_ratio_one_constant_space(self):
        many = run_streaming_demo(
            d=2, t=2, delta=32, k=2, n_survivors=0,
            updates=[StreamUpdate("insert", (7, 7))] * 50,
        )
        once = run_streaming_demo(
            d=2, t=2, delta=32, k=2, n_survivors=0,
            updates=[StreamUpdate("insert", (7, 7))],
        )
        assert many["value_ratio"] == 1.0
        assert many["query"]["value"] == 0.0
        assert many["space"]["total_words"] == once["space"]["total_words"]

    def test_emptied_stream_recorded(self):
        rep = run_streaming_demo(
            d=2, t=2, delta=32, k=1, n_survivors=0,
            updates=[StreamUpdate("insert", (3, 3)), StreamUpdate("delete", (3, 3))],
        )
        assert rep["error"] == "empty stream"
        assert rep["n_survivors"] == 0
        assert "query" not in rep

    def test_sample_level_recorded(self):
        rep = run_streaming_demo(
            d=2, t=2, delta=32, k=1, n_survivors=10, seed=4, sample_level=0
        )
        assert rep["sample"] is not None
        assert rep["sample"]["point_in_stream"]


class TestReportFiles:
    def test_write_json_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(str(path), {"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(2)})
        with open(path) as fh:
            assert json.load(fh) == {"a": 3, "b": 0.5, "c": [0, 1]}

    def test_csv_schema_golden(self, tmp_path):
        cfg = sweep_config(alpha=2.0, map_seeds=(0, 1))
        rep = run_dimred_sweep(cfg)
        path = tmp_path / "r.csv"
        write_records_csv(str(path), rep["records"], rep["config"])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: {")
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + len(rep["records"])

    def test_csv_stable_across_runs(self, tmp_path):
        cfg = sweep_config(alpha=2.0, map_seeds=(0, 1))
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rep = run_dimred_sweep(cfg)
            write_records_csv(str(path), rep["records"], rep["config"])
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_csv_empty_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv(str(path), [], {"seed": 0})
        assert path.read_text() == '# config: {"seed": 0}\n'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def line_file(tmp_path):
    path = tmp_path / "line.txt"
    write_pointset_text(point_set([[0.0], [10.0], [4.0]]), str(path))
    return str(path)


class TestCliGenerateAndReduce:
    def test_gen_dataset(self, capsys, tmp_path):
        out = tmp_path / "ps.txt"
        code, stdout, _ = run_cli(
            capsys, "gen-dataset", "--kind", "gaussian-clusters",
            "--dim", "4", "--n", "20", "--k", "2", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["n"] == 20
        assert read_pointset_text(str(out)).dim == 4

    def test_gen_dataset_with_colors(self, capsys, tmp_path):
        out = tmp_path / "ps.txt"
        code, _, _ = run_cli(
            capsys, "gen-dataset", "--kind", "grid-uniform",
            "--dim", "2", "--n", "9", "--k", "1", "--delta", "8",
            "--colors", "2", "--out", str(out),
        )
        assert code == 0
        colors = read_pointset_text(str(out)).color
        assert colors is not None and set(colors.tolist()) <= {1, 2}

    def test_reduce_writes_projection_and_map(self, capsys, tmp_path):
        src = tmp_path / "ps.txt"
        write_pointset_text(point_set(np.eye(16)), str(src))
        out, map_out = tmp_path / "proj.txt", tmp_path / "map.txt"
        code, stdout, _ = run_cli(
            capsys, "reduce", "--in", str(src), "--k", "2", "--alpha", "8.0",
            "--out", str(out), "--map-out", str(map_out),
        )
        assert code == 0
        payload = json.loads(stdout)
        proj = read_pointset_text(str(out))
        assert proj.dim == payload["t"] < 16
        assert map_out.exists()

    def test_reduce_doubling_size_cap_exits_2(self, capsys, tmp_path):
        src = tmp_path / "big.txt"
        coords = np.arange(DOUBLING_MAX_POINTS + 1, dtype=float)[:, None]
        write_pointset_text(point_set(coords), str(src))
        code, _, err = run_cli(
            capsys, "reduce", "--in", str(src), "--k", "2", "--variant", "doubling",
            "--out", str(tmp_path / "out.txt"),
        )
        assert code == 2
        assert "ValueError" in err and "limited to" in err

    def test_reduce_rejects_unit_alpha(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "reduce", "--in", line_file(tmp_path), "--k", "1",
            "--alpha", "1.0", "--out", str(tmp_path / "o.txt"),
        )
        assert code == 2
        assert "ValueError" in err


class TestCliSolve:
    def test_gonzalez(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", line_file(tmp_path), "--alg", "gonzalez", "--k", "2",
        )
        assert code == 0
        assert json.loads(stdout) == {"center_indices": [0, 1], "value": 4.0}

    def test_exact_matches_gonzalez_here(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", line_file(tmp_path), "--alg", "exact", "--k", "2",
        )
        assert code == 0
        assert json.loads(stdout)["value"] == 4.0

    def test_exact_outliers(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", line_file(tmp_path),
            "--alg", "exact-outliers", "--k", "1", "--z", "3",
        )
        assert code == 0
        assert json.loads(stdout)["value"] == 0.0

    def test_peel_witness(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", line_file(tmp_path),
            "--alg", "peel-witness", "--k", "1", "--z", "1",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["witness_units"] == min(3, 2 * 2)
        assert payload["solution"]["value"] >= 0.0

    def test_feasible_assignment(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", line_file(tmp_path), "--alg", "feasible",
            "--k", "2", "--capacity", "2", "--centers", "0,1", "--radius", "5.0",
        )
        assert code == 0
        assert json.loads(stdout)["feasible"] is True

    def test_capacity_above_int32_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--in", line_file(tmp_path), "--alg", "feasible",
            "--k", "2", "--capacity", "3000000000", "--centers", "0,1", "--radius", "5.0",
        )
        assert code == 2
        assert "int32" in err

    def test_exact_constrained_capacitated(self, capsys, tmp_path):
        src = tmp_path / "four.txt"
        write_pointset_text(point_set([[0.0], [1.0], [10.0], [11.0]]), str(src))
        code, stdout, _ = run_cli(
            capsys, "solve", "--in", str(src), "--alg", "exact-constrained",
            "--k", "2", "--capacity", "2",
        )
        assert code == 0
        assert json.loads(stdout)["value"] == 1.0

    def test_constraint_flags_required(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--in", line_file(tmp_path),
            "--alg", "exact-constrained", "--k", "1",
        )
        assert code == 2
        assert "ValueError" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--in", str(tmp_path / "nope.txt"), "--alg", "exact", "--k", "1",
        )
        assert code == 1
        assert "kcdr: error:" in err

    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alg", "not-an-alg", "--in", "x", "--k", "1"])
        assert exc.value.code == 1


class TestCliProbeAndSweep:
    def test_probe_tail(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "probe", "--kind", "tail", "--t", "4", "--r", "4.5",
            "--trials", "1000",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert 0.0 <= payload["estimate"] <= 1.0
        assert payload["bound"] == pytest.approx(math.exp(-4.5**2 / 5.0))

    def test_probe_expansion(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "probe", "--kind", "expansion", "--d", "16", "--t", "4",
            "--trials", "200",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert 0.0 < payload["operator_norm_probe"] <= payload["reference"]

    def test_probe_distortion(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "probe", "--kind", "distortion", "--in", line_file(tmp_path),
            "--t", "1", "--eps", "0.5",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["pair_count"] == 3
        assert payload["min_ratio"] <= payload["max_ratio"]

    def test_sweep_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--kind", "gaussian-clusters", "--dim", "5",
            "--n", "20", "--k", "2", "--map-seeds", "2", "--csv", str(csv_path),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n_records"] == 2
        assert payload["median_ratio"] > 0.0
        assert csv_path.read_text().splitlines()[1] == CSV_HEADER

    def test_constrained_sweep(self, capsys):
        argv = ("sweep", "--dim", "5", "--n", "20", "--k", "2", "--map-seeds", "2",
                "--variant", "constrained")
        code, stdout, _ = run_cli(capsys, *argv, "--capacity", "15")
        assert code == 0
        assert json.loads(stdout)["median_ratio"] > 0.0
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "needs a constraint" in err

    def test_lowerbound(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "lowerbound", "--d", "16", "--t", "4", "--seeds", "3",
        )
        assert code == 0
        assert len(json.loads(stdout)["per_seed"]) == 3


class TestCliStream:
    def stream_file(self, tmp_path, updates, d=2, delta=32, n_hint=16):
        path = tmp_path / "stream.txt"
        write_stream_text(updates, d, delta, str(path), n_hint=n_hint)
        return str(path)

    def test_query_with_space_and_sample(self, capsys, tmp_path):
        ups = [StreamUpdate("insert", (3, 4)), StreamUpdate("insert", (20, 25))]
        path = self.stream_file(tmp_path, ups)
        code, stdout, _ = run_cli(
            capsys, "stream", "--in", path, "--t", "2", "--k", "2",
            "--space", "--sample-level", "0",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["net_weight"] == 2
        assert payload["result"]["value"] >= 0.0
        assert payload["sample"]["point"] in ([3, 4], [20, 25])
        assert payload["space"]["updates_processed"] == 2

    def test_query_none_skips_result(self, capsys, tmp_path):
        path = self.stream_file(tmp_path, [StreamUpdate("insert", (5, 5))])
        code, stdout, _ = run_cli(
            capsys, "stream", "--in", path, "--t", "2", "--k", "1", "--query", "none",
        )
        assert code == 0
        assert "result" not in json.loads(stdout)

    def test_emptied_stream_exits_two(self, capsys, tmp_path):
        ups = [StreamUpdate("insert", (5, 5)), StreamUpdate("delete", (5, 5))]
        path = self.stream_file(tmp_path, ups)
        code, _, err = run_cli(capsys, "stream", "--in", path, "--t", "2", "--k", "1")
        assert code == 2
        assert "empty stream" in err

    def test_constrained_query_needs_flags(self, capsys, tmp_path):
        path = self.stream_file(tmp_path, [StreamUpdate("insert", (5, 5))])
        code, _, err = run_cli(
            capsys, "stream", "--in", path, "--t", "2", "--k", "1",
            "--query", "constrained",
        )
        assert code == 2
        assert "ValueError" in err

    def test_stream_demo(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "stream-demo", "--n", "25", "--cancelled", "5", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["centers_in_stream"] is True
        assert payload["value_ratio"] >= 0.0
