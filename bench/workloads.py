"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every call into kcdr goes through a module attribute (``streaming.query_vanilla``
and so on) looked up at pass start, so a traced pass sees the wrappers that
spans.install() put in place and an untraced pass sees the originals.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

from kcdr import dimred, harness, solvers, streaming
from kcdr.errors import (
    AllLevelsFailedError,
    ConstraintInfeasibleError,
    OracleBudgetError,
    SamplerDecodeError,
)
from kcdr.geometry import DatasetSpec
from kcdr.harness import ExperimentConfig
from kcdr.solvers import AssignmentConstraint

DOMAIN_ERRORS = (
    SamplerDecodeError,
    AllLevelsFailedError,
    OracleBudgetError,
    ConstraintInfeasibleError,
)

# Bands taken from the acceptance tests: stream values (test_12) and sweep
# median ratios (test_08, upper end 4 * alpha).
STREAM_BAND = (0.25, 4.0)
SWEEP_LOW = 0.25

# Every stream workload: points in [1, DELTA]^D, k centers, and z for the
# outlier queries.
D, DELTA, K, QUERY_Z = 8, 1024, 3, 2


@dataclass
class PassResult:
    wall_s: float
    op_latency_s: list[float]  # every operation, to its result or its domain error
    outputs: list  # one per operation: a result, or the domain error raised
    intake_per_s: list[float]  # per input call: updates or dataset points taken in per second
    final_state: object = None


@dataclass
class StreamInputs:
    config: streaming.StreamConfig
    updates: list
    queries: list  # (update position, kind, argument), sorted by position


@dataclass
class SweepInputs:
    configs: list


@dataclass
class StreamWorkload:
    """A random insert/delete stream with queries interleaved.

    Two survivors per cancelled point; query kinds rotate in the given order.
    """

    kind = "stream"
    mode: str
    t: int
    survivors: int
    kinds: tuple[str, ...]
    n_queries: int = 100
    z: int = 0
    num_colors: int | None = None

    def config(self, seed: int) -> streaming.StreamConfig:
        return streaming.StreamConfig(
            d=D, t=self.t, delta=DELTA, k=K, z=self.z,
            seed=2 * seed + 1, mode=self.mode, num_colors=self.num_colors,
        )

    def make_inputs(self, seed: int) -> StreamInputs:
        updates = streaming.random_stream(
            D, DELTA, self.survivors, self.survivors // 2, seed=2 * seed, num_colors=self.num_colors
        )
        # Query q runs once the net weight first reaches (q + 1) / n_queries of
        # the survivors after query q - 1.  That is an even spacing up to the
        # interleaving's jitter, and each query sees the same number of points
        # (so the same cell count at level 0) on every seed.
        targets = [round((q + 1) * self.survivors / self.n_queries) for q in range(self.n_queries)]
        positions = []
        w = 0
        for i, u in enumerate(updates):
            w += 1 if u.op == "insert" else -1
            if len(positions) < len(targets) and w == targets[len(positions)]:
                positions.append(i)
        if len(positions) != len(targets):
            raise RuntimeError("stream never reached every query weight")
        queries = []
        for q, pos in enumerate(positions):
            kind = self.kinds[q % len(self.kinds)]
            if kind == "outliers":
                arg = QUERY_Z
            elif kind == "capacitated":
                arg = AssignmentConstraint("capacitated", capacity=math.ceil(1.5 * targets[q] / K))
            elif kind == "fair":
                arg = AssignmentConstraint("fair", lower_frac=0.1, upper_frac=1.0, num_colors=self.num_colors)
            else:
                arg = None
            queries.append((pos, kind, arg))
        return StreamInputs(self.config(seed), updates, queries)

    def setup(self, seed: int):
        return streaming.init_stream(self.config(seed))

    def run_pass(self, inputs: StreamInputs, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.set_op("init", 0)
        state = streaming.init_stream(inputs.config)
        process = streaming.process_update
        vanilla = streaming.query_vanilla
        outliers = streaming.query_outliers
        constrained = streaming.query_constrained
        clock = time.perf_counter
        queries = inputs.queries
        next_q = 0
        next_pos = queries[0][0]
        intake = []
        latency = []
        outputs = []
        root = tracer.open("bench.pass") if tracer is not None else -1
        start = clock()
        for i, u in enumerate(inputs.updates):
            if tracer is not None:
                tracer.set_op("update", i)
            t0 = clock()
            process(state, u)
            intake.append(1.0 / (clock() - t0))
            while i == next_pos:
                _, kind, arg = queries[next_q]
                if tracer is not None:
                    tracer.set_op("query", next_q)
                t0 = clock()
                try:
                    if kind == "vanilla":
                        res = vanilla(state)
                    elif kind == "outliers":
                        res = outliers(state, arg)
                    else:
                        res = constrained(state, arg)
                except DOMAIN_ERRORS as exc:
                    res = exc
                latency.append(clock() - t0)
                outputs.append(res)
                next_q += 1
                next_pos = queries[next_q][0] if next_q < len(queries) else -1
        wall = clock() - start
        if tracer is not None:
            tracer.close(root)
        return PassResult(wall, latency, outputs, intake, state)

    def check(self, inputs: StreamInputs, result: PassResult) -> list[str]:
        """Each answered query against an offline solve on the surviving points,
        projected through the stream's own map; every center must survive."""
        problems = []
        cfg = inputs.config
        gmap = result.final_state.map
        for (pos, kind, arg), res in zip(inputs.queries, result.outputs):
            if isinstance(res, Exception):
                continue
            survivors = streaming.replay_survivors(inputs.updates[: pos + 1], cfg.num_colors)
            proj = dimred.apply_map(gmap, survivors)
            if kind == "vanilla":
                offline = solvers.gonzalez(proj, cfg.k).solution.value
            elif kind == "outliers":
                witness = solvers.peel_witness(proj, cfg.k, arg)
                offline = solvers.exact_discrete_outliers(witness, cfg.k, arg).value
            else:
                anchors = list(solvers.gonzalez(proj, cfg.k).solution.center_indices)
                offline, _ = solvers.anchored_feasible_radius(proj, anchors, arg)
            ratio = harness.ratio_of(res.value, offline)
            if not STREAM_BAND[0] <= ratio <= STREAM_BAND[1]:
                problems.append(f"query at update {pos} ({kind}): value ratio {ratio:.3f} outside {STREAM_BAND}")
            alive = {tuple(int(x) for x in row) for row in survivors.coords}
            if not all(c in alive for c in res.centers):
                problems.append(f"query at update {pos} ({kind}): a center is not a surviving point")
        return problems

    def space(self, result: PassResult) -> dict[str, float]:
        report = streaming.space_report(result.final_state)
        resident = sum(lv["sketch_resident_words"] for lv in report["levels"])
        return {
            "streaming.state_words": float(report["total_words"]),
            "sketches.resident_buckets": resident / 3.0,  # three words per bucket
        }


@dataclass
class SweepWorkload:
    """A fixed batch of run_dimred_sweep instances, five map seeds each."""

    kind = "sweep"
    instances: tuple  # (variant, DatasetSpec keyword args, alpha, constraint or None)

    def make_inputs(self, seed: int) -> SweepInputs:
        configs = []
        for i, (variant, spec, alpha, constraint) in enumerate(self.instances):
            dataset = DatasetSpec(kind="gaussian-clusters", seed=1000 * seed + i, **spec)
            configs.append(
                ExperimentConfig(
                    dataset=dataset, variant=variant, alpha=alpha,
                    map_seeds=tuple(5 * seed + j for j in range(5)), constraint=constraint,
                )
            )
        return SweepInputs(configs)

    def setup(self, seed: int):
        return None

    def run_pass(self, inputs: SweepInputs, tracer=None) -> PassResult:
        sweep = harness.run_dimred_sweep
        clock = time.perf_counter
        latency = []
        intake = []
        outputs = []
        root = tracer.open("bench.pass") if tracer is not None else -1
        start = clock()
        for i, cfg in enumerate(inputs.configs):
            if tracer is not None:
                tracer.set_op("sweep", i)
                tracer.sweep_dim = cfg.dataset.dim
            t0 = clock()
            try:
                res = sweep(cfg)
            except DOMAIN_ERRORS as exc:
                res = exc
            latency.append(clock() - t0)
            intake.append((cfg.dataset.n + cfg.dataset.z) / latency[-1])
            outputs.append(res)
        wall = clock() - start
        if tracer is not None:
            tracer.close(root)
        return PassResult(wall, latency, outputs, intake)

    def check(self, inputs: SweepInputs, result: PassResult) -> list[str]:
        problems = []
        for cfg, res in zip(inputs.configs, result.outputs):
            if isinstance(res, Exception):
                continue
            name = f"{cfg.variant} d={cfg.dataset.dim} n={cfg.dataset.n} seed={cfg.dataset.seed}"
            if not SWEEP_LOW <= res["median_ratio"] <= 4.0 * cfg.alpha:
                problems.append(f"{name}: median ratio {res['median_ratio']:.3f} outside [0.25, {4 * cfg.alpha}]")
            if not res["t"] < cfg.dataset.dim:
                problems.append(f"{name}: t={res['t']} does not reduce d={cfg.dataset.dim}")
        return problems

    def space(self, result: PassResult) -> dict[str, float]:
        return {"streaming.state_words": 0.0, "sketches.resident_buckets": 0.0}


def outcome_key(res) -> object:
    """What two passes over the same inputs must agree on."""
    if isinstance(res, Exception):
        return type(res).__name__
    if isinstance(res, dict):
        return res["median_ratio"], tuple(r["ratio"] for r in res["records"])
    return res.value, res.level, res.centers


def failures(outputs) -> Counter:
    return Counter(type(r).__name__ for r in outputs if isinstance(r, Exception))


# Why each workload exists is in NOTES.md; in short, each one stresses a
# different layer and bypasses another, so a change to one layer has a
# workload that must move and one that must not.
WORKLOADS = {
    # t=2 so the finest guess levels overflow their 1,024-cell budget and the
    # ladder and the sampler's thinning engage.
    "stream-sketch": StreamWorkload(mode="sketch", t=2, survivors=1200, kinds=("vanilla", "outliers")),
    # Never touches the sketches.
    "stream-exact": StreamWorkload(
        mode="exact-sim", t=2, survivors=2000, z=2, num_colors=2,
        kinds=("vanilla", "outliers", "capacitated", "fair"),
    ),
    # Every solve fits the combination budget, so exact enumeration runs.
    "sweep-oracle": SweepWorkload(
        instances=(
            ("vanilla", dict(dim=64, n=110, k=3), 4.0, None),
            ("outliers", dict(dim=64, n=60, k=3, z=3), 4.0, None),
            ("constrained", dict(dim=64, n=60, k=2), 16.0, AssignmentConstraint("capacitated", capacity=36)),
        ),
    ),
    # Every exact attempt is over budget.  The z=8 instance fails with
    # OracleBudgetError (its 81-point witness is over budget too) and stays.
    "sweep-greedy": SweepWorkload(
        instances=tuple(("vanilla", dict(dim=256, n=20000, k=8), 8.0, None) for _ in range(10))
        + (
            ("outliers", dict(dim=256, n=20000, k=8, z=1), 8.0, None),
            ("outliers", dict(dim=256, n=20000, k=8, z=8), 8.0, None),
        ),
    ),
    # Not gated: the configuration of ROADMAP.md's rough baseline (2,000 updates).
    "reanchor-exact": StreamWorkload(mode="exact-sim", t=4, survivors=1000, kinds=("vanilla",), n_queries=5),
    "reanchor-sketch": StreamWorkload(mode="sketch", t=4, survivors=1000, kinds=("vanilla",), n_queries=5),
}
