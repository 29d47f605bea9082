"""Experiment drivers: dimension-reduction sweeps, lower-bound probes,
and streaming round trips, with CSV/JSON output."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dimred import (
    DEFAULT_C0,
    DEFAULT_C_EXP,
    DEFAULT_C_JL,
    TargetDimParams,
    apply_map,
    sample_map,
    scaled_for_kcenter,
    target_dimension,
)
from .errors import OracleBudgetError
from .geometry import (
    DatasetSpec,
    PointSet,
    estimate_doubling_dimension,
    generate_dataset,
)
from .solvers import (
    AssignmentConstraint,
    anchored_feasible_radius,
    exact_constrained,
    exact_discrete_kcenter,
    exact_discrete_outliers,
    gonzalez,
    peel_witness,
)
from .streaming import (
    StreamConfig,
    init_stream,
    process_update,
    query_constrained,
    query_outliers,
    query_vanilla,
    random_stream,
    replay_survivors,
    sample_point,
    space_report,
)


def ratio_of(numerator: float, denominator: float) -> float:
    """Value ratio with the degenerate cases pinned: 0/0 is 1, x/0 is inf."""
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else math.inf
    return numerator / denominator


def _value_vanilla(ps: PointSet, k: int, prefer: str) -> tuple[float, str]:
    if prefer not in ("auto", "exact", "greedy"):
        raise ValueError("prefer must be auto, exact, or greedy")
    if prefer != "greedy":
        try:
            return exact_discrete_kcenter(ps, k).value, "exact"
        except OracleBudgetError:
            if prefer == "exact":
                raise
    return gonzalez(ps, k, 0).solution.value, "greedy"


def _value_outliers(ps: PointSet, k: int, z: int, prefer: str) -> tuple[float, str]:
    if prefer != "greedy":
        try:
            return exact_discrete_outliers(ps, k, z).value, "exact"
        except OracleBudgetError:
            if prefer == "exact":
                raise
    witness = peel_witness(ps, k, z)
    return exact_discrete_outliers(witness, k, z).value, "peel-witness"


def _value_constrained(
    ps: PointSet, k: int, constraint: AssignmentConstraint, prefer: str
) -> tuple[float, str]:
    if prefer != "greedy":
        try:
            return exact_constrained(ps, k, constraint).value, "exact"
        except OracleBudgetError:
            if prefer == "exact":
                raise
    anchors = list(gonzalez(ps, k, 0).solution.center_indices)
    value, _ = anchored_feasible_radius(ps, anchors, constraint)
    return value, "greedy-anchors"


@dataclass(frozen=True)
class ExperimentConfig:
    """One dimension-reduction sweep: a dataset family crossed with map seeds."""

    dataset: DatasetSpec
    variant: str = "vanilla"
    alpha: float = 2.0
    map_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    c_jl: float = DEFAULT_C_JL
    c_exp: float = DEFAULT_C_EXP
    c0: float = DEFAULT_C0
    prefer: str = "auto"
    eps: float = 0.25
    ddim: float | None = None
    constraint: AssignmentConstraint | None = None

    def to_dict(self) -> dict:
        return {
            "dataset": asdict(self.dataset),
            "variant": self.variant,
            "alpha": self.alpha,
            "map_seeds": list(self.map_seeds),
            "c_jl": self.c_jl,
            "c_exp": self.c_exp,
            "c0": self.c0,
            "prefer": self.prefer,
            "eps": self.eps,
            "ddim": self.ddim,
            "constraint": None if self.constraint is None else self.constraint.to_dict(),
        }


@dataclass(frozen=True)
class RatioRecord:
    dataset_seed: int
    map_seed: int
    variant: str
    alpha: float
    d: int
    t: int
    opt_original: float
    opt_projected: float
    ratio: float
    method_original: str
    method_projected: str

    def to_dict(self) -> dict:
        return {
            "dataset_seed": self.dataset_seed,
            "map_seed": self.map_seed,
            "variant": self.variant,
            "alpha": self.alpha,
            "d": self.d,
            "t": self.t,
            "opt_original": self.opt_original,
            "opt_projected": self.opt_projected,
            "ratio": self.ratio,
            "method_original": self.method_original,
            "method_projected": self.method_projected,
        }


def _measure(ps: PointSet, config: ExperimentConfig) -> tuple[float, str]:
    spec = config.dataset
    if config.variant == "outliers":
        return _value_outliers(ps, spec.k, spec.z, config.prefer)
    if config.variant == "constrained":
        if config.constraint is None:
            raise ValueError("constrained sweep needs a constraint")
        return _value_constrained(ps, spec.k, config.constraint, config.prefer)
    return _value_vanilla(ps, spec.k, config.prefer)


def run_dimred_sweep(config: ExperimentConfig) -> dict:
    """Project one dataset through len(map_seeds) scaled maps and record the
    before/after objective ratio for each."""
    spec = config.dataset
    ps = generate_dataset(spec)
    ddim = config.ddim
    if config.variant == "doubling" and ddim is None:
        ddim = estimate_doubling_dimension(ps)
    t = target_dimension(
        TargetDimParams(
            alpha=config.alpha,
            k=spec.k,
            d=spec.dim,
            c_jl=config.c_jl,
            c_exp=config.c_exp,
            z=spec.z,
            eps=config.eps,
            ddim=ddim,
        ),
        config.variant,
    )
    opt_orig, method_orig = _measure(ps, config)
    records = []
    for seed in config.map_seeds:
        gmap = scaled_for_kcenter(sample_map(spec.dim, t, seed), config.alpha, config.c0)
        proj = apply_map(gmap, ps)
        opt_proj, method_proj = _measure(proj, config)
        records.append(
            RatioRecord(
                dataset_seed=spec.seed,
                map_seed=seed,
                variant=config.variant,
                alpha=config.alpha,
                d=spec.dim,
                t=t,
                opt_original=opt_orig,
                opt_projected=opt_proj,
                ratio=ratio_of(opt_proj, opt_orig),
                method_original=method_orig,
                method_projected=method_proj,
            )
        )
    ratios = sorted(r.ratio for r in records)
    return {
        "config": config.to_dict(),
        "t": t,
        "records": [r.to_dict() for r in records],
        "median_ratio": float(np.median(ratios)),
        "min_ratio": ratios[0],
        "max_ratio": ratios[-1],
    }


def run_lowerbound_demo(d: int, t: int, seeds) -> dict:
    """Smallest column norm of maps with N(0, 1/t) entries.

    The columns are the images of the standard basis, so a tiny column means
    two far-apart inputs (that vertex and the origin) land almost together,
    and no solver downstream can undo it.  Medians well under 1/2 at small t
    show why the target dimension must grow when distances must survive.
    """
    per_seed = []
    for seed in seeds:
        gmap = sample_map(d, t, seed)
        norms = np.linalg.norm(gmap.entries, axis=0) / math.sqrt(t)
        i = int(np.argmin(norms))
        per_seed.append({"seed": int(seed), "min_col_norm": float(norms[i]), "argmin": i})
    med = float(np.median([r["min_col_norm"] for r in per_seed]))
    return {
        "d": d,
        "t": t,
        "seeds": [int(s) for s in seeds],
        "per_seed": per_seed,
        "median_min_col_norm": med,
        "separation_proxy": med / 2.0,
    }


def run_streaming_demo(
    d: int,
    t: int,
    delta: int,
    k: int,
    n_survivors: int,
    n_cancelled: int = 0,
    seed: int = 0,
    mode: str = "exact-sim",
    eps: float = 0.5,
    alpha: float = 2.0,
    num_colors: int | None = None,
    query: str = "vanilla",
    z: int = 0,
    constraint: AssignmentConstraint | None = None,
    sample_level: int | None = None,
    updates=None,
) -> dict:
    """Feed a stream through the engine and compare the query value against
    the same objective computed offline on the surviving projections.

    Pass `updates` to replay a stream read from a file; otherwise a random
    stream with the requested survivor/cancellation counts is generated.
    """
    if updates is None:
        updates = random_stream(d, delta, n_survivors, n_cancelled, seed, num_colors)
    config = StreamConfig(
        d=d,
        t=t,
        delta=delta,
        k=k,
        z=z,
        eps=eps,
        alpha=alpha,
        seed=seed,
        mode=mode,
        num_colors=num_colors,
        n_hint=max(len(updates), 16),
    )
    state = init_stream(config)
    for u in updates:
        process_update(state, u)
    config_dict = {
        "stream": asdict(config),
        "query": query,
        "constraint": None if constraint is None else constraint.to_dict(),
    }
    if state.net_weight <= 0:
        # a fully cancelled stream has no queryable content; record that
        # instead of failing the whole demo
        return {
            "config": config_dict,
            "error": "empty stream",
            "n_updates": len(updates),
            "n_survivors": 0,
            "space": space_report(state),
        }
    survivors = replay_survivors(updates, num_colors)
    proj = apply_map(state.map, survivors)
    if query == "vanilla":
        res = query_vanilla(state)
        offline, offline_method = gonzalez(proj, k, 0).solution.value, "greedy"
    elif query == "outliers":
        res = query_outliers(state, z)
        offline, offline_method = _value_outliers(proj, k, z, "auto")
    elif query == "constrained":
        if constraint is None:
            raise ValueError("constrained query needs a constraint")
        res = query_constrained(state, constraint)
        offline, offline_method = _value_constrained(proj, k, constraint, "auto")
    else:
        raise ValueError("query must be vanilla, outliers, or constrained")
    survivor_set = {tuple(int(x) for x in row) for row in survivors.coords}
    out = {
        "config": config_dict,
        "query": res.to_dict(),
        "offline_value": offline,
        "offline_method": offline_method,
        "value_ratio": ratio_of(res.value, offline),
        "centers_in_stream": all(c in survivor_set for c in res.centers),
        "n_updates": len(updates),
        "n_survivors": survivors.n,
        "space": space_report(state),
    }
    if sample_level is not None:
        got = sample_point(state, sample_level)
        out["sample"] = None if got is None else {
            "level": got[0].level,
            "cell": list(got[0].cell),
            "point": list(got[1]),
            "point_in_stream": got[1] in survivor_set,
        }
    return out


def _plain(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def write_records_csv(path: str, rows: list[dict], config: dict | None = None):
    """Rows share one header; the generating config is echoed in a leading
    comment line so a result file stays interpretable on its own."""
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True, default=_plain) + "\n")
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _plain(v) if isinstance(v, (np.integer, np.floating, np.ndarray)) else v for k, v in row.items()})
