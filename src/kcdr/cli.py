"""Command line front end.

Exit codes: 0 on success, 2 when a run fails a stated guarantee or domain
check (oracle budget, infeasible constraint, empty stream, bad input data),
1 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dimred import (
    DEFAULT_C0,
    DEFAULT_C_EXP,
    DEFAULT_C_JL,
    TargetDimParams,
    apply_map,
    distortion_report,
    expansion_probe,
    sample_map,
    scaled_for_kcenter,
    tail_probe,
    target_dimension,
    write_map_text,
)
from .errors import (
    AllLevelsFailedError,
    ConstraintInfeasibleError,
    EmptyStreamError,
    OracleBudgetError,
    SamplerDecodeError,
)
from .geometry import (
    DATASET_KINDS,
    DatasetSpec,
    estimate_doubling_dimension,
    generate_dataset,
    read_pointset_text,
    with_colors,
    write_pointset_text,
)
from .harness import (
    ExperimentConfig,
    run_dimred_sweep,
    run_lowerbound_demo,
    run_streaming_demo,
    write_json,
    write_records_csv,
)
from .solvers import (
    AssignmentConstraint,
    anchored_feasible_radius,
    exact_constrained,
    exact_discrete_kcenter,
    exact_discrete_outliers,
    exact_fpq_oracle,
    feasible_assignment,
    gonzalez,
    peel_witness,
    relaxed_gonzalez,
)
from .streaming import (
    StreamConfig,
    init_stream,
    process_update,
    query_constrained,
    query_outliers,
    query_vanilla,
    read_stream_text,
    sample_point,
    space_report,
)

_DOMAIN_ERRORS = (
    OracleBudgetError,
    ConstraintInfeasibleError,
    EmptyStreamError,
    AllLevelsFailedError,
    SamplerDecodeError,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; here 2 is reserved for domain failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_np_plain)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _np_plain(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _constraint_from_args(args) -> AssignmentConstraint | None:
    if getattr(args, "capacity", None) is not None:
        return AssignmentConstraint(kind="capacitated", capacity=args.capacity)
    if getattr(args, "fair", None) is not None:
        if args.num_colors is None:
            raise ValueError("--fair needs --num-colors")
        a, b = args.fair
        return AssignmentConstraint(
            kind="fair", lower_frac=a, upper_frac=b, num_colors=args.num_colors
        )
    return None


def _cmd_gen_dataset(args) -> int:
    spec = DatasetSpec(
        kind=args.kind,
        dim=args.dim,
        n=args.n,
        k=args.k,
        z=args.z,
        separation=args.separation,
        delta=args.delta,
        seed=args.seed,
    )
    ps = generate_dataset(spec)
    if args.colors is not None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed ^ 0xC01)))
        ps = with_colors(ps, rng.integers(1, args.colors + 1, size=ps.n))
    write_pointset_text(ps, args.out)
    _emit({"kind": args.kind, "n": ps.n, "dim": ps.dim, "out": args.out}, None)
    return 0


def _cmd_reduce(args) -> int:
    ps = read_pointset_text(args.input)
    ddim = args.ddim
    if args.variant == "doubling" and ddim is None:
        ddim = estimate_doubling_dimension(ps)
    t = target_dimension(
        TargetDimParams(
            alpha=args.alpha,
            k=args.k,
            d=ps.dim,
            c_jl=args.c_jl,
            c_exp=args.c_exp,
            z=args.z,
            eps=args.eps,
            ddim=ddim,
        ),
        args.variant,
    )
    gmap = scaled_for_kcenter(sample_map(ps.dim, t, args.map_seed), args.alpha, args.c0)
    proj = apply_map(gmap, ps)
    write_pointset_text(proj, args.out)
    if args.map_out:
        write_map_text(gmap, args.map_out)
    _emit(
        {"d": ps.dim, "t": t, "alpha": args.alpha, "variant": args.variant,
         "scale": gmap.scale, "out": args.out},
        None,
    )
    return 0


def _cmd_solve(args) -> int:
    ps = read_pointset_text(args.input)
    constraint = _constraint_from_args(args)
    if args.alg == "gonzalez":
        payload = gonzalez(ps, args.k, args.start_index).solution.to_dict()
    elif args.alg == "exact":
        payload = exact_discrete_kcenter(ps, args.k).to_dict()
    elif args.alg == "exact-outliers":
        payload = exact_discrete_outliers(ps, args.k, args.z).to_dict()
    elif args.alg == "peel-witness":
        witness = peel_witness(ps, args.k, args.z)
        sol = exact_discrete_outliers(witness, args.k, args.z)
        payload = {
            "witness_units": int(witness.total_weight),
            "witness_distinct": witness.n,
            "solution": sol.to_dict(),
        }
    elif args.alg == "relaxed-gonzalez":
        centers, value = relaxed_gonzalez(
            ps, args.k, exact_fpq_oracle, args.alpha, args.start_index
        )
        payload = {"center_indices": list(centers), "value": value}
    elif args.alg == "exact-constrained":
        if constraint is None:
            raise ValueError("exact-constrained needs --capacity or --fair")
        payload = exact_constrained(ps, args.k, constraint, args.continuous_1d).to_dict()
    elif args.alg == "feasible":
        if constraint is None:
            raise ValueError("feasible needs --capacity or --fair")
        if args.centers is None or args.radius is None:
            raise ValueError("feasible needs --centers and --radius")
        centers = [int(x) for x in args.centers.split(",")]
        assignment = feasible_assignment(ps, centers, args.radius, constraint)
        payload = {
            "feasible": assignment is not None,
            "assignment": None
            if assignment is None
            else [{str(k): v for k, v in row.items()} for row in assignment],
        }
    else:
        raise ValueError(f"unknown algorithm {args.alg!r}")
    _emit(payload, args.out)
    return 0


def _cmd_probe(args) -> int:
    if args.kind == "tail":
        estimate = tail_probe(args.t, args.r, args.trials, args.seed)
        payload = {
            "t": args.t,
            "r": args.r,
            "trials": args.trials,
            "estimate": estimate,
            "bound": float(np.exp(-args.r * args.r / 5.0)),
        }
    elif args.kind == "expansion":
        gmap = sample_map(args.d, args.t, args.seed)
        payload = {
            "d": args.d,
            "t": args.t,
            "operator_norm_probe": expansion_probe(gmap, args.trials, args.seed),
            "reference": 3.0 * float(np.sqrt(args.d)),
        }
    elif args.kind == "distortion":
        ps = read_pointset_text(args.input)
        gmap = sample_map(ps.dim, args.t, args.seed)
        payload = distortion_report(gmap, ps, args.eps).to_dict()
    else:
        raise ValueError(f"unknown probe {args.kind!r}")
    _emit(payload, args.out)
    return 0


def _cmd_stream(args) -> int:
    d, delta, n_hint, updates = read_stream_text(args.input)
    constraint = _constraint_from_args(args)
    config = StreamConfig(
        d=d,
        t=args.t,
        delta=delta,
        k=args.k,
        z=args.z,
        eps=args.eps,
        alpha=args.alpha,
        seed=args.seed,
        mode=args.mode,
        num_colors=args.num_colors,
        n_hint=max(n_hint, 16),
    )
    state = init_stream(config)
    for u in updates:
        process_update(state, u)
    payload = {"J": state.J, "budget": state.budget, "net_weight": state.net_weight}
    if args.query == "vanilla":
        payload["result"] = query_vanilla(state).to_dict()
    elif args.query == "outliers":
        payload["result"] = query_outliers(state, args.z).to_dict()
    elif args.query == "constrained":
        if constraint is None:
            raise ValueError("constrained query needs --capacity or --fair")
        payload["result"] = query_constrained(state, constraint).to_dict()
    elif args.query != "none":
        raise ValueError(f"unknown query {args.query!r}")
    if args.sample_level is not None:
        got = sample_point(state, args.sample_level, args.seed)
        payload["sample"] = (
            None
            if got is None
            else {"level": got[0].level, "cell": list(got[0].cell), "point": list(got[1])}
        )
    if args.space:
        payload["space"] = space_report(state)
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = DatasetSpec(
        kind=args.kind,
        dim=args.dim,
        n=args.n,
        k=args.k,
        z=args.z,
        separation=args.separation,
        delta=args.delta,
        seed=args.seed,
    )
    config = ExperimentConfig(
        dataset=spec,
        variant=args.variant,
        alpha=args.alpha,
        map_seeds=tuple(range(args.map_seeds)),
        prefer=args.prefer,
        constraint=_constraint_from_args(args),
    )
    summary = run_dimred_sweep(config)
    if args.csv:
        write_records_csv(args.csv, summary["records"], summary["config"])
    _emit(
        {k: v for k, v in summary.items() if k != "records"}
        | {"n_records": len(summary["records"]), "csv": args.csv},
        args.out,
    )
    return 0


def _cmd_lowerbound(args) -> int:
    payload = run_lowerbound_demo(args.d, args.t, list(range(args.seeds)))
    _emit(payload, args.out)
    return 0


def _cmd_stream_demo(args) -> int:
    payload = run_streaming_demo(
        d=args.d,
        t=args.t,
        delta=args.delta,
        k=args.k,
        n_survivors=args.n,
        n_cancelled=args.cancelled,
        seed=args.seed,
        mode=args.mode,
        eps=args.eps,
        alpha=args.alpha,
        query=args.query,
        z=args.z,
    )
    _emit(payload, args.out)
    return 0


def _add_constraint_flags(p):
    p.add_argument("--capacity", type=int, default=None, help="per-center load cap")
    p.add_argument(
        "--fair",
        type=float,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="per-color fraction band [A, B]",
    )
    p.add_argument("--num-colors", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="kcdr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="write a synthetic point set")
    p.add_argument("--kind", choices=DATASET_KINDS, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("reduce", help="project a point set through a scaled map")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--variant", default="vanilla",
                   choices=("vanilla", "outliers", "constrained", "doubling"))
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--ddim", type=float, default=None)
    p.add_argument("--c-jl", type=float, default=DEFAULT_C_JL)
    p.add_argument("--c-exp", type=float, default=DEFAULT_C_EXP)
    p.add_argument("--c0", type=float, default=DEFAULT_C0)
    p.add_argument("--map-seed", type=int, default=0)
    p.add_argument("--map-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="run a solver on a point set file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument(
        "--alg",
        required=True,
        choices=(
            "gonzalez",
            "exact",
            "exact-outliers",
            "peel-witness",
            "relaxed-gonzalez",
            "exact-constrained",
            "feasible",
        ),
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--start-index", type=int, default=0)
    p.add_argument("--continuous-1d", action="store_true")
    p.add_argument("--centers", default=None, help="comma-separated indices")
    p.add_argument("--radius", type=float, default=None)
    _add_constraint_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("probe", help="tail, expansion, or distortion probes")
    p.add_argument("--kind", choices=("tail", "expansion", "distortion"), required=True)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--t", type=int, default=16)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("stream", help="replay a stream file and query it")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--mode", choices=("exact-sim", "sketch"), default="exact-sim")
    p.add_argument("--query", default="vanilla",
                   choices=("vanilla", "outliers", "constrained", "none"))
    p.add_argument("--sample-level", type=int, default=None)
    p.add_argument("--space", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_constraint_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("sweep", help="dimension-reduction ratio sweep")
    p.add_argument("--kind", choices=DATASET_KINDS, default="gaussian-clusters")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="vanilla",
                   choices=("vanilla", "outliers", "constrained", "doubling"))
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--map-seeds", type=int, default=5)
    p.add_argument("--prefer", choices=("auto", "exact", "greedy"), default="auto")
    _add_constraint_flags(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lowerbound", help="minimum column norms at small t")
    p.add_argument("--d", type=int, default=256)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("stream-demo", help="random stream round trip with offline check")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--delta", type=int, default=64)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--cancelled", type=int, default=50)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--mode", choices=("exact-sim", "sketch"), default="exact-sim")
    p.add_argument("--query", default="vanilla",
                   choices=("vanilla", "outliers", "constrained"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stream_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"kcdr: error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"kcdr: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
