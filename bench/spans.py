"""In-memory span tracer that wraps kcdr's public functions from outside.

Wrapping replaces the name a caller looks up (a module global such as
``kcdr.streaming.gonzalez`` or a class attribute such as
``CellSketch.decode``), so the package source stays untouched.  Spans are
kept in one list and written out when the run ends; per-layer numbers are
computed from them afterwards.
"""
from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

# Operation kinds a span can belong to; the id is kind * OP_STRIDE + index.
OP_STRIDE = 10**9
OP_KINDS = ("none", "update", "query", "sweep", "init")

LAYERS = ("streaming", "sketches", "solvers", "geometry", "dimred", "harness")


class Tracer:
    """Spans kept column-wise, so a long run adds no per-span Python objects
    for the garbage collector to walk; info and errors are sparse dicts."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_col = array("q")
        self.info: dict[int, dict] = {}
        self.error: dict[int, str] = {}
        self.stack: list[int] = []
        self.op = 0
        self.sweep_dim: int | None = None

    def set_op(self, kind: str, index: int):
        self.op = OP_KINDS.index(kind) * OP_STRIDE + index

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str, nid: int | None = None) -> int:
        idx = len(self.start)
        self.name_col.append(self.name_id(name) if nid is None else nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_col.append(self.op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, info=None, error: str | None = None):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()
        if info:
            self.info[idx] = info
        if error is not None:
            self.error[idx] = error

    def wrap(self, name: str, fn, info=None):
        """A stand-in for fn that records one span per call.

        info(args, kwargs, result) returns extra numbers for the span, such as
        a flop count or whether a decode failed.
        """
        tracer = self
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = tracer.open(name, nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, error=type(exc).__name__)
                raise
            tracer.close(idx, None if info is None else info(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis -----------------------------------------------------------

    def rows(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent, op, info, error) per span."""
        names, info, error = self.names, self.info, self.error
        return [
            (names[n], t0, t1, parent, op, info.get(i), error.get(i))
            for i, (n, t0, t1, parent, op) in enumerate(
                zip(self.name_col, self.start, self.end, self.parent, self.op_col)
            )
        ]

    def self_times_ns(self) -> list[int]:
        """Span duration minus the time covered by its direct children."""
        own = [t1 - t0 for t0, t1 in zip(self.start, self.end)]
        for t0, t1, parent in zip(self.start, self.end, self.parent):
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def write_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op_kind,op_index,error,info\n")
            for i, (name, t0, t1, parent, op, info, error) in enumerate(self.rows()):
                kind, index = divmod(op, OP_STRIDE)
                extra = "" if info is None else ";".join(f"{k}={v}" for k, v in sorted(info.items()))
                fh.write(
                    f"{i},{name},{t0},{t1},{parent},{OP_KINDS[kind]},{index},{error or ''},{extra}\n"
                )


class Patcher:
    """Replaces attributes and puts the originals back on restore()."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def _pairwise_info(args, kwargs, out):
    a = args[0]
    # cdist euclidean: subtract, square, add per coordinate pair
    return {"flops": 3 * out.shape[0] * out.shape[1] * a.shape[1]}


def _apply_map_info(args, kwargs, out):
    m = args[0]
    return {"flops": 2 * out.n * m.d * m.t}


def _len_info(args, kwargs, out):
    return {"m": len(out)}


def _decode_info(args, kwargs, out):
    return {"failed": 1} if out is None else {"cells": len(out)}


def _recover_info(args, kwargs, out):
    return {"failed": 1} if out is None else None


def _query_info(args, kwargs, out):
    return {"level": out.level, "cells": out.cells_used}


def _k_info(args, kwargs, out):
    return {"k": args[1]}


def _init_info(args, kwargs, out):
    return {"t_over_d": args[0].t / args[0].d}


def _sweep_info(args, kwargs, out):
    return {"t_over_d": out["t"] / args[0].dataset.dim, "median_ratio": out["median_ratio"]}


def install(tracer: Tracer) -> Patcher:
    """Wrap the public functions of every kcdr module where their callers look
    them up.  Returns the patcher whose restore() undoes it."""
    import kcdr
    from kcdr import dimred, geometry, harness, sketches, solvers, streaming

    p = Patcher()
    w = tracer.wrap

    def gonzalez_info(args, kwargs, out):
        ps = args[0]
        return {"rd": 1} if ps.dim == tracer.sweep_dim else {"rt": 1}

    functions = (
        (streaming, "init_stream", _init_info),
        (streaming, "process_update", None),
        (streaming, "query_vanilla", _query_info),
        (streaming, "query_outliers", _query_info),
        (streaming, "query_constrained", _query_info),
        (harness, "run_dimred_sweep", _sweep_info),
        (solvers, "gonzalez", gonzalez_info),
        (solvers, "exact_discrete_kcenter", _k_info),
        (solvers, "exact_discrete_outliers", _k_info),
        (solvers, "exact_constrained", None),
        (solvers, "peel_witness", None),
        (solvers, "anchored_feasible_radius", None),
        (geometry, "pairwise_distances", _pairwise_info),
        (geometry, "generate_dataset", None),
        (dimred, "apply_map", _apply_map_info),
        (dimred, "sample_map", None),
        (dimred, "scaled_for_kcenter", None),
        (dimred, "target_dimension", None),
    )
    for home, attr, info in functions:
        fn = getattr(home, attr)
        traced = w(f"{home.__name__.rsplit('.', 1)[1]}.{attr}", fn, info)
        # every module that imported the name by value gets the wrapper
        for mod in (kcdr, streaming, harness, solvers, geometry, dimred):
            if getattr(mod, attr, None) is fn:
                p.replace(mod, attr, traced)

    methods = (
        (geometry.PointSet, "distinct_indices", "geometry.distinct_indices", _len_info),
        (sketches.CellSketch, "update", "sketches.cell_update", None),
        (sketches.CellSketch, "decode", "sketches.decode", _decode_info),
        (sketches.TwoLevelSampler, "update", "sketches.sampler_update", None),
        (sketches.TwoLevelSampler, "recover_point", "sketches.recover", _recover_info),
    )
    for cls, attr, name, info in methods:
        p.replace(cls, attr, w(name, getattr(cls, attr), info))
    return p


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans, per traced pass.

    Times named ``.ms`` are inclusive of traced children; ``.self_ms`` excludes
    them.  Subset counts C(m, k) take m from the distinct-location count that
    the oracle's distinct_indices child reported.
    """
    from workloads import DOMAIN_ERRORS

    domain_errors = [e.__name__ for e in DOMAIN_ERRORS]
    spans = tracer.rows()
    own = tracer.self_times_ns()
    calls = defaultdict(int)
    incl = defaultdict(int)
    selfns = defaultdict(int)
    errors = defaultdict(int)
    info_sum = defaultdict(float)
    layer_self = defaultdict(int)
    distinct_m: dict[int, int] = {}
    for i, (name, t0, t1, parent, _op, info, error) in enumerate(spans):
        calls[name] += 1
        incl[name] += t1 - t0
        selfns[name] += own[i]
        layer_self[name.split(".", 1)[0]] += own[i]
        if error is not None:
            errors[(name, error)] += 1
        if info:
            for key, val in info.items():
                info_sum[(name, key)] += val
            if name == "geometry.distinct_indices" and parent >= 0:
                distinct_m[parent] = info["m"]

    def ms(ns):
        return ns / 1e6 / passes

    def per_pass(x):
        return x / passes

    def subsets(name):
        total = 0
        for i, s in enumerate(spans):
            if s[0] == name and s[5] is not None and i in distinct_m:
                m = distinct_m[i]
                total += math.comb(m, s[5]["k"]) if s[5]["k"] < m else 0
        return total

    query_names = ("streaming.query_vanilla", "streaming.query_outliers", "streaming.query_constrained")
    answered = [s[5] for s in spans if s[0] in query_names and s[5] is not None]
    sized = [s[5] for s in spans if s[0] in ("streaming.init_stream", "harness.run_dimred_sweep") and s[5]]
    ratios = [s[5]["median_ratio"] for s in spans if s[0] == "harness.run_dimred_sweep" and s[5]]
    rd_calls = info_sum[("solvers.gonzalez", "rd")]
    rt_calls = info_sum[("solvers.gonzalez", "rt")]
    rd_ns = sum(t1 - t0 for n, t0, t1, _, _, info, _ in spans if n == "solvers.gonzalez" and info and "rd" in info)
    rt_ns = incl["solvers.gonzalez"] - rd_ns
    exact_names = ("solvers.exact_discrete_kcenter", "solvers.exact_discrete_outliers", "solvers.exact_constrained")
    rejected_ns = sum(
        t1 - t0 for n, t0, t1, _, _, _, e in spans if n in exact_names and e == "OracleBudgetError"
    )

    out = {
        "streaming.update.calls": per_pass(calls["streaming.process_update"]),
        "streaming.update.self_ms": ms(selfns["streaming.process_update"]),
        "streaming.query.calls": per_pass(sum(calls[n] for n in query_names)),
        "streaming.query.self_ms": ms(sum(selfns[n] for n in query_names)),
        "streaming.query.failed": per_pass(
            sum(errors[(n, e)] for n in query_names for e in domain_errors)
        ),
        "streaming.answer_level.mean": sum(a["level"] for a in answered) / len(answered) if answered else 0.0,
        "streaming.cells_used.mean": sum(a["cells"] for a in answered) / len(answered) if answered else 0.0,
        "sketches.cell_update.calls": per_pass(calls["sketches.cell_update"]),
        "sketches.cell_update.ms": ms(incl["sketches.cell_update"]),
        "sketches.sampler_update.calls": per_pass(calls["sketches.sampler_update"]),
        "sketches.sampler_update.ms": ms(incl["sketches.sampler_update"]),
        "sketches.decode.calls": per_pass(calls["sketches.decode"]),
        "sketches.decode.ms": ms(incl["sketches.decode"]),
        "sketches.decode.failed": per_pass(info_sum[("sketches.decode", "failed")]),
        "sketches.decode.cells": per_pass(info_sum[("sketches.decode", "cells")]),
        "sketches.recover.calls": per_pass(calls["sketches.recover"]),
        "sketches.recover.ms": ms(incl["sketches.recover"]),
        "sketches.recover.failed": (
            info_sum[("sketches.recover", "failed")] / calls["sketches.recover"] if calls["sketches.recover"] else 0.0
        ),
        "solvers.gonzalez.calls": per_pass(calls["solvers.gonzalez"]),
        "solvers.gonzalez.rd_ms": ms(rd_ns),
        "solvers.gonzalez.rt_ms": ms(rt_ns),
    }
    for short, name in (
        ("exact_kcenter", "solvers.exact_discrete_kcenter"),
        ("exact_outliers", "solvers.exact_discrete_outliers"),
        ("exact_constrained", "solvers.exact_constrained"),
    ):
        out[f"solvers.{short}.calls"] = per_pass(calls[name])
        out[f"solvers.{short}.ms"] = ms(incl[name])
        out[f"solvers.{short}.budget_rejects"] = per_pass(errors[(name, "OracleBudgetError")])
        if short != "exact_constrained":
            out[f"solvers.{short}.subsets"] = per_pass(subsets(name))
    out.update({
        "solvers.exact_rejected_ms": ms(rejected_ns),
        "solvers.peel_witness.calls": per_pass(calls["solvers.peel_witness"]),
        "solvers.peel_witness.ms": ms(incl["solvers.peel_witness"]),
        "solvers.anchored_feasible_radius.calls": per_pass(calls["solvers.anchored_feasible_radius"]),
        "solvers.anchored_feasible_radius.ms": ms(incl["solvers.anchored_feasible_radius"]),
        "geometry.pairwise_distances.calls": per_pass(calls["geometry.pairwise_distances"]),
        "geometry.pairwise_distances.ms": ms(incl["geometry.pairwise_distances"]),
        "geometry.pairwise_distances.computed_flops": per_pass(
            info_sum[("geometry.pairwise_distances", "flops")]
        ),
        "geometry.distinct_indices.calls": per_pass(calls["geometry.distinct_indices"]),
        "geometry.distinct_indices.ms": ms(incl["geometry.distinct_indices"]),
        "geometry.generate_dataset.ms": ms(incl["geometry.generate_dataset"]),
        "dimred.apply_map.calls": per_pass(calls["dimred.apply_map"]),
        "dimred.apply_map.ms": ms(incl["dimred.apply_map"]),
        "dimred.apply_map.computed_flops": per_pass(info_sum[("dimred.apply_map", "flops")]),
        "dimred.sample_map.ms": ms(incl["dimred.sample_map"]),
        "dimred.t_over_d": sum(s["t_over_d"] for s in sized) / len(sized) if sized else 0.0,
        "harness.sweep.calls": per_pass(calls["harness.run_dimred_sweep"]),
        "harness.sweep.ms": ms(incl["harness.run_dimred_sweep"]),
        "harness.solve_speedup_t_vs_d": (
            (rd_ns / rd_calls) / (rt_ns / rt_calls) if rd_calls and rt_calls and rt_ns else 0.0
        ),
        "harness.median_ratio.min": min(ratios, default=0.0),
    })
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_ms"] = ms(layer_self[layer])
    return out
