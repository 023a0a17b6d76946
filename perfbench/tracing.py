"""Per-layer spans and counts, taken from outside the program.

Each layer is traced by temporarily replacing a public name it is called
through with a wrapper that records a span.  Spans nest: a span's self
time is its duration minus the time of the spans it directly contains,
so the self times of all spans add up to the time the outermost spans
cover.  Spans are aggregated by name in memory (count, total, self); the
rollouts make millions of leaf calls, too many to keep one by one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import scipy.sparse.linalg as spla

from branchopt import bench, control, nlp, pipeline, simulation
from branchopt import transcription as tr


class Tracer:
    def __init__(self):
        self.spans = {}       # name -> [calls, total_s, self_s]
        self.counts = {}      # name -> number
        self._stack = []      # child time accumulated by each open span
        self.solve_index = 0  # position of the next nlp.solve in a chain

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            rec = self.spans.get(name)
            if rec is None:
                rec = self.spans[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return traced

    def self_total(self):
        return sum(rec[2] for rec in self.spans.values())


@contextlib.contextmanager
def _patched(targets):
    """Set (object, attribute, value) triples; restore them on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def solver_layers(tracer: Tracer):
    """Patch the names the pipeline and the NLP solver call through."""
    solve = nlp.solve
    least_squares = nlp.least_squares
    factorized = spla.factorized

    def traced_solve(problem, x0, opts=None):
        # warm_start_chain solves the unbranched stage first
        stage = "nominal" if tracer.solve_index == 0 else "branched"
        tracer.solve_index += 1
        sol = tracer.run(f"nlp.{stage}_stage", solve, problem, x0, opts)
        tracer.count(f"nlp.{stage}_inner_evals", sol.inner_iterations)
        tracer.count(f"nlp.{stage}_outer_iters", sol.iterations)
        return sol

    def traced_least_squares(*args, **kwargs):
        res = tracer.run("nlp.trf", least_squares, *args, **kwargs)
        tracer.count("nlp.trf_nfev", res.nfev)
        # status 0: stopped by the max_nfev cap, not by a tolerance
        tracer.count("nlp.trf_capped", int(res.status == 0))
        return res

    transfers = [(pipeline, name, tracer.wrap("pipeline.transfer",
                                              getattr(pipeline, name)))
                 for name in ("sure_guess_from_nominal",
                              "tree_guess_from_nominal")]
    builds = [(tr, name, tracer.wrap("transcription.build", getattr(tr, name)))
              for name in ("build_nominal", "build_sure", "build_tree")]
    return _patched([
        (nlp, "solve", traced_solve),
        (nlp, "least_squares", traced_least_squares),
        (spla, "factorized", tracer.wrap("nlp.factorize", factorized)),
        (nlp, "block_values_and_jac",
         tracer.wrap("nlp.block_jac", nlp.block_values_and_jac)),
        (nlp, "block_values", tracer.wrap("nlp.block_values", nlp.block_values)),
        (nlp, "kkt_residual", tracer.wrap("nlp.kkt", nlp.kkt_residual)),
        (tr, "extract_solution",
         tracer.wrap("transcription.extract", tr.extract_solution)),
        *builds,
        *transfers,
    ])


def simulation_layers(tracer: Tracer):
    """Patch the module-level names the simulator and controller call."""
    return _patched([
        (simulation, "simulate",
         tracer.wrap("simulation.simulate", simulation.simulate)),
        (simulation, "detect_crossing",
         tracer.wrap("simulation.crossing", simulation.detect_crossing)),
        (simulation, "pgs_solve", tracer.wrap("contact2d.pgs",
                                              simulation.pgs_solve)),
        (control, "sample_reference",
         tracer.wrap("control.sample_reference", control.sample_reference)),
        (bench, "evaluate_trial",
         tracer.wrap("bench.evaluate_trial", bench.evaluate_trial)),
    ])


def traced_system(tracer: Tracer, sys):
    """The plant with its derivative and guard callbacks traced."""
    extras = dict(sys.extras)
    extras["fast_derivative"] = tracer.wrap("plants.cartpole.derivative",
                                            extras["fast_derivative"])
    return dataclasses.replace(
        sys, extras=extras,
        guard=tracer.wrap("plants.cartpole.guard", sys.guard))


class TracedController:
    """Forwards to a controller, timing each call as a span."""

    def __init__(self, tracer: Tracer, controller):
        self._call = tracer.wrap("control.controller", controller)
        self.notify_contact = controller.notify_contact

    def __call__(self, t, state):
        return self._call(t, state)


# spans reported as <name>_s and <name>_calls, and as <name>_s only
TIMED_AND_COUNTED = (
    "nlp.trf", "nlp.factorize", "nlp.block_jac", "nlp.block_values",
    "nlp.kkt", "simulation.crossing", "contact2d.pgs", "control.controller",
    "control.sample_reference", "plants.cartpole.derivative",
    "plants.cartpole.guard",
)
TIMED = (
    "nlp.nominal_stage", "nlp.branched_stage", "transcription.build",
    "transcription.extract", "pipeline.transfer", "simulation.simulate",
    "bench.evaluate_trial",
)


def layer_metrics(tracer: Tracer, ops):
    """Per-layer numbers per operation (per solve, or per rollout), as
    {name: (value, unit)}."""
    scale = 1.0 / len(ops)
    empty = (0, 0.0, 0.0)
    m = {}
    for name in TIMED_AND_COUNTED + TIMED:
        calls, total, _ = tracer.spans.get(name, empty)
        m[f"{name}_s"] = (total * scale, "s")
        if name in TIMED_AND_COUNTED:
            m[f"{name}_calls"] = (calls * scale, "count")
    for name in ("nlp.nominal_inner_evals", "nlp.branched_inner_evals",
                 "nlp.nominal_outer_iters", "nlp.branched_outer_iters",
                 "nlp.trf_nfev"):
        m[name] = (tracer.counts.get(name, 0) * scale, "count")
    trf_calls = tracer.spans.get("nlp.trf", empty)[0]
    m["nlp.trf_capped_frac"] = (
        tracer.counts.get("nlp.trf_capped", 0) / trf_calls if trf_calls
        else 0.0, "ratio")
    stage_self = sum(tracer.spans.get(f"nlp.{stage}_stage", empty)[2]
                     for stage in ("nominal", "branched"))
    m["nlp.solve_self_s"] = (stage_self * scale, "s")
    m["simulation.self_s"] = (
        tracer.spans.get("simulation.simulate", empty)[2] * scale, "s")
    m["simulation.steps"] = (
        sum(op.get("steps", 0) for op in ops) * scale, "count")
    m["simulation.contact_events"] = (
        sum(op.get("contacts", 0) for op in ops) * scale, "count")
    wall = sum(op["wall_s"] for op in ops) * scale
    m["trace.op_s"] = (wall, "s")
    # operation time that no span covers (glue between the layers): near
    # zero when the layers' self times account for the traced wall time
    m["trace.unattributed_s"] = (wall - tracer.self_total() * scale, "s")
    return m
