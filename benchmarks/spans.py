"""Timing wrappers around the package's public functions, and their roll-up.

A :class:`Tracer` replaces each traced function in every ``factorcavity``
module that holds it (``bethe.population_dynamics`` as well as the copy that
``exact`` imported of ``graphmodel.sample_planted``), so callers inside the
package reach the wrapper too.  The program's files are not touched;
``uninstall`` puts the originals back.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _pd_count(bound, result):
    return {"pd_updates": bound["pop_size"] * bound["iters"]}


def _estimate_count(bound, result):
    return {"samples": result.samples}


def _pos_count(bound, result):
    return {"pos_evaluations": result.info["evaluations"]}


def _states_count(bound, result):
    g = bound["g"]
    return {"states": g.q ** g.n}


def _bp_count(bound, result):
    edges = sum(len(fv) for fv in result.graph.factor_vars)
    # both directions of every clone edge are refreshed once per sweep
    return {"bp_iterations": result.iterations,
            "bp_edge_updates": 2 * edges * result.iterations}


def _sequence_count(bound, result):
    return {"degree_sequence_rejections": result.rejections}


def _planted_count(bound, result):
    return {"colouring_attempts": result.meta["colouring_attempts"],
            "colouring_fallbacks": int(bool(result.meta["colouring_mcmc"]))}


# (layer, module, function, count reader); the layer of an op's own code is
# "op", and cli/io/models together form the "cli" layer
TRACED = (
    ("cli", "cli", "run_mi_scan", None),
    ("bethe", "bethe", "mutual_information", None),
    ("bethe", "bethe", "sup_bethe", None),
    ("bethe", "bethe", "population_dynamics", _pd_count),
    ("bethe", "bethe", "bethe_estimate", _estimate_count),
    ("assumptions", "assumptions", "check_deg", None),
    ("assumptions", "assumptions", "check_sym", None),
    ("assumptions", "assumptions", "check_bal", None),
    ("assumptions", "assumptions", "check_pos", _pos_count),
    ("exact", "exact", "information_term", None),
    ("exact", "exact", "partition_function", _states_count),
    ("exact", "exact", "bp_run", _bp_count),
    ("exact", "exact", "bp_marginals", None),
    ("graphmodel", "graphmodel", "sample_degree_sequence", _sequence_count),
    ("graphmodel", "graphmodel", "sample_planted", _planted_count),
)

LAYERS = ("cli", "bethe", "assumptions", "exact", "graphmodel")


class Tracer:
    """Collects spans (layer, function, start, end, parent, op) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []          # (module, attribute, original)
        self.op_index = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer, name, fn, count):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "op": tracer.op_index,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "layer": layer, "name": name}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "factorcavity" or key.startswith("factorcavity.")]
        for layer, module, name, count in TRACED:
            original = getattr(sys.modules[f"factorcavity.{module}"], name)
            wrapper = self._wrap(layer, f"{module}.{name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def op(self, index):
        """Context manager: a root span for one benchmark op."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op_index = index
                self.span = {"id": len(tracer.spans), "op": index, "parent": None,
                             "layer": "op", "name": "op",
                             "start": time.perf_counter()}
                tracer.spans.append(self.span)
                tracer._stack.append(self.span["id"])
                return self

            def __exit__(self, *exc):
                self.span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer.op_index = None
                return False

        return _Op()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- roll-up ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op layer self times, per-function times, counts and rates."""
        spans = self.spans
        ops = sum(1 for s in spans if s["layer"] == "op")
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self_time = {layer: 0.0 for layer in LAYERS + ("op",)}
        fn_time = {}
        counts = {}
        for s in spans:
            duration = s["end"] - s["start"]
            self_time[s["layer"]] += duration - child_time[s["id"]]
            fn_time[s["name"]] = fn_time.get(s["name"], 0.0) + duration
            for key, value in s.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
        op_time = sum(s["end"] - s["start"] for s in spans if s["layer"] == "op")

        def per_op(value):
            return value / ops if ops else 0.0

        def rate(count_key, fn_name):
            busy = fn_time.get(fn_name, 0.0)
            return counts.get(count_key, 0) / busy if busy > 0 else 0.0

        return {
            "cli.point_self_s": per_op(self_time["cli"]),
            "bethe.self_s": per_op(self_time["bethe"]),
            "bethe.population_dynamics_s": per_op(fn_time.get("bethe.population_dynamics", 0.0)),
            "bethe.pd_updates_per_s": rate("pd_updates", "bethe.population_dynamics"),
            "bethe.estimate_s": per_op(fn_time.get("bethe.bethe_estimate", 0.0)),
            "bethe.estimate_samples_per_s": rate("samples", "bethe.bethe_estimate"),
            "assumptions.self_s": per_op(self_time["assumptions"]),
            "assumptions.check_pos_s": per_op(fn_time.get("assumptions.check_pos", 0.0)),
            "assumptions.pos_evaluations": per_op(counts.get("pos_evaluations", 0)),
            "assumptions.pos_evaluations_per_s": rate("pos_evaluations", "assumptions.check_pos"),
            "assumptions.check_bal_s": per_op(fn_time.get("assumptions.check_bal", 0.0)),
            "exact.self_s": per_op(self_time["exact"]),
            "exact.partition_function_s": per_op(fn_time.get("exact.partition_function", 0.0)),
            "exact.states_per_s": rate("states", "exact.partition_function"),
            "exact.bp_s": per_op(fn_time.get("exact.bp_run", 0.0)),
            "exact.bp_iterations": per_op(counts.get("bp_iterations", 0)),
            "exact.bp_edge_updates_per_s": rate("bp_edge_updates", "exact.bp_run"),
            "graphmodel.self_s": per_op(self_time["graphmodel"]),
            "graphmodel.degree_sequence_s": per_op(fn_time.get("graphmodel.sample_degree_sequence", 0.0)),
            "graphmodel.degree_sequence_rejections": per_op(counts.get("degree_sequence_rejections", 0)),
            "graphmodel.planted_s": per_op(fn_time.get("graphmodel.sample_planted", 0.0)),
            "graphmodel.colouring_attempts": per_op(counts.get("colouring_attempts", 0)),
            "graphmodel.colouring_fallbacks": per_op(counts.get("colouring_fallbacks", 0)),
            "trace.op_s": per_op(op_time),
            "trace.unattributed_s": per_op(self_time["op"]),
        }
