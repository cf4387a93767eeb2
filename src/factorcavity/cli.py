"""Experiment runner: checks, sampling, oracles, sweeps and the selftest.

Exit codes: 0 on success, 1 when a model hypothesis check fails, 2 on any
runtime error.  Every numeric artefact is reproducible from the recorded
(config, seed) pair; grids expand in-process and rows are written in grid
order regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, acceptance, assumptions, bethe, exact, io, models
from .errors import (AssumptionViolation, ConfigError, FactorCavityError,
                     NoCrossing)
from .graphmodel import (FactorGraph, sample_degree_sequence, sample_null,
                         sample_planted, uniform_assignment)
from .rng import substream

WORKER_ENV = "FACTORCAVITY_WORKERS"
# the config and budget keys each sweep command reads
_CONFIG_KEYS = {"mi-scan": ("model", "grid", "seed", "budget", "workers"),
                "threshold": ("model", "grid", "seed", "budget", "comparator")}
_BUDGET_KEYS = {"mi-scan": ("pop_size", "sweeps", "samples", "pos_trials"),
                "threshold": ("pop_size", "sweeps", "samples")}


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One config file, one experiment: a model, a grid, seeds and budgets."""

    operation: str
    model: dict
    grid_param: str
    grid_values: list
    seed: int = 0
    budget: dict = field(default_factory=dict)
    comparator: object = "annealed"
    workers: int = 1

    def validate(self):
        if not self.grid_values:
            raise ConfigError("parameter grid must be nonempty")
        known = _BUDGET_KEYS[self.operation]
        unknown = sorted(set(self.budget) - set(known))
        if unknown:
            raise ConfigError(f"unknown budget keys {unknown}; {self.operation} reads {known}")
        try:
            self.budget = {key: int(val) for key, val in self.budget.items()}
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"budget entries must be numbers: {err}") from err
        if any(v <= 0 for v in self.budget.values()):
            raise ConfigError("budget entries must be positive")
        name = self.model.get("name")
        if name not in models.MODELS:
            raise ConfigError(f"model '{name}' is not registered")
        if not self.grid_param or not isinstance(self.grid_param, str):
            raise ConfigError("grid.param must name a model parameter")
        return self

    @classmethod
    def from_file(cls, path, operation: str) -> "ExperimentConfig":
        raw = io.load_config(path)
        known = _CONFIG_KEYS[operation]
        unknown = sorted(map(str, set(raw) - set(known)))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; {operation} reads {known}")
        for key in ("model", "grid", "budget"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"config key '{key}' must be a mapping")
        grid = raw.get("grid", {})
        try:
            config = cls(
                operation=operation,
                model=raw.get("model", {}),
                grid_param=grid.get("param", ""),
                grid_values=list(grid.get("values", [])),
                seed=int(raw.get("seed", 0)),
                budget=dict(raw.get("budget", {})),
                comparator=raw.get("comparator", "annealed"),
                workers=int(raw.get("workers", 1)),
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"malformed {operation} config: {err}") from err
        return config.validate()


def _grid_model(config: ExperimentConfig, value):
    node = dict(config.model)
    node[config.grid_param] = value
    return io.model_from_config(node)


def _mi_point(payload):
    config_dict, value, index = payload
    config = ExperimentConfig(**config_dict)
    model = _grid_model(config, value)
    child = int(substream(config.seed, 200, index).integers(2 ** 62))
    result = bethe.mutual_information(model, seed=child, **config.budget)
    return (value, result.value, result.stderr, result.information_term,
            result.sup.value, result.sup.stderr, result.sup.tag)


def run_mi_scan(config: ExperimentConfig, workers: int):
    payloads = [(config.__dict__, v, i) for i, v in enumerate(config.grid_values)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_mi_point, payloads))
    else:
        rows = [_mi_point(p) for p in payloads]
    columns = ("param", "mi", "stderr", "information_term", "sup", "sup_stderr", "sup_tag")
    return columns, rows


def run_threshold(config: ExperimentConfig):
    return bethe.threshold_scan(lambda v: _grid_model(config, v), config.grid_values,
                                comparator=config.comparator, seed=config.seed,
                                **config.budget)


def _scan_rows(rows):
    columns = ("param", "B_uniform", "B_pd_uniform_init", "B_pd_planted_init",
               "phi_a", "stderr", "sup", "comparator")
    # the three candidates in the order sup_bethe tries them
    table = [(r.param, *(v for v, _ in r.sup.candidates.values()),
              r.phi_a, r.sup.stderr, r.sup.value, r.comparator) for r in rows]
    return columns, table


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"package-{__version__}"


def _manifest(operation: str, inputs, seed, started: float, rows: int) -> dict:
    return {
        "operation": operation,
        "schema": io.CSV_SCHEMA,
        "inputs_digest": io.inputs_digest(inputs),
        "seed": seed,
        "build": _git_describe(),
        "wall_time_s": time.time() - started,
        "started_unix": started,
        "rows": rows,
    }


def _emit(args, text: Optional[str], manifest: dict, payload=None, suffix=".csv"):
    base = args.out
    if base:
        if text is not None:
            io.write_text(base + suffix, text)
        io.write_json(base + ".manifest.json", manifest)
        if payload is not None:
            io.write_json(base + ".json", payload)
    else:
        if text is not None:
            sys.stdout.write(text)
        if payload is not None:
            json.dump(io.canonical(payload), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# model flags
# ---------------------------------------------------------------------------


def _parse_spec_flag(text: str):
    if text is None:
        return None
    if text.startswith("poisson:"):
        parts = text.split(":")
        node = {"poisson": {"mean": float(parts[1])}}
        if len(parts) > 2:
            node["poisson"]["max_support"] = int(parts[2])
        return node
    if ":" in text:
        try:
            return {int(k): float(v) for k, v in (p.split(":") for p in text.split(","))}
        except ValueError as err:
            raise ConfigError(f"degree spec {text!r} needs 'value:mass' parts") from err
    return int(text)


def _model_from_args(args) -> models.ModelSpec:
    if args.config:
        raw = io.load_config(args.config)
        if "model" not in raw:
            raise ConfigError(f"{args.config} has no 'model' section")
        return io.model_from_config(raw["model"])
    if not args.model:
        raise ConfigError("either --config or --model is required")
    node = {"name": args.model}
    for key in ("eta", "beta", "q", "d", "r"):
        val = getattr(args, key, None)
        if val is not None:
            node[key] = val
    if getattr(args, "assortative", False):
        node["assortative"] = True
    for key in ("dspec", "kspec"):
        val = _parse_spec_flag(getattr(args, key, None))
        if val is not None:
            node[key] = val
    return io.model_from_config(node)


def _add_model_flags(parser):
    parser.add_argument("--config", help="YAML config with a model section")
    parser.add_argument("--model", choices=sorted(models.MODELS),
                        help="registered model name")
    parser.add_argument("--eta", type=float, help="flip probability (ldgm)")
    parser.add_argument("--beta", type=float, help="inverse temperature")
    parser.add_argument("--q", type=int, help="alphabet size (sbm)")
    parser.add_argument("--d", type=float, help="mean variable degree")
    parser.add_argument("--r", type=int, help="coupling discretisation level (kspin)")
    parser.add_argument("--assortative", action="store_true",
                        help="assortative pair table (falsifier target only)")
    parser.add_argument("--dspec", help="variable degrees: '3', '2:0.5,3:0.5', 'poisson:2.5'")
    parser.add_argument("--kspec", help="factor arities, same syntax")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    model = _model_from_args(args)
    started = time.time()
    reports = assumptions.check_all(model.dspec, model.kspec, model.family,
                                    pos_trials=args.pos_trials, seed=args.seed)
    failed = False
    payload = {}
    for name, rep in reports.items():
        verdict = "pass" if rep.passed else "FAIL"
        extra = ""
        if name == "SYM" and rep.passed:
            extra = f" xi={rep.info['xi']!r}"
        if name == "POS" and rep.passed:
            extra = f" ({rep.info['semantics']}, {rep.info['evaluations']} evaluations)"
        print(f"{name}: {verdict}{extra}")
        if not rep.passed:
            failed = True
            print(f"  witness: {_short(rep.witness)} (magnitude {rep.detail:.3e})")
        payload[name] = {"passed": rep.passed, "detail": rep.detail,
                         "info": {k: v for k, v in rep.info.items()
                                  if isinstance(v, (int, float, str, bool))}}
    inputs = {"model": io.model_to_config(model), "pos_trials": args.pos_trials}
    manifest = _manifest("check", inputs, args.seed, started, rows=len(reports))
    _emit(args, None, manifest, payload)
    return 1 if failed else 0


def _short(witness) -> str:
    text = repr(witness)
    return text if len(text) <= 200 else text[:200] + "..."


def _graph(args, model):
    """The graph a subcommand works on: read from ``--graph`` or sampled by
    ``--kind``, with {"sigma": ground truth} when it was planted, and the
    inputs that fix it for the manifest digest."""
    inputs = {"model": io.model_to_config(model)}
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            inputs["graph"] = fh.read()
        return FactorGraph.from_text(inputs["graph"], model.family), {}, inputs
    inputs.update(n=args.n, kind=args.kind, theta=args.theta)
    if args.kind == "null":
        g = sample_null(args.n, model.dspec, model.kspec, model.family, args.seed)
        return g, {}, inputs
    if args.kind == "planted":
        seq = sample_degree_sequence(args.n, model.dspec, model.kspec, args.seed)
        sigma = uniform_assignment(args.n, model.q, substream(args.seed, 5))
        g = sample_planted(seq, sigma, model.family, args.theta, args.seed)
    else:
        sigma, g = exact.sample_nishimori(args.n, model.dspec, model.kspec,
                                          model.family, args.seed)
    return g, {"sigma": sigma.tolist()}, inputs


def cmd_sample(args) -> int:
    model = _model_from_args(args)
    started = time.time()
    g, truth, inputs = _graph(args, model)
    manifest = _manifest("sample", inputs, args.seed, started, rows=g.m)
    manifest.update(truth)
    _emit(args, g.to_text(), manifest, suffix=".graph.txt")
    return 0


def cmd_exact(args) -> int:
    model = _model_from_args(args)
    started = time.time()
    g, _, inputs = _graph(args, model)
    inputs["two_point"] = args.two_point
    summary = exact.partition_function(g, want_pairs=args.two_point)
    payload = {
        "log_z": summary.log_z,
        "marginals": summary.marginals,
        "two_point": summary.two_point,
    }
    manifest = _manifest("exact", inputs, args.seed, started, rows=g.n)
    _emit(args, None, manifest, payload)
    return 0


def cmd_bp(args) -> int:
    model = _model_from_args(args)
    started = time.time()
    g, _, inputs = _graph(args, model)
    inputs.update(max_iters=args.max_iters, damping=args.damping, tol=args.tol)
    state = exact.bp_run(g, max_iters=args.max_iters, damping=args.damping,
                         tol=args.tol)
    payload = {
        "converged": state.converged,
        "iterations": state.iterations,
        "max_change": state.max_change,
        "bethe": exact.bethe_instance(state),
        "marginals": exact.bp_marginals(state),
    }
    if g.q ** g.n <= 4096:
        summary = exact.partition_function(g)
        payload["log_z_exact"] = summary.log_z
        payload["marginal_error"] = float(
            np.abs(exact.bp_marginals(state) - summary.marginals).max())
    manifest = _manifest("bp", inputs, args.seed, started, rows=g.n)
    _emit(args, None, manifest, payload)
    return 0


def cmd_bethe(args) -> int:
    model = _model_from_args(args)
    started = time.time()
    sup = bethe.sup_bethe(model, seed=args.seed, pop_size=args.pop_size,
                          sweeps=args.sweeps, samples=args.samples)
    payload = {
        "phi_a": bethe.annealed_free_entropy(model),
        "b_uniform_atom": bethe.bethe_uniform_atom(model),
        "sup": sup.value,
        "sup_stderr": sup.stderr,
        "sup_tag": sup.tag,
        "heuristic_sup": sup.heuristic,
        "candidates": {k: list(v) for k, v in sup.candidates.items()},
    }
    inputs = {"model": io.model_to_config(model), "pop_size": args.pop_size,
              "sweeps": args.sweeps, "samples": args.samples}
    manifest = _manifest("bethe", inputs, args.seed, started, rows=len(sup.candidates))
    _emit(args, None, manifest, payload)
    return 0


def cmd_mi_scan(args) -> int:
    config = ExperimentConfig.from_file(args.config, "mi-scan")
    if args.seed is not None:
        config.seed = args.seed
    workers = _worker_cap(args.workers or config.workers)
    started = time.time()
    columns, rows = run_mi_scan(config, workers)
    csv_text = io.csv_body(columns, rows)
    manifest = _manifest("mi-scan", config.__dict__, config.seed, started, len(rows))
    _emit(args, csv_text, manifest)
    return 0


def cmd_threshold(args) -> int:
    config = ExperimentConfig.from_file(args.config, "threshold")
    if args.seed is not None:
        config.seed = args.seed
    started = time.time()
    payload = error = None
    try:
        scan = run_threshold(config)
        payload = {"bracket": list(scan.bracket), "crossing_param": scan.crossing_param}
    except NoCrossing as err:
        scan, error = err, {"type": "NoCrossing", "message": str(err)}
    columns, table = _scan_rows(scan.rows)
    manifest = _manifest("threshold", config.__dict__, config.seed, started, len(scan.rows))
    if error:
        manifest["error"] = error
    _emit(args, io.csv_body(columns, table), manifest, payload)
    return 2 if error else 0


def cmd_selftest(args) -> int:
    started = time.time()
    results, csv_text = acceptance.run_selftest(args.seed, echo=print)
    manifest = _manifest("selftest", {"seed": args.seed}, args.seed, started,
                         rows=len(results))
    manifest["runtimes_s"] = {r.criterion: round(r.runtime_s, 3) for r in results}
    _emit(args, csv_text, manifest)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _worker_cap(requested: int) -> int:
    cap = os.environ.get(WORKER_ENV)
    if cap:
        return max(1, min(int(requested or 1), int(cap)))
    return max(1, int(requested or 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factorcavity",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_flags=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path stem (files get suffixes)")
        if model_flags:
            _add_model_flags(p)

    p = sub.add_parser("check", help="run the model hypothesis checkers")
    common(p)
    p.add_argument("--pos-trials", type=int, default=1000)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sample", help="sample a factor graph to text")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("null", "planted", "nishimori"), default="null")
    p.add_argument("--theta", type=int, default=0)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("exact", help="enumerate log Z and marginals")
    common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--kind", choices=("null", "planted"), default="null")
    p.add_argument("--theta", type=int, default=0)
    p.add_argument("--graph", help="read a serialized graph instead of sampling")
    p.add_argument("--two-point", action="store_true", dest="two_point")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("bp", help="run sum-product on an instance")
    common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--kind", choices=("null", "planted"), default="null")
    p.add_argument("--theta", type=int, default=0)
    p.add_argument("--graph")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_bp)

    p = sub.add_parser("bethe", help="annealed value and heuristic supremum")
    common(p)
    p.add_argument("--pop-size", type=int, default=bethe.DEFAULT_POPULATION, dest="pop_size")
    p.add_argument("--sweeps", type=int, default=bethe.DEFAULT_SWEEPS)
    p.add_argument("--samples", type=int, default=bethe.DEFAULT_SAMPLES)
    p.set_defaults(fn=cmd_bethe)

    p = sub.add_parser("mi-scan", help="mutual information over a parameter grid")
    common(p, model_flags=False)
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help=f"grid points run in parallel (capped by {WORKER_ENV})")
    p.set_defaults(fn=cmd_mi_scan)
    p.set_defaults(seed=None)

    p = sub.add_parser("threshold", help="scan for the condensation crossing")
    common(p, model_flags=False)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_threshold)
    p.set_defaults(seed=None)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p, model_flags=False)
    p.set_defaults(seed=acceptance.DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AssumptionViolation as err:
        json.dump({"error": "assumption-violation", "message": str(err)},
                  sys.stderr, default=str)
        sys.stderr.write("\n")
        return 1
    except (FactorCavityError, OSError, ValueError) as err:
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr, default=str)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
