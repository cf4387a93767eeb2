"""Structured configs, graph text files, and run manifests.

Configs are YAML (key-value with nested tables).  A model config is
``{name: <registered model>, <its constructor's keyword arguments>}``, with
degree specs in any form :func:`degree_spec_from_config` reads.  Every
command writes one JSON manifest keyed by an input digest and the seed;
sweep rows emit as CSV under a versioned schema header.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

import numpy as np
import yaml

from .errors import ConfigError
from .graphmodel import DegreeSpec
from .models import MODELS, ModelSpec

CSV_SCHEMA = "# factor-cavity schema v1"


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path} is not valid YAML: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def degree_spec_from_config(node) -> DegreeSpec:
    """Accepts an int (constant), {deg: mass} mapping, or explicit tables.

    Explicit forms: {constant: v}, {support: [...], mass: [...]},
    {poisson: {mean: m, max_support: s}}.
    """
    if isinstance(node, DegreeSpec):
        return node
    if isinstance(node, (int, np.integer)):
        return DegreeSpec.constant(int(node))
    if not isinstance(node, Mapping):
        raise ConfigError(f"cannot read a degree spec from {node!r}")
    if "constant" in node:
        return DegreeSpec.constant(node["constant"])
    if "poisson" in node:
        sub = node["poisson"]
        kwargs = {}
        if "max_support" in sub:
            kwargs["max_support"] = int(sub["max_support"])
        return DegreeSpec.poisson(float(sub["mean"]), **kwargs)
    if "support" in node:
        return DegreeSpec(tuple(node["support"]), tuple(node["mass"]))
    # plain {degree: mass} mapping
    try:
        return DegreeSpec.from_mapping({int(k): float(v) for k, v in node.items()})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"cannot read a degree spec from {node!r}") from err


def degree_spec_to_config(spec: DegreeSpec) -> dict:
    return {"support": list(spec.support), "mass": list(spec.mass)}


def model_from_config(node: Mapping) -> ModelSpec:
    """Build ``MODELS[name](**params)`` from {name: ..., **params}."""
    name = node.get("name") if isinstance(node, Mapping) else None
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"model config needs a registered 'name'; known: {sorted(MODELS)}")
    params = {k: v for k, v in node.items() if k != "name"}
    try:
        for key in ("dspec", "kspec"):
            if key in params:
                params[key] = degree_spec_from_config(params[key])
        return MODELS[name](**params)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"cannot build model '{name}': {err}") from err


def model_to_config(model: ModelSpec) -> dict:
    """The node :func:`model_from_config` rebuilds ``model`` from."""
    return {"name": model.name,
            **{key: degree_spec_to_config(val) if isinstance(val, DegreeSpec) else val
               for key, val in model.params.items()}}


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def canonical(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def inputs_digest(inputs) -> str:
    payload = json.dumps(canonical(inputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def format_float(x) -> str:
    """Shortest round-trip decimal form; identical bits give identical text."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def csv_body(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Deterministic CSV text under the versioned schema header."""
    lines = [CSV_SCHEMA, ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(canonical(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
