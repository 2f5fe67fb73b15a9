"""JSON output: the deterministic dump every report uses, and the JSON
Schemas for every CLI subcommand output with the validation step.

This module imports nothing from the package, so any layer may use
``dump_json``. jsonschema is imported only by ``validate_output``, so the
CLI, which never validates, does not pay for loading it.
"""

from __future__ import annotations

import json
import math


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


_GRAPH6 = {"type": "string", "minLength": 1}
_NUM_OR_NULL = {"type": ["number", "null"]}

_AUDIT_ENTRY = {
    "type": "object",
    "properties": {
        "lemma": {"type": "string"},
        "inequality": {"type": "string"},
        "pass": {"type": "boolean"},
        "margin": _NUM_OR_NULL,
    },
    "required": ["lemma", "inequality", "pass", "margin"],
    "additionalProperties": False,
}

_SEARCH_REPORT = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["spex", "ex"]},
        "n": {"type": "integer"},
        "k": {"type": ["integer", "null"]},
        "prime": {"type": ["boolean", "null"]},
        "family_kind": {"type": "string"},
        "candidates_examined": {"type": "integer", "minimum": 0},
        "in_family_count": {"type": "integer", "minimum": 0},
        "best_value": _NUM_OR_NULL,
        "argmax": {"type": "array", "items": _GRAPH6},
        "comparison": {"type": "object"},
        "audit": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": _AUDIT_ENTRY},
        },
        "params": {"type": "object"},
    },
    "required": [
        "kind", "n", "k", "prime", "family_kind", "candidates_examined",
        "in_family_count", "best_value", "argmax", "comparison", "audit", "params",
    ],
    "additionalProperties": False,
}

SCHEMAS: dict[str, dict] = {
    "construct": {
        "type": "object",
        "properties": {
            "family": {"type": "string"},
            "graph6": _GRAPH6,
            "n": {"type": "integer", "minimum": 1},
            "edges": {"type": "integer", "minimum": 0},
            "degrees": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["family", "graph6", "n", "edges", "degrees"],
        "additionalProperties": False,
    },
    "trees": {
        "type": "object",
        "properties": {
            "t": {"type": "integer", "minimum": 1},
            "count": {"type": "integer", "minimum": 1},
            "graphs": {"type": "array", "items": _GRAPH6},
            "bipartitions": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            },
        },
        "required": ["t", "count", "graphs", "bipartitions"],
        "additionalProperties": False,
    },
    "spectral": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "radius": {"type": "number"},
            "residual": {"type": "number"},
            "z": {"type": "integer"},
            "vector": {"type": ["array", "null"], "items": {"type": "number"}},
        },
        "required": ["n", "radius", "residual", "z", "vector"],
        "additionalProperties": False,
    },
    "classify": {
        "type": "object",
        "properties": {
            "constants": {
                "type": "object",
                "properties": {
                    "k": {"type": "integer"},
                    "eta": {"type": "number"},
                    "epsilon": {"type": "number"},
                    "alpha": {"type": "number"},
                    "delta": {"type": "number"},
                    "satisfies_chain": {"type": "boolean"},
                },
                "required": ["k", "eta", "epsilon", "alpha", "delta", "satisfies_chain"],
                "additionalProperties": False,
            },
            "sizes": {"type": "object", "additionalProperties": {"type": "integer"}},
            "large": {"type": "array", "items": {"type": "integer"}},
            "small": {"type": "array", "items": {"type": "integer"}},
            "mid": {"type": "array", "items": {"type": "integer"}},
            "top": {"type": "array", "items": {"type": "integer"}},
            "common": {"type": "array", "items": {"type": "integer"}},
            "exceptional": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["constants", "sizes", "large", "small", "mid", "top", "common", "exceptional"],
        "additionalProperties": False,
    },
    "contains": {
        "type": "object",
        "properties": {
            "contained": {"type": "boolean"},
            "embedding": {"type": ["array", "null"], "items": {"type": "integer"}},
        },
        "required": ["contained", "embedding"],
        "additionalProperties": False,
    },
    "membership": {
        "type": "object",
        "properties": {
            "t": {"type": "integer"},
            "family_size": {"type": "integer"},
            "in_family": {"type": "boolean"},
            "witness_index": {"type": ["integer", "null"]},
            "witness_graph6": {"type": ["string", "null"]},
        },
        "required": ["t", "family_size", "in_family", "witness_index", "witness_graph6"],
        "additionalProperties": False,
    },
    "embed-lemma": {
        "type": "object",
        "properties": {
            "target": {"type": "string"},
            "a": {"type": "integer"},
            "b": {"type": "integer"},
            "case": {"type": "string"},
            "embedding": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["target", "a", "b", "case", "embedding"],
        "additionalProperties": False,
    },
    "spex": _SEARCH_REPORT,
    "ex": _SEARCH_REPORT,
    "audit-entry": _AUDIT_ENTRY,
    "enumerate": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "connected_only": {"type": "boolean"},
            "count": {"type": "integer", "minimum": 0},
            "graphs": {"type": ["array", "null"], "items": _GRAPH6},
        },
        "required": ["n", "connected_only", "count", "graphs"],
        "additionalProperties": False,
    },
}


def validate_output(subcommand: str, payload) -> None:
    """Raise jsonschema.ValidationError if the payload violates its schema."""
    import jsonschema

    jsonschema.validate(payload, SCHEMAS[subcommand])
