"""Versioned JSON schemas for emitted documents, a small validator and the one JSON writer."""

from __future__ import annotations

import json
from importlib import resources

from .errors import ConfigError

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
}


def load_schema(name: str) -> dict:
    """Load a schema shipped with the package, e.g. ``scenario``."""
    ref = resources.files("phonon_lab") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validate_document(doc, schema, path: str = "$"):
    """Check a JSON document against the subset of JSON Schema used here.

    Supports type / required / properties / items; raises
    ``ConfigError`` naming the offending field.
    """
    expected = schema.get("type")
    if expected is not None:
        if expected == "number":
            ok = isinstance(doc, (int, float)) and not isinstance(doc, bool)
        else:
            py = _TYPES[expected]
            ok = isinstance(doc, py) and not (py is int and isinstance(doc, bool))
        if not ok:
            raise ConfigError(f"{path}: expected {expected}, got {type(doc).__name__}")
    if expected == "object":
        for key in schema.get("required", []):
            if key not in doc:
                raise ConfigError(f"{path}: missing required field {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                validate_document(doc[key], sub, f"{path}.{key}")
    if expected == "array" and "items" in schema:
        for i, item in enumerate(doc):
            validate_document(item, schema["items"], f"{path}[{i}]")


def document_text(doc, schema: str | None = None) -> str:
    """A JSON artifact's text, once ``doc`` passes the shipped schema named, if any."""
    if schema is not None:
        validate_document(doc, load_schema(schema))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
