"""Shared helpers for parsing and emitting the JSON document schemas."""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from .errors import ParseError
from .linalg import ComplexArray


def parse_json(doc: str | Mapping, path: str) -> Any:
    """``doc`` parsed when it is JSON text, else ``doc`` itself."""
    if not isinstance(doc, str):
        return doc
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path) from None


def required(mapping: Mapping, key: str, path: str) -> Any:
    """``mapping[key]``; a missing key is a ParseError at ``path``."""
    if key not in mapping:
        raise ParseError("missing required key", path)
    return mapping[key]


def expect_mapping(node: Any, path: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise ParseError(f"expected an object, got {type(node).__name__}", path)
    return node


def expect_list(node: Any, path: str) -> Sequence:
    if not isinstance(node, (list, tuple)):
        raise ParseError(f"expected an array, got {type(node).__name__}", path)
    return node


def expect_number(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"expected a number, got {type(node).__name__}", path)
    return float(node)


def expect_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ParseError(f"expected an integer, got {type(node).__name__}", path)
    return node


def parse_complex_entry(node: Any, path: str) -> complex:
    pair = expect_list(node, path)
    if len(pair) != 2:
        raise ParseError(f"expected a [re, im] pair, got length {len(pair)}", path)
    return complex(expect_number(pair[0], f"{path}[0]"), expect_number(pair[1], f"{path}[1]"))


def parse_vector(node: Any, path: str) -> ComplexArray:
    entries = expect_list(node, path)
    if not entries:
        raise ParseError("vector is empty", path)
    return np.array(
        [parse_complex_entry(e, f"{path}[{i}]") for i, e in enumerate(entries)],
        dtype=np.complex128,
    )


def parse_matrix(node: Any, path: str) -> ComplexArray:
    rows = expect_list(node, path)
    if not rows:
        raise ParseError("matrix is empty", path)
    parsed = [parse_vector(r, f"{path}[{i}]") for i, r in enumerate(rows)]
    width = parsed[0].shape[0]
    for i, row in enumerate(parsed):
        if row.shape[0] != width:
            raise ParseError(f"row has {row.shape[0]} entries, expected {width}", f"{path}[{i}]")
    return np.array(parsed, dtype=np.complex128)


def complex_entry(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]
