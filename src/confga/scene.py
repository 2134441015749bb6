"""Scene files: named multivectors as blade-coefficient JSON.

A scene is a JSON object with optional "tolerance" ({"rel": float}),
"objects", and "versors" sections; the latter two map names to
{blade: coefficient} tables. Blade keys use the text form ("1", "e12",
"e1+", "e123+-"); readers additionally accept the null-direction keys
"e0" and "einf", which expand into the internal +/- basis. Writing is
canonical: sections in a fixed order, names sorted, blades ordered by
grade then bitset, zero coefficients dropped, two-space indention, and
a trailing newline, so a written file round-trips byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import Multivector
from .conformal import ALG, e0, einf
from .errors import DomainError


@dataclass
class Scene:
    objects: dict[str, Multivector] = field(default_factory=dict)
    versors: dict[str, Multivector] = field(default_factory=dict)
    tolerance_rel: float | None = None


def _is_number(value) -> bool:
    # JSON admits NaN, +-Infinity and ints beyond the float range; bool is an int
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _mv_from_entries(name: str, entries) -> Multivector:
    if not isinstance(entries, dict):
        raise DomainError(f"entry {name!r} must map blade names to numbers")
    coeffs = np.zeros(ALG.dim)
    for key, value in entries.items():
        if not _is_number(value):
            raise DomainError(f"coefficient for {name}.{key} must be a number and finite, got {value!r}")
        value = float(value)
        if key == "e0":
            coeffs += value * e0.coeffs
        elif key == "einf":
            coeffs += value * einf.coeffs
        else:
            try:
                coeffs[ALG.blade_bits(key)] += value
            except ValueError as exc:
                raise DomainError(f"bad blade key {key!r}") from exc
    return Multivector(ALG, coeffs, copy=False)


def mv_entries(mv: Multivector) -> dict:
    coeffs = mv.coeffs.tolist()
    return {ALG.blade_names[bits]: coeffs[bits] for bits in ALG.blade_order if coeffs[bits] != 0.0}


def scene_from_dict(data) -> Scene:
    if not isinstance(data, dict):
        raise DomainError("scene must be a JSON object")
    unknown = set(data) - {"tolerance", "objects", "versors"}
    if unknown:
        raise DomainError(f"unknown scene sections: {sorted(unknown)}")
    rel = None
    tol = data.get("tolerance")
    if tol is not None:
        if not isinstance(tol, dict) or set(tol) - {"rel"}:
            raise DomainError('tolerance must be an object like {"rel": 1e-9}')
        if "rel" in tol:
            if not _is_number(tol["rel"]):
                raise DomainError(f"tolerance rel must be a number and finite, got {tol['rel']!r}")
            rel = float(tol["rel"])
    scene = Scene(tolerance_rel=rel)
    for section, table in (("objects", scene.objects), ("versors", scene.versors)):
        for name, entries in (data.get(section) or {}).items():
            table[name] = _mv_from_entries(name, entries)
    return scene


def read_scene(path) -> Scene:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"scene is not valid JSON: {exc}") from exc
    return scene_from_dict(data)


def scene_to_json(scene: Scene) -> str:
    payload: dict = {}
    if scene.tolerance_rel is not None:
        payload["tolerance"] = {"rel": scene.tolerance_rel}
    payload["objects"] = {name: mv_entries(scene.objects[name]) for name in sorted(scene.objects)}
    payload["versors"] = {name: mv_entries(scene.versors[name]) for name in sorted(scene.versors)}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_scene(scene: Scene, path) -> None:
    Path(path).write_text(scene_to_json(scene))
