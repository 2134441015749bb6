"""Scene files: named multivectors as blade-coefficient JSON.

A scene is a JSON object with optional "tolerance" ({"rel": float}),
"objects", and "versors" sections; the latter two map names to
{blade: coefficient} tables. Blade keys use the text form ("1", "e12",
"e1+", "e123+-"); readers additionally accept the null-direction keys
"e0" and "einf", which expand into the internal +/- basis. Writing is
canonical: sections in a fixed order, names sorted, blades ordered by
grade then bitset, zero coefficients dropped, two-space indention, and
a trailing newline, so a written file round-trips byte for byte.

In memory a section is a `Section`: its names in file order and one
read-only (N, ALG.dim) array of rows, read and written without a
Multivector per object; `scene.objects[name]` is a view of its row.
The reader looks up each object's key tuple once for its columns and
checks and converts a section's values together; a section that holds
anything else goes through the per-entry loop, the one source of every
refusal and its file order. The writer fills one %-template per pattern
of nonzero coefficients, built for each call.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str
from pathlib import Path

import numpy as np

from . import tolerance
from .algebra import Multivector
from .conformal import ALG, PM_FROM_NULL
from .errors import DomainError, GAError


class Section(Mapping):
    """Named multivectors as one read-only (N, ALG.dim) array of finite
    rows, names in file order."""

    def __init__(self, names, rows):
        self.names = list(names)
        for name in self.names:
            if not isinstance(name, str):  # the writer quotes names as JSON strings
                raise TypeError(f"section names must be strings, got {name!r}")
        self.rows = np.array(rows, dtype=np.float64).reshape(len(self.names), ALG.dim)
        finite = np.isfinite(self.rows)
        if not finite.all():
            r, k = np.argwhere(~finite)[0].tolist()
            raise DomainError(f"entry {self.names[r]!r} has a non-finite coefficient, {self.rows[r, k]} on {ALG.blade_names[k]}")
        self.rows.setflags(write=False)
        self._index = {name: i for i, name in enumerate(self.names)}

    def by_name(self) -> tuple[list, list]:
        """The names sorted, and the indices of their rows in that order."""
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        return [self.names[i] for i in order], order

    def __getitem__(self, name) -> Multivector:
        return Multivector(ALG, self.rows[self._index[name]], copy=False)

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class Scene:
    """Each section is a Section, or any {name: Multivector} mapping to stack into one."""

    objects: Mapping = field(default_factory=dict)
    versors: Mapping = field(default_factory=dict)
    tolerance_rel: float | None = None

    def __post_init__(self):
        for title in ("objects", "versors"):
            mvs = getattr(self, title)
            if not isinstance(mvs, Section):
                setattr(self, title, Section(mvs, [mv.coeffs for mv in mvs.values()]))


def _is_number(value) -> bool:
    # JSON admits NaN, +-Infinity and ints beyond the float range; bool is an int
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


_COLUMN = {name: bits for bits, name in enumerate(ALG.blade_names)}
# the null-direction keys as (column, coefficient) pairs, zeros left out: columns 8 and 16 of PM_FROM_NULL
_NULL_TERMS = {key: [(k, c) for k, c in enumerate(PM_FROM_NULL[:, bits].tolist()) if c] for key, bits in (("e0", 8), ("einf", 16))}
_CONTROL = {c: f"\\u{c:04x}" for c in (*range(0x20), *range(0x7F, 0xA0))}  # each Cc character, as JSON writes it


def escape_controls(text: str) -> str:
    """text with each control character (Unicode category Cc) written \\u00XX, as JSON writes it."""
    return text.translate(_CONTROL)


def _section(table: dict) -> Section:
    """The table's rows: one lookup per object of its key tuple gives its
    columns, and all its values are checked and converted at once. A table
    that lookup cannot vouch for goes through `_entry_rows` instead."""
    rows = _canonical_rows(table)
    return Section(table, _entry_rows(table) if rows is None else rows)


def _canonical_rows(table: dict) -> np.ndarray | None:
    """The rows of a table whose entries are all dicts of finite floats on
    canonical blade names, or None for any other table. Each key is then one
    column, so writing the values into zeros is the per-entry sum; + 0.0
    clears negative zeros as adding into 0.0 does."""
    columns: dict = {}  # key tuple -> its columns, for this table only
    cols, counts, values = [], [], []
    for entries in table.values():
        if type(entries) is not dict:
            return None
        keys = tuple(entries)
        col = columns.get(keys)
        if col is None:
            try:
                col = columns[keys] = [_COLUMN[key] for key in keys]
            except KeyError:  # e0, einf, a digit alias or a bad key
                return None
        cols += col
        counts.append(len(col))
        values += entries.values()
    if not set(map(type, values)) <= {float}:
        return None
    flat = np.array(values, dtype=np.float64)
    if not np.isfinite(flat).all():
        return None
    rows = np.zeros((len(counts), ALG.dim))
    rows[np.repeat(np.arange(len(counts)), counts), np.array(cols, dtype=np.intp)] = flat + 0.0
    return rows


def _entry_rows(table: dict) -> list:
    """Add each entry into zeros in file order, refusing the first bad one
    with its message; a finite float on a canonical blade name needs no
    further check."""
    flat = [0.0] * (len(table) * ALG.dim)
    for base, (name, entries) in zip(range(0, len(flat), ALG.dim), table.items()):
        if not isinstance(entries, dict):
            raise DomainError(f"entry {name!r} must map blade names to numbers")
        for key, value in entries.items():
            bits = _COLUMN.get(key)
            if bits is not None and type(value) is float and value - value == 0.0:
                flat[base + bits] += value
                continue
            if not _is_number(value):
                raise DomainError(f"coefficient for {escape_controls(f'{name}.{key}')} must be a number and finite, got {value!r}")
            terms = _NULL_TERMS.get(key)
            if terms is None:
                try:
                    terms = [(ALG.blade_bits(key), 1.0)]
                except ValueError as exc:
                    raise DomainError(f"bad blade key {key!r}") from exc
            for bits, unit in terms:
                flat[base + bits] += float(value) * unit
    return flat


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
            if tol["rel"] < 0:
                raise DomainError(f"tolerance rel must be >= 0, got {tol['rel']!r}")
            if not tolerance.in_range(tol["rel"]):  # a finite number >= 0 here, so rel >= 1
                raise DomainError(f"tolerance rel must be < 1, got {tol['rel']!r}")
            rel = float(tol["rel"])
    sections = []
    for title in ("objects", "versors"):
        table = data.get(title)
        if table is not None and not isinstance(table, dict):
            raise DomainError(f"section {title!r} must map names to blade tables, got {type(table).__name__}")
        sections.append(_section(table or {}))
    return Scene(*sections, rel)


def read_scene(path) -> Scene:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"scene file is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"scene is not valid JSON: {exc}") from exc
    except RecursionError:
        # the decoder recurses once per nesting level
        raise DomainError("scene JSON nests too deeply to read") from None
    return scene_from_dict(data)


# what json.dumps(indent=2) writes before a coefficient, in canonical blade order
_PREFIXES = ["      " + _quote(ALG.blade_names[bits]) + ": " for bits in ALG.blade_order]
_PATTERN_BITS = 1 << np.arange(ALG.dim, dtype=np.int64)  # a row's nonzero coefficients as one int


def _entry_template(present) -> str:
    """An object whose coefficients in blade order are nonzero where present is,
    as json.dumps(indent=2) lays it out, with a %s for its quoted name and a %r
    for each coefficient (%r of a float is its repr)."""
    body = ",\n".join([prefix + "%r" for prefix, keep in zip(_PREFIXES, present) if keep])
    return "    %s: " + ("{\n" + body + "\n    }" if body else "{}")


def _section_text(title: str, section: Section) -> str:
    """One section as json.dumps(indent=2) lays it out, names sorted. Rows with
    the same nonzero coefficients share one template, built for this call."""
    names, order = section.by_name()
    rows = section.rows[np.ix_(order, ALG.blade_order)]  # sorted rows, written columns: one gather
    nonzero = rows != 0.0
    values = rows[nonzero].tolist()  # row after row
    templates: dict = {}  # nonzero pattern -> (template, count), for this call only
    parts, end = [], 0
    for r, (name, pattern) in enumerate(zip(names, (nonzero @ _PATTERN_BITS).tolist())):
        if pattern not in templates:
            templates[pattern] = _entry_template(nonzero[r]), int(np.count_nonzero(nonzero[r]))
        template, n = templates[pattern]
        parts.append(template % (_quote(name), *values[end:end + n]))
        end += n
    return f'  "{title}": ' + ("{\n" + ",\n".join(parts) + "\n  }" if parts else "{}")


def scene_to_json(scene: Scene) -> str:
    sections = [_section_text("objects", scene.objects), _section_text("versors", scene.versors)]
    if scene.tolerance_rel is not None:
        sections.insert(0, '  "tolerance": {\n    "rel": ' + json.dumps(scene.tolerance_rel, allow_nan=False) + "\n  }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


_PARAM_PAD = " " * 6  # a param's line in the classification report


def _param_text(value, pad: str = _PARAM_PAD) -> str:
    """One classification param as json.dumps(indent=2) writes it on a line indented by pad."""
    if type(value) is tuple and value:
        inner = pad + "  "
        try:
            text = (",\n" + inner).join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float, such as a point pair's two points
            text = "n"
        if "n" in text:  # of the float reprs, only those of inf and nan have an n
            text = (",\n" + inner).join([_param_text(v, inner) for v in value])
        return "[\n" + inner + text + "\n" + pad + "]"
    if type(value) is float and value - value == 0.0:
        return float.__repr__(value)
    if type(value) is str:
        return _quote(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


@functools.cache
def _object_template(kind: str, keys: tuple) -> str:
    """An object of this kind with these param keys as json.dumps(indent=2) lays it
    out in the report, with a %s for its quoted name and for each param's text."""
    head = '  %s: {\n    "kind": ' + _quote(kind).replace("%", "%%") + ',\n    "params": '
    if not keys:
        return head + "{}\n  }"
    return head + "{\n" + ",\n".join(_PARAM_PAD + _quote(k).replace("%", "%%") + ": %s" for k in keys) + "\n    }\n  }"


def classification_to_json(names, outcomes) -> str:
    """`ga classify --format json`: each name with {"error": message} for a GAError
    or {"kind": ..., "params": ...} for a ConformalObject, in the order given.
    The text is json.dumps of that dict with indent=2, plus a newline, byte for byte."""
    parts = []
    for name, o in zip(names, outcomes):
        if isinstance(o, GAError):
            parts.append(f'  {_quote(name)}: {{\n    "error": {_quote(str(o))}\n  }}')
        else:
            values = map(_param_text, o.params.values())
            parts.append(_object_template(o.kind, tuple(o.params)) % (_quote(name), *values))
    return "{\n" + ",\n".join(parts) + "\n}\n" if parts else "{}\n"


def write_scene(scene: Scene, path) -> None:
    Path(path).write_text(scene_to_json(scene))
