"""Byte-stable JSON and CSV writers.

All floating-point values are serialized with 17 significant digits so
identical runs produce identical bytes and values round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .numerics import fmt17


def _serialize(obj, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return '"nan"'
        if np.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return fmt17(x)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_serialize(x, indent, level + 1) for x in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{_serialize(str(k), indent, 0)}: {_serialize(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_dumps(obj, indent=2):
    return _serialize(obj, indent, 0) + "\n"


def dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json_dumps(obj))


CSV_BLOCK = 4096  # rows formatted and written at a time


def _row_template(types):
    """%-template of a CSV line whose cells have these types."""
    cells = ("%.17g" if issubclass(t, (float, np.floating)) else "%s" for t in types)
    return ",".join(cells) + "\n"


def write_csv(path, header, rows):
    """Header line, then one line per row.

    A float cell is written with 17 significant digits, as `fmt17`
    writes it (nan, inf, -inf, -0 included), and any other cell as its
    str().  Each row is formatted by one %-template, made once per
    sequence of cell types, and lines are written in blocks.
    """
    templates = {}
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        block = []
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            template = templates.get(types)
            if template is None:
                template = templates[types] = _row_template(types)
            block.append(template % row)
            if len(block) == CSV_BLOCK:
                fh.write("".join(block))
                block.clear()
        fh.write("".join(block))


class ColumnRows:
    """The rows of a table held as equal-length 1-D array columns.

    Iterating converts one block of rows at a time with .tolist(), so
    the cells are Python ints and floats and only one block of them
    exists at once.
    """

    def __init__(self, columns):
        self.columns = [np.ravel(c) for c in columns]

    def __len__(self):
        return self.columns[0].size

    def __iter__(self):
        for start in range(0, len(self), CSV_BLOCK):
            block = (c[start:start + CSV_BLOCK].tolist() for c in self.columns)
            yield from zip(*block)
