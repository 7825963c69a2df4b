"""Columnar result container for design-space sweeps.

Every sweep used to return a bare ``list[dict]``; :class:`SweepResult`
replaces that with a NumPy-backed columnar table — one typed array per
field — that still round-trips losslessly to the record form (exact
Python scalar types preserved), and serialises to CSV/JSON without
third-party dependencies.  Columnar storage is what makes downstream
consumers cheap: figure generators slice arrays instead of looping over
dicts, benchmarks aggregate with NumPy reductions, and results from
worker processes concatenate without re-parsing.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

Record = dict[str, object]


def _column_array(values: list[object]) -> np.ndarray:
    """Typed array for one column, preserving exact record round-trips.

    Uniformly-typed bool/int/float/str columns become native NumPy
    arrays; anything mixed or exotic falls back to an object array so
    ``to_records`` returns the original values unchanged (``bool`` is
    checked before ``int`` because it is an ``int`` subclass).
    """
    for typ, dtype in ((bool, np.bool_), (int, np.int64), (float, np.float64)):
        if all(type(v) is typ for v in values):
            return np.array(values, dtype=dtype)
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


class SweepResult:
    """An immutable columnar table of sweep records.

    Parameters
    ----------
    columns:
        Mapping of field name to 1-D arrays, all of one length; the
        mapping's order is the field order of every serialised form.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        cols = {k: np.asarray(v) for k, v in columns.items()}
        if not cols:
            raise ValueError("a sweep result needs at least one column")
        sizes = {v.shape for v in cols.values()}
        if any(v.ndim != 1 for v in cols.values()) or len(sizes) != 1:
            raise ValueError(f"columns must be 1-D and equally sized, got {sizes}")
        self._columns = cols

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, object]]) -> "SweepResult":
        """Build from uniform record dicts (all sharing one field order)."""
        if not records:
            raise ValueError("no records to collect")
        fields = list(records[0].keys())
        for r in records:
            if list(r.keys()) != fields:
                raise ValueError("records have inconsistent fields")
        return cls({f: _column_array([r[f] for r in records]) for f in fields})

    @classmethod
    def concat(cls, parts: Sequence["SweepResult"]) -> "SweepResult":
        """Concatenate results row-wise (same fields, in order)."""
        if not parts:
            raise ValueError("nothing to concatenate")
        fields = parts[0].fields
        for p in parts:
            if p.fields != fields:
                raise ValueError("sweep results have inconsistent fields")
        return cls({f: np.concatenate([p.column(f) for p in parts]) for f in fields})

    # -- introspection -------------------------------------------------------

    @property
    def fields(self) -> tuple[str, ...]:
        """Field names in column order."""
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        """The typed array backing one field."""
        return self._columns[name]

    def __len__(self) -> int:
        return next(iter(self._columns.values())).shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self.fields == other.fields and all(
            self._columns[f].dtype == other._columns[f].dtype
            and np.array_equal(self._columns[f], other._columns[f])
            for f in self.fields
        )

    def __repr__(self) -> str:
        return (
            f"SweepResult(rows={len(self)}, "
            f"fields={list(self.fields)})"
        )

    # -- row-wise views -------------------------------------------------------

    def to_records(self) -> list[Record]:
        """The row-dict form, with native Python scalar types."""
        lists = {f: col.tolist() for f, col in self._columns.items()}
        return [{f: lists[f][i] for f in self.fields} for i in range(len(self))]

    def where(self, mask: np.ndarray) -> "SweepResult":
        """Row subset by boolean mask (e.g. one family's curve)."""
        m = np.asarray(mask, dtype=bool)
        return SweepResult({f: col[m] for f, col in self._columns.items()})

    # -- serialisation ---------------------------------------------------------

    def to_csv_string(self) -> str:
        """CSV text, one header row plus one line per record."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.to_records())
        return buf.getvalue()

    def to_csv(self, path: str | Path) -> Path:
        """Write CSV to ``path``."""
        path = Path(path)
        path.write_text(self.to_csv_string(), newline="")
        return path

    def to_json_string(self) -> str:
        """Canonical JSON: a list of records with stable field order."""
        return json.dumps(self.to_records(), indent=2) + "\n"

    def to_json(self, path: str | Path) -> Path:
        """Write the record list as JSON to ``path``."""
        path = Path(path)
        path.write_text(self.to_json_string())
        return path
