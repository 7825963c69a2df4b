"""The request schema: every request field declared once.

The fields of the request types — :class:`repro.crossbar.spec.CrossbarSpec`
with its :class:`~repro.fabrication.lithography.LithographyRules`,
:class:`repro.api.McRequest`, :class:`repro.api.WorkloadRequest` and
:class:`repro.exp.pipeline.SweepParams` — are dataclass fields made by
:func:`knob`.  One declaration carries everything the stack knows about
a field:

* its type, default, bounds and choices.  :func:`check` enforces them
  in every ``__post_init__`` and raises :class:`SchemaError`, which
  names the field.  Float fields must also be finite and, unless zero,
  normal (a subnormal value underflows the engines to zero);
* an *active when* rule for a field that only counts under a condition
  (``k_sigma`` only for ``marginmc``, the readout technology only when
  ``readout != "off"``).  An inactive field is neither checked nor part
  of the canonical payload (:func:`payload`);
* its help text, CLI spelling and spec-override name, from which
  :mod:`repro.cli` generates the request flags and
  :func:`repro.crossbar.spec.spec_with` takes its override names.

Cross-field rules (``r_off > r_on``, a SECDED block that fits the
array, a design its code family can realise) stay hand-written next to
``check()`` in the owning class and raise through :func:`error`.  This module imports only the standard
library.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import Any, Callable, Mapping

_KEY = "schema"

#: The smallest normal double; a nonzero float field below it is rejected.
TINY = sys.float_info.min


class SchemaError(ValueError):
    """A request field holds a value its declaration rejects.

    ``field`` names the field; ``flags`` is its CLI spelling (empty when
    no CLI flag sets it), so the CLI can report the argument it came from.
    """

    def __init__(self, field: str, message: str, flags: tuple[str, ...] = ()):
        super().__init__(message)
        self.field = field
        self.flags = flags


@dataclasses.dataclass(frozen=True)
class Knob:
    """The declaration of one request field; see :func:`knob`."""

    type: type
    label: str | None = None
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple | None = None
    active: Callable[[Any], bool] | None = None
    help: str | None = None
    flags: tuple[str, ...] = ()
    cli: Mapping = dataclasses.field(default_factory=dict)
    override: str | None = None

    def error(self, name: str, message: str) -> SchemaError:
        return SchemaError(name, message, self.flags)

    def bounds(self) -> str:
        """The admissible range in words, e.g. ``>= 0`` or ``in (0, 1]``."""
        low = ("[", ">=", self.ge) if self.ge is not None else ("(", ">", self.gt)
        high = ("]", "<=", self.le) if self.le is not None else (")", "<", self.lt)
        if low[2] is not None and high[2] is not None:
            return f"in {low[0]}{low[2]}, {high[2]}{high[0]}"
        op, bound = (low if low[2] is not None else high)[1:]
        return f"{op} {bound}" if bound is not None else ""

    def check(self, name: str, value: Any) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this declaration."""
        label = self.label or name
        if self.choices is not None:
            if value not in self.choices:
                raise self.error(
                    name, f"unknown {label} {value!r}; expected one of {self.choices}"
                )
            return
        if self.type is int and not hasattr(type(value), "__index__"):
            raise self.error(name, f"{label} must be an integer, got {value!r}")
        if self.type not in (int, float):
            return
        try:
            finite = self.type is int or math.isfinite(value)
            # a subnormal float underflows the engines' products to zero
            tiny = self.type is float and finite and 0 < abs(value) < TINY
            ok = finite and not tiny
            ok = ok and (self.ge is None or value >= self.ge)
            ok = ok and (self.gt is None or value > self.gt)
            ok = ok and (self.le is None or value <= self.le)
            ok = ok and (self.lt is None or value < self.lt)
        except TypeError:  # not a number at all
            ok = tiny = False
        if not ok:
            bounds = self.bounds()
            if self.type is float:
                bounds = f"finite and {bounds}" if bounds else "finite"
            if tiny:
                bounds += " (not subnormal)"
            raise self.error(name, f"{label} must be {bounds}, got {value!r}")

    def coerce(self, name: str, value: Any) -> Any:
        """``value`` from a JSON payload, converted to the field's type."""
        if self.type not in (int, float):
            return value
        try:
            return self.type(value)
        except (TypeError, ValueError, OverflowError):
            label = self.label or name
            raise self.error(name, f"{label} must be a number, got {value!r}") from None


def knob(
    default: Any,
    *,
    label: str | None = None,
    ge: float | None = None,
    gt: float | None = None,
    le: float | None = None,
    lt: float | None = None,
    choices: tuple | None = None,
    active: Callable[[Any], bool] | None = None,
    help: str | None = None,
    flags: tuple[str, ...] = (),
    cli: Mapping | None = None,
    override: str | None = None,
) -> Any:
    """A dataclass field declared in the schema.

    ``knob(256, ge=1)`` declares an int field defaulting to 256;
    ``knob(int, ge=1)`` declares a required int field.  ``label`` names
    the field in error messages (default: its name); ``ge``/``gt``/
    ``le``/``lt`` bound it; ``choices`` lists its admissible values;
    ``active(obj)`` says when the field counts.  ``flags`` is the CLI
    spelling (a bare name makes a positional argument), ``help`` its
    help text (argparse's ``%(default)s`` works) and ``cli`` any further
    argparse keywords.  ``override`` names a spec knob that a design
    point may override.
    """
    required = isinstance(default, type)
    declaration = Knob(
        type=default if required else type(default),
        label=label,
        ge=ge,
        gt=gt,
        le=le,
        lt=lt,
        choices=choices,
        active=active,
        help=help,
        flags=flags,
        cli=cli or {},
        override=override,
    )
    metadata = {_KEY: declaration}
    if required:
        return dataclasses.field(metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@functools.lru_cache(maxsize=None)
def knobs(cls: type) -> dict[str, Knob]:
    """The declared fields of ``cls``, by name, in field order."""
    fields = dataclasses.fields(cls)
    return {f.name: f.metadata[_KEY] for f in fields if _KEY in f.metadata}


def _active(obj: Any) -> list[tuple[str, Knob]]:
    return [
        (name, k)
        for name, k in knobs(type(obj)).items()
        if k.active is None or k.active(obj)
    ]


def check(obj: Any) -> None:
    """Check every active declared field of ``obj`` (raises :class:`SchemaError`)."""
    for name, k in _active(obj):
        k.check(name, getattr(obj, name))


def payload(obj: Any) -> dict:
    """The active declared fields of ``obj``: its part of a canonical payload.

    Conditional fields come last: the shard spec files, which are not
    key-sorted, store the payload in this order.
    """
    items = sorted(_active(obj), key=lambda item: item[1].active is not None)
    return {name: getattr(obj, name) for name, _ in items}


def values(cls: type, data: Mapping) -> dict:
    """Keyword arguments of ``cls`` from a payload: each declared field it
    carries, converted to the field's type (missing ones keep defaults)."""
    declared = knobs(cls).items()
    return {name: k.coerce(name, data[name]) for name, k in declared if name in data}


def error(owner: Any, name: str, message: str) -> SchemaError:
    """The :class:`SchemaError` of a hand-written rule on field ``name`` of
    ``owner`` (a declared class or an instance of one)."""
    cls = owner if isinstance(owner, type) else type(owner)
    return knobs(cls)[name].error(name, message)


def overrides(cls: type) -> dict[str, str]:
    """Spec-override name -> field name for the fields of ``cls`` that have one."""
    return {k.override: name for name, k in knobs(cls).items() if k.override}
