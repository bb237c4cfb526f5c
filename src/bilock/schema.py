"""Field tables, and the walker that checks an input document against one.

A table maps each key of a JSON object to its domain: a callable ``(value,
name) -> value`` that checks the value before anything converts it, and
raises ValueError naming the field unless it admits it.  A config dataclass
is its own table: each field carries its domain (``spec``)."""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import MISSING, field, fields

import numpy as np


def parse_json(text):
    """The JSON value of text; nesting too deep for the parser is a
    ValueError, as is any other text that is not JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def is_int(v):
    """An integer that is not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))


def is_real(v):
    """A finite number that is not a bool; an integer too large for a float
    does not count."""
    try:
        return (type(v) is float or (isinstance(v, numbers.Real) and not
                                     isinstance(v, bool))) and math.isfinite(v)
    except OverflowError:
        return False


def leaf(text, admits):
    """The domain of the values for which admits holds, described by text."""
    def check(v, name):
        if not admits(v):
            raise ValueError(f"{name} must be {text}, got {v!r}")
        return v
    return check


TEXT = leaf("a string", lambda v: isinstance(v, str))
BOOL = leaf("true or false", lambda v: isinstance(v, bool))
_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # operator names


def choice(*values):
    """One of the given strings, or None for null."""
    return leaf("one of " + ", ".join(map(repr, values)), values.__contains__)


def num(integer=False, null=False, **bounds):
    """A finite number, or an integer, within the given bounds (ge, gt, le,
    lt); with ``null``, null too."""
    kind = is_int if integer else is_real
    text = " and ".join(f"{_SYMBOLS[k]} {b:g}" for k, b in bounds.items())
    return leaf(
        f"{'an integer' if integer else 'a finite number'} {text}".rstrip()
        + " or null" * null, lambda v: (null and v is None) or (kind(v) and (
            not bounds or all(getattr(operator, k)(v, b)
                              for k, b in bounds.items()))))


def array(*shape, bound=math.inf):
    """Nested lists of one shape of finite numbers, each of magnitude at most
    bound; kept as lists."""
    def admits(v):
        if len(shape) > 1:
            a = np.array(v, dtype=object)
            v = list(a.flat) if a.shape == shape else None
        elif not (type(v) is list and len(v) == shape[0]):
            return False
        # a list of floats is checked at C speed
        return v is not None and all(map(
            math.isfinite if set(map(type, v)) == {float} else is_real, v)) \
            and (bound == math.inf or max(map(abs, v)) <= bound)
    return leaf(" x ".join(map(str, shape)) + " finite numbers" + (
        f" of magnitude <= {bound:g}" if bound < math.inf else ""), admits)


# a position or direction in metres: a few metres at most, so no norm overflows
GEOMETRY = array(3, bound=10.0)


def seq(item, n=None):
    """A list whose items share one domain; of n items if n is given."""
    whole = leaf(f"a list of {n} items" if n else "a list",
                 lambda v: type(v) is list and n in (None, len(v)))
    return lambda v, name: [item(x, f"{name}[{i}]")
                            for i, x in enumerate(whole(v, name))]


def table(domains, optional=(), extra_keys=False, make=dict):
    """A JSON object with the given domain for each key, made into
    ``make(**checked)``; optional keys may be absent, and with
    ``extra_keys`` other keys are admitted unchecked."""
    def walk(doc, name=""):
        what = name or "document"
        if not isinstance(doc, dict):
            raise ValueError(f"{what} must be an object, got {doc!r}")
        prefix = name + "." if name else ""
        checked = {key: dom(doc[key], prefix + key)
                   for key, dom in domains.items() if key in doc}
        if doc.keys() != domains.keys():  # else every key is known and present
            unknown = doc.keys() - domains.keys()
            if unknown and not extra_keys:
                raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
            missing = domains.keys() - set(optional) - doc.keys()
            if missing:
                raise ValueError(f"{what} lacks {sorted(missing)}")
        return make(**checked)
    return walk


def spec(domain, default=MISSING, deg=False):
    """A dataclass field that carries its domain; a ``deg`` field is given in
    degrees, as ``<name>_deg``.  A dict or array default is copied."""
    given = ({"default_factory": default.copy} if hasattr(default, "copy")
             else {"default": default})
    return field(**given, metadata={"domain": domain, "deg": deg})


def document(cls, doc, schema):
    """cls from a JSON object with the given schema_version, every field
    checked against its ``spec``; a ``deg`` field is converted to radians."""
    specs = {f.name + "_deg" * f.metadata["deg"]: f for f in fields(cls)}
    optional = [k for k, f in specs.items() if f.default is not MISSING
                or f.default_factory is not MISSING]
    values = table({"schema_version": choice(schema), **{
        k: f.metadata["domain"] for k, f in specs.items()}}, optional)(doc)
    del values["schema_version"]
    return cls(**{specs[k].name: np.multiply(v, math.pi / 180.0).tolist()
                  if specs[k].metadata["deg"] else v for k, v in values.items()})
