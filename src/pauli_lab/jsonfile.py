"""The JSON files of the CLI: one writer, and the checks every reader applies.

``json_text`` gives the text of ``json.dumps(obj, indent=2, sort_keys=True)``
byte for byte.  CPython's ``json`` takes its pure-Python encoder whenever an
indent is set, so the writer walks dicts and lists itself and renders each
list of finite floats (a pair file's zeros, points and coefficients) with one
C-level join of ``float.__repr__``.  Every other scalar and every key goes
through ``json.dumps``, which gives them its ASCII escaping and its NaN,
Infinity, int and bool forms.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np


def json_text(obj) -> str:
    """``obj`` as the text of ``json.dumps(obj, indent=2, sort_keys=True)``."""
    return _text(obj, "\n")


def _text(obj, newline: str) -> str:
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        # json writes an int, float, bool or None key as the string of its value
        body = (f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_text(v, inner)}"
                for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            body = map(float.__repr__, obj)
        else:
            body = (_text(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    return json.dumps(obj)


# the Python types json.loads gives a JSON value of each kind, and the kind's name
_JSON_KINDS = {dict: ((dict,), "a JSON object"), float: ((int, float), "a number"),
               int: ((int,), "an integer"), bool: ((bool,), "true or false")}


def json_value(value, kind: type, name: str):
    """``value`` as ``kind`` when it is a JSON value of that kind: an object
    for dict, any number for float, an integer for int (true and false are
    neither), and a number only when it is a finite double; a ValueError
    naming it otherwise."""
    types, label = _JSON_KINDS[kind]
    if type(value) not in types:
        raise ValueError(f"{name} must be {label}, not {type(value).__name__}")
    # Python's json reads NaN, Infinity and integers past the double range
    if kind in (float, int) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite double, got {value!r}")
    return kind(value)


def json_numbers(value, name: str) -> np.ndarray:
    """``value`` as a float array when it is a JSON list of numbers that are
    finite doubles; a ValueError naming it otherwise."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{name} must be a list of numbers")
    try:
        numbers = np.array(value, dtype=float)
        if np.isfinite(numbers).all():
            return numbers
    except OverflowError:  # an integer past the double range
        pass
    bad = next(v for v in value if not abs(v) <= sys.float_info.max)
    raise ValueError(f"{name} must hold only finite doubles, got {bad!r}")
