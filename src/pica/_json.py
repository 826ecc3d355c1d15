"""The one place JSON files are read and written.

Every ``save_*``/``load_*`` pair and the CLI go through ``dump`` and
``load``, so the file format (two-space indent, trailing newline) and the
handling of malformed files are decided here.
"""

from __future__ import annotations

import json
import math

import numpy as np


def dump(obj, path) -> None:
    """Write ``obj`` to ``path``; a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def number(value) -> float:
    """``value`` as a float; TypeError unless it is a JSON number that fits a float.

    Decoders use this instead of ``float``, which would also accept strings
    such as ``"nan"``.  ``load`` reports the TypeError with the file's name.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"number {value} overflows a float") from None


def integer(value) -> int:
    """``value`` as an int; TypeError unless it is a JSON number with no fractional part.

    Decoders use this instead of ``int``, which would truncate 4.9 to 4 and
    also accept strings such as ``"2"``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _floats(value):
    return [_floats(v) for v in value] if isinstance(value, list) else number(value)


def array(value) -> np.ndarray:
    """Float array from (nested lists of) JSON numbers, checked by ``number``."""
    return np.array(_floats(value))


def load(path, decode):
    """Parse the JSON object in ``path`` and return ``decode(obj)``.

    A file that parses but has the wrong shape, a non-object top level, a
    missing key or a field of the wrong type, raises ValueError naming the
    file, and so do a non-finite number (NaN, Infinity, or a literal that
    overflows) and a value that ``decode`` refuses with a ValueError.
    """

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite number {text}")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh, parse_float=finite, parse_constant=finite)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        return decode(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: malformed content: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed content: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
