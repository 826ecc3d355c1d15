"""The one place JSON files are read and written.

Every ``save_*``/``load_*`` pair and the CLI go through ``dump`` and
``load``, so the file format (two-space indent, trailing newline) and the
handling of malformed files are decided here.
"""

from __future__ import annotations

import json


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path, decode):
    """Parse the JSON object in ``path`` and return ``decode(obj)``.

    A file that parses but has the wrong shape, a non-object top level or
    a field of the wrong type, raises ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        return decode(obj)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed content: {exc}") from exc
