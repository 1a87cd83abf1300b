"""JSON dumps: one writer for the maps, one for reports and certificates,
and one reader for every dump a command takes as input. A dumped type has a
``kind`` class attribute, which its dump records, and rebuilds itself with
``from_obj``; the three constructions also have ``to_obj``. A construction's
dump holds its shapes, not the bands of its certificate (extra keys are
ignored).
"""

from __future__ import annotations

import json
import os

from .errors import ParseError


def save_dump(item, path) -> None:
    """Write ``item.to_obj()`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(item.to_obj(), fh, indent=1)
        fh.write("\n")


def write_json(obj: dict, path) -> None:
    """Write obj as indented JSON with sorted keys: the report and
    certificate format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_dump(path, types):
    """Rebuild the dump at path as whichever of ``types`` its kind names.

    A file that is not JSON, names no kind of ``types`` or lacks a field
    raises ParseError; a dump that parses but breaks an invariant of its type
    (say, two coinciding roots) raises that type's own error.
    """
    name = os.path.basename(str(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        kind = obj["kind"]
        for cls in types:
            if cls.kind == kind:
                return cls.from_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dump {name}: {exc!r}") from None
    raise ParseError(f"{name}: unrecognized dump kind {kind!r}, expected "
                     + " or ".join(cls.kind for cls in types))
