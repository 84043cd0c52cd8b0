"""Deterministic CSV/JSON emission.

Every artifact embeds the package version and an echo of the producing
config, and identical (config, seed) pairs serialize byte-identically:
keys are sorted, floats use repr round-tripping, and no timestamps or
environment-dependent values are written.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__
from .errors import IoError


def csv_text(header, rows) -> str:
    """The header, then the rows; csv.writer writes a float as its repr
    (nan, inf, -0.0 and 5e-324 included) and any other value as its str."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(header, rows))
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def envelope(config: dict, payload: dict) -> dict:
    return {"version": __version__,
            "config": {str(k): config[k] for k in sorted(config)},
            **payload}


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(json_text(obj))
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e
