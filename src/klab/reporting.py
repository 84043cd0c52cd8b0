"""Deterministic CSV/JSON emission into a file or stdout: keys are sorted,
floats use repr round-tripping, and no timestamps or environment-dependent
values are written, so identical (config, seed) pairs serialize
byte-identically.  A CSV is given as columns and streamed in blocks of
lines, with no quoting.
"""

from __future__ import annotations

import itertools
import json
import sys

from .errors import IoError

# rows per block of streamed CSV lines
_CSV_BLOCK = 1 << 14


def _python(value):
    """Python values: an array or a numpy scalar through ``.tolist()``."""
    return value.tolist() if hasattr(value, "tolist") else value


def csv_lines(columns: dict):
    """The CSV of ``columns`` as an iterator over blocks of lines.  Each header
    name maps to one constant or to an array or list with one value per row,
    written as the str of its Python value (a float's str is its repr: nan,
    inf, -0.0 and 5e-324 included); a constant is converted once.  Nothing is
    quoted: a str holding ',', '"', CR or LF raises IoError here, before the
    first block."""
    cols = {k: v for k, v in columns.items() if isinstance(v, list) or getattr(v, "ndim", 0)}
    consts = {k: str(_python(v)) for k, v in columns.items() if k not in cols}
    texts = {*columns, *consts.values()}.union(*(
        _python(v) for v in cols.values() if isinstance(v, list) or v.dtype.kind in "OSU"))
    for text in texts:
        if isinstance(text, str) and any(sep in text for sep in ',"\r\n'):
            raise IoError(f"CSV value {text!r} holds a separator; nothing is quoted")
    (n,) = {len(v) for v in cols.values()} or {1}  # ValueError on unequal lengths

    def blocks():
        yield ",".join(columns) + "\n"
        for lo in range(0, n, _CSV_BLOCK):
            cells = [map(str, _python(cols[k][lo:lo + _CSV_BLOCK])) if k in cols
                     else itertools.repeat(consts[k], min(n - lo, _CSV_BLOCK)) for k in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
    return blocks()


def _write(path, chunks) -> None:
    """``chunks`` streamed into ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def write_csv(path, columns: dict) -> None:
    # csv_lines checks every value before the file opens
    _write(path, csv_lines(columns))


def write_json(path, obj) -> None:
    _write(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])
