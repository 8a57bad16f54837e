"""Small shared helpers for artifact files: the CSV table format, hashing,
JSON, and stable id handling."""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import zipfile
import zlib
from pathlib import Path

from .errors import ParseError

# What np.load and reading an array can raise on a damaged .npz archive: a
# bad zip structure or CRC, a compression method or encryption flag the zip
# reader cannot honour, the codec a changed method selects, a bad npy header.
NPZ_ERRORS = (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, ValueError,
              zipfile.BadZipFile, zlib.error, lzma.LZMAError)


def id_int(x) -> int:
    """Stable non-negative integer for an opaque id (ints pass through)."""
    if isinstance(x, int):
        return x & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(x).encode("utf-8"))


def canonical_ids(values):
    """Convert an id column to ints when every value is an int or a string
    that reads back unchanged (``str(int(v)) == v``); otherwise every value
    becomes a string. ``007`` and ``7`` thus stay two distinct ids."""
    out = []
    for v in values:
        try:
            k = int(v)
        except (TypeError, ValueError):
            break
        if isinstance(v, str) and str(k) != v:
            break
        out.append(k)
    else:
        return out
    return [str(v) for v in values]


def csv_parse_error(reader, path, exc: csv.Error) -> ParseError:
    """ParseError naming the line at which ``reader`` raised ``exc`` (a field
    longer than ``csv.field_size_limit()``, say)."""
    return ParseError(f"{path}:{reader.line_num}: {exc}")


def read_table(path, header: tuple):
    """Yield ``(line, fields)`` for each record of the CSV table at ``path``.

    The first record must name the columns of ``header`` (after strip and
    lower-case). Blank records are skipped; every other one must have one
    field per column. ``line`` is the record's last line. A breach, a
    ``csv.Error`` or undecodable text is a ParseError naming path[:line].
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            if names is None:
                raise ParseError(f"{path}: empty file")
            if [h.strip().lower() for h in names] != list(header):
                raise ParseError(f"{path}:1: expected header {','.join(header)}")
            for fields in reader:
                if len(fields) != len(header):
                    if not fields or (len(fields) == 1 and not fields[0].strip()):
                        continue
                    raise ParseError(f"{path}:{reader.line_num}: "
                                     f"expected {len(header)} fields")
                yield reader.line_num, fields
        except csv.Error as exc:
            raise csv_parse_error(reader, path, exc) from None
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not {fh.encoding} text") from None


def write_table(path, header: tuple, rows) -> None:
    """Write ``header`` and then ``rows`` as a CSV table (CRLF line ends,
    fields quoted only where they must be), the form :func:`read_table` reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def split_digest(train_sha256: str, test_sha256: str) -> str:
    """Combined content hash of a split from its two files' SHA-256 digests."""
    return hashlib.sha256((train_sha256 + test_sha256).encode()).hexdigest()


def split_hash(directory) -> str:
    """Combined content hash of a split's train and test files."""
    d = Path(directory)
    return split_digest(sha256_file(d / "train.csv"), sha256_file(d / "test.csv"))


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    """The JSON object a manifest file holds; ParseError naming the file when
    it holds anything else."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload
