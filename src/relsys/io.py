"""Plain-text file formats shared by the command line tools.

Tables are comma separated with fixed lowercase headers, configuration
files are flat ``key = value`` text, and each run directory carries a JSON
manifest.  Floating point cells are written with ``repr`` so identical
runs produce byte-identical files; the manifest is the only file that
embeds wall-clock timestamps, and it keeps them under a single key so
consumers can compare everything else verbatim.

File digests are SHA-256 from the interpreter's own built-in module
(``_sha2`` from Python 3.12, ``_sha256`` before), as ``random`` does for
SHA-512: ``hashlib`` maps OpenSSL, about 3.6 MB of resident memory that
the band command and the study's main process would load for this alone.
The built-in hash is slower (5 ms against 0.9 ms per MB on an x86-64 VM),
but a draws file still takes several times longer to parse than to hash.
The digests are the same, and ``hashlib`` is the fallback where neither
module is built.  ``cli.main`` keeps OpenSSL out of every command, yet this
module still imports the one built-in module itself: ``hashlib`` without
OpenSSL loads all six built-in hash modules, about 0.27 MB more peak memory
for the band command, which imports nothing else that needs ``hashlib``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from io import BytesIO
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .curves import ReliabilityBand
from .errors import DataError, UsageError
from .mcem import ComponentFit
from .sampler import PosteriorDraws
from .sysmodel import ComponentSample, SystemSample

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "SYSTEM_HEADER",
    "COMPONENT_HEADER",
    "DRAWS_HEADER",
    "BAND_HEADER",
    "TRACE_HEADER",
    "STUDY_HEADER",
    "read_header",
    "read_system_csv",
    "read_component_csv",
    "draws_filename",
    "write_draws_csv",
    "read_draws_csv",
    "write_band_csv",
    "write_trace_csv",
    "write_table",
    "read_config",
    "read_json",
    "write_json",
    "sha256_file",
]

SYSTEM_HEADER = ("time", "cause")
COMPONENT_HEADER = ("time", "event")
DRAWS_HEADER = ("component", "draw_index", "beta", "eta")
BAND_HEADER = ("t", "mean", "lower", "upper")
TRACE_HEADER = ("iteration", "component", "m_beta", "m_eta")
STUDY_HEADER = (
    "side",
    "family",
    "censor_pct",
    "true_mean",
    "n",
    "bias",
    "mse",
    "n_failed",
)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table with a fixed header; ``csv`` writes each float as
    ``str()``, its shortest round-trip form, numpy's float64 included."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_header(path: str | Path) -> tuple[str, ...]:
    """Return the first-line column names, lowercased and stripped."""
    try:
        with open(path, newline="") as fh:
            first = next(csv.reader(fh), None)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not a text file: {e}") from None
    if first is None:
        raise DataError(f"{path}: empty file")
    return tuple(c.strip().lower() for c in first)


def _rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) after checking the header line."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None:
                raise DataError(f"{path}: empty file")
            if tuple(c.strip().lower() for c in got) != tuple(header):
                raise DataError(
                    f"{path}: line 1: expected header {','.join(header)!r}, "
                    f"got {','.join(got)!r}"
                )
            for ln, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {ln}: expected {len(header)} fields, got {len(row)}"
                    )
                yield ln, row
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not a text file: {e}") from None


def _float_field(path, ln: int, name: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"{path}: line {ln}: {name} is not a number: {cell.strip()!r}"
        ) from None


def _int_field(path, ln: int, name: str, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(
            f"{path}: line {ln}: {name} is not an integer: {cell.strip()!r}"
        ) from None


def _time_field(path, ln: int, cell: str) -> float:
    t = _float_field(path, ln, "time", cell)
    if not (math.isfinite(t) and t > 0.0):
        raise DataError(
            f"{path}: line {ln}: time must be a positive finite number, "
            f"got {cell.strip()}"
        )
    return t


def _read_time_table(
    path: str | Path, header: Sequence[str], lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``time,<label>`` table into a float and an int array.

    Times must be positive and finite and labels integers in ``lo..hi``;
    errors carry the 1-based line number of the offending row.
    """
    name = header[1]
    times, labels = [], []
    for ln, row in _rows(path, header):
        times.append(_time_field(path, ln, row[0]))
        label = _int_field(path, ln, name, row[1])
        if not lo <= label <= hi:
            raise DataError(f"{path}: line {ln}: {name} {label} outside {lo}..{hi}")
        labels.append(label)
    return np.array(times), np.array(labels)


def read_system_csv(path: str | Path, kind: str, k: int) -> SystemSample:
    """Parse a masked system sample with header ``time,cause``.

    ``cause`` is the failing component, numbered 1..k.  Errors carry the
    1-based line number of the offending row.
    """
    times, causes = _read_time_table(path, SYSTEM_HEADER, 1, k)
    try:
        return SystemSample(kind, k, times, causes)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def read_component_csv(path: str | Path, side: str) -> ComponentSample:
    """Parse single-component records with header ``time,event``.

    ``event`` is 1 for an exact failure time and 0 for a censored record;
    the censoring direction comes from ``side``.
    """
    times, events = _read_time_table(path, COMPONENT_HEADER, 0, 1)
    try:
        return ComponentSample(side, times, events == 0)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def draws_filename(j: int) -> str:
    """Canonical name of the posterior draws table for component ``j``."""
    return f"draws_component{j}.csv"


def write_draws_csv(path: str | Path, j: int, d: PosteriorDraws) -> None:
    write_table(
        path,
        DRAWS_HEADER,
        (
            (j, i, beta, eta)
            for i, (beta, eta) in enumerate(zip(d.betas.tolist(), d.etas.tolist()), start=1)
        ),
    )


def read_draws_csv(path: str | Path, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read back a draws table as ``(betas, etas)`` arrays.

    Checks that every row belongs to component ``j`` and holds a finite,
    positive shape and scale; errors carry the 1-based line number.
    """
    params = _read_draws_at_once(path, j)
    if params is None:
        params = _read_draws_by_row(path, j)
    return params[0], params[1]


# a field of a row read in one pass: the characters of decimal numbers
_FIELD = rb"[0-9+\-.eE]*"


def _read_draws_at_once(path: str | Path, j: int) -> np.ndarray | None:
    """The ``(2, n)`` shapes and scales of a plain draws file, or None.

    The file's bytes are checked where they are, and one ``np.loadtxt``
    call parses them line by line.  Only a file the row reader accepts as
    it stands is read: the exact header, then lines that are each blank or
    ``j,`` plus three unquoted fields spelled with the characters of
    decimal numbers, with a "\\r" only before a line's "\\n", at least one
    row, and finite, positive draws.  Both numpy and ``float`` round such a
    number correctly, so to the same double.  Any other file gives None,
    and the row reader then reads it and names its first bad line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    header = ",".join(DRAWS_HEADER).encode()
    start = raw.find(b"\n", 0, len(header) + 2) + 1
    # a "\n" that starts a line neither blank nor a row: the row reader
    # also ends a line at a "\r", and skips blank lines
    bad_line = re.compile(rb"\n(?!(?:%d,%s,%s,%s)?\r*(?:\n|\Z))" % (j, _FIELD, _FIELD, _FIELD))
    if (
        raw[:start] not in (header + b"\n", header + b"\r\n")
        # loadtxt warns on a file of no rows
        or raw.find(b"\n%d," % j, start - 1) < 0
        or bad_line.search(raw, start - 1)
    ):
        return None
    body = BytesIO(raw)
    body.seek(start)
    # each line is one row or blank, then line ends, of which loadtxt
    # takes only one
    try:
        params = np.loadtxt(
            map(bytes.rstrip, body), delimiter=",", comments=None, usecols=(2, 3),
            ndmin=2, unpack=True,
        )
    except ValueError:
        return None
    if not (np.isfinite(params) & (params > 0.0)).all():
        return None
    return params


def _read_draws_by_row(path: str | Path, j: int) -> np.ndarray:
    """The ``(2, n)`` shapes and scales of a draws file, read row by row."""
    betas, etas = [], []
    for ln, row in _rows(path, DRAWS_HEADER):
        comp = _int_field(path, ln, "component", row[0])
        if comp != j:
            raise DataError(
                f"{path}: line {ln}: component {comp} in a file for component {j}"
            )
        beta = _float_field(path, ln, "beta", row[2])
        eta = _float_field(path, ln, "eta", row[3])
        for name, x in (("shape", beta), ("scale", eta)):
            if not (math.isfinite(x) and x > 0.0):
                raise DataError(f"{path}: line {ln}: {name} must be finite and > 0, got {x}")
        betas.append(beta)
        etas.append(eta)
    if not betas:
        raise DataError(f"{path}: no draws")
    return np.array([betas, etas])


def write_band_csv(path: str | Path, band: ReliabilityBand) -> None:
    write_table(
        path,
        BAND_HEADER,
        zip(
            band.grid.points.tolist(),
            band.mean.tolist(),
            band.lower.tolist(),
            band.upper.tolist(),
        ),
    )


def write_trace_csv(path: str | Path, fits: Sequence[ComponentFit]) -> None:
    rows = []
    for j, f in enumerate(fits, start=1):
        for i, step in enumerate(f.em_trace):
            rows.append((i, j, step.m_beta, step.m_eta))
    write_table(path, TRACE_HEADER, rows)


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; ``#`` starts a comment line."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"config {path} is not a text file: {e}") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}: line {ln}: expected key=value, got {line!r}")
        key = key.strip()
        if not key:
            raise UsageError(f"{path}: line {ln}: empty key")
        if key in out:
            raise UsageError(f"{path}: line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not a text file: {e}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from None


def write_json(path: str | Path, obj) -> None:
    with open(path, "w") as fh:
        # strict JSON: a NaN or an infinity raises rather than being written
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def sha256_file(path: str | Path) -> str:
    h = _sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    return h.hexdigest()
