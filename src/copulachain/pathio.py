"""CSV serialization of realized paths.

Format: a ``t,x`` header, then one row per observation with t = 0..n.
Binary states are written as integers and real states with full
round-trip precision, so reading back reproduces the path exactly.

Reading streams the rows of ``csv.reader`` (quoted fields, CRLF line ends,
padding whitespace and blank lines are accepted) into an ``array("d")``, 8
bytes per state beyond the text.  The first bad row is reported by its line
(record) number.
"""

import csv
import io
from array import array

import numpy as np

from .chain import BinaryPath, PathOrigin, RealPath, is_binary
from .errors import DomainError, EmptyData

HEADER = ["t", "x"]


def path_to_csv(path: BinaryPath | RealPath) -> str:
    return ",".join(HEADER) + "\n" + "".join([f"{t},{x!r}\n" for t, x in enumerate(path.states.tolist())])


def path_from_csv(text: str) -> BinaryPath | RealPath:
    """Parse a path; states of only zeros and ones load as a binary path."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData("the CSV is empty") from None
    if [h.strip() for h in header] != HEADER:
        raise DomainError(f"expected header 't,x', got {','.join(header)!r}")
    values = array("d")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DomainError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            t, x = int(row[0]), float(row[1])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        if t != len(values):
            raise DomainError(f"line {lineno}: time index {t} out of order")
        values.append(x)
    if not values:
        raise EmptyData("the CSV holds a header but no observations")
    states = np.frombuffer(values, np.float64)
    origin = PathOrigin(kind="external")
    if is_binary(states):
        return BinaryPath(states=states.astype(np.int8), origin=origin)
    return RealPath(states=states, origin=origin)


def write_path_csv(path: BinaryPath | RealPath, filename: str) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(path_to_csv(path))


def read_path_csv(filename: str) -> BinaryPath | RealPath:
    with open(filename, "r", encoding="utf-8") as fh:
        return path_from_csv(fh.read())
