"""CSV serialization of realized paths.

Format: a ``t,x`` header, then one row per observation with t = 0..n.
Binary states are written as integers and real states with full
round-trip precision, so reading back reproduces the path exactly.

A binary path is written by one numpy encoder (``_binary_csv``), and a text
that is byte for byte what that encoder writes is read back by it too: the
state is the byte before each newline, checked by encoding it again.  Any
other text (hand-edited files with quoted fields, CRLF line ends, padding
whitespace, blank lines or real values) streams the rows of ``csv.reader``
into an ``array("d")``, 8 bytes per state beyond the text, and the first bad
row is reported by its line (record) number.  Both routes give the same path
on every text the encoder writes.
"""

import csv
import io
from array import array

import numpy as np

from .chain import BinaryPath, RealPath, is_binary
from .errors import DomainError, EmptyData

HEADER = ["t", "x"]
_HEAD = "t,x\n"


def _binary_csv(states: np.ndarray) -> bytes:
    """The canonical CSV of 0/1 states: for each decimal width of t, one
    (rows, width + 3) uint8 block of t's digits, ',', the state and '\\n'."""
    blocks = [_HEAD.encode()]
    lo, width = 0, 1
    while lo < states.size:
        hi = min(states.size, 10**width)
        block = np.empty((hi - lo, width + 3), np.uint8)
        t = np.arange(lo, hi)
        for col in range(width - 1, -1, -1):
            block[:, col] = t % 10 + 48
            t //= 10
        block[:, width] = ord(",")
        block[:, width + 1] = states[lo:hi] + 48
        block[:, width + 2] = ord("\n")
        blocks.append(block.tobytes())
        lo, width = hi, width + 1
    return b"".join(blocks)


def path_to_csv(path: BinaryPath | RealPath) -> str:
    if isinstance(path, BinaryPath):
        return _binary_csv(path.states).decode("ascii")
    return _HEAD + "".join([f"{t},{x!r}\n" for t, x in enumerate(path.states.tolist())])


def _canonical_binary(text: str) -> np.ndarray | None:
    """The states of a text that _binary_csv writes byte for byte, else None."""
    # isascii first: encoding a lone surrogate would raise
    if not (text.isascii() and text.startswith(_HEAD) and text.endswith("\n")):
        return None
    data = text.encode("ascii")
    buf = np.frombuffer(data, np.uint8)
    states = buf[np.flatnonzero(buf == ord("\n"))[1:] - 1] - 48
    if states.size == 0 or states.max() > 1 or _binary_csv(states) != data:
        return None
    return states


def path_from_csv(text: str) -> BinaryPath | RealPath:
    """Parse a path; states of only zeros and ones load as a binary path."""
    states = _canonical_binary(text)
    if states is not None:
        return BinaryPath(states)
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
    if is_binary(states):
        return BinaryPath(states)
    return RealPath(states)


def write_path_csv(path: BinaryPath | RealPath, filename: str) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(path_to_csv(path))


def read_path_csv(filename: str) -> BinaryPath | RealPath:
    # newline="": the csv module sees the file's own line ends, as it would in
    # the text passed to path_from_csv
    with open(filename, "r", encoding="utf-8", newline="") as fh:
        return path_from_csv(fh.read())
