"""CSV and JSON serialization with full numeric precision.

CSV carries floats as %.17g; JSON numbers use Python's shortest
round-trip representation. Both reproduce the underlying doubles exactly.

matrix_to_csv prints every value with 1e-5 <= |x| < 1e15 through an exact
numpy kernel. For each such value it finds the 17 significant digits D
(10**16 <= D < 10**17) and the decimal exponent e with x * 10**(16 - e)
formed exactly, as a Dekker (1971) two-product with the exact double
10**(16 - e), and rounds D half to even from the product's exact low part.
So its bytes are those of Python's correctly rounded "%.17g". Zeros,
non-finite values and the values outside that range go through Python's
"%" instead. A matrix is formatted a block of rows at a time, and
matrix_chunks hands out its text block by block, so that the scratch
memory is one block.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .energy import EnergyReport
from .graph import Graph, format_edge_list
from .spectral import DEFAULT_GROUP_TOL, Spectrum


def format_float(x: float) -> str:
    return "%.17g" % float(x)


# Values per row block: a block's scratch arrays stay near 1 MB.
_BLOCK = 1 << 15


def _row_blocks(m: np.ndarray):
    """Views of consecutive rows of m, about _BLOCK values each."""
    step = max(1, _BLOCK // max(m.shape[1], 1))
    return (m[a : a + step] for a in range(0, m.shape[0], step))


# The kernel's range: x * 10**(16 - e) needs 10**2 to 10**21, and every
# power of ten up to 10**22 is an exact double.
_KERNEL_MIN, _KERNEL_MAX = 1e-5, 1e15
_POW10 = np.array([10.0**k for k in range(23)])
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: 53-bit doubles into two halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# A CSV cell is ASCII in little-endian uint64 words: a separator, the value,
# then spaces, which the last pass drops. Every character the kernel writes
# has the 0x20 bit of a space, so it ORs its characters minus 0x20 into words
# of spaces; a byte of 0 there is left a space.
_ONES = 0x0101010101010101
_SPACES = np.uint64(0x20 * _ONES)
_COMMA = np.uint64(ord(",") - 0x20)
_MINUS = np.uint64(ord("-") - 0x20)
_POINT = np.uint64(ord(".") - 0x20)


def _chars(text: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(bytes(c - 0x20 for c in text), "little"))


def _two_product(v: np.ndarray, k: np.ndarray):
    """hi, lo with hi + lo == v * 10**k exactly and hi the rounded product."""
    c = v * _SPLIT
    vh = c - (c - v)
    vl = v - vh
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    hi = v * _POW10[k]
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    return hi, lo


def _significands(v: np.ndarray):
    """D (uint64) and e with D * 10**(e - 16) the 17-digit round half to even
    of each v in [_KERNEL_MIN, _KERNEL_MAX)."""
    e = np.floor(np.log10(v)).astype(np.intp)
    hi, lo = _two_product(v, 16 - e)
    # log10 can be one off near a power of ten; move those e until the exact
    # product hi + lo lies in [10**16, 10**17). hi >= 2**53 is an even integer
    # there, so rounding lo half to even rounds hi + lo half to even.
    for _ in range(3):
        near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
        h, l = hi[near], lo[near]
        low = (h < 1e16) | ((h == 1e16) & (l < 0))
        high = (h > 1e17) | ((h == 1e17) & (l >= 0))
        off = low | high
        if not off.any():
            break
        near = near[off]
        e[near] += high[off].astype(np.intp) - low[off]
        hi[near], lo[near] = _two_product(v[near], 16 - e[near])
    else:
        raise AssertionError("decimal exponent did not settle")
    # No carry to 10**17: the largest double below each power of ten from
    # 1e-5 to 1e15 rounds to 17 digits below it, as the tests check.
    d = hi.astype(np.uint64)
    d += np.rint(lo).astype(np.int64).view(np.uint64)
    return d, e


def _digit_words(d: np.ndarray):
    """Digit d0 of each D as 0x10 + d0; digits d1..d8 and d9..d16 as bytes
    0..9 of two words (2, N), first digit lowest; and the same two words with
    0x80 in every byte up to the last nonzero digit of d1..d16."""
    top = d // 10**8
    d0 = top // 10**8
    h = np.empty((2, d.size), np.uint64)
    np.subtract(top, d0 * 10**8, out=h[0])
    np.subtract(d, top * 10**8, out=h[1])
    # Split each word's 8 digits in place: two 4-digit lanes, four 2-digit
    # lanes, eight digits. 10486 / 2**20 and 103 / 2**10 divide by 100 and
    # 10 exactly below 10**4 and 10**2.
    v = h.reshape(-1)
    t = v // 10**4
    v -= t * 10**4
    v <<= 32
    v |= t
    t = v * 10486
    t >>= 20
    t &= 0x0000007F0000007F
    v -= t * 100
    v <<= 16
    v |= t
    t = v * 103
    t >>= 10
    t &= 0x000F000F000F000F
    v -= t * 10
    v <<= 8
    v |= t
    kept = h + 0x7F * _ONES
    kept &= 0x80 * _ONES
    flat = kept.reshape(-1)
    for shift in (8, 16, 32):
        flat |= flat >> shift
    kept[0] |= (kept[1] & 0x80) * _ONES  # a nonzero digit in d9..d16 keeps d1..d8
    d0 += 0x10
    return d0, h, kept


def _pack(words: np.ndarray, pieces) -> None:
    """Lay (value, byte count) pieces out one after another in each cell's
    words, from byte 1: byte 0 is the separator."""
    words[0] = _SPACES | _COMMA
    words[1:] = _SPACES
    pos = 1
    for value, size in pieces:
        j, b = divmod(pos, 8)
        words[j] |= value << np.uint64(8 * b)
        if b + size > 8:
            words[j + 1] |= value >> np.uint64(64 - 8 * b)
        pos += size


def _layout(words: np.ndarray, exp: int, sign, d0, h, kept) -> None:
    """The cells of values with decimal exponent exp: ddd.ddd for 0 <= exp
    <= 14, 0.000ddd for -4 <= exp < 0, and d.ddde-05 for exp == -5, each with
    its trailing fraction zeros (and a point with no digit after it) dropped."""
    exp = int(exp)
    if exp > 0:  # integer digits d1..d_exp stay even when they are zeros
        lead = [int.from_bytes(b"\x80" * n, "little") for n in (min(exp, 8), max(exp - 8, 0))]
        kept = kept | np.array(lead, np.uint64)[:, None]
    digits = kept >> 3
    digits |= h  # 0x10 + digit where kept, 0 (a space) where dropped
    w1, w2 = digits
    if exp >= 0:
        # The point goes after byte b of digit word j, and shows if a digit
        # after it is kept (a kept digit in w2 keeps all of w1).
        j, b = divmod(exp, 8)
        head = digits[j] & np.uint64((1 << 8 * b) - 1)
        tail = digits[j] >> np.uint64(8 * b)
        point = tail != 0
        whole = [(w1, 8)] if j else []
        fraction = [] if j else [(w2, 8)]
        pieces = [(sign, 1), (d0, 1), *whole, (head, b), (point.astype(np.uint64) * _POINT, 1),
                  (tail, 8 - b), *fraction]
    elif exp >= -4:
        zeros = b"0." + b"0" * (-exp - 1)
        pieces = [(sign, 1), (_chars(zeros), len(zeros)), (d0, 1), (w1, 8), (w2, 8)]
    else:
        point = w1 != 0
        pieces = [(sign, 1), (d0, 1), (point.astype(np.uint64) * _POINT, 1), (w1, 8), (w2, 8),
                  (_chars(b"e-%02d" % -exp), 4)]
    _pack(words, pieces)


def _kernel_cells(x: np.ndarray) -> np.ndarray:
    """The cells (3, N) of x, 1-D with every |x| in [_KERNEL_MIN, _KERNEL_MAX).

    The most common exponent is laid out over all of x, then every other
    exponent over its own values.
    """
    d, e = _significands(np.abs(x))
    d0, h, kept = _digit_words(d)
    sign = (x < 0).astype(np.uint64) * _MINUS
    counts = np.bincount(e + 5)
    common = int(np.argmax(counts)) - 5
    words = np.empty((3, x.size), np.uint64)
    _layout(words, common, sign, d0, h, kept)
    for exp in np.flatnonzero(counts) - 5:
        if exp != common:
            sel = np.flatnonzero(e == exp)
            part = np.empty((3, sel.size), np.uint64)
            _layout(part, exp, sign[sel], d0[sel], h[:, sel], kept[:, sel])
            words[:, sel] = part
    return words


def _block_to_csv(m: np.ndarray) -> str:
    rows = m.shape[0]
    x = m.ravel()
    a = np.abs(x)
    in_range = (a >= _KERNEL_MIN) & (a < _KERNEL_MAX)
    words = _kernel_cells(np.where(in_range, x, 1.0))
    # Cells of the fewest words that hold every value of the block.
    width = 3 if (words[2] != _SPACES).any() else 2 if (words[1] != _SPACES).any() else 1
    others = np.flatnonzero(~in_range)
    texts = [format_float(v) for v in x[others].tolist()]
    width = max([width] + [len(t) // 8 + 1 for t in texts])
    cells = np.empty((x.size, width), np.uint64)
    cells[:, :3] = words[:width].T
    cells[:, 3:] = _SPACES
    if texts:
        padded = "".join(("," + t).ljust(8 * width) for t in texts).encode("ascii")
        cells[others] = np.frombuffer(padded, "<u8").reshape(-1, width)
    text = cells.astype("<u8", copy=False).view(np.uint8).reshape(rows, -1)
    text[1:, 0] = ord("\n")
    return text.tobytes().translate(None, b" ")[1:].decode("ascii")


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of %.17g values joined by commas and newlines, no final newline."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return "\n" * max(m.shape[0] - 1, 0)
    return "\n".join(_block_to_csv(block) for block in _row_blocks(m))


def matrix_chunks(m: np.ndarray, kind: str, fmt: str):
    """The text of m in pieces made a row block at a time. Joined, they are
    matrix_to_csv(m) or dumps({"data": m.ravel().tolist(), "kind": kind,
    "n": len(m)}), and a newline."""
    if fmt == "csv":
        for block in _row_blocks(m):
            yield matrix_to_csv(block) + "\n"
        return
    yield '{"data":['
    for i, block in enumerate(_row_blocks(m)):
        yield ("," if i else "") + dumps(block.ravel().tolist())[1:-1]
    yield f'],"kind":{dumps(kind)},"n":{len(m)}}}\n'


def spectrum_to_csv(s: Spectrum) -> str:
    return ",".join(format_float(v) for v in s.values)


def spectrum_to_json(s: Spectrum) -> dict:
    return {
        "values": s.values.tolist(),
        "multiplicities": [[float(v), int(c)] for v, c in s.multiplicities],
        "tol": DEFAULT_GROUP_TOL,
    }


def energy_report_to_json(report: EnergyReport, graph_tag: str) -> dict:
    return {
        "graph": graph_tag,
        "n": report.n,
        "mean_transmission": report.mean_transmission,
        "eta": report.eta.tolist(),
        "f": report.f,
        "F": report.F,
        "le_r": report.le_r,
        "e_r": report.e_r,
        "bounds": {name: b.value for name, b in report.bounds.items()},
        "satisfied": {name: b.satisfied for name, b in report.bounds.items()},
        "slack": {name: b.slack for name, b in report.bounds.items()},
    }


def energy_report_to_csv(report: EnergyReport, graph_tag: str) -> str:
    lines = [
        f"graph,{graph_tag}",
        f"n,{report.n}",
        f"mean_transmission,{format_float(report.mean_transmission)}",
        "eta," + ",".join(format_float(v) for v in report.eta),
        f"f,{format_float(report.f)}",
        f"F,{format_float(report.F)}",
        f"le_r,{format_float(report.le_r)}",
        f"e_r,{format_float(report.e_r)}",
    ]
    for name, b in report.bounds.items():
        lines.append(
            f"bound,{name},{format_float(b.value)},"
            f"{'satisfied' if b.satisfied else 'violated'},{format_float(b.slack)}"
        )
    return "\n".join(lines)


def graph_hash(g: Graph) -> str:
    """Short stable identifier for a graph: sha256 of its edge-list text."""
    digest = hashlib.sha256(format_edge_list(g).encode("ascii")).hexdigest()
    return digest[:16]


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no trailing whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
