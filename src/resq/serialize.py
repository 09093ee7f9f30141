"""CSV and JSON serialization with full numeric precision.

CSV carries floats as %.17g; JSON numbers use Python's shortest
round-trip representation. Both reproduce the underlying doubles exactly.

Every CSV float goes through one numpy kernel, a block of rows at a time: for
1e-5 <= |x| < 1e15 it forms x * 10**(16 - e) exactly, as a Dekker (1971)
two-product with the exact double 10**(16 - e), and rounds its 17 digits half
to even from the exact low part, as Python's "%.17g" does. A block's most
common decade e takes one two-product with scalars; only values whose product
leaves (10**16, 10**17) find e by log10. Cells are laid out in row order, each
ending in its separator, for bytes.translate to drop their padding. Zeros,
non-finite values and values outside the range go through Python's "%".
matrix_chunks hands out bytes a block at a time, so the scratch is one block;
R^L of G(1000, 10/n) takes 62 ms per million values (one core, 2-vCPU Xeon).
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

# A CSV cell is ASCII in little-endian uint64 words: the value, spaces, which
# the last pass drops, and its separator in the last byte. Every character the
# kernel writes has the 0x20 bit of a space, so it ORs its characters minus
# 0x20 into words of spaces; a byte of 0 there is left a space.
_ONES = 0x0101010101010101
_SPACES = np.uint64(0x20 * _ONES)
_MINUS = np.uint64(ord("-") - 0x20)
_POINT = np.uint64(ord(".") - 0x20)


def _chars(text: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(bytes(c - 0x20 for c in text), "little"))


def _two_product(v: np.ndarray, k):
    """hi, lo with hi + lo == v * 10**k exactly and hi the rounded product."""
    c = v * _SPLIT
    vh = c - v
    vh = np.subtract(c, vh, out=vh)  # c - (c - v)
    vl = np.subtract(v, vh, out=c)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    hi = v * _POW10[k]
    lo = vh * ph
    lo -= hi
    lo += np.multiply(vh, pl, out=vh)
    lo += vl * ph
    lo += np.multiply(vl, pl, out=vl)
    return hi, lo


def _exact_products(v: np.ndarray):
    """hi, lo and e with hi + lo == v * 10**(16 - e) exactly in [10**16,
    10**17), for each v in [_KERNEL_MIN, _KERNEL_MAX)."""
    e = np.floor(np.log10(v)).astype(np.intp)
    hi, lo = _two_product(v, 16 - e)
    # log10 can be one off near a power of ten; move those e until the exact
    # product hi + lo lies in [10**16, 10**17).
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
    return hi, lo, e


def _digit_words(hi: np.ndarray, lo: np.ndarray):
    """The 17 digits of each D, hi + lo rounded half to even: d0 as 0x10 + d0,
    and d1..d8 and d9..d16 as bytes 0..7 of two words (2, N), first digit
    lowest, each 0x10 + digit up to the last nonzero digit and 0 after it."""
    # hi >= 2**53 is an even integer, so rounding lo half to even rounds hi + lo
    # half to even; no carry to 10**17: the largest double below each power of
    # ten from 1e-5 to 1e15 rounds to 17 digits below it, as the tests check.
    d = hi.astype(np.uint64)
    d += np.rint(lo).astype(np.int64).view(np.uint64)
    top = d // 10**8
    d0 = top // 10**8
    h = np.empty((2, d.size), np.uint64)
    np.subtract(top, d0 * 10**8, out=h[0])
    np.subtract(d, top * 10**8, out=h[1])
    # Split each word's 8 digits in place: two 4-digit lanes, four 2-digit
    # lanes, eight digits. 10486 / 2**20 and 103 / 2**10 divide by 100 and
    # 10 exactly below 10**4 and 10**2.
    # (v - 10**4 t) << 32 | t is (v << 32) - ((10**4 << 32) - 1) t, and so on.
    v = h.reshape(-1)
    t = v // 10**4
    v <<= 32
    v -= t * ((10**4 << 32) - 1)
    t = v * 10486
    t >>= 20
    t &= 0x0000007F0000007F
    v <<= 16
    v -= t * ((100 << 16) - 1)
    t = v * 103
    t >>= 10
    t &= 0x000F000F000F000F
    v <<= 8
    v -= t * ((10 << 8) - 1)
    kept = h + 0x7F * _ONES
    kept &= 0x80 * _ONES
    flat = kept.reshape(-1)
    for shift in (8, 16, 32):
        flat |= flat >> shift
    kept[0] |= (kept[1] & 0x80) * _ONES  # a nonzero digit in d9..d16 keeps d1..d8
    kept >>= 3
    kept |= h
    d0 += 0x10
    return d0, kept


def _pack(words: np.ndarray, pieces) -> None:
    """Lay (value, byte count) pieces out one after another in each cell's
    three words (3, N), from byte 0, over spaces."""
    acc = [_SPACES] * 3
    pos = 0
    for value, size in pieces:
        j, b = divmod(pos, 8)
        acc[j] = acc[j] | (value << np.uint64(8 * b) if b else value)
        if b + size > 8:
            acc[j + 1] = acc[j + 1] | (value >> np.uint64(64 - 8 * b))
        pos += size
    for word, value in zip(words, acc):
        word[...] = value


def _layout(words: np.ndarray, exp: int, sign, d0, digits) -> None:
    """The cells of values with decimal exponent exp: ddd.ddd for 0 <= exp
    <= 14, 0.000ddd for -4 <= exp < 0, and d.ddde-05 for exp == -5, each with
    its trailing fraction zeros (and a point with no digit after it) dropped."""
    exp = int(exp)
    if exp > 0:  # integer digits d1..d_exp show even when they are zeros
        lead = [int.from_bytes(b"\x10" * n, "little") for n in (min(exp, 8), max(exp - 8, 0))]
        digits = digits | np.array(lead, np.uint64)[:, None]
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


def _kernel_cells(x: np.ndarray):
    """The cells (N, 3) of x in row order, and the indices of the values out
    of the kernel's range, whose cells are left to the caller.

    The values of the block's common decade c take one two-product with the
    scalar 10**(16 - c); only those whose exact product leaves (10**16,
    10**17) take the general path of _exact_products. The common decade is
    laid out over all of x, then every other one over its own values.
    """
    a = np.abs(x)
    s = a[:: max(1, a.size >> 8)]  # about 256 values: their most common decade is c
    s = s[(s >= _KERNEL_MIN) & (s < _KERNEL_MAX)]
    common = int(np.argmax(np.bincount(_exact_products(s)[2] + 5))) - 5 if s.size else 0
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN leave the common decade
        hi, lo = _two_product(a, 16 - common)
        rest = np.flatnonzero(~((hi > 1e16) & (hi < 1e17)))
    v = a[rest]
    kernel = (v >= _KERNEL_MIN) & (v < _KERNEL_MAX)
    hi[rest], lo[rest], e = _exact_products(np.where(kernel, v, 1.0))
    d0, digits = _digit_words(hi, lo)
    del a, hi, lo  # freed before the layout, the block's memory peak
    sign = (x.view(np.uint64) >> 63) * _MINUS  # -0.0 and NaN cells come from Python
    cells = np.empty((x.size, 3), "<u8")  # a kernel value has at most 23 bytes
    _layout(cells.T, common, sign, d0, digits)
    for exp in np.flatnonzero(np.bincount(e[kernel] + 5)) - 5:  # np.unique imports numpy.ma
        if exp != common:
            sel = rest[kernel & (e == exp)]
            part = np.empty((3, sel.size), np.uint64)
            _layout(part, exp, sign[sel], d0[sel], digits[:, sel])
            cells[sel] = part.T
    return cells, rest[~kernel]


def _csv_block(m: np.ndarray) -> bytes:
    """The CSV text of the rows of m, each row ending in a newline."""
    rows, cols = m.shape
    if not cols:
        return b"\n" * rows
    x = m.ravel()
    cells, others = _kernel_cells(x)
    texts = [format_float(v) for v in x[others].tolist()]
    width = max([3] + [len(t) // 8 + 1 for t in texts])
    if width > 3:
        cells = np.concatenate([cells, np.full((x.size, width - 3), _SPACES, "<u8")], axis=1)
    if texts:
        padded = "".join(t.ljust(8 * width) for t in texts).encode("ascii")
        cells[others] = np.frombuffer(padded, "<u8").reshape(-1, width)
    text = cells.view(np.uint8).reshape(rows, -1)
    text[:, 8 * width - 1 :: 8 * width] = ord(",")
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b" ")


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of %.17g values joined by commas and newlines, no final newline."""
    m = np.asarray(m, dtype=float)
    return b"".join(map(_csv_block, _row_blocks(m))).decode("ascii")[:-1]


def matrix_chunks(m: np.ndarray, kind: str, fmt: str):
    """The ASCII bytes of m in pieces made a row block at a time. Joined, they
    are matrix_to_csv(m) or dumps({"data": m.ravel().tolist(), "kind": kind,
    "n": len(m)}), and a newline."""
    if fmt == "csv":
        yield from map(_csv_block, _row_blocks(np.asarray(m, dtype=float)))
        return
    yield b'{"data":['
    for i, block in enumerate(_row_blocks(m)):
        yield (("," if i else "") + dumps(block.ravel().tolist())[1:-1]).encode("ascii")
    yield f'],"kind":{dumps(kind)},"n":{len(m)}}}\n'.encode("ascii")


def spectrum_to_csv(s: Spectrum) -> str:
    return matrix_to_csv([s.values])


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
        "eta," + matrix_to_csv([report.eta]),
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
