"""Exact resistance Laplacian matrices and spectra for standard families.

Complete graphs, complete bipartite graphs, and cycles admit closed forms
for R^L and R^Q and for their spectra. These serve as independent oracles
against the numeric pipeline: the numbers here come from formula
evaluation, never from an eigensolver. Each family's closed form is written
once, as parameters vectorised over its instances (_FORMS): tables of the
entries of L, R^L and R^Q in blocks (K_{p,q}; K_n is one block) or in a
circulant (C_n), which _matrices lays out, and spectra as values with
multiplicities, which _spectra sorts. The public builders and closed_form
expand one instance; verify expands every instance of an order at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidFamilyParams
from .graph import FamilySpec
from .spectral import Spectrum


@dataclass(frozen=True)
class ClosedForm:
    """Analytic matrices and spectra for one family instance."""

    family: FamilySpec
    rl_matrix: np.ndarray
    rq_matrix: np.ndarray
    rl_spectrum: Spectrum
    rq_spectrum: Spectrum


class _Forms(NamedTuple):
    """Closed forms of c instances. first: each one's first block size, None
    for circulants. lap, rl, rq: tables of L, R^L, R^Q, (c, 5) block entries
    [diagonal in the first block, in the second, off it within the first
    block, within the second, across] or (c, n) first rows. The spectra:
    rl_values, rq_values with multiplicity, (c, m)."""

    first: np.ndarray | None
    lap: np.ndarray
    rl: np.ndarray
    rq: np.ndarray
    rl_values: np.ndarray
    rq_values: np.ndarray
    multiplicity: np.ndarray

    def take(self, s) -> "_Forms":
        return _Forms(*(None if x is None else x[s] for x in self))


def _matrices(parts, table: str, n: int) -> np.ndarray:
    """The (c, n, n) matrices of one table, "lap", "rl" or "rq", of the
    instances of parts, a list of _Forms of order n, in turn; each entry a
    copy of its table's entry."""
    i, out = np.arange(n), []
    for f in parts:
        t = getattr(f, table)
        if f.first is None:  # entry (i, j) of a circulant is its first row's (j - i) mod n
            out.append(t[:, (i - i[:, None]) % n])
            continue
        second = i >= f.first[:, None, None]  # column j is in the second block, (c, 1, n)
        row, t = second.swapaxes(1, 2), t[:, :, None, None]  # and row i, (c, n, 1)
        m = np.where(second == row, np.where(row, t[:, 3], t[:, 2]), t[:, 4])
        m.reshape(len(m), -1)[:, ::n + 1] = np.where(row[..., 0], t[:, 1, 0], t[:, 0, 0])
        out.append(m)
    return out[0] if len(out) == 1 else np.concatenate(out)


def _spectra(parts) -> tuple[np.ndarray, np.ndarray]:
    """The R^L and R^Q spectra, (c, n) each, of the instances of parts, a list
    of _Forms of one order, in turn; each descending."""
    spectra = []
    for f in parts:
        counts, c = f.multiplicity.ravel(), len(f.multiplicity)
        spectra.append([np.sort(np.repeat(values.ravel(), counts).reshape(c, -1))[:, ::-1]
                        for values in (f.rl_values, f.rq_values)])
    return tuple(np.concatenate(s) for s in zip(*spectra))


def _complete(n) -> _Forms:
    """K_n, one block: L = nI - J, R^L = 2I - (2/n)J, R^Q = (2/n)J + (2 - 4/n)I.
    R^L has 0 once and 2 with multiplicity n-1, R^Q 4 - 4/n once and 2 - 4/n
    with multiplicity n-1; their last two values, as _bipartite has four,
    have multiplicity 0."""
    off, one, none = 2.0 / n, np.ones_like(n), np.zeros_like(n)
    zero, rl, rq = np.zeros_like(off), 2.0 - off, off + (2.0 - 4.0 / n)
    return _Forms(n, np.array([n - 1.0, n - 1.0, -one, -one, -one]).T,
                  np.array([rl, rl, -off, -off, -off]).T, np.array([rq, rq, off, off, off]).T,
                  np.array([zero, np.full_like(off, 2.0), zero, zero]).T,
                  np.array([4.0 - 4.0 / n, 2.0 - 4.0 / n, zero, zero]).T,
                  np.array([one, n - 1, none, none]).T)


def _bipartite(p, q) -> _Forms:
    """K_{p,q} in blocks of sizes p and q. L: degrees q and p, -1 across. R:
    2/q within the first block, 2/p within the second, (p+q-1)/(pq) across;
    transmissions 2(p-1)/q + (p+q-1)/p and 2(q-1)/p + (p+q-1)/q.
    R^L has 0 and ((p+q)^2 - p - q)/(pq) once each, 2p/q + (p+q-1)/p with
    multiplicity p-1 and 2q/p + (p+q-1)/q with multiplicity q-1; R^Q has
    the two eigenvalues of its block quotient (_rq_quotient_eigenvalues),
    then 2(p-2)/q + (p+q-1)/p and 2(q-2)/p + (p+q-1)/q, p-1 and q-1 times."""
    s, t, one = p + q - 1.0, p + q, np.ones_like(p)
    zero = np.zeros_like(s)
    first, second = 2.0 * (p - 1) / q + s / p, 2.0 * (q - 1) / p + s / q
    within, across = (2.0 / q, 2.0 / p), s / (p * q)
    return _Forms(p, np.array([q, p, zero, zero, -one]).T,
                  np.array([first, second, -within[0], -within[1], -across]).T,
                  np.array([first, second, *within, across]).T,
                  np.array([zero, (t * t - t) / (p * q), 2.0 * p / q + s / p,
                            2.0 * q / p + s / q]).T,
                  np.array([*_rq_quotient_eigenvalues(p, q), 2.0 * (p - 2) / q + s / p,
                            2.0 * (q - 2) / p + s / q]).T,
                  np.array([one, one, p - 1, q - 1]).T)


def _rq_quotient_eigenvalues(p, q) -> tuple:
    """The two eigenvalues of the 2x2 row-sum quotient of R^Q(K_{p,q}) under
    the two-part partition, descending, of each (p, q) of two arrays.
    Row sums of the diagonal blocks are a = 2(2p-2)/q + (p+q-1)/p and
    d = 2(2q-2)/p + (p+q-1)/q; the off-diagonal row sums b = (p+q-1)/p and
    c = (p+q-1)/q are positive, so the discriminant is nonnegative. The
    square is libm's pow, as Python's ** takes it of one float."""
    s = p + q - 1.0
    a, b = 2.0 * (2 * p - 2) / q + s / p, s / p
    c, d = s / q, 2.0 * (2 * q - 2) / p + s / q
    half_trace = (a + d) / 2.0
    disc = np.sqrt(np.maximum(np.float_power(a - d, 2) + 4.0 * b * c, 0.0)) / 2.0
    return half_trace + disc, half_trace - disc


def _rq_pm_pair(p, q) -> tuple:
    """bipartite_rq_pm_formula of each (p, q) of two arrays."""
    root = np.sqrt(9.0 * p * p - 14.0 * p * q + 9.0 * q * q * (p + q - 1))
    base = 5.0 * p * p + (2.0 * p - 5.0) * q + 5.0 * q * q - 5.0 * p
    return (base + root) / (2.0 * p * q), (base - root) / (2.0 * p * q)


def _cycle(n) -> _Forms:
    """C_n, of one order n, as circulants. First rows: L, 2 at k = 0 and -1
    at k = 1 and n-1; R^L and R^Q, the transmission h = (n^2-1)/6 at k = 0
    and -k(n-k)/n, resp. +k(n-k)/n (two parallel arc paths).

    R(C_n) = 2cJ - 2L^+, c the constant diagonal of L^+, shares its eigenvectors
    with L(C_n), whose eigenvalues are 4 sin^2(pi j/n). So R^L has 0 and R^Q has
    2h, and for j = 1..n-1 they have h + 1/(2 sin^2(pi j/n)) and h - 1/(2 sin^2(pi j/n)),
    the sine taken at min(j, n-j) so that its argument is at most pi/2.
    """
    order, n = int(n[0]), n[:, None]
    k, j = np.arange(order, dtype=float), np.arange(1, order)
    h, r = (n * n - 1.0) / 6.0, k * (n - k) / n
    lap = np.zeros_like(r)
    lap[:, 0], lap[:, 1], lap[:, -1] = 2.0, -1.0, -1.0
    rl, rq = -r, r
    rl[:, 0] = rq[:, 0] = h[:, 0]
    g = 0.5 / np.sin(np.pi * np.minimum(j, n - j) / n) ** 2
    return _Forms(None, lap, rl, rq, np.concatenate([h + g, np.zeros_like(h)], axis=1),
                  np.concatenate([h - g, 2.0 * h], axis=1), np.ones_like(r, dtype=int))


#: The forms of each family kind that has them, of its parameters as arrays.
_FORMS = {"complete": _complete, "bipartite": _bipartite, "cycle": _cycle}


def closed_form(family: FamilySpec) -> ClosedForm:
    """Analytic R^L/R^Q matrices and spectra for one family instance; the
    spec is validated once. Paths have no closed form here and are rejected.
    """
    params = family.validate()
    if family.kind not in _FORMS:
        raise InvalidFamilyParams(f"no closed form for family {family.kind!r}")
    f, n = [_FORMS[family.kind](*np.array(params)[:, None])], sum(params)
    rl_values, rq_values = _spectra(f)
    return ClosedForm(family, _matrices(f, "rl", n)[0], _matrices(f, "rq", n)[0],
                      Spectrum.from_values(rl_values[0]), Spectrum.from_values(rq_values[0]))


def complete_rl(n: int) -> np.ndarray:
    """R^L(K_n) = 2I - (2/n)J."""
    return closed_form(FamilySpec("complete", (n,))).rl_matrix


def complete_rq(n: int) -> np.ndarray:
    """R^Q(K_n) = (2/n)J + (2 - 4/n)I."""
    return closed_form(FamilySpec("complete", (n,))).rq_matrix


def complete_rl_spectrum(n: int) -> Spectrum:
    """Eigenvalues 2 with multiplicity n-1, and 0."""
    return closed_form(FamilySpec("complete", (n,))).rl_spectrum


def complete_rq_spectrum(n: int) -> Spectrum:
    """Eigenvalues 4 - 4/n once and 2 - 4/n with multiplicity n-1."""
    return closed_form(FamilySpec("complete", (n,))).rq_spectrum


def bipartite_rl(p: int, q: int) -> np.ndarray:
    """R^L(K_{p,q}) in block form (_bipartite)."""
    return closed_form(FamilySpec("bipartite", (p, q))).rl_matrix


def bipartite_rq(p: int, q: int) -> np.ndarray:
    """R^Q(K_{p,q}) in block form (_bipartite)."""
    return closed_form(FamilySpec("bipartite", (p, q))).rq_matrix


def bipartite_rl_spectrum(p: int, q: int) -> Spectrum:
    """Four-value spectrum of R^L(K_{p,q}) (_bipartite)."""
    return closed_form(FamilySpec("bipartite", (p, q))).rl_spectrum


def bipartite_rq_spectrum(p: int, q: int) -> Spectrum:
    """Spectrum of R^Q(K_{p,q}) (_bipartite)."""
    return closed_form(FamilySpec("bipartite", (p, q))).rq_spectrum


def bipartite_rq_pm_formula(p: int, q: int) -> tuple[float, float]:
    """Legacy +/- radical expression for the two quotient eigenvalues of
    R^Q(K_{p,q}):

        (5p^2 + (2p-5)q + 5q^2 - 5p +/- sqrt(9p^2 - 14pq + 9q^2(p+q-1)))
        / (2pq)

    It disagrees with the verified block quotient already at p = q = 2 and
    is kept only so reports can show the discrepancy. For p, q >= 1 the
    radicand is at least 9(p - 7q/9)^2 + 32q^2/9 > 0, so both are finite.
    """
    return tuple(map(float, _rq_pm_pair(*FamilySpec("bipartite", (p, q)).validate())))


def cycle_rl(n: int) -> np.ndarray:
    """R^L(C_n): circulant with diagonal (n^2-1)/6 and entries -k(n-k)/n."""
    return closed_form(FamilySpec("cycle", (n,))).rl_matrix


def cycle_rq(n: int) -> np.ndarray:
    """R^Q(C_n): circulant with diagonal (n^2-1)/6 and entries +k(n-k)/n."""
    return closed_form(FamilySpec("cycle", (n,))).rq_matrix


def cycle_spectra(n: int) -> tuple[Spectrum, Spectrum]:
    """(R^L, R^Q) spectra of C_n (_cycle)."""
    c = closed_form(FamilySpec("cycle", (n,)))
    return c.rl_spectrum, c.rq_spectrum
