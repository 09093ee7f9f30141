"""Exact resistance Laplacian matrices and spectra for standard families.

Complete graphs, complete bipartite graphs, and cycles admit closed forms
for R^L and R^Q and for their spectra. These serve as independent oracles
against the numeric pipeline: the numbers here come from formula
evaluation, never from an eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def complete_rl(n: int) -> np.ndarray:
    """R^L(K_n) = 2I - (2/n)J."""
    FamilySpec.complete(n).validate()
    return 2.0 * np.eye(n) - (2.0 / n) * np.ones((n, n))


def complete_rq(n: int) -> np.ndarray:
    """R^Q(K_n) = (2/n)J + (2 - 4/n)I."""
    FamilySpec.complete(n).validate()
    return (2.0 / n) * np.ones((n, n)) + (2.0 - 4.0 / n) * np.eye(n)


def complete_rl_spectrum(n: int) -> Spectrum:
    """Eigenvalues 2 with multiplicity n-1, and 0."""
    FamilySpec.complete(n).validate()
    return Spectrum.from_values([2.0] * (n - 1) + [0.0])


def complete_rq_spectrum(n: int) -> Spectrum:
    """Eigenvalues 4 - 4/n once and 2 - 4/n with multiplicity n-1."""
    FamilySpec.complete(n).validate()
    return Spectrum.from_values([4.0 - 4.0 / n] + [2.0 - 4.0 / n] * (n - 1))


def _bipartite_blocks(p: int, q: int, sign: float) -> np.ndarray:
    """Fill Diag(RTr) + sign * R for K_{p,q} block by block into one matrix.

    Within the size-p part the resistance is 2/q, within the size-q part
    2/p, and across parts (p+q-1)/(pq); the diagonal is the transmission.
    """
    m = np.empty((p + q, p + q))
    m[:p, :p] = sign * 2.0 / q
    m[p:, p:] = sign * 2.0 / p
    m[:p, p:] = m[p:, :p] = sign * (p + q - 1.0) / (p * q)
    diagonal = m.reshape(-1)[:: p + q + 1]
    diagonal[:p] = 2.0 * (p - 1) / q + (p + q - 1.0) / p
    diagonal[p:] = 2.0 * (q - 1) / p + (p + q - 1.0) / q
    return m


def bipartite_rl(p: int, q: int) -> np.ndarray:
    """R^L(K_{p,q}) in block form: [2p/q + (p+q-1)/p]I - (2/q)J on the first
    part, the mirrored expression on the second, and -(p+q-1)/(pq) across."""
    FamilySpec.bipartite(p, q).validate()
    return _bipartite_blocks(p, q, sign=-1.0)


def bipartite_rq(p: int, q: int) -> np.ndarray:
    """R^Q(K_{p,q}) in block form: [2(p-2)/q + (p+q-1)/p]I + (2/q)J on the
    first part, mirrored on the second, and +(p+q-1)/(pq) across."""
    FamilySpec.bipartite(p, q).validate()
    return _bipartite_blocks(p, q, sign=1.0)


def bipartite_rl_spectrum(p: int, q: int) -> Spectrum:
    """Four-value spectrum of R^L(K_{p,q}):

    0 and ((p+q)^2 - p - q)/(pq) once each, 2p/q + (p+q-1)/p with
    multiplicity p-1, and 2q/p + (p+q-1)/q with multiplicity q-1.
    """
    FamilySpec.bipartite(p, q).validate()
    s = p + q
    values = [0.0, (s * s - s) / (p * q)]
    values += [2.0 * p / q + (s - 1.0) / p] * (p - 1)
    values += [2.0 * q / p + (s - 1.0) / q] * (q - 1)
    return Spectrum.from_values(values)


def _rq_quotient_eigenvalues(p: int, q: int) -> tuple[float, float]:
    """The two eigenvalues of the 2x2 row-sum quotient of R^Q(K_{p,q}) under
    the two-part partition, descending.

    Row sums of the diagonal blocks are a = 2(2p-2)/q + (p+q-1)/p and
    d = 2(2q-2)/p + (p+q-1)/q; the off-diagonal row sums b = (p+q-1)/p and
    c = (p+q-1)/q are positive, so the discriminant is nonnegative.
    """
    s = p + q - 1.0
    a, b = 2.0 * (2 * p - 2) / q + s / p, s / p
    c, d = s / q, 2.0 * (2 * q - 2) / p + s / q
    half_trace = (a + d) / 2.0
    disc = math.sqrt(max((a - d) ** 2 + 4.0 * b * c, 0.0)) / 2.0
    return half_trace + disc, half_trace - disc


def bipartite_rq_spectrum(p: int, q: int) -> Spectrum:
    """Spectrum of R^Q(K_{p,q}).

    2(p-2)/q + (p+q-1)/p with multiplicity p-1, 2(q-2)/p + (p+q-1)/q with
    multiplicity q-1, and the two eigenvalues of the row-sum quotient of
    the block matrix.
    """
    FamilySpec.bipartite(p, q).validate()
    s = p + q - 1.0
    hi, lo = _rq_quotient_eigenvalues(p, q)
    values = [hi, lo]
    values += [2.0 * (p - 2) / q + s / p] * (p - 1)
    values += [2.0 * (q - 2) / p + s / q] * (q - 1)
    return Spectrum.from_values(values)


def bipartite_rq_pm_formula(p: int, q: int) -> tuple[float, float]:
    """Legacy +/- radical expression for the two quotient eigenvalues of
    R^Q(K_{p,q}):

        (5p^2 + (2p-5)q + 5q^2 - 5p +/- sqrt(9p^2 - 14pq + 9q^2(p+q-1)))
        / (2pq)

    It disagrees with the verified block quotient already at p = q = 2 and
    is kept only so reports can show the discrepancy. Returns NaNs when
    the radicand is negative.
    """
    FamilySpec.bipartite(p, q).validate()
    radicand = 9.0 * p * p - 14.0 * p * q + 9.0 * q * q * (p + q - 1)
    if radicand < 0.0:
        return (math.nan, math.nan)
    root = math.sqrt(radicand)
    base = 5.0 * p * p + (2.0 * p - 5.0) * q + 5.0 * q * q - 5.0 * p
    return ((base + root) / (2.0 * p * q), (base - root) / (2.0 * p * q))


def _cycle(n: int, sign: float) -> np.ndarray:
    """Diag(RTr) + sign * R for C_n: the circulant whose first row has the
    transmission (n^2-1)/6 at k = 0 and sign * k(n-k)/n (two parallel arc
    paths) at k = 1..n-1."""
    FamilySpec.cycle(n).validate()
    k = np.arange(n, dtype=float)
    row = sign * (k * (n - k) / n)
    row[0] = (n * n - 1.0) / 6.0
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def cycle_rl(n: int) -> np.ndarray:
    """R^L(C_n): circulant with diagonal (n^2-1)/6 and entries -k(n-k)/n."""
    return _cycle(n, sign=-1.0)


def cycle_rq(n: int) -> np.ndarray:
    """R^Q(C_n): circulant with diagonal (n^2-1)/6 and entries +k(n-k)/n."""
    return _cycle(n, sign=1.0)


def cycle_spectra(n: int) -> tuple[Spectrum, Spectrum]:
    """(R^L, R^Q) spectra of C_n, with h = (n^2-1)/6 the common transmission.

    R(C_n) = 2cJ - 2L^+, c the constant diagonal of L^+, shares its eigenvectors
    with L(C_n), whose eigenvalues are 4 sin^2(pi j/n). So R^L has 0 and R^Q has
    2h, and for j = 1..n-1 they have h + 1/(2 sin^2(pi j/n)) and h - 1/(2 sin^2(pi j/n)),
    the sine taken at min(j, n-j) so that its argument is at most pi/2.
    """
    FamilySpec.cycle(n).validate()
    h, j = (n * n - 1.0) / 6.0, np.arange(1, n)
    g = 0.5 / np.sin(np.pi * np.minimum(j, n - j) / n) ** 2
    rl, rq = np.append(h + g, 0.0), np.append(h - g, 2.0 * h)
    return Spectrum.from_values(rl), Spectrum.from_values(rq)


def closed_form(family: FamilySpec) -> ClosedForm:
    """Analytic R^L/R^Q matrices and spectra for one family instance.

    Paths have no closed form here and are rejected.
    """
    family.validate()
    if family.kind == "complete":
        (n,) = family.params
        return ClosedForm(
            family, complete_rl(n), complete_rq(n),
            complete_rl_spectrum(n), complete_rq_spectrum(n),
        )
    if family.kind == "bipartite":
        p, q = family.params
        return ClosedForm(
            family, bipartite_rl(p, q), bipartite_rq(p, q),
            bipartite_rl_spectrum(p, q), bipartite_rq_spectrum(p, q),
        )
    if family.kind == "cycle":
        (n,) = family.params
        return ClosedForm(family, cycle_rl(n), cycle_rq(n), *cycle_spectra(n))
    raise InvalidFamilyParams(f"no closed form for family {family.kind!r}")
