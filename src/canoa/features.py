"""Power-trace feature extraction.

The pipeline for one transmission (t, S) against one ECU's power trace:
normalize by calibration statistics, slice a transmission-window-length
segment starting at t, taper it with a Tukey window, take the one-sided
FFT magnitude. Training projects the spectra onto the ECU's
principal-component basis; a trained model has that projection folded
into its weights, so scoring stops at the spectrum. The module knows
trace times, not source addresses: :func:`canoa.workflow.build_bundle`
labels the projections by SA.

Every segment has :meth:`Tau.sample_count` samples: ``round(tau *
sample_rate)`` rounded up to the next 5-smooth integer (2^a 3^b 5^c), a
length the FFT transforms several times faster than one with a large
prime factor. The segment grows by at most 6.7 % once it is 500
samples or longer, and still covers the whole frame. A segment starts at
the sample nearest its transmission's time, and :func:`segments_fit`
is the one test of whether it lies inside a trace.

:func:`fit_pca` keeps M components of a Gram matrix of size d, found by
one fixed-seed block subspace iteration: M + 10 columns when
M + 10 < d // 4 (the lab and truck presets: d = 1081 and 801, M = 50),
all d otherwise. The Gram matrix is formed from the uncentered spectra
less a correction, and :meth:`PcaBasis.transform` centers a block of rows
at a time, so neither makes an n x f copy of an ECU's spectra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateTrace, EmptyInput, OutOfBounds, RankDeficient
from .frames import DecodedTransmission
from .trace import SampledTrace

DEFAULT_CALIB_LEN = 100_000
MIN_CALIB_LEN = 1000
DEFAULT_COMPONENTS = 50
# Segments are normalized, tapered and transformed in blocks of rows whose
# float64 copy is about this size, so a block stays in cache between steps.
# Spectra are centered for projection, and fit_pca's Gram matrix corrected,
# in blocks of rows of the same size instead of as whole-matrix temporaries.
_SPECTRA_BLOCK_BYTES = 2 << 20
# fit_pca's block subspace iteration: extra columns beyond the M kept, the
# number of Gram products, and the seed of the Gaussian start block.
_RITZ_OVERSAMPLE = 10
_RITZ_STEPS = 4
_RITZ_SEED = 0


@dataclass(frozen=True)
class NormStats:
    """Per-ECU mean and standard deviation from a calibration sample."""

    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and 0 < self.std < np.inf):
            raise ValueError(f"need a finite mean and a finite, positive std, got {self}")


@dataclass(frozen=True)
class TukeyParams:
    """Taper fraction of the tapered-cosine window; 0 = rectangular, 1 = Hann."""

    alpha: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class Tau:
    """Estimated transmission window in seconds."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("transmission window must be positive")

    def sample_count(self, sample_rate: float) -> int:
        """Segment length: the smallest 5-smooth integer >= round(tau * sample_rate)."""
        n = int(round(self.value * sample_rate))
        best = 1 << max(n - 1, 0).bit_length()  # the next power of two
        fives = 1
        while fives < best:
            odd = fives
            while odd < best:  # odd = 3^b 5^c, times the fewest twos that reach n
                best = min(best, odd << (-(-n // odd) - 1).bit_length())
                odd *= 3
            fives *= 5
        return best


@dataclass(frozen=True)
class PcaBasis:
    """Top-M principal directions of a spectra corpus.

    ``components`` rows are orthonormal; ``explained_variance`` is
    non-increasing. The sign convention makes each component's
    largest-magnitude entry positive, so fits are deterministic. The
    variances are :func:`fit_pca`'s Ritz values: each is the variance along
    its component, and none exceeds the exact eigenvalue.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def transform(self, spectra: np.ndarray) -> np.ndarray:
        """Project spectra (vector or matrix rows) onto the basis.

        A matrix is centered and projected in blocks of rows, each written
        into the (n, M) output, so no centered copy of the whole matrix
        exists. The last block takes the remainder instead of being a short
        block of its own: on OpenBLAS 0.3.31 a product of a few rows can
        round differently from the whole-matrix product, while full-size
        blocks match it bit for bit.
        """
        x = np.asarray(spectra, dtype=np.float64)
        if x.ndim == 1:
            return (x - self.mean) @ self.components.T
        out = np.empty((x.shape[0], self.n_components))
        rows = _block_rows(x.shape[1])
        cuts = np.arange(rows, x.shape[0] - rows + 1, rows)
        for part, dest in zip(np.split(x, cuts), np.split(out, cuts)):
            np.matmul(part - self.mean, self.components.T, out=dest)
        return out


def estimate_norm_stats(trace: SampledTrace, calib_len: int = DEFAULT_CALIB_LEN) -> NormStats:
    """Sample mean and unbiased standard deviation over a calibration prefix."""
    if calib_len < MIN_CALIB_LEN:
        raise ValueError(f"calibration sample must cover at least {MIN_CALIB_LEN} samples")
    prefix = np.asarray(trace.samples[:calib_len], dtype=np.float64)
    if prefix.size < 2:
        raise ValueError("trace shorter than two samples")
    mean = float(prefix.mean())
    std = float(prefix.std(ddof=1))
    if std == 0.0:
        raise DegenerateTrace("calibration sample has zero variance")
    return NormStats(mean=mean, std=std)


def estimate_tau(transmissions: Sequence[DecodedTransmission]) -> Tau:
    """Mean duration of the decoded transmissions."""
    if len(transmissions) == 0:
        raise EmptyInput("no transmissions to estimate the window from")
    return Tau(float(np.mean([t.duration for t in transmissions])))


def _block_rows(width: int) -> int:
    """Rows of a float64 matrix ``width`` wide in one block of about _SPECTRA_BLOCK_BYTES."""
    return max(1, _SPECTRA_BLOCK_BYTES // (8 * width))


@functools.lru_cache(maxsize=64)
def tukey_window(length: int, params: TukeyParams = TukeyParams()) -> np.ndarray:
    """Symmetric tapered-cosine window coefficients (cached, read-only)."""
    if length < 2:
        raise ValueError("window length must be at least 2")
    alpha = params.alpha
    w = np.ones(length)
    if alpha > 0.0:
        n = np.arange(length)
        edge = alpha * (length - 1) / 2.0
        left = n < edge
        right = n > (length - 1) - edge
        w[left] = 0.5 * (1 + np.cos(np.pi * (n[left] / edge - 1)))
        w[right] = 0.5 * (1 + np.cos(np.pi * ((n[right] - (length - 1)) / edge + 1)))
        # exact zeros at the taper endpoints
        w[0] = 0.0
        w[-1] = 0.0
    w.flags.writeable = False
    return w


def fit_pca(spectra: np.ndarray, n_components: int) -> PcaBasis:
    """Top-M principal directions of mean-centered spectra rows by variance.

    Method of snapshots: with X the (n, f) spectra, mu their column means and
    C = X - mu, work with the smaller Gram matrix G, of size d = min(n, f):
    CᵀC when n >= f, CCᵀ when n < f. Neither is formed from C: CᵀC is
    XᵀX - n mu muᵀ and CCᵀ is XXᵀ - r1ᵀ - 1rᵀ + |mu|² 11ᵀ with r = X mu,
    one symmetric product of X with itself (a rank-k update, which copies
    nothing) less an exactly symmetric correction, subtracted in blocks of
    rows. Chan, Golub & LeVeque ("Algorithms for computing the sample
    variance", 1983) bound this one-pass form's cancellation error by eps
    times the uncentered scale, at most lambda_max + n |mu|², and the rank
    floor is set from that sum.

    The top M pairs come from block subspace iteration with Rayleigh–Ritz
    (Halko, Martinsson & Tropp, "Finding structure with randomness", 2011):
    a fixed-seed Gaussian (d, M + 10) block goes through four
    ``Q = qr(G @ Q)`` steps, and an ``eigh`` of the projected matrix gives
    the Ritz pairs. Unless M + 10 < d // 4 the block is all d columns, and
    Rayleigh–Ritz is then exact. The projected matrix is QᵀGQ for n >= f.
    For n < f the block is first carried to feature space as W = qr(CᵀQ)
    and the matrix is WᵀCᵀCW, with C applied as X - mu, so the Ritz vectors
    are components and the projections stay decorrelated. The Ritz values
    divided by n - 1 are the explained variances.
    """
    x = np.asarray(spectra, dtype=np.float64)
    n, f = x.shape
    if n_components < 1:
        raise ValueError(f"PCA needs at least one component, got {n_components}")
    if n <= n_components:
        raise RankDeficient(
            f"PCA needs more rows than components: {n} rows, {n_components} components requested"
        )
    mean = x.mean(axis=0)
    # NaN and inf carry through a column's sum, so a non-finite entry makes
    # its column's mean non-finite: no n x f mask is needed to find one
    if not np.isfinite(mean).all():
        raise DegenerateTrace("spectra contain non-finite values")
    root = np.sqrt(n) * mean  # outer(root, root) is n mu muᵀ and exactly symmetric
    tall = n >= f
    if tall:
        gram = x.T @ x
        rows = _block_rows(f)
        for lo in range(0, f, rows):
            gram[lo : lo + rows] -= np.outer(root[lo : lo + rows], root)
    else:
        gram = x @ x.T
        r, sq = x @ mean, mean @ mean
        rows = _block_rows(n)
        for lo in range(0, n, rows):  # (r_i + r_j) - |mu|² is exactly symmetric
            gram[lo : lo + rows] -= r[lo : lo + rows, None] + r - sq
    d = gram.shape[0]
    block = n_components + _RITZ_OVERSAMPLE
    if block >= d // 4:
        block = d
    q = np.random.default_rng(_RITZ_SEED).standard_normal((d, block))
    for _ in range(_RITZ_STEPS):
        q = np.linalg.qr(gram @ q)[0]
    if tall:
        small = q.T @ gram @ q
    else:
        q = np.linalg.qr(x.T @ q - np.outer(mean, q.sum(axis=0)))[0]
        projected = x @ q - mean @ q
        small = projected.T @ projected
    del gram
    evals, ritz = np.linalg.eigh(small)
    evecs = q @ ritz
    evals, evecs = evals[::-1], evecs[:, ::-1]
    # Rounding in G and in eigh moves every eigenvalue by about eps times the
    # largest eigenvalue of XᵀX, at most lambda_max + n |mu|²: rank counts
    # above that. The SVD tolerance is not squared, since G squares the
    # condition number; a Ritz vector outside G's range has a Rayleigh
    # quotient of rounding size.
    tol = (evals[0] + float(root @ root)) * max(n, f) * np.finfo(np.float64).eps
    rank = int(np.sum(evals > tol))
    if rank < n_components:
        raise RankDeficient(
            f"only {rank} nonzero-variance directions available, {n_components} requested"
        )
    top = evals[:n_components]
    components = evecs[:, :n_components].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaBasis(mean=mean, components=components, explained_variance=top / (n - 1))


def segments_fit(
    trace: SampledTrace, times: Sequence[float], tau: Tau
) -> tuple[np.ndarray, np.ndarray]:
    """Each time's segment start sample, and whether its segment lies inside the trace."""
    # SampledTrace.index_of for every time at once: np.rint rounds half to
    # even, as Python's round does
    offsets = (np.asarray(times, dtype=np.float64) - trace.start_time) * trace.sample_rate
    starts = np.rint(offsets).astype(np.int64)
    fits = (starts >= 0) & (starts + tau.sample_count(trace.sample_rate) <= trace.samples.size)
    return starts, fits


def _spectra(
    trace: SampledTrace,
    stats: NormStats,
    times: Sequence[float],
    tau: Tau,
    win: TukeyParams,
) -> np.ndarray:
    """Normalized, tapered segment spectra, one row per start time."""
    n_samples = tau.sample_count(trace.sample_rate)
    starts, fits = segments_fit(trace, times, tau)
    if not fits.all():
        raise OutOfBounds("a transmission window falls outside the trace")
    window = tukey_window(n_samples, win)
    out = np.empty((starts.size, n_samples // 2 + 1))
    rows = _block_rows(n_samples)
    buffer = np.empty((min(rows, starts.size), n_samples))
    for lo in range(0, starts.size, rows):
        part = starts[lo : lo + rows].tolist()
        block = buffer[: len(part)]
        for row, start in zip(block, part):
            row[:] = trace.samples[start : start + n_samples]
        block -= stats.mean
        block /= stats.std
        block *= window
        np.abs(np.fft.rfft(block, axis=1), out=out[lo : lo + rows])
    return out


def extract_feature(
    trace: SampledTrace,
    stats: NormStats,
    t: float,
    tau: Tau,
    win: TukeyParams,
    basis: PcaBasis,
) -> np.ndarray:
    """Feature vector for one transmission start time against one trace.

    The window may well cover an interval where this ECU was not
    transmitting; that is the non-transmission class by construction.
    The pipeline does not call this; it is kept only because the frozen
    benchmark harness (``bench/layers.py``) wraps it by name.
    """
    return basis.transform(_spectra(trace, stats, [t], tau, win)[0])


def ecu_spectra(
    trace: SampledTrace,
    stats: NormStats,
    transmissions: Sequence[DecodedTransmission],
    tau: Tau,
    win: TukeyParams,
) -> np.ndarray:
    """Spectra matrix (one row per transmission) for a single ECU trace."""
    return _spectra(trace, stats, [tx.t for tx in transmissions], tau, win)

