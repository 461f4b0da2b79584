"""Power-trace feature extraction.

The pipeline for one transmission (t, S) against one ECU's power trace:
normalize by calibration statistics, slice a transmission-window-length
segment starting at t, taper it with a Tukey window, take the one-sided
FFT magnitude. Training projects the spectra onto the ECU's
principal-component basis; a trained model has that projection folded
into its weights, so scoring stops at the spectrum.

Every segment has :meth:`Tau.sample_count` samples: ``round(tau *
sample_rate)`` rounded up to the next 5-smooth integer (2^a 3^b 5^c), a
length the FFT transforms several times faster than one with a large
prime factor. The segment grows by at most 6.7 % once it is 500
samples or longer, and still covers the whole frame. A segment starts at
the sample nearest its transmission's time, and :func:`segments_fit`
is the one test of whether it lies inside a trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateTrace, EmptyInput, OutOfBounds, RankDeficient
from .frames import DecodedTransmission, SourceAddressMap
from .trace import SampledTrace

DEFAULT_CALIB_LEN = 100_000
MIN_CALIB_LEN = 1000
DEFAULT_COMPONENTS = 50
# Segments are normalized, tapered and transformed in blocks of rows whose
# float64 copy is about this size, so a block stays in cache between steps.
_SPECTRA_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class NormStats:
    """Per-ECU mean and standard deviation from a calibration sample."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")


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
    largest-magnitude entry positive, so fits are deterministic.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def transform(self, spectra: np.ndarray) -> np.ndarray:
        """Project spectra (vector or matrix rows) onto the basis."""
        return (np.asarray(spectra, dtype=np.float64) - self.mean) @ self.components.T


@dataclass(frozen=True)
class FeatureDataset:
    """Per-(ECU, SA) feature matrix with binary transmission labels.

    ``y[i] = 1`` when transmission i was observed with this dataset's
    source address, 0 when it carried any other source address.
    """

    x: np.ndarray
    y: np.ndarray
    sa: int
    ecu: int

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("feature matrix and labels disagree on row count")
        if not np.isfinite(self.x).all():
            raise ValueError("feature matrix contains non-finite values")


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


def estimate_tau(
    transmissions: Sequence[DecodedTransmission], limit: int | None = None
) -> Tau:
    """Mean duration of the first ``limit`` decoded transmissions (default all)."""
    if len(transmissions) == 0:
        raise EmptyInput("no transmissions to estimate the window from")
    chosen = transmissions if limit is None else transmissions[:limit]
    return Tau(float(np.mean([t.duration for t in chosen])))


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

    Method of snapshots: with C the centered (n, f) matrix, eigendecompose
    the smaller Gram matrix. For n >= f that is the (f, f) matrix CᵀC, whose
    eigenvectors are the components; for n < f it is the (n, n) matrix CCᵀ,
    whose eigenvectors u give the components Cᵀu / sqrt(lambda). Either way
    the eigenvalues divided by n - 1 are the explained variances.
    """
    x = np.asarray(spectra, dtype=np.float64)
    n, f = x.shape
    if not (n > n_components >= 1):
        raise ValueError("need more rows than components and at least one component")
    if not np.isfinite(x).all():
        raise DegenerateTrace("spectra contain non-finite values")
    mean = x.mean(axis=0)
    centered = x - mean
    tall = n >= f
    if tall:
        gram = centered.T @ centered
        del centered  # the components come from the Gram matrix alone; free n x f before eigh
    else:
        gram = centered @ centered.T
    evals, evecs = np.linalg.eigh(gram)
    del gram
    evals, evecs = evals[::-1], evecs[:, ::-1]
    # Rounding in the Gram matrix and in eigh perturbs every eigenvalue by
    # about lambda_max * eps, so that is the floor to count rank against. The
    # SVD tolerance must not be squared: the Gram matrix squares the condition
    # number, and a squared tolerance would count rounding noise as rank.
    tol = evals[0] * max(n, f) * np.finfo(np.float64).eps
    rank = int(np.sum(evals > tol))
    if rank < n_components:
        raise RankDeficient(
            f"only {rank} nonzero-variance directions available, {n_components} requested"
        )
    top = evals[:n_components]
    if tall:
        components = evecs[:, :n_components].T.copy()
    else:
        components = (centered.T @ evecs[:, :n_components] / np.sqrt(top)).T.copy()
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
    rows = max(1, _SPECTRA_BLOCK_BYTES // (8 * n_samples))
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


def build_datasets(
    powers: Mapping[int, SampledTrace],
    transmissions: Sequence[DecodedTransmission],
    samap: SourceAddressMap,
    tau: Tau,
    win: TukeyParams = TukeyParams(),
    n_components: int = DEFAULT_COMPONENTS,
    calib_len: int = DEFAULT_CALIB_LEN,
) -> tuple[dict[tuple[int, int], FeatureDataset], dict[int, PcaBasis], dict[int, NormStats]]:
    """Labeled per-(ECU, SA) feature datasets from decoded transmissions.

    One PCA basis is fitted per ECU on that ECU's spectra over all
    transmissions; datasets for the ECU's source addresses share its
    feature rows and differ only in labels.
    """
    if len(transmissions) == 0:
        raise EmptyInput("no transmissions to featurize")
    datasets: dict[tuple[int, int], FeatureDataset] = {}
    bases: dict[int, PcaBasis] = {}
    stats_by_ecu: dict[int, NormStats] = {}
    sa_labels = np.array([-1 if tx.sa is None else tx.sa for tx in transmissions])
    for ecu in samap.ecus:
        trace = powers[ecu]
        stats = estimate_norm_stats(trace, min(calib_len, trace.samples.size))
        spectra = ecu_spectra(trace, stats, transmissions, tau, win)
        basis = fit_pca(spectra, n_components)
        coords = basis.transform(spectra)
        stats_by_ecu[ecu] = stats
        bases[ecu] = basis
        for sa, owner in sorted(samap.owners.items()):
            if owner != ecu:
                continue
            y = (sa_labels == sa).astype(np.int8)
            datasets[(ecu, sa)] = FeatureDataset(x=coords, y=y, sa=sa, ecu=ecu)
    return datasets, bases, stats_by_ecu
