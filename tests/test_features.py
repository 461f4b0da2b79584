"""Feature-pipeline tests: normalization, windowing, spectra, PCA, datasets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canoa.bus import lab_scenario, simulate, truck_scenario
from canoa.errors import DegenerateTrace, EmptyInput, OutOfBounds, RankDeficient
from canoa.features import (
    _SPECTRA_BLOCK_BYTES,
    NormStats,
    Tau,
    TukeyParams,
    build_datasets,
    ecu_spectra,
    estimate_norm_stats,
    estimate_tau,
    extract_feature,
    fit_pca,
    tukey_window,
)
from canoa.frames import DecodedTransmission, decode_transmissions
from canoa.trace import SampledTrace


def tx(t, sa, duration=1e-3):
    return DecodedTransmission(t=t, sa=sa, frame_id=sa, duration=duration, crc_ok=True)


# ---------------------------------------------------------- normalization


def test_norm_stats_match_moments_oracle():
    rng = np.random.default_rng(1)
    samples = rng.normal(5.0, 2.0, 100_000)
    stats = estimate_norm_stats(SampledTrace(samples, 1e6), calib_len=100_000)
    # direct moments oracle
    assert abs(stats.mean - samples.mean()) < 1e-12
    assert abs(stats.std - samples.std(ddof=1)) < 1e-12
    assert abs(stats.mean - 5.0) < 0.05 * 5.0
    assert abs(stats.std - 2.0) < 0.05 * 2.0


def test_constant_trace_is_degenerate():
    with pytest.raises(DegenerateTrace):
        estimate_norm_stats(SampledTrace(np.full(5000, 3.3), 1e6), calib_len=5000)


def test_zscore_of_calibration_prefix():
    rng = np.random.default_rng(2)
    samples = rng.normal(-1.0, 0.5, 20_000)
    stats = estimate_norm_stats(SampledTrace(samples, 1e6), calib_len=20_000)
    z = (samples - stats.mean) / stats.std
    assert abs(z.mean()) < 1e-12
    assert abs(z.std(ddof=1) - 1.0) < 1e-12


def test_calibration_length_precondition():
    with pytest.raises(ValueError):
        estimate_norm_stats(SampledTrace(np.zeros(500), 1e6), calib_len=500)


# ------------------------------------------------------------------- tau


def test_tau_is_arithmetic_mean_of_durations():
    txs = [tx(0.0, 1, 1.00e-3), tx(0.01, 2, 1.02e-3), tx(0.02, 3, 1.04e-3)]
    assert estimate_tau(txs).value == pytest.approx(1.02e-3, rel=1e-12)


def test_tau_limit_uses_first_n():
    txs = [tx(0.0, 1, 1e-3), tx(0.01, 2, 2e-3), tx(0.02, 3, 9e-3)]
    assert estimate_tau(txs, limit=2).value == pytest.approx(1.5e-3)


def test_tau_empty_input():
    with pytest.raises(EmptyInput):
        estimate_tau([])


def test_truck_shape_tau_at_250kbps():
    # no 8-byte CAN frame at 250 kbps can exceed 0.63 ms on the wire, so the
    # simulator's window sits near 0.53 ms for extended frames
    sc = truck_scenario(frames_per_sa=40, seed=3)
    voltage, _, _ = simulate(sc)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    tau = estimate_tau(decoded)
    assert 0.50e-3 <= tau.value <= 0.56e-3


# --------------------------------------------------------- segment length


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 100_000))
@example(2147)  # lab.cfg -> 2160
@example(1576)  # truck_attack.cfg -> 1600
def test_segment_length_is_the_smallest_5_smooth_integer_at_least_n(n):
    got = Tau(float(n)).sample_count(1.0)
    assert got >= n
    assert is_5_smooth(got)
    assert not any(is_5_smooth(m) for m in range(n, got))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-5, 1e-2), st.floats(1e4, 1e7))
def test_segment_is_never_shorter_than_the_window(tau, rate):
    assert Tau(tau).sample_count(rate) >= round(tau * rate)


# ----------------------------------------------------------------- window


def test_tukey_alpha_zero_is_rectangular():
    assert np.array_equal(tukey_window(64, TukeyParams(0.0)), np.ones(64))


def test_tukey_alpha_one_is_hann():
    n = 101
    w = tukey_window(n, TukeyParams(1.0))
    hann = 0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / (n - 1)))
    assert np.allclose(w, hann, atol=1e-12)


@pytest.mark.parametrize("length", [16, 57, 200])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0])
def test_tukey_endpoints_exactly_zero_for_positive_alpha(length, alpha):
    w = tukey_window(length, TukeyParams(alpha))
    assert w[0] == 0.0
    assert w[-1] == 0.0
    assert w.max() <= 1.0


def test_tukey_window_is_cached_read_only_and_closed_form():
    length, alpha = 150, 0.3
    w = tukey_window(length, TukeyParams(alpha))
    assert tukey_window(length, TukeyParams(alpha)) is w
    n = np.arange(length)
    edge = alpha * (length - 1) / 2
    closed = np.ones(length)
    closed[n < edge] = 0.5 * (1 - np.cos(np.pi * n[n < edge] / edge))
    closed[::-1][n < edge] = closed[n < edge]
    assert np.allclose(w, closed, rtol=0, atol=1e-12)
    for window in (w, tukey_window(length, TukeyParams(0.0))):
        with pytest.raises(ValueError):
            window[1] = 2.0
    assert w[1] != 2.0


# --------------------------------------------------------------- spectrum


def one_spectrum(x):
    """``x``'s magnitude spectrum through ecu_spectra: identity normalization,
    a rectangular window, and a trace exactly one segment long, so ``x.size``
    must be 5-smooth."""
    trace = SampledTrace(np.asarray(x, dtype=np.float64), 1.0)
    win = TukeyParams(0.0)
    return ecu_spectra(trace, NormStats(0.0, 1.0), [tx(0.0, 1)], Tau(float(x.size)), win)[0]


def test_spectrum_constant_vector_is_dc_only():
    n, c = 64, 2.5
    mags = one_spectrum(np.full(n, c))
    assert mags.shape == (n // 2 + 1,)
    assert mags[0] == pytest.approx(n * c, abs=1e-9)
    assert np.all(mags[1:] < 1e-9)


def test_spectrum_pure_sinusoid_hits_single_bin():
    n, k0 = 128, 17
    x = np.cos(2 * np.pi * k0 * np.arange(n) / n)
    mags = one_spectrum(x)
    assert mags[k0] == pytest.approx(n / 2, rel=1e-6)
    others = np.delete(mags, k0)
    assert np.all(others < 1e-6 * mags[k0])


@pytest.mark.parametrize("n", [64, 75])
def test_parseval_identity(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    mags = one_spectrum(x)
    # reconstruct the two-sided energy from the one-sided magnitudes
    two_sided = mags[0] ** 2 + 2 * (mags[1:-1] ** 2).sum()
    if n % 2 == 0:
        two_sided += mags[-1] ** 2
    else:
        two_sided += 2 * mags[-1] ** 2
    assert (x**2).sum() == pytest.approx(two_sided / n, rel=1e-6)


def test_spectrum_odd_length_output():
    assert one_spectrum(np.ones(15)).shape == (8,)


# -------------------------------------------------------------------- PCA


def test_pca_single_direction_of_variance():
    rng = np.random.default_rng(3)
    n, f = 50, 6
    x = np.zeros((n, f))
    x[:, 0] = rng.normal(0, 3.0, n)
    basis = fit_pca(x, 1)
    e1 = np.zeros(f)
    e1[0] = 1.0
    assert np.allclose(basis.components[0], e1, atol=1e-12)
    assert basis.explained_variance[0] == pytest.approx(x[:, 0].var(ddof=1), rel=1e-12)


def test_pca_projections_are_decorrelated():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(400, 12)) @ rng.normal(size=(12, 12))
    basis = fit_pca(x, 5)
    coords = basis.transform(x)
    corr = np.corrcoef(coords, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.abs(off).max() < 1e-6


def test_pca_matches_dense_eigendecomposition_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 20)) * rng.uniform(0.5, 4.0, size=20)
    m = 8
    basis = fit_pca(x, m)
    # independent oracle: eigendecomposition of the sample covariance
    cov = np.cov(x, rowvar=False, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1][:m]
    eigvecs = eigvecs[:, ::-1][:, :m]
    assert np.allclose(basis.explained_variance, eigvals, rtol=1e-6)
    for i in range(m):
        assert abs(float(basis.components[i] @ eigvecs[:, i])) == pytest.approx(1.0, abs=1e-8)


def test_pca_rows_orthonormal():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 15))
    basis = fit_pca(x, 7)
    gram = basis.components @ basis.components.T
    assert np.allclose(gram, np.eye(7), atol=1e-9)
    assert np.all(np.diff(basis.explained_variance) <= 1e-12)


def test_pca_reconstruction_error_non_increasing_in_m():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 10)) @ rng.normal(size=(10, 10))
    errors = []
    for m in range(1, 10):
        basis = fit_pca(x, m)
        coords = basis.transform(x)
        recon = coords @ basis.components + basis.mean
        errors.append(float(((x - recon) ** 2).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_pca_rank_deficient():
    x = np.zeros((40, 5))
    x[:, 0] = np.arange(40)
    with pytest.raises(RankDeficient):
        fit_pca(x, 3)


def test_pca_tall_input_frees_its_centered_copy_before_eigh():
    # the centered copy is input-sized; held through eigh, the traced peak is
    # that copy plus two Gram sizes (the Gram matrix and eigh's eigenvectors)
    x = np.random.default_rng(12).normal(size=(2000, 300))
    gram_bytes = 300 * 300 * 8
    tracemalloc.start()
    try:
        fit_pca(x, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 1.5 * gram_bytes


def test_pca_deterministic_sign_convention():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 9))
    b1 = fit_pca(x, 4)
    b2 = fit_pca(x, 4)
    assert np.array_equal(b1.components, b2.components)
    for row in b1.components:
        assert row[np.argmax(np.abs(row))] > 0


def svd_oracle(x, m):
    """Reference PCA: thin SVD of the centered matrix."""
    _, svals, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    return svals[:m] ** 2 / (x.shape[0] - 1), vt[:m]


def test_pca_wide_input_matches_svd_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 300)) * rng.uniform(0.5, 4.0, size=300)
    m = 12
    basis = fit_pca(x, m)
    variances, directions = svd_oracle(x, m)
    assert np.abs(basis.components @ basis.components.T - np.eye(m)).max() <= 1e-9
    assert np.allclose(basis.explained_variance, variances, rtol=1e-6)
    cos = np.abs(np.sum(basis.components * directions, axis=1))
    assert cos.min() >= 1 - 1e-8


@pytest.mark.parametrize("shape", [(300, 40), (40, 300), (1200, 3001)])
@pytest.mark.parametrize("rank", [5, 12])
def test_pca_exact_rank_is_counted(shape, rank):
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    assert fit_pca(x, rank).n_components == rank
    with pytest.raises(RankDeficient):
        fit_pca(x, rank + 1)


@pytest.mark.parametrize("shape", [(60, 9), (9, 60)])
def test_pca_sign_convention_in_both_gram_branches(shape):
    rng = np.random.default_rng(10)
    basis = fit_pca(rng.normal(size=shape), 4)
    for row in basis.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_non_finite_spectra_are_degenerate():
    x = np.random.default_rng(11).normal(size=(30, 8))
    x[4, 2] = np.nan
    with pytest.raises(DegenerateTrace, match="non-finite"):
        fit_pca(x, 3)


# --------------------------------------------------------- extract_feature


@pytest.fixture(scope="module")
def tiny_run():
    sc = lab_scenario(frames_per_sa=8, sample_rate=2e6, seed=19)
    voltage, powers, truth = simulate(sc)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    return sc, powers, decoded


def test_feature_length_is_component_count(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    datasets, bases, stats = build_datasets(
        {k: powers[k] for k in range(5)},
        decoded,
        sc.source_map(),
        tau,
        TukeyParams(0.25),
        n_components=12,
        calib_len=50_000,
    )
    feat = extract_feature(powers[0], stats[0], decoded[0].t, tau, TukeyParams(0.25), bases[0])
    assert feat.shape == (12,)


def test_same_ecu_transmissions_cluster(tiny_run):
    # brute-force pairwise distances: a transmission's feature sits closer to
    # another transmission of the same ECU than to any non-transmission window
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    datasets, bases, stats = build_datasets(
        {k: powers[k] for k in range(5)},
        decoded,
        sc.source_map(),
        tau,
        n_components=10,
        calib_len=50_000,
    )
    ds = datasets[(0, 1)]
    own = ds.x[ds.y == 1]
    other = ds.x[ds.y == 0]
    d_own = np.linalg.norm(own[0] - own[1])
    d_cross = min(np.linalg.norm(own[0] - row) for row in other)
    assert d_own <= d_cross


def test_feature_at_non_transmitting_time_is_allowed(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    _, bases, stats = build_datasets(
        {k: powers[k] for k in range(5)},
        decoded,
        sc.source_map(),
        tau,
        n_components=10,
        calib_len=50_000,
    )
    # ECU 4 is not the transmitter of decoded[0]; slicing its trace is fine
    feat = extract_feature(powers[4], stats[4], decoded[0].t, tau, TukeyParams(0.25), bases[4])
    assert np.isfinite(feat).all()


def test_out_of_bounds_window_raises(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    _, bases, stats = build_datasets(
        {k: powers[k] for k in range(5)},
        decoded,
        sc.source_map(),
        tau,
        n_components=10,
        calib_len=50_000,
    )
    end_time = powers[0].start_time + powers[0].duration
    with pytest.raises(OutOfBounds):
        extract_feature(
            powers[0], stats[0], end_time - tau.value / 2, tau, TukeyParams(0.25), bases[0]
        )


def test_normalization_invariance_under_trace_scaling(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    win = TukeyParams(0.25)
    trace = powers[0]
    scaled = SampledTrace(trace.samples * 3.7, trace.sample_rate, trace.start_time)
    stats = estimate_norm_stats(trace, 50_000)
    stats_scaled = estimate_norm_stats(scaled, 50_000)
    spec_a = ecu_spectra(trace, stats, decoded, tau, win)
    spec_b = ecu_spectra(scaled, stats_scaled, decoded, tau, win)
    # scaling cancels out of the z-scored segments (up to float32 storage)
    assert np.linalg.norm(spec_a - spec_b) <= 1e-6 * np.linalg.norm(spec_a)
    basis_a = fit_pca(spec_a, 10)
    basis_b = fit_pca(spec_b, 10)
    fa = extract_feature(trace, stats, decoded[0].t, tau, win, basis_a)
    fb = extract_feature(scaled, stats_scaled, decoded[0].t, tau, win, basis_b)
    assert np.linalg.norm(fa - fb) <= 1e-6 * np.linalg.norm(fa)


def unblocked_spectra(trace, stats, starts, n_samples, win):
    """Reference: every segment gathered and transformed as one matrix."""
    segs = trace.samples[np.asarray(starts)[:, None] + np.arange(n_samples)].astype(np.float64)
    segs -= stats.mean
    segs /= stats.std
    segs *= tukey_window(n_samples, win)[None, :]
    return np.abs(np.fft.rfft(segs, axis=1))


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_blocked_spectra_equal_unblocked_reference(blocks, extra):
    rate, n_samples = 1e6, 256
    block = _SPECTRA_BLOCK_BYTES // (8 * n_samples)
    rows = blocks * block + extra
    rng = np.random.default_rng(rows)
    trace = SampledTrace(rng.normal(0.3, 1.2, 20_000).astype(np.float32), rate, start_time=0.5)
    stats, tau, win = NormStats(0.25, 1.1), Tau(n_samples / rate), TukeyParams(0.25)
    last = trace.samples.size - n_samples
    starts = rng.integers(0, last + 1, rows)
    starts[0] = 0
    starts[-1] = last
    txs = [tx(trace.start_time + s / rate, 1) for s in starts]
    got = ecu_spectra(trace, stats, txs, tau, win)
    assert np.array_equal(got, unblocked_spectra(trace, stats, starts, n_samples, win))
    with pytest.raises(OutOfBounds):
        ecu_spectra(trace, stats, txs + [tx(trace.start_time + (last + 1) / rate, 1)], tau, win)


def test_spectra_start_samples_round_like_index_of():
    # dyadic rate and times, so every window starts exactly half a sample off
    # the grid and rounding has to break the tie toward the even index
    rate, n_samples = 1024.0, 64
    trace = SampledTrace(
        np.random.default_rng(4).normal(0, 1, 4096).astype(np.float32), rate, start_time=0.25
    )
    stats, tau, win = NormStats(0.0, 1.0), Tau(n_samples / rate), TukeyParams(0.25)
    times = [trace.start_time + (k + 0.5) / rate for k in range(0, 4000, 37)]
    starts = [trace.index_of(t) for t in times]
    assert any(s % 2 == 0 and s != k for s, k in zip(starts, range(0, 4000, 37)))
    got = ecu_spectra(trace, stats, [tx(t, 1) for t in times], tau, win)
    assert np.array_equal(got, unblocked_spectra(trace, stats, starts, n_samples, win))


# ----------------------------------------------------------- build_datasets


def test_dataset_shapes_and_label_sums(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    datasets, _, _ = build_datasets(
        {k: powers[k] for k in range(5)},
        decoded,
        sc.source_map(),
        tau,
        n_components=10,
        calib_len=50_000,
    )
    assert set(datasets) == {(k, k + 1) for k in range(5)}
    n = len(decoded)
    for (ecu, sa), ds in datasets.items():
        assert ds.x.shape == (n, 10)
        assert int(ds.y.sum()) == sum(1 for d in decoded if d.sa == sa)


def test_truck_dataset_labels_recount_via_ground_truth():
    sc = truck_scenario(frames_per_sa=12, seed=29)
    voltage, powers, truth = simulate(sc)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    tau = estimate_tau(decoded)
    datasets, _, _ = build_datasets(
        {0: powers[0], 1: powers[1]}, decoded, sc.source_map(), tau,
        n_components=8, calib_len=30_000,
    )
    assert set(datasets) == {(0, 0), (0, 15), (1, 11)}
    counts = {sa: sum(1 for e in truth.entries if e.claimed_sa == sa) for sa in (0, 15, 11)}
    for (ecu, sa), ds in datasets.items():
        assert int(ds.y.sum()) == counts[sa]
        # negatives are the transmissions with every other source address
        assert int((ds.y == 0).sum()) == len(truth) - counts[sa]


def test_pipeline_is_deterministic(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    kw = dict(n_components=10, calib_len=50_000)
    a, _, _ = build_datasets({k: powers[k] for k in range(5)}, decoded, sc.source_map(), tau, **kw)
    b, _, _ = build_datasets({k: powers[k] for k in range(5)}, decoded, sc.source_map(), tau, **kw)
    for key in a:
        assert np.array_equal(a[key].x, b[key].x)
        assert np.array_equal(a[key].y, b[key].y)
