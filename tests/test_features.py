"""Feature-pipeline tests: normalization, windowing, spectra, PCA, and the datasets
:func:`canoa.workflow.build_bundle` labels from them."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canoa import features
from canoa.bus import lab_scenario, simulate, truck_scenario
from canoa.errors import DegenerateTrace, EmptyInput, OutOfBounds, RankDeficient
from canoa.features import (
    _SPECTRA_BLOCK_BYTES,
    NormStats,
    Tau,
    TukeyParams,
    _windows,
    ecu_spectra,
    estimate_norm_stats,
    estimate_tau,
    extract_feature,
    fit_pca,
    tukey_window,
)
from canoa.frames import DecodedTransmission, decode_transmissions
from canoa.trace import SampledTrace
from canoa.workflow import PipelineConfig, build_bundle


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
@example(2147)  # lab at 2 MHz -> 2160
@example(1073)  # lab.cfg (power at 1 MHz) -> 1080
@example(1576)  # truck_attack.cfg -> 1600
def test_segment_length_is_the_smallest_5_smooth_integer_at_least_n(n):
    got = Tau(float(n)).sample_count(1.0)
    assert got >= n
    assert is_5_smooth(got)
    assert not any(is_5_smooth(m) for m in range(n, got))


@pytest.mark.parametrize("tau", [0.4, 1.0])
def test_segment_of_at_most_one_sample_is_one_sample(tau):
    assert Tau(tau).sample_count(1.0) == 1  # round(0.4) = 0 and 1 = 2^0 3^0 5^0


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


@pytest.mark.parametrize("rows", [40, 50])
def test_pca_with_no_more_rows_than_components_names_both_counts(rows):
    x = np.random.default_rng(rows).normal(size=(rows, 100))
    with pytest.raises(RankDeficient, match=f"{rows} rows, 50 components requested"):
        fit_pca(x, 50)
    for m in (0, -1):  # a component count below one stays a caller's error
        with pytest.raises(ValueError, match="at least one component"):
            fit_pca(x, m)


def traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("shape", [(2000, 300), (300, 2000)], ids=["tall", "wide"])
def test_pca_makes_no_input_sized_copy(shape):
    # a centered copy is input-sized; without one, the traced peak is the
    # Gram matrix, its correction blocks and what the solver keeps
    x = np.random.default_rng(12).normal(size=shape)
    gram_bytes = 300 * 300 * 8
    _, peak = traced_peak(lambda: fit_pca(x, 10))
    assert peak < x.nbytes / 4 + 2 * gram_bytes


def test_transform_projects_blocks_into_one_output():
    rng = np.random.default_rng(13)
    f, m = 400, 10
    basis = fit_pca(rng.normal(size=(3 * f, f)), m)
    rows = _SPECTRA_BLOCK_BYTES // (8 * f)
    x = rng.normal(size=(9 * rows + 105, f))  # nine blocks, the last with a remainder
    expected = (x - basis.mean) @ basis.components.T
    coords, peak = traced_peak(lambda: basis.transform(x))
    assert coords.tobytes() == expected.tobytes()
    assert peak < x.nbytes / 4
    assert basis.transform(x[5]).tobytes() == ((x[5] - basis.mean) @ basis.components.T).tobytes()
    assert basis.transform(x[:0]).shape == (0, m)


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
    assert_matches_svd_oracle(x, 12)


@pytest.mark.parametrize("shape", [(300, 40), (40, 300), (1200, 3001)])
@pytest.mark.parametrize("rank", [5, 12])
def test_pca_exact_rank_is_counted(shape, rank):
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    assert fit_pca(x, rank).n_components == rank
    with pytest.raises(RankDeficient):
        fit_pca(x, rank + 1)


@pytest.mark.parametrize(
    "shape",
    [(300, 40), (2000, 400), (40, 300), (400, 2000)],
    ids=["tall-full", "tall-iterative", "wide-full", "wide-iterative"],
)
@pytest.mark.parametrize("rank", [5, 12])
def test_pca_gram_is_exact_under_a_large_offset(shape, rank):
    # either Gram matrix is formed uncentered: the offset's n |mu|² term is
    # 1e10 to 1e12 on these shapes, against centered eigenvalues of 1e3 to 1e6
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1])) + 1e3
    basis = fit_pca(x, rank)
    variances, directions = svd_oracle(x, rank)
    assert np.allclose(basis.explained_variance, variances, rtol=1e-8)
    cos = np.abs(np.sum(basis.components * directions, axis=1))
    assert cos.min() >= 1 - 1e-12
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


# ------------------------------------------------------- PCA: SVD oracle


def planted(shape, m, gap, seed):
    """Rows with m strong directions plus isotropic noise.

    The strong directions' variances run from 16 down to 1; the noise is
    scaled so the largest noise eigenvalue of the sample covariance is
    about ``1 / gap``.
    """
    rng = np.random.default_rng(seed)
    n, f = shape
    directions = np.linalg.qr(rng.normal(size=(f, m)))[0].T
    signal = (rng.normal(size=(n, m)) * np.geomspace(4.0, 1.0, m)) @ directions
    # the top noise eigenvalue is about sigma^2 (sqrt(n) + sqrt(f))^2 / n
    sigma = np.sqrt(n / gap) / (np.sqrt(n) + np.sqrt(f))
    return signal + sigma * rng.normal(size=shape)


def largest_sine(a, b):
    """Sine of the largest principal angle between two orthonormal row sets."""
    return float(np.linalg.norm(b - (b @ a.T) @ a, 2))


def assert_basis_invariants(basis):
    m = basis.n_components
    assert np.abs(basis.components @ basis.components.T - np.eye(m)).max() <= 1e-9
    assert np.all(np.diff(basis.explained_variance) <= 0)
    for row in basis.components:
        assert row[np.argmax(np.abs(row))] > 0


def assert_matches_svd_oracle(x, m):
    """fit_pca(x, m) is the SVD's basis: each component, its variance, decorrelated projections."""
    basis = fit_pca(x, m)
    variances, exact = svd_oracle(x, m)
    assert np.allclose(basis.explained_variance, variances, rtol=1e-6)
    for got, want in zip(basis.components, exact):
        assert largest_sine(want[None], got[None]) < 1e-8
    corr = np.corrcoef(basis.transform(x), rowvar=False)
    assert np.abs(corr - np.eye(m)).max() < 1e-9
    assert_basis_invariants(basis)


@pytest.mark.parametrize(
    "shape, planted_m, gap, m",
    [
        ((2000, 400), 8, 1e4, 8),
        ((300, 2000), 8, 1e4, 8),
        # three strong directions, then 17 components from the flat noise tail
        ((1500, 300), 3, 1e2, 20),
        ((250, 1500), 3, 1e2, 20),
    ],
    ids=["gapped-tall", "gapped-wide", "flat-tail-tall", "flat-tail-wide"],
)
def test_pca_matches_svd_oracle(shape, planted_m, gap, m):
    assert_matches_svd_oracle(planted(shape, planted_m, gap, seed=21), m)



def test_pca_subspace_iteration_is_bit_reproducible():
    # a repeated fit of the same leading subspace gives the same bytes
    x = planted((800, 200), 6, gap=1e2, seed=23)
    first, second = fit_pca(x, 6), fit_pca(x, 6)
    assert first.components.tobytes() == second.components.tobytes()
    assert first.explained_variance.tobytes() == second.explained_variance.tobytes()

@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 8),
    extra=st.integers(1, 120),
    longer=st.integers(0, 300),
    tall=st.booleans(),
    gap_exponent=st.floats(2.0, 6.0),
    seed=st.integers(0, 2**16),
)
def test_pca_matches_svd_oracle_on_drawn_shapes(m, extra, longer, tall, gap_exponent, seed):
    d = m + extra
    shape = (d + longer, d) if tall else (d, d + longer)
    assert_matches_svd_oracle(planted(shape, m, gap=10.0**gap_exponent, seed=seed), m)


# --------------------------------------------------------- extract_feature


@pytest.fixture(scope="module")
def tiny_run():
    sc = lab_scenario(frames_per_sa=8, sample_rate=2e6, seed=19)
    voltage, powers, truth = simulate(sc)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    return sc, powers, decoded


def ecu_features(trace, decoded, tau, n_components):
    """An ECU's normalization and PCA basis, fitted as build_bundle fits them."""
    stats = estimate_norm_stats(trace, 50_000)
    basis = fit_pca(ecu_spectra(trace, stats, decoded, tau, TukeyParams(0.25)), n_components)
    return stats, basis


@pytest.fixture(scope="module")
def tiny_bundle(tiny_run):
    sc, powers, decoded = tiny_run
    pcfg = PipelineConfig(n_components=10, calib_len=50_000)
    return build_bundle({k: powers[k] for k in range(5)}, decoded, sc.source_map(), pcfg)


def test_feature_length_is_component_count(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    stats, basis = ecu_features(powers[0], decoded, tau, 12)
    feat = extract_feature(powers[0], stats, decoded[0].t, tau, TukeyParams(0.25), basis)
    assert feat.shape == (12,)


def test_same_ecu_transmissions_cluster(tiny_bundle):
    # brute-force pairwise distances: a transmission's feature sits closer to
    # another transmission of the same ECU than to any non-transmission window
    ds = tiny_bundle.datasets[(0, 1)]
    own = ds.x[ds.y == 1]
    other = ds.x[ds.y == 0]
    d_own = np.linalg.norm(own[0] - own[1])
    d_cross = min(np.linalg.norm(own[0] - row) for row in other)
    assert d_own <= d_cross


def test_feature_at_non_transmitting_time_is_allowed(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    stats, basis = ecu_features(powers[4], decoded, tau, 10)
    # ECU 4 is not the transmitter of decoded[0]; slicing its trace is fine
    feat = extract_feature(powers[4], stats, decoded[0].t, tau, TukeyParams(0.25), basis)
    assert np.isfinite(feat).all()


def test_out_of_bounds_window_raises(tiny_run):
    sc, powers, decoded = tiny_run
    tau = estimate_tau(decoded)
    stats, basis = ecu_features(powers[0], decoded, tau, 10)
    end_time = powers[0].start_time + powers[0].samples.size / powers[0].sample_rate
    with pytest.raises(OutOfBounds):
        extract_feature(powers[0], stats, end_time - tau.value / 2, tau, TukeyParams(0.25), basis)


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


@pytest.mark.parametrize("layout", ["float32", "float64", "strided"])
def test_window_gather_equals_the_per_row_copy(layout):
    rng = np.random.default_rng(21)
    x = rng.normal(size=3 * 5000 if layout == "strided" else 5000)
    x = x[::3] if layout == "strided" else x.astype(layout)
    n = 1080
    starts = np.concatenate([[0, x.size - n], rng.integers(0, x.size - n + 1, 300)])
    block = np.empty((starts.size, n))
    block[...] = _windows(x, n)[starts]
    reference = np.empty_like(block)
    for row, start in zip(reference, starts.tolist()):
        row[:] = x[start : start + n]
    assert block.tobytes() == reference.tobytes()
    assert np.array_equal(_windows(x, n), np.lib.stride_tricks.sliding_window_view(x, n))
    assert not _windows(x, n).flags.writeable
    assert _windows(x[: n - 1], n).shape == (0, n)


def test_spectra_of_several_traces_equal_each_traces_own(monkeypatch):
    # scoring transforms every ECU's segments in one block; each trace's rows
    # must be the bits training computes for that trace alone
    rate, n_samples = 1e6, 256
    rng = np.random.default_rng(22)
    traces = [
        SampledTrace(rng.normal(m, 1.0, 20_000 + 100 * k).astype(np.float32), rate, 0.5 + k * 1e-3)
        for k, m in enumerate((0.1, 0.4, -0.2))
    ]
    stats = [NormStats(0.1, 1.1), NormStats(0.4, 0.9), NormStats(-0.2, 1.3)]
    tau, win = Tau(n_samples / rate), TukeyParams(0.25)
    times = np.sort(rng.uniform(0.503, 0.518, 37)).tolist()
    alone = [ecu_spectra(t, s, [tx(x, 1) for x in times], tau, win) for t, s in zip(traces, stats)]
    monkeypatch.setattr(features, "_SPECTRA_BLOCK_BYTES", 5 * 3 * 8 * n_samples)  # 5 frames a block
    # each block's spectra are overwritten by the next block's, so copy them
    blocks = features._block_spectra(traces, stats, times, n_samples, win)
    blocks = [(lo, spectra.copy()) for lo, spectra in blocks]
    assert [lo for lo, _ in blocks] == list(range(0, 37, 5))
    together = np.concatenate([spectra for _, spectra in blocks], axis=1)
    assert together.tobytes() == np.stack(alone).tobytes()


def test_spectra_start_samples_round_like_index_of():
    # dyadic rate and times, so every window starts exactly half a sample off
    # the grid and rounding has to break the tie toward the even index
    rate, n_samples = 1024.0, 64
    trace = SampledTrace(
        np.random.default_rng(4).normal(0, 1, 4096).astype(np.float32), rate, start_time=0.25
    )
    stats, tau, win = NormStats(0.0, 1.0), Tau(n_samples / rate), TukeyParams(0.25)
    times = [trace.start_time + (k + 0.5) / rate for k in range(0, 4000, 37)]
    starts = [int(round((t - trace.start_time) * rate)) for t in times]
    assert any(s % 2 == 0 and s != k for s, k in zip(starts, range(0, 4000, 37)))
    got = ecu_spectra(trace, stats, [tx(t, 1) for t in times], tau, win)
    assert np.array_equal(got, unblocked_spectra(trace, stats, starts, n_samples, win))


# ------------------------------------------------- build_bundle's datasets


def test_dataset_shapes_and_label_sums(tiny_run, tiny_bundle):
    sc, powers, decoded = tiny_run
    datasets = tiny_bundle.datasets
    assert set(datasets) == {(k, k + 1) for k in range(5)}
    assert tiny_bundle.transmissions == decoded
    n = len(decoded)
    for (ecu, sa), ds in datasets.items():
        assert ds.x.shape == (n, 10)
        assert int(ds.y.sum()) == sum(1 for d in decoded if d.sa == sa)


def test_bundle_with_no_segment_inside_the_traces_is_empty_input(tiny_run):
    sc, powers, decoded = tiny_run
    cut = {k: SampledTrace(powers[k].samples[:1000], powers[k].sample_rate) for k in range(5)}
    assert estimate_tau(decoded).sample_count(powers[0].sample_rate) > 1000  # no segment fits
    with pytest.raises(EmptyInput, match="fits inside every power trace"):
        build_bundle(cut, decoded, sc.source_map())


@pytest.fixture(scope="module")
def truck_run():
    sc = truck_scenario(frames_per_sa=12, seed=29)
    voltage, powers, truth = simulate(sc)
    decoded = decode_transmissions(voltage, sc.bus.bitrate, sc.source_map())
    pcfg = PipelineConfig(n_components=8, calib_len=30_000)
    return truth, build_bundle({0: powers[0], 1: powers[1]}, decoded, sc.source_map(), pcfg)


def test_truck_dataset_labels_recount_via_ground_truth(truck_run):
    truth, result = truck_run
    datasets = result.datasets
    assert set(datasets) == {(0, 0), (0, 15), (1, 11)}
    counts = {sa: sum(1 for e in truth.entries if e.claimed_sa == sa) for sa in (0, 15, 11)}
    for (ecu, sa), ds in datasets.items():
        assert int(ds.y.sum()) == counts[sa]
        # negatives are the transmissions with every other source address
        assert int((ds.y == 0).sum()) == len(truth) - counts[sa]


def test_datasets_of_one_ecu_share_its_coordinates_and_differ_in_labels(truck_run):
    _, result = truck_run
    sa0, sa15 = result.datasets[(0, 0)], result.datasets[(0, 15)]
    assert sa0.x is sa15.x
    assert not np.array_equal(sa0.y, sa15.y)
    assert not (sa0.y & sa15.y).any()  # no transmission carries both addresses
    assert not np.array_equal(result.datasets[(1, 11)].x, sa0.x)


def test_pipeline_is_deterministic(tiny_run, tiny_bundle):
    sc, powers, decoded = tiny_run
    pcfg = PipelineConfig(n_components=10, calib_len=50_000)
    again = build_bundle({k: powers[k] for k in range(5)}, decoded, sc.source_map(), pcfg)
    a, b = tiny_bundle.datasets, again.datasets
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key].x, b[key].x)
        assert np.array_equal(a[key].y, b[key].y)
