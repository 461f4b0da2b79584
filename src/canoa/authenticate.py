"""Sender attribution and impersonation-attack classification.

Scoring has one path. :func:`score` gives every source address's
calibrated transmission probability for a batch of transmissions, and
:func:`decide` turns every row of that matrix into a :class:`Verdict`.
:func:`authenticate_all` is the two, and :func:`attribute` is a batch of one.

The winning model (highest calibrated transmission probability, above
the decision threshold delta) names the actual sender:

- winner owned by the purported sender's ECU -> Authentic (confusion
  between two addresses of the same ECU still identifies the
  transmitting ECU correctly, so it never escalates);
- winner owned by another ECU -> Impersonation, that ECU is flagged
  compromised;
- no model above delta -> AddedModule (nobody legitimate transmitted).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import BundleMismatch
from .features import NormStats, Tau, TukeyParams, _block_spectra
from .frames import DecodedTransmission, SourceAddressMap
from .svm import platt_proba
from .trace import SampledTrace

TIE_TOLERANCE = 1e-12


class Decision(Enum):
    AUTHENTIC = "authentic"
    IMPERSONATION = "impersonation"
    ADDED_MODULE = "added_module"


@dataclass(frozen=True)
class EcuModel:
    """The models of one ECU's source addresses, scored together on its spectra.

    Column j of ``weights`` (one row per spectrum bin), ``bias[j]`` and
    ``calibration[j]`` (the Platt pair ``(A, B)``) belong to the ECU's j-th
    source address in ascending order (:meth:`SourceAddressMap.owned`).
    """

    stats: NormStats
    weights: np.ndarray  # (F, k)
    bias: np.ndarray  # (k,)
    calibration: np.ndarray  # (k, 2)


@dataclass(frozen=True)
class ModelBundle:
    """One model per ECU of the map, in ECU order, plus the shared pipeline parameters."""

    ecus: tuple[EcuModel, ...]
    samap: SourceAddressMap
    tau: Tau
    window: TukeyParams
    sample_rate: float  # of the power traces the models were trained on
    delta: float = 0.5

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError("sample rate must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if len(self.ecus) != len(self.samap.ecus):
            raise ValueError(
                f"the map's {len(self.samap.ecus)} ECUs {self.samap.ecus} need one model each, "
                f"found {len(self.ecus)}"
            )
        n_bins = self.tau.sample_count(self.sample_rate) // 2 + 1
        for ecu, e in zip(self.samap.ecus, self.ecus):
            k = len(self.samap.owned(ecu))
            shapes = (e.weights.shape, e.bias.shape, e.calibration.shape)
            if shapes != ((n_bins, k), (k,), (k, 2)):
                raise ValueError(
                    f"ECU {ecu} weights, biases and calibrations have shapes {shapes}, "
                    f"but {k} SAs and a {self.tau.value} s segment at {self.sample_rate} Hz "
                    f"({n_bins} spectrum bins) need {((n_bins, k), (k,), (k, 2))}"
                )
            if not all(np.isfinite(a).all() for a in (e.weights, e.bias, e.calibration)):
                raise ValueError(f"ECU {ecu} weights, biases and calibrations must be finite")


@dataclass(frozen=True)
class Verdict:
    """Outcome of authenticating one transmission: what :func:`decide` sets."""

    t: float
    claimed_sa: int | None
    p_tx: dict[int, float]  # per-SA calibrated transmission probability, in SA order
    attributed_sa: int  # the winner, regardless of delta
    attributed_ecu: int  # the winner's owner
    decision: Decision
    tie: bool
    multiple_positive: tuple[int, ...]  # the SAs above delta, when more than one is

    @property
    def flagged_compromised(self) -> int | None:
        """The ECU an impersonation flags as compromised: the winner's."""
        return self.attributed_ecu if self.decision is Decision.IMPERSONATION else None

    @property
    def true_source(self) -> tuple[int, int] | None:
        """(ecu, sa) of an impersonation's actual sender."""
        flagged = self.flagged_compromised
        return None if flagged is None else (flagged, self.attributed_sa)


def softmax(v: np.ndarray) -> np.ndarray:
    """Exp-normalized over the last axis, stabilized by max subtraction."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.isfinite(v).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def score(
    transmissions: Sequence[DecodedTransmission],
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> np.ndarray:
    """Calibrated transmission probabilities, one row per transmission.

    Column k belongs to ``bundle.samap.sas[k]``. Scoring is block-major: for each
    block of transmissions, every ECU's segments are transformed together
    (see :mod:`canoa.features`), each ECU's spectra are scored for all of its
    addresses with one matrix product, and one sigmoid fills the block's
    rows. Memory follows the block, not the batch. Every ECU of the bundle
    needs a power trace at the bundle's sample rate that holds every
    transmission's segment, or this raises :class:`OutOfBounds`.
    """
    ecus = bundle.samap.ecus
    if not set(ecus).issubset(powers):
        raise BundleMismatch(f"bundle expects power channels {ecus}, found {sorted(powers)}")
    for ecu in ecus:
        rate = powers[ecu].sample_rate
        if rate != bundle.sample_rate:
            raise BundleMismatch(
                f"power trace of ECU {ecu} is sampled at {rate:.0f} Hz, "
                f"the bundle was trained at {bundle.sample_rate:.0f} Hz "
                "(bus.power_sample_rate sets the power channels' rate)"
            )
    sas = bundle.samap.sas
    p = np.empty((len(transmissions), len(sas)))
    if not transmissions:
        return p
    # every ECU's margins go side by side, in ECU order, then into p's columns
    columns = np.searchsorted(sas, [sa for ecu in ecus for sa in bundle.samap.owned(ecu)])
    bias = np.concatenate([model.bias for model in bundle.ecus])
    a, b = np.concatenate([model.calibration for model in bundle.ecus]).T
    blocks = _block_spectra(
        [powers[ecu] for ecu in ecus],
        [model.stats for model in bundle.ecus],
        [tx.t for tx in transmissions],
        bundle.tau.sample_count(bundle.sample_rate),
        bundle.window,
    )
    for lo, spectra in blocks:
        margins = np.concatenate([s @ model.weights for s, model in zip(spectra, bundle.ecus)], 1)
        p[lo : lo + len(margins), columns] = platt_proba(margins + bias, a, b)
    return p


def decide(
    transmissions: Sequence[DecodedTransmission], p: np.ndarray, bundle: ModelBundle
) -> list[Verdict]:
    """Every transmission's verdict from its row of :func:`score`, in one array pass."""
    sas, owners = bundle.samap.sas, bundle.samap.owners
    top = p.max(axis=1)
    contenders = top[:, None] - p <= TIE_TOLERANCE
    winner = contenders.argmax(axis=1)  # the lowest contending SA: samap.sas is sorted
    winner_ecu = np.array([owners[sa] for sa in sas])[winner].tolist()
    # an SA no ECU owns has no owner to match: None equals no ECU index
    authentic = np.array([owners.get(tx.sa) == e for tx, e in zip(transmissions, winner_ecu)], bool)
    decision = np.where(top > bundle.delta, np.where(authentic, 0, 1), 2)  # Decision's index
    decisions = list(Decision)
    positive = p > bundle.delta
    multiple = [
        tuple(np.compress(positive[i], sas).tolist()) if n > 1 else ()
        for i, n in enumerate(positive.sum(axis=1).tolist())
    ]
    contending = contenders.sum(axis=1).tolist()
    rows = zip(p.tolist(), winner.tolist(), winner_ecu, decision.tolist(), contending)
    return [
        Verdict(tx.t, tx.sa, dict(zip(sas, row)), sas[w], ecu, decisions[d], n > 1, positives)
        for tx, (row, w, ecu, d, n), positives in zip(transmissions, rows, multiple)
    ]


def attribute(
    transmission: DecodedTransmission,
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> Verdict:
    """Score every SA model at the transmission start and decide the sender: a batch of one."""
    return decide([transmission], score([transmission], powers, bundle), bundle)[0]


def authenticate_all(
    transmissions: Sequence[DecodedTransmission],
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> list[Verdict]:
    """Verdicts for many transmissions, in order."""
    return decide(transmissions, score(transmissions, powers, bundle), bundle)
