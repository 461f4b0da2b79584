"""Sender attribution and impersonation-attack classification.

Scoring has one path. :func:`score` gives every source address's
calibrated transmission probability for a batch of transmissions: each
ECU's model scores all of its addresses on the magnitude spectra of its
power trace at the transmission starts, with one product by a weight
matrix that has the training PCA folded in. :func:`decide` turns one row
of that matrix into a :class:`Verdict`. :func:`authenticate_all` is
``score`` then ``decide`` per row, and :func:`attribute` is the same for
a batch of one.

The winning model (highest calibrated transmission probability, above
the decision threshold delta) names the actual sender:

- winner owned by the purported sender's ECU -> Authentic (confusion
  between two addresses of the same ECU still identifies the
  transmitting ECU correctly, so it never escalates);
- winner owned by another ECU -> Impersonation, that ECU is flagged
  compromised;
- no model above delta -> AddedModule (nobody legitimate transmitted).

A softmax over the per-model probabilities is carried in every verdict
so downstream reporting keeps a distribution that sums to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import BundleMismatch
from .features import NormStats, Tau, TukeyParams, ecu_spectra
from .frames import DecodedTransmission, SourceAddressMap
from .svm import TrainingMeta, platt_proba
from .trace import SampledTrace

TIE_TOLERANCE = 1e-12


class Decision(Enum):
    AUTHENTIC = "authentic"
    IMPERSONATION = "impersonation"
    ADDED_MODULE = "added_module"


@dataclass(frozen=True)
class EcuModel:
    """The models of one ECU's source addresses, scored together on its spectra.

    Column j of ``weights`` (one row per spectrum bin), ``bias[j]``,
    ``calibration[j]`` (the Platt pair ``(A, B)``) and ``meta[j]`` belong
    to ``sas[j]``.
    """

    ecu: int
    sas: tuple[int, ...]
    stats: NormStats
    weights: np.ndarray  # (F, k)
    bias: np.ndarray  # (k,)
    calibration: np.ndarray  # (k, 2)
    meta: tuple[TrainingMeta, ...]


@dataclass(frozen=True)
class ModelBundle:
    """One model per ECU of the map, for its SAs, plus the shared pipeline parameters."""

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
        n_bins = self.tau.sample_count(self.sample_rate) // 2 + 1
        sas = self.samap.sas
        for e in self.ecus:
            owned = tuple(sa for sa in sas if self.samap.owners[sa] == e.ecu)
            if e.sas != owned:
                raise ValueError(
                    f"ECU {e.ecu} scores SAs {list(e.sas)}, but the map gives it {list(owned)}"
                )
            k = len(e.sas)
            shapes = (e.weights.shape, e.bias.shape, e.calibration.shape, len(e.meta))
            if shapes != ((n_bins, k), (k,), (k, 2), k):
                raise ValueError(
                    f"ECU {e.ecu} weights, biases, calibrations and training records have "
                    f"shapes {shapes}, but {k} SAs and a {self.tau.value} s segment at "
                    f"{self.sample_rate} Hz ({n_bins} spectrum bins) need "
                    f"{((n_bins, k), (k,), (k, 2), k)}"
                )
            if not all(np.isfinite(a).all() for a in (e.weights, e.bias, e.calibration)):
                raise ValueError(f"ECU {e.ecu} weights, biases and calibrations must be finite")
        if [e.ecu for e in self.ecus] != self.samap.ecus:
            raise ValueError(f"the map's ECUs {self.samap.ecus} need one model each, in order")

    @property
    def sas(self) -> list[int]:
        """Every source address, in the column order of :func:`score`."""
        return self.samap.sas

    @property
    def training(self) -> dict[int, TrainingMeta]:
        """Each SA's training record, in SA order."""
        meta = {sa: m for e in self.ecus for sa, m in zip(e.sas, e.meta)}
        return {sa: meta[sa] for sa in self.sas}


@dataclass(frozen=True)
class Verdict:
    """Outcome of authenticating one transmission."""

    t: float
    claimed_sa: int | None
    p_tx: dict[int, float]           # per-SA calibrated transmission probability
    softmax_probs: dict[int, float]  # sums to one
    attributed_sa: int | None        # softmax winner, regardless of delta
    decision: Decision
    true_source: tuple[int, int] | None = None  # (ecu, sa) for impersonation
    flagged_compromised: int | None = None
    tie: bool = False
    multiple_positive: tuple[int, ...] = ()


def softmax(v: np.ndarray) -> np.ndarray:
    """Exp-normalized vector, stabilized by max subtraction."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.isfinite(v).all():
        raise ValueError("softmax input must be finite")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def score(
    transmissions: Sequence[DecodedTransmission],
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> np.ndarray:
    """Calibrated transmission probabilities, one row per transmission.

    Column k belongs to ``bundle.sas[k]``. Each ECU's spectra are computed
    once and scored for all of its addresses with one matrix product.
    Every ECU of the bundle needs a power trace at the bundle's sample rate.
    """
    if not set(bundle.samap.ecus).issubset(powers):
        raise BundleMismatch(
            f"bundle expects power channels {bundle.samap.ecus}, found {sorted(powers)}"
        )
    for model in bundle.ecus:
        rate = powers[model.ecu].sample_rate
        if rate != bundle.sample_rate:
            raise BundleMismatch(
                f"power trace of ECU {model.ecu} is sampled at {rate:.0f} Hz, "
                f"the bundle was trained at {bundle.sample_rate:.0f} Hz"
            )
    sas = bundle.sas
    p = np.empty((len(transmissions), len(sas)))
    if not transmissions:
        return p
    # one ECU's spectra at a time: they are the largest arrays scoring makes
    for model in bundle.ecus:
        spectra = ecu_spectra(
            powers[model.ecu], model.stats, transmissions, bundle.tau, bundle.window
        )
        margins = spectra @ model.weights + model.bias
        p[:, np.searchsorted(sas, model.sas)] = platt_proba(margins, *model.calibration.T)
    return p


def decide(claimed_sa: int | None, t: float, p_row: np.ndarray, bundle: ModelBundle) -> Verdict:
    """The verdict for one transmission from its row of :func:`score`.

    The winner is the maximal SA, ties resolved toward the lowest address.
    """
    sas = bundle.sas
    values = np.asarray(p_row, dtype=np.float64).tolist()
    top = max(values)
    contenders = [sa for sa, p in zip(sas, values) if top - p <= TIE_TOLERANCE]
    winner_sa = min(contenders)
    positives = tuple(sa for sa, p in zip(sas, values) if p > bundle.delta)
    decision, true_source, flagged = Decision.ADDED_MODULE, None, None
    if top > bundle.delta:
        winner_ecu = bundle.samap.owners[winner_sa]
        if claimed_sa is not None and bundle.samap.owners.get(claimed_sa) == winner_ecu:
            decision = Decision.AUTHENTIC
        else:
            decision = Decision.IMPERSONATION
            true_source, flagged = (winner_ecu, winner_sa), winner_ecu
    return Verdict(
        t=t,
        claimed_sa=claimed_sa,
        p_tx=dict(zip(sas, values)),
        softmax_probs=dict(zip(sas, softmax(values).tolist())),
        attributed_sa=winner_sa,
        decision=decision,
        true_source=true_source,
        flagged_compromised=flagged,
        tie=len(contenders) > 1,
        multiple_positive=positives if len(positives) > 1 else (),
    )


def attribute(
    transmission: DecodedTransmission,
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> Verdict:
    """Score every SA model at the transmission start and decide the sender."""
    p = score([transmission], powers, bundle)
    return decide(transmission.sa, transmission.t, p[0], bundle)


def authenticate_all(
    transmissions: Sequence[DecodedTransmission],
    powers: Mapping[int, SampledTrace],
    bundle: ModelBundle,
) -> list[Verdict]:
    """Verdicts for many transmissions, in order."""
    p = score(transmissions, powers, bundle)
    return [decide(tx.sa, tx.t, row, bundle) for tx, row in zip(transmissions, p)]
