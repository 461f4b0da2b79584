"""Sender attribution and impersonation-attack classification.

Scoring has one path. :func:`score` gives every source address's
calibrated transmission probability for a batch of transmissions, from
the magnitude spectrum of its owning ECU's power trace at each
transmission start, through a linear model with the training PCA folded in.
:func:`decide` turns one row of that matrix into a :class:`Verdict`.
:func:`authenticate_all` is ``score`` then ``decide`` per row, and
:func:`attribute` is the same for a batch of one.

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
from .svm import SvmModel, platt_proba
from .trace import SampledTrace

TIE_TOLERANCE = 1e-12


class Decision(Enum):
    AUTHENTIC = "authentic"
    IMPERSONATION = "impersonation"
    ADDED_MODULE = "added_module"


@dataclass(frozen=True)
class SaEntry:
    """Everything needed to score one source address from its ECU's spectra."""

    sa: int
    ecu: int
    model: SvmModel
    stats: NormStats


@dataclass(frozen=True)
class ModelBundle:
    """Per-SA classifiers plus the shared pipeline parameters."""

    entries: tuple[SaEntry, ...]
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
        if {e.sa for e in self.entries} != set(self.samap.owners):
            raise ValueError("bundle SA set must match the source address map")
        for e in self.entries:
            if e.ecu != self.samap.owners[e.sa]:
                raise ValueError(
                    f"SA {e.sa} entry names ECU {e.ecu}, but the map's owner is "
                    f"ECU {self.samap.owners[e.sa]}"
                )

    @property
    def sas(self) -> list[int]:
        return [e.sa for e in self.entries]


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

    Column k belongs to ``bundle.entries[k]``. Spectra are computed once
    per ECU and shared by its addresses. Every ECU the bundle's map names
    needs a power trace at the bundle's sample rate.
    """
    if not set(bundle.samap.ecus).issubset(powers):
        raise BundleMismatch(
            f"bundle expects power channels {bundle.samap.ecus}, found {sorted(powers)}"
        )
    columns_by_ecu: dict[int, list[int]] = {}
    for k, entry in enumerate(bundle.entries):
        columns_by_ecu.setdefault(entry.ecu, []).append(k)
    for ecu in columns_by_ecu:
        rate = powers[ecu].sample_rate
        if rate != bundle.sample_rate:
            raise BundleMismatch(
                f"power trace of ECU {ecu} is sampled at {rate:.0f} Hz, "
                f"the bundle was trained at {bundle.sample_rate:.0f} Hz"
            )
    p = np.empty((len(transmissions), len(bundle.entries)))
    if not transmissions:
        return p
    # one ECU's spectra at a time: they are the largest arrays scoring makes
    for ecu, columns in columns_by_ecu.items():
        stats = bundle.entries[columns[0]].stats
        spectra = ecu_spectra(powers[ecu], stats, transmissions, bundle.tau, bundle.window)
        for k in columns:
            model = bundle.entries[k].model
            p[:, k] = platt_proba(model.margin(spectra), *model.calibration)
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
