"""CAN sender authentication via per-ECU power side-channel monitoring.

Simulates a multi-ECU CAN bus, extracts spectral features from per-ECU
power traces around each decoded transmission, trains one binary linear
SVM per source address, and classifies traffic as authentic or as an
impersonation (compromised ECU / added module) attack.
"""

from .authenticate import (
    Decision,
    EcuModel,
    ModelBundle,
    Verdict,
    attribute,
    authenticate_all,
    decide,
    score,
    softmax,
)
from .bus import (
    AttackKind,
    AttackSpec,
    BusConfig,
    EcuSpec,
    GroundTruthEntry,
    GroundTruthLog,
    MessageSchedule,
    PowerProfile,
    ProgramActivity,
    Scenario,
    lab_scenario,
    simulate,
    synth_power,
    synth_voltage,
    truck_scenario,
)
from .config import RunConfig, parse_config, parse_config_text
from .evaluate import (
    ConfusionMatrix,
    MetricReport,
    confusion,
    metrics,
)
from .features import (
    FeatureDataset,
    NormStats,
    PcaBasis,
    Tau,
    TukeyParams,
    build_datasets,
    estimate_norm_stats,
    estimate_tau,
    extract_feature,
    fit_pca,
    tukey_window,
)
from .frames import (
    CanFrame,
    DecodedTransmission,
    DerivationRule,
    FrameFormat,
    SourceAddressMap,
    arbitrate,
    decode_transmissions,
    serialize_frame,
    serialize_frames,
)
from .svm import (
    BootstrapSummary,
    LearningCurve,
    SvmModel,
    TrainConfig,
    bootstrap_accuracy,
    train,
)
from .trace import SampledTrace
from .workflow import (
    FactorCell,
    FactorGrid,
    PipelineConfig,
    TrainResult,
    build_bundle,
    factor_sweep,
    grid_cells,
)

__version__ = "0.1.0"
