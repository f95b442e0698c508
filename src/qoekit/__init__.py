"""qoekit: derive QoE-model weights from pairwise judgments, score QoS
samples on the MOS scale, and measure loss/delay/jitter from packet traces.
"""

__version__ = "0.1.0"

from .ahp import (
    AGGREGATION_METHODS,
    CR_THRESHOLD,
    RANDOM_INDEX,
    ConsistencyReport,
    JudgmentSet,
    PairwiseMatrix,
    WeightVector,
    aggregate_judgments,
    column_average_weights,
    consistency,
    eigenvector_weights,
    read_judgments,
    read_matrix_csv,
)
from .composite import (
    PRESETS,
    VOICE_CRITERIA,
    CompositeModel,
    QosSample,
    combine,
    component_mos,
    get_model,
    load_models,
    make_model,
    score,
)
from .emodel import (
    G729,
    MOS_MAX,
    MOS_MIN,
    CodecProfile,
    delay_impairment,
    jitter_impairment,
    load_profile,
    loss_impairment,
    mos_from_r,
)
from .trace import (
    ImpairmentSpec,
    PacketRecord,
    Trace,
    WindowMetrics,
    generate,
    jitter_mean_abs,
    jitter_rfc3550,
    load_impairment_spec,
    loss_rate,
    mean_delay,
    read_trace,
    windows,
)
