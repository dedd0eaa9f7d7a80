"""UWB radar car-occupancy detection: simulation, augmentation, detectors, evaluation."""

from .core import (
    ActivityLabel,
    CirMatrix,
    SampleRecord,
    frobenius_energy,
    mean_remove,
)
from .augment import (
    SnrReference,
    add_noise,
    compute_reference_energy,
    corrupt,
    noise_sigma,
    normalize_unit_energy,
)
from .baselines import DEFAULT_ENERGY_WINDOW, energy_detector, fft_detector
from .dataset import (
    DatasetManifest,
    ManifestRecord,
    Split,
    SplitAssignment,
    build_epoch_plan,
    make_split,
    read_cir,
    read_dataset,
    read_manifest,
    segment_recording,
    write_cir,
    write_dataset,
)
from .errors import ConfigError, DataError, DivergenceError, UwboccError
from .evaluate import (
    ACTIVITY_SNR_ANCHORS,
    DEFAULT_EVAL_GRID,
    EvalReport,
    EvalRow,
    ablation,
    emit_report,
    plot_series,
    read_report,
    roc_auc,
    snr_sweep,
)
from .nn import (
    VARIANTS,
    ArchitectureVariant,
    Network,
    build_network,
    channel_plan,
    flop_count,
    layout_2d,
    load_checkpoint,
    network_input,
    param_count,
    save_checkpoint,
    stack_real_imag_1d,
)
from .pipeline import (
    BaselineScorer,
    NetworkScorer,
    ResidualSample,
    TrainSettings,
    assign_samples,
    memory_manifest,
    reference_from_training,
    residual_samples,
    run_training,
)
from .simulate import (
    MotionModel,
    PathComponent,
    RadarConfig,
    Scene,
    load_scene,
    motion_path,
    parse_scene,
    raised_cosine_pulse,
    raised_cosine_response,
    simulate_received,
    synth_dataset,
)

__version__ = "0.1.0"
