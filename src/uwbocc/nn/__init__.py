"""From-scratch differentiable network engine (numpy only)."""

from .layers import BatchNorm, Conv1d, Conv2d, Dense, GlobalAvgPool, Layer, Param, ReLU
from .model import (
    VARIANTS,
    ArchitectureVariant,
    Network,
    ResidualBlock,
    batch_input,
    build_network,
    channel_plan,
    flop_count,
    layout_2d,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .training import (
    AdamOptimizer,
    OptimizerConfig,
    TrainingHistory,
    bce_with_logits,
    train_network,
)
