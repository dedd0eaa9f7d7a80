"""Core data model: CIR matrices, slow-time mean removal, labels, sample records.

A channel impulse response (CIR) recording is a complex matrix with one
column per pulse repetition ("slow time") and one row per propagation-delay
sample ("fast time").  Static reflections from the environment are identical
in every column; subtracting the per-row slow-time mean leaves only the
time-varying part (target motion plus noise), which is what every detector
in this package operates on.  That residual is a plain read-only complex
(n_fast, m_slow) array.  Values that break these rules raise ConfigError.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ActivityLabel",
    "CirMatrix",
    "SampleRecord",
    "check_provenance",
    "check_seed",
    "frobenius_energy",
    "mean_remove",
    "read_counts",
    "read_json",
]


class ActivityLabel(enum.Enum):
    """Occupant activity recorded for a sample. EMPTY marks an unoccupied car."""

    BREATHING = "breathing"
    TALKING = "talking"
    MOVING = "moving"
    EMPTY = "empty"

    @property
    def occupied(self) -> bool:
        return self is not ActivityLabel.EMPTY

    @classmethod
    def from_string(cls, name: str) -> "ActivityLabel":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigError(f"unknown activity label {name!r} (valid: {valid})") from None


def read_counts(counts, argument: str) -> dict[ActivityLabel, int]:
    """{label: count} from a mapping or from (key, count) pairs.

    Keys are labels or label names in any case.  Each label may appear once,
    also among pairs, and each count must be an integer >= 0: a bool, a float
    or a string is refused.  Every refusal is a ConfigError that starts with
    argument, the name the caller knows the counts by.
    """
    read: dict[ActivityLabel, int] = {}
    for key, value in (counts.items() if hasattr(counts, "items") else counts):
        try:
            label = key if isinstance(key, ActivityLabel) else ActivityLabel.from_string(str(key))
        except ConfigError as exc:
            raise ConfigError(f"{argument}: {exc}") from None
        if label in read:
            raise ConfigError(f"{argument}: {label.value} given more than once")
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{argument}: the {label.value} count must be an integer, "
                              f"got {value!r}")
        if value < 0:
            raise ConfigError(f"{argument}: negative count for {label.value}: {value}")
        read[label] = int(value)
    return read


def check_seed(seed: int) -> None:
    """Refuse a negative seed, the rule of every seeded entry point."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def read_json(path, what: str, error: type[Exception]):
    """The JSON document in the UTF-8 file at path.

    A file that cannot be opened or read, or that is not UTF-8 JSON, raises
    error(message), the message naming the file as what (config, manifest,
    report) and its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


@dataclass(frozen=True)
class CirMatrix:
    """Received CIR samples, shape (n_fast, m_slow), column m = repetition m.

    dt_fast is the fast-time sampling interval in seconds (nanosecond scale),
    dt_slow the pulse repetition interval in seconds.
    """

    data: np.ndarray
    dt_fast: float
    dt_slow: float

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2:
            raise ConfigError(f"expected a 2-d matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ConfigError("CirMatrix needs at least one fast-time sample")
        if arr.shape[1] < 2:
            raise ConfigError(
                f"CirMatrix needs at least 2 slow-time columns for mean removal, got {arr.shape[1]}"
            )
        if not (self.dt_fast > 0 and self.dt_slow > 0):
            raise ConfigError("sampling intervals must be positive")
        if not np.isfinite(arr).all():
            raise ConfigError("CirMatrix data holds a NaN or infinite sample")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_fast(self) -> int:
        return self.data.shape[0]

    @property
    def m_slow(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SampleRecord:
    """One labeled observation: a CIR matrix plus provenance metadata."""

    cir: CirMatrix
    label: ActivityLabel
    car: str
    seat: str | None = None
    participant: str | None = None
    segment_index: int = 0

    def __post_init__(self):
        check_provenance(self.label, self.seat, self.participant, self.segment_index)


def check_provenance(label: ActivityLabel, seat, participant, segment_index: int) -> None:
    """The metadata rules every sample record and manifest record keeps."""
    if segment_index < 0:
        raise ConfigError(f"segment_index must be >= 0, got {segment_index}")
    if label is ActivityLabel.EMPTY and (seat or participant):
        raise ConfigError("empty-car samples carry no participant or seat")


def mean_remove(r: CirMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split a CIR matrix into its slow-time mean profile and the residual.

    Returns (mean_profile, residual) where mean_profile has length n_fast and
    residual column m equals column m minus the mean profile.  The mean is
    computed against the first column as a provisional reference, which keeps
    the subtraction exact when all columns are identical (a purely static
    scene yields an exactly zero residual) and avoids cancellation when the
    columns are clutter-dominated.  The residual is read-only, because every
    noise draw made from it reuses it.
    """
    data = r.data
    ref = data[:, :1]
    mean_profile = (ref + (data - ref).mean(axis=1, keepdims=True))[:, 0]
    residual = data - mean_profile[:, None]
    residual.setflags(write=False)
    return mean_profile, residual


def frobenius_energy(r) -> float:
    """Sum of squared magnitudes over all matrix entries, accumulated in float64.

    Accepts a CirMatrix or a bare complex/real array of any precision.  Zero
    if and only if every entry is zero.
    """
    arr = r.data if isinstance(r, CirMatrix) else np.asarray(r)
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    return float(sum(np.sum(np.square(part, dtype=np.float64)) for part in parts))
