"""On-disk dataset container, segmentation, split logic, and epoch planning.

Storage layout is one binary .cir file per sample plus a JSON manifest that
carries all metadata and the radar configuration.  The .cir format is fixed
and bit-exact: magic "UWBC", a format version, the matrix dimensions, then
the complex samples as little-endian float32 (real, imag) pairs with the
fast-time index varying fastest.  See docs/formats.md.
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .core import (ActivityLabel, CirMatrix, SampleRecord, check_provenance, read_counts,
                   read_json)
from .errors import ConfigError, DataError
from .simulate import RadarConfig

__all__ = [
    "Split",
    "ManifestRecord",
    "DatasetManifest",
    "SplitAssignment",
    "write_cir",
    "read_cir",
    "memory_manifest",
    "write_dataset",
    "read_manifest",
    "read_dataset",
    "segment_recording",
    "make_split",
    "build_epoch_plan",
]

_MAGIC = b"UWBC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, n_fast, m_slow


class Split(enum.Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset entry: where its matrix lives plus its metadata."""

    file: str
    label: ActivityLabel
    car: str
    seat: str | None = None
    participant: str | None = None
    segment_index: int = 0

    def __post_init__(self):
        check_provenance(self.label, self.seat, self.participant, self.segment_index)

    def sort_key(self):
        """Deterministic recording order: participant, seat, segment, file."""
        return (self.participant or "", self.seat or "", self.segment_index, self.file)


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[ManifestRecord, ...]
    radar: RadarConfig

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        paths = [r.file for r in self.records]
        if len(set(paths)) != len(paths):
            dupes = sorted({p for p in paths if paths.count(p) > 1})
            raise DataError(f"duplicate file paths in manifest: {dupes[:5]}")


def _cir_payload(path, data) -> np.ndarray:
    """data as the single-precision payload of the .cir file at path; DataError if unstorable."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise DataError(f"cir matrix must be 2-d, got shape {data.shape}")
    with np.errstate(over="ignore"):
        payload = np.asarray(data, dtype="<c8")
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: a sample is NaN, infinite or too large for single precision")
    return payload


def write_cir(path, data: np.ndarray) -> None:
    """Write one complex matrix in the .cir binary format (single precision)."""
    payload = _cir_payload(path, data)
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, *payload.shape))
        handle.write(payload.tobytes(order="F"))


def read_cir(path) -> np.ndarray:
    """Read a .cir file back into a complex128 matrix of shape (n_fast, m_slow)."""
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise DataError(f"corrupt header in {path}: file shorter than {_HEADER.size} bytes")
            magic, version, n, m = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise DataError(f"corrupt header in {path}: bad magic {magic!r}")
            if version != _FORMAT_VERSION:
                raise DataError(f"{path}: unsupported format version {version}")
            payload = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    expected = n * m * 8
    if len(payload) != expected:
        raise DataError(
            f"shape mismatch in {path}: header says {n}x{m} "
            f"({expected} payload bytes) but file has {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<c8")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: the payload holds a NaN or infinite sample")
    return flat.reshape((n, m), order="F").astype(np.complex128)


def _record_from_json(obj, where: str) -> ManifestRecord:
    """One manifest record, its JSON types checked before ManifestRecord's own rules."""
    try:
        if not isinstance(obj, dict):
            raise ConfigError(f"expected an object, got {json.dumps(obj)}")
        for key, optional in (("file", False), ("label", False), ("car", False),
                              ("seat", True), ("participant", True)):
            value = obj.get(key)
            if not (isinstance(value, str) or (optional and value is None)):
                kind = "a string or null" if optional else "a string"
                raise ConfigError(f"{key} must be {kind}, got {json.dumps(value)}")
        segment_index = obj.get("segment_index", 0)
        if type(segment_index) is not int:
            raise ConfigError(f"segment_index must be an integer, got {json.dumps(segment_index)}")
        return ManifestRecord(obj["file"], ActivityLabel.from_string(obj["label"]), obj["car"],
                              obj.get("seat"), obj.get("participant"), segment_index)
    except ConfigError as exc:
        raise DataError(f"bad manifest record in {where}: {exc}") from None


def memory_manifest(records) -> DatasetManifest:
    """The manifest write_dataset returns for these records, built without touching disk.

    File names follow record position and label, and the radar
    configuration is the first record's.
    """
    records = list(records)
    if not records:
        raise DataError("cannot build a manifest from zero records")
    first = records[0].cir
    radar = RadarConfig(n_fast=first.n_fast, m_slow=first.m_slow,
                        dt_fast=first.dt_fast, dt_slow=first.dt_slow)
    return DatasetManifest(tuple(
        ManifestRecord(f"{i:05d}_{rec.label.value}.cir", rec.label, rec.car, rec.seat,
                       rec.participant, rec.segment_index)
        for i, rec in enumerate(records)), radar)


def write_dataset(records, manifest_path, radar: RadarConfig | None = None) -> DatasetManifest:
    """Write SampleRecords as .cir files plus a manifest.json next to them.

    File names are derived from record order and metadata, so writing the
    same records twice produces byte-identical trees.  radar defaults to
    the first record's configuration, and every sample must have its
    (n_fast, m_slow) shape, as read_dataset requires.  Every sample is
    checked before the first file is written, so a refused dataset leaves
    nothing behind.  Returns the manifest.
    """
    records = list(records)
    manifest = memory_manifest(records)
    if radar is not None:
        manifest = DatasetManifest(manifest.records, radar)
    manifest_path = os.fspath(manifest_path)
    directory = os.path.dirname(manifest_path) or "."
    paths = [os.path.join(directory, entry.file) for entry in manifest.records]
    shape = (manifest.radar.n_fast, manifest.radar.m_slow)
    for path, rec in zip(paths, records):
        if rec.cir.data.shape != shape:
            raise DataError(f"{path}: shape {rec.cir.data.shape} does not match the "
                            f"manifest's {shape}")
        _cir_payload(path, rec.cir.data)  # one record at a time: the payloads are not kept
    os.makedirs(directory, exist_ok=True)
    for path, rec in zip(paths, records):
        write_cir(path, rec.cir.data)
    doc = {
        "format": "uwbocc-dataset",
        "version": _FORMAT_VERSION,
        "radar": asdict(manifest.radar),
        "records": [{**asdict(r), "label": r.label.value} for r in manifest.records],
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def read_manifest(manifest_path) -> DatasetManifest:
    manifest_path = os.fspath(manifest_path)
    doc = read_json(manifest_path, "manifest", DataError)
    if not isinstance(doc, dict) or doc.get("format") != "uwbocc-dataset":
        raise DataError(f"{manifest_path}: not a dataset manifest (format field missing or wrong)")
    try:
        radar = RadarConfig(**doc["radar"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{manifest_path}: bad radar section: {exc}") from None
    entries = doc.get("records", [])
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: records must be a list")
    records = tuple(_record_from_json(obj, manifest_path) for obj in entries)
    return DatasetManifest(records, radar)


def read_dataset(manifest_path) -> tuple[DatasetManifest, list[SampleRecord]]:
    """Load a dataset: parse the manifest, then read every .cir file."""
    manifest = read_manifest(manifest_path)
    directory = os.path.dirname(os.fspath(manifest_path)) or "."
    samples = []
    for rec in manifest.records:
        path = os.path.join(directory, rec.file)
        if not os.path.exists(path):
            raise DataError(f"manifest references missing file {path}")
        data = read_cir(path)
        if data.shape != (manifest.radar.n_fast, manifest.radar.m_slow):
            raise DataError(
                f"{path}: shape {data.shape} does not match the manifest's "
                f"({manifest.radar.n_fast}, {manifest.radar.m_slow})"
            )
        cir = CirMatrix(data, manifest.radar.dt_fast, manifest.radar.dt_slow)
        samples.append(SampleRecord(cir, rec.label, rec.car, rec.seat,
                                    rec.participant, rec.segment_index))
    return manifest, samples


def segment_recording(stream: CirMatrix, window: float, label: ActivityLabel,
                      car: str, seat: str | None = None,
                      participant: str | None = None) -> list[SampleRecord]:
    """Cut a long recording into non-overlapping fixed-duration samples.

    window must be a positive integer multiple of the repetition interval;
    the trailing remainder shorter than one window is dropped.  Segment
    indices count from 0 in temporal order.
    """
    ratio = window / stream.dt_slow
    w = int(round(ratio)) if math.isfinite(ratio) else 0  # nan or inf is no multiple
    if w < 1 or abs(ratio - w) > 1e-9 * max(ratio, 1.0):
        raise ConfigError(
            f"window {window} s is not a positive integer multiple of the "
            f"repetition interval {stream.dt_slow} s"
        )
    n_segments = stream.m_slow // w
    out = []
    for k in range(n_segments):
        chunk = stream.data[:, k * w:(k + 1) * w].copy()
        cir = CirMatrix(chunk, stream.dt_fast, stream.dt_slow)
        out.append(SampleRecord(cir, label, car, seat, participant, k))
    return out


@dataclass(frozen=True)
class SplitAssignment:
    """Partition of a manifest's records into train/validation/test.

    positions[split] holds the manifest positions of that split's records,
    in recording order (ManifestRecord.sort_key), so a list aligned with
    manifest.records is indexed by them directly.
    """

    manifest: DatasetManifest
    positions: dict

    def records(self, split: Split) -> list[ManifestRecord]:
        return [self.manifest.records[i] for i in self.positions[split]]


# Empty-class train/validation proportion of the non-test remainder, taken
# from the published per-split counts (66 train / 100 validation).
_EMPTY_TRAIN_FRACTION = 66 / 166


def make_split(manifest: DatasetManifest, test_per_class: int = 150,
               empty_test: int = 20, *, empty_train: int | None = None,
               car1_validation: dict | None = None) -> SplitAssignment:
    """Assign every record to train, validation, or test, car-disjointly.

    Each class is one sequence in recording order (ManifestRecord.sort_key)
    cut twice: the records before the first cut go to Train, those between
    the cuts to Validation, the rest to Test.

    Occupied classes: the sequence is the car1 records (every car but car2)
    followed by the car2 records.  The first cut leaves the last n car1
    records for Validation, where car1_validation maps the class to n
    (default 0; read by core.read_counts); the published split does this,
    holding out part of the car1 data to steer early stopping.  The second
    cut leaves the last test_per_class car2 records for Test, and puts the
    car2 records before them in Validation.

    Empty class (car2 only): the first empty_train records go to Train and
    the last empty_test to Test, so the middle is Validation.  empty_train
    defaults to 66/166 of the non-test remainder, the published proportion.

    Each part's positions are in recording order.  Deterministic: equal
    inputs give equal assignments.
    """
    if test_per_class < 0 or empty_test < 0 or (empty_train or 0) < 0:
        raise ConfigError("test and train counts must be >= 0")
    requested = read_counts(car1_validation or {}, "car1_validation")
    # Work in recording ranks: order[rank] is the manifest position of ranked[rank].
    order = sorted(range(len(manifest.records)), key=lambda i: manifest.records[i].sort_key())
    ranked = [manifest.records[i] for i in order]
    groups: dict[ActivityLabel, list[int]] = {}
    for rank, rec in enumerate(ranked):
        groups.setdefault(rec.label, []).append(rank)
    parts: dict[Split, list[int]] = {part: [] for part in Split}
    deficits = []

    for label, ranks in sorted(groups.items(), key=lambda kv: kv[0].value):
        if label is ActivityLabel.EMPTY:
            remainder = len(ranks) - empty_test
            if remainder < 0:
                deficits.append(f"{label.value}: {len(ranks)} records < {empty_test} test")
                continue
            n_train = empty_train if empty_train is not None else round(remainder * _EMPTY_TRAIN_FRACTION)
            if n_train > remainder:
                raise ConfigError(f"empty_train {n_train} exceeds the {remainder} non-test empty records")
            a, b = n_train, remainder
        else:
            car1 = [r for r in ranks if ranked[r].car != "car2"]
            car2 = [r for r in ranks if ranked[r].car == "car2"]
            if len(car2) < test_per_class:
                deficits.append(f"{label.value}: {len(car2)} car2 records < {test_per_class} test")
            n_val1 = requested.pop(label, 0)
            if not 0 <= n_val1 <= len(car1):
                raise ConfigError(f"car1_validation asks for {n_val1} {label.value} records, "
                                  f"car1 has {len(car1)}")
            # car1's validation tail and car2's validation head are one run.
            ranks = car1 + car2
            a, b = len(car1) - n_val1, len(car1) + max(len(car2) - test_per_class, 0)
        parts[Split.TRAIN] += ranks[:a]
        parts[Split.VALIDATION] += ranks[a:b]
        parts[Split.TEST] += ranks[b:]

    # Requests the loop above did not take: labels with no occupied records.
    for label, n_val1 in requested.items():
        if n_val1 != 0:
            where = ("the empty class is not split by car" if label is ActivityLabel.EMPTY
                     else "car1 has 0")
            raise ConfigError(f"car1_validation asks for {n_val1} {label.value} records, {where}")

    if deficits:
        raise DataError("insufficient samples for the requested split: " + "; ".join(sorted(deficits)))

    split = SplitAssignment(manifest, {part: tuple(order[r] for r in sorted(ranks))
                                       for part, ranks in parts.items()})
    for rec in split.records(Split.TRAIN):
        if rec.car == "car2" and rec.label.occupied:
            raise DataError(f"car2 occupied record {rec.file} leaked into train")
    for rec in split.records(Split.TEST):
        if rec.car != "car2":
            raise DataError(f"non-car2 record {rec.file} leaked into test")
    return split


# The most draws build_epoch_plan schedules in one epoch: about 20 times the
# paper-scale 421,000.
MAX_EPOCH_DRAWS = 2**23


def build_epoch_plan(split: SplitAssignment, seed: int, *,
                     reuse_occupied: int, reuse_empty: int) -> tuple:
    """Expand the training records into a seeded, shuffled draw schedule.

    Returns the epoch's training record positions in draw order.  Occupied
    records appear reuse_occupied times and empty records reuse_empty
    times, rebalancing the class masses.  A plan of more than
    MAX_EPOCH_DRAWS draws is refused before it is built.
    """
    if reuse_occupied < 1 or reuse_empty < 1:
        raise ConfigError("reuse factors must be >= 1")
    records = split.manifest.records
    train = split.positions[Split.TRAIN]
    occupied = [i for i in train if records[i].label.occupied]
    empty = [i for i in train if not records[i].label.occupied]
    if not occupied or not empty:
        raise DataError(
            f"epoch plan needs both classes in train: {len(occupied)} occupied, {len(empty)} empty")
    draws = len(occupied) * reuse_occupied + len(empty) * reuse_empty
    if draws > MAX_EPOCH_DRAWS:
        raise ConfigError(f"reuse_occupied {reuse_occupied} and reuse_empty {reuse_empty} make "
                          f"{draws} draws per epoch, over the cap of {MAX_EPOCH_DRAWS}")
    entries = [i for i in occupied for _ in range(reuse_occupied)]
    entries += [i for i in empty for _ in range(reuse_empty)]
    order = np.random.default_rng(seed).permutation(len(entries))
    return tuple(entries[i] for i in order)
