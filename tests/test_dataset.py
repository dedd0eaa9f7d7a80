"""Binary container round trips, segmentation, split logic, epoch plans."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uwbocc.core import ActivityLabel, CirMatrix, SampleRecord
from uwbocc.dataset import (
    MAX_EPOCH_DRAWS,
    DatasetManifest,
    ManifestRecord,
    Split,
    build_epoch_plan,
    make_split,
    memory_manifest,
    read_cir,
    read_dataset,
    read_manifest,
    segment_recording,
    write_cir,
    write_dataset,
)
from uwbocc.errors import ConfigError, DataError
from uwbocc.pipeline import TrainSettings
from uwbocc.simulate import RadarConfig

B, T, M, E = (ActivityLabel.BREATHING, ActivityLabel.TALKING,
              ActivityLabel.MOVING, ActivityLabel.EMPTY)

# The reuse factors `uwbocc train` uses by default.
RECIPE_REUSE = {"reuse_occupied": TrainSettings().reuse_occupied,
                "reuse_empty": TrainSettings().reuse_empty}


def random_records(rng, label, count, n=4, m=6, car="car1"):
    out = []
    for i in range(count):
        data = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        cir = CirMatrix(data, 0.5e-9, 0.1)
        if label.occupied:
            out.append(SampleRecord(cir, label, car, "front", f"p{i:03d}", 0))
        else:
            out.append(SampleRecord(cir, label, "car2", None, None, i))
    return out


# Any JSON value, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

# Any finite matrix that single precision represents exactly, small shapes.
CIR_MATRICES = arrays(np.complex64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      elements=st.complex_numbers(width=64, allow_nan=False,
                                                  allow_infinity=False))


class TestCirFormat:
    def test_round_trip_bit_exact_in_single_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(10):
            data = (rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12)))
            stored = data.astype(np.complex64).astype(np.complex128)
            path = tmp_path / f"{i}.cir"
            write_cir(path, data)
            assert np.array_equal(read_cir(path), stored)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.cir"
        write_cir(path, np.zeros((3, 5), dtype=np.complex128))
        raw = path.read_bytes()
        assert raw[:4] == b"UWBC"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 3
        assert int.from_bytes(raw[12:16], "little") == 5
        assert len(raw) == 16 + 3 * 5 * 8

    def test_fast_time_varies_fastest(self, tmp_path):
        # payload order must walk down each column before moving to the next
        data = np.arange(6, dtype=np.complex128).reshape(2, 3)  # rows=fast time
        path = tmp_path / "order.cir"
        write_cir(path, data)
        payload = np.frombuffer(path.read_bytes()[16:], dtype="<c8")
        assert np.array_equal(payload.real, [0, 3, 1, 4, 2, 5])

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "broken.cir"
        write_cir(path, np.ones((4, 4), dtype=np.complex128))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="broken.cir"):
            read_cir(path)

    @settings(max_examples=100, deadline=None)
    @given(CIR_MATRICES)
    def test_any_single_precision_matrix_round_trips_bit_exact(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.cir"
            write_cir(path, data)
            back = read_cir(path)
        assert back.dtype == np.complex128 and back.shape == data.shape
        assert back.tobytes() == data.astype(np.complex128).tobytes()  # signed zeros too

    @settings(max_examples=100, deadline=None)
    @given(CIR_MATRICES, st.data())
    def test_cut_at_any_byte_raises_data_error(self, matrix, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cut.cir"
            write_cir(path, matrix)
            blob = path.read_bytes()
            path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
            with pytest.raises(DataError):
                read_cir(path)

    @settings(max_examples=200, deadline=None)
    @given(CIR_MATRICES, st.data())
    def test_any_replaced_byte_loads_or_raises_data_error(self, matrix, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "garbled.cir"
            write_cir(path, matrix)
            blob = path.read_bytes()
            at = data.draw(st.integers(0, len(blob) - 1))
            path.write_bytes(blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])
            try:
                read_cir(path)
            except DataError:
                pass

    @pytest.mark.parametrize("value", [complex(np.nan, 0), complex(0, np.inf), -np.inf])
    def test_non_finite_sample_rejected_naming_the_file(self, tmp_path, value):
        # write_cir refuses such a sample, so the file is written finite and then edited.
        data = np.ones((3, 4), dtype=np.complex64)
        write_cir(tmp_path / "poisoned.cir", data)
        data[2, 1] = value
        raw = (tmp_path / "poisoned.cir").read_bytes()
        (tmp_path / "poisoned.cir").write_bytes(raw[:16] + data.astype("<c8").tobytes(order="F"))
        with pytest.raises(DataError, match="poisoned.cir: the payload holds a NaN or infinite"):
            read_cir(tmp_path / "poisoned.cir")

    @pytest.mark.parametrize("value", [1e300, complex(0, -1e39), np.nan, np.inf])
    def test_sample_outside_single_precision_is_refused_before_writing(self, tmp_path, value):
        data = np.ones((4, 4), dtype=np.complex128)
        data[1, 2] = value
        with pytest.raises(DataError, match="big.cir: a sample is NaN, infinite or too large"):
            write_cir(tmp_path / "big.cir", data)
        assert not (tmp_path / "big.cir").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "notcir.cir"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            read_cir(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_cir(tmp_path / "absent.cir")


class TestDatasetRoundTrip:
    def test_write_read_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        records = random_records(rng, B, 4) + random_records(rng, E, 3)
        manifest_path = tmp_path / "manifest.json"
        write_dataset(records, manifest_path, RadarConfig(n_fast=4, m_slow=6))
        manifest, loaded = read_dataset(manifest_path)
        assert len(loaded) == 7
        for orig, back in zip(records, loaded):
            assert np.array_equal(back.cir.data, orig.cir.data.astype(np.complex64))
            assert back.label is orig.label
            assert (back.car, back.seat, back.participant, back.segment_index) == (
                orig.car, orig.seat, orig.participant, orig.segment_index)
        assert manifest.radar.n_fast == 4

    def test_unknown_label_in_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest_path = tmp_path / "manifest.json"
        write_dataset(random_records(rng, E, 1), manifest_path, RadarConfig(n_fast=4, m_slow=6))
        text = manifest_path.read_text().replace('"empty"', '"sleeping"')
        manifest_path.write_text(text)
        with pytest.raises(DataError, match="sleeping"):
            read_manifest(manifest_path)

    def test_missing_cir_file_reported(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest_path = tmp_path / "manifest.json"
        write_dataset(random_records(rng, E, 2), manifest_path, RadarConfig(n_fast=4, m_slow=6))
        (tmp_path / "00001_empty.cir").unlink()
        with pytest.raises(DataError, match="00001_empty.cir"):
            read_dataset(manifest_path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_replaced_manifest_byte_loads_or_raises_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            records = random_records(np.random.default_rng(1), B, 2) + random_records(
                np.random.default_rng(2), E, 1, car="car2")
            write_dataset(records, path, RadarConfig(n_fast=4, m_slow=6))
            blob = path.read_bytes()
            at = data.draw(st.integers(0, len(blob) - 1))
            path.write_bytes(blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])
            try:
                read_manifest(path)
            except DataError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_replaced_record_field_loads_or_raises_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            records = random_records(np.random.default_rng(1), B, 2) + random_records(
                np.random.default_rng(2), E, 1, car="car2")
            write_dataset(records, path, RadarConfig(n_fast=4, m_slow=6))
            doc = json.loads(path.read_text())
            record = data.draw(st.sampled_from(doc["records"]))
            record[data.draw(st.sampled_from(sorted(record)))] = data.draw(JSON_VALUES)
            path.write_text(json.dumps(doc))
            try:
                read_dataset(path)
            except DataError:
                pass

    @pytest.mark.parametrize("index, field, value, message", [
        (0, "label", 5, "label must be a string"),
        (0, "file", None, "file must be a string"),
        (0, "car", None, "car must be a string"),
        (0, "seat", 3, "seat must be a string or null"),
        (0, "segment_index", "2", "segment_index must be an integer"),
        (0, "segment_index", -1, "segment_index must be >= 0"),
        (1, "participant", "p1", "empty-car samples carry no participant"),
    ])
    def test_bad_record_field_names_the_manifest(self, tmp_path, index, field, value, message):
        path = tmp_path / "manifest.json"
        records = random_records(np.random.default_rng(1), B, 1) + random_records(
            np.random.default_rng(2), E, 1)
        write_dataset(records, path, RadarConfig(n_fast=4, m_slow=6))
        doc = json.loads(path.read_text())
        doc["records"][index][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"{path}: {message}"):
            read_manifest(path)

    def test_duplicate_paths_rejected(self):
        rec = ManifestRecord("a.cir", E, "car2")
        with pytest.raises(DataError, match="duplicate"):
            DatasetManifest((rec, rec), RadarConfig(n_fast=4, m_slow=6))

    def test_refused_record_leaves_nothing_behind(self, tmp_path):
        records = random_records(np.random.default_rng(4), E, 3)
        last = records[-1]
        records[-1] = SampleRecord(CirMatrix(last.cir.data * 1e300, 0.5e-9, 0.1), last.label,
                                   last.car, last.seat, last.participant, last.segment_index)
        with pytest.raises(DataError, match="00002_empty.cir: a sample is NaN, infinite"):
            write_dataset(records, tmp_path / "manifest.json")
        assert list(tmp_path.glob("*.cir")) == []
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("case", ["radar of another shape", "records of two shapes"])
    def test_mismatched_shape_is_refused_before_writing(self, tmp_path, case):
        rng = np.random.default_rng(5)
        if case == "radar of another shape":
            records, bad = random_records(rng, E, 2, n=16, m=24), 0
            radar = RadarConfig(n_fast=4, m_slow=6)
        else:
            records = random_records(rng, E, 1) + random_records(rng, E, 1, n=5, m=6)
            radar, bad = None, 1
        shape = records[bad].cir.data.shape
        with pytest.raises(DataError, match=rf"0000{bad}_empty.cir: shape \({shape[0]}, "
                                            rf"{shape[1]}\) does not match the manifest's"):
            write_dataset(records, tmp_path / "manifest.json", radar)
        assert list(tmp_path.glob("*.cir")) == []
        assert not (tmp_path / "manifest.json").exists()

    def test_memory_manifest_equals_the_written_manifest(self, tmp_path):
        rng = np.random.default_rng(6)
        records = random_records(rng, B, 3) + random_records(rng, E, 2)
        written = write_dataset(records, tmp_path / "manifest.json")
        assert memory_manifest(records) == written == read_manifest(tmp_path / "manifest.json")

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        records = random_records(rng, T, 3)
        a, b = tmp_path / "a" / "manifest.json", tmp_path / "b" / "manifest.json"
        write_dataset(records, a, RadarConfig(n_fast=4, m_slow=6))
        write_dataset(records, b, RadarConfig(n_fast=4, m_slow=6))
        assert a.read_bytes() == b.read_bytes()
        for name in ("00000_talking.cir", "00002_talking.cir"):
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()


class TestSegmentation:
    def make_stream(self, m_total, n=4, dt_slow=0.1):
        data = np.arange(n * m_total, dtype=np.float64).reshape(n, m_total) + 0j
        return CirMatrix(data, 0.5e-9, dt_slow)

    def test_two_minutes_into_twelve_segments(self):
        stream = self.make_stream(1200)
        segments = segment_recording(stream, 10.0, B, "car1", "front", "p001")
        assert len(segments) == 12
        assert all(s.cir.m_slow == 100 for s in segments)
        assert [s.segment_index for s in segments] == list(range(12))

    def test_five_minutes_empty_into_thirty(self):
        stream = self.make_stream(3000)
        segments = segment_recording(stream, 10.0, E, "car2")
        assert len(segments) == 30

    def test_sub_window_recording_gives_nothing(self):
        stream = self.make_stream(99)
        assert segment_recording(stream, 10.0, B, "car1") == []

    def test_columns_conserved_with_remainder(self):
        stream = self.make_stream(1234)
        segments = segment_recording(stream, 10.0, M, "car1")
        total = sum(s.cir.m_slow for s in segments)
        assert total + 1234 % 100 == 1234
        # non-overlapping and in temporal order
        recon = np.concatenate([s.cir.data for s in segments], axis=1)
        assert np.array_equal(recon, stream.data[:, :total])

    def test_non_integer_window_rejected(self):
        stream = self.make_stream(100)
        with pytest.raises(ConfigError):
            segment_recording(stream, 0.25, B, "car1")

    def test_window_below_one_repetition_rejected(self):
        stream = self.make_stream(100)
        with pytest.raises(ConfigError):
            segment_recording(stream, 0.05, B, "car1")


def table_style_manifest():
    """Manifest whose per-car counts mirror the published dataset."""
    counts = {
        B: (512, 559),  # car1 total, car2 total
        T: (512, 556),
        M: (541, 560),
    }
    records = []
    for label, (c1, c2) in counts.items():
        for car, total in (("car1", c1), ("car2", c2)):
            for i in range(total):
                records.append(ManifestRecord(
                    file=f"{label.value}_{car}_{i:04d}.cir", label=label, car=car,
                    seat="front", participant=f"{car}_{label.value[:2]}{i // 12:03d}",
                    segment_index=i % 12))
    for i in range(186):
        records.append(ManifestRecord(f"empty_{i:04d}.cir", E, "car2", None, None, i))
    return DatasetManifest(tuple(records), RadarConfig())


def split_counts(split):
    """{label: {split: record count}} of an assignment."""
    table = {}
    for assigned in Split:
        for rec in split.records(assigned):
            row = table.setdefault(rec.label.value, {s.value: 0 for s in Split})
            row[assigned.value] += 1
    return table


class TestMakeSplit:
    def test_published_counts_reproduced(self):
        manifest = table_style_manifest()
        split = make_split(manifest, test_per_class=150, empty_test=20,
                           car1_validation={B: 144, T: 145, M: 161})
        counts = split_counts(split)
        assert counts["breathing"] == {"train": 368, "validation": 144 + 409, "test": 150}
        assert counts["talking"] == {"train": 367, "validation": 145 + 406, "test": 150}
        assert counts["moving"] == {"train": 380, "validation": 161 + 410, "test": 150}
        assert counts["empty"] == {"train": 66, "validation": 100, "test": 20}

    @pytest.mark.parametrize("car1_validation, message", [
        ({"breathing": 1.7}, "car1_validation: the breathing count must be an integer, got 1.7"),
        ({"breathing": "x"}, "car1_validation: the breathing count must be an integer, got 'x'"),
        ({"breathing": None}, "car1_validation: the breathing count must be an integer, got None"),
        ({"breathing": 1, "Breathing": 2}, "car1_validation: breathing given more than once"),
    ])
    def test_car1_validation_counts_are_one_integer_per_label(self, car1_validation, message):
        with pytest.raises(ConfigError) as caught:
            make_split(table_style_manifest(), 150, 20, car1_validation=car1_validation)
        assert str(caught.value) == message

    def test_default_sends_all_car1_to_train(self):
        manifest = table_style_manifest()
        split = make_split(manifest, test_per_class=150, empty_test=20)
        counts = split_counts(split)
        assert counts["breathing"]["train"] == 512
        assert counts["breathing"]["test"] == 150

    def test_car_disjointness(self):
        split = make_split(table_style_manifest(), 150, 20,
                           car1_validation={B: 144, T: 145, M: 161})
        for rec in split.records(Split.TRAIN):
            if rec.label.occupied:
                assert rec.car == "car1"
        for rec in split.records(Split.TEST):
            assert rec.car == "car2"

    def test_partition_is_exhaustive_and_disjoint(self):
        manifest = table_style_manifest()
        split = make_split(manifest, 150, 20)
        positions = [i for s in Split for i in split.positions[s]]
        assert sorted(positions) == list(range(len(manifest.records)))

    def test_test_set_takes_the_last_records(self):
        manifest = table_style_manifest()
        split = make_split(manifest, 150, 20)
        test_files = {r.file for r in split.records(Split.TEST) if r.label is B}
        car2 = [r for r in manifest.records if r.label is B and r.car == "car2"]
        expected = {r.file for r in sorted(car2, key=ManifestRecord.sort_key)[-150:]}
        assert test_files == expected

    def test_positions_are_in_recording_order(self):
        # Shuffled, the manifest's order is not its recording order.
        per_class = {B: 144, T: 145, M: 161}
        unshuffled = make_split(table_style_manifest(), 150, 20, car1_validation=per_class)
        records = unshuffled.manifest.records
        order = np.random.default_rng(0).permutation(len(records))
        manifest = DatasetManifest(tuple(records[i] for i in order), RadarConfig())
        split = make_split(manifest, 150, 20, car1_validation=per_class)
        for s in Split:
            assert split.records(s) == [manifest.records[i] for i in split.positions[s]]
            keys = [rec.sort_key() for rec in split.records(s)]
            assert keys == sorted(keys)
            assert split.records(s) == unshuffled.records(s)

    def test_car1_only_manifest_is_insufficient(self):
        records = [ManifestRecord(f"b{i}.cir", B, "car1", "front", f"p{i:03d}", 0)
                   for i in range(200)]
        records += [ManifestRecord(f"e{i}.cir", E, "car2", None, None, i) for i in range(30)]
        manifest = DatasetManifest(tuple(records), RadarConfig())
        with pytest.raises(DataError, match="breathing"):
            make_split(manifest, test_per_class=150, empty_test=20)

    @pytest.mark.parametrize("leaky, message", [
        (Split.TRAIN, "car2 occupied record .* leaked into train"),
        (Split.TEST, "non-car2 record .* leaked into test"),
    ])
    def test_leak_guards_raise_data_error(self, monkeypatch, leaky, message):
        # Simulate a faulty assignment: the leaky split reports every record,
        # the others none.  The guards must raise, so python -O keeps them.
        from uwbocc.dataset import SplitAssignment

        monkeypatch.setattr(
            SplitAssignment, "records",
            lambda self, split: list(self.manifest.records) if split is leaky else [])
        with pytest.raises(DataError, match=message):
            make_split(table_style_manifest(), 150, 20)

    def test_determinism(self):
        manifest = table_style_manifest()
        per_class = {B: 100, T: 100, M: 100}
        a = make_split(manifest, 150, 20, car1_validation=per_class)
        b = make_split(manifest, 150, 20, car1_validation=per_class)
        assert a.positions == b.positions


# Random manifests for the split property: every label, cars car1 to car3,
# a few participants, seats and segments.  An empty record from car3 becomes
# car2; one from car1 stays, for the test-set leak guard to refuse.
SPLIT_RECORDS = st.lists(
    st.tuples(st.sampled_from(list(ActivityLabel)), st.sampled_from(["car1", "car2", "car3"]),
              st.sampled_from([None, "front", "rear"]), st.sampled_from([None, "p0", "p1", "p2"]),
              st.integers(0, 3)),
    max_size=40)


def random_manifest(rows, permutation):
    records = []
    for k, (label, car, seat, participant, seg) in enumerate(rows):
        if label is E:
            car, seat, participant = ("car2" if car == "car3" else car), None, None
        records.append(ManifestRecord(f"r{k:03d}.cir", label, car, seat, participant, seg))
    return DatasetManifest(tuple(records[i] for i in permutation), RadarConfig())


class TestSplitProtocol:
    """The rules of make_split's docstring, checked on random manifests."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_split_follows_the_protocol(self, data):
        rows = data.draw(SPLIT_RECORDS)
        manifest = random_manifest(rows, data.draw(st.permutations(range(len(rows)))))
        records = manifest.records
        by_label = {label: sorted((r for r in records if r.label is label), key=ManifestRecord.sort_key)
                    for label in ActivityLabel}
        car1 = {label: [r for r in by_label[label] if r.car != "car2"] for label in (B, T, M)}
        car2 = {label: [r for r in by_label[label] if r.car == "car2"] for label in (B, T, M)}
        # Counts mostly inside what the manifest holds, sometimes one over.
        most = min((len(car2[label]) for label in car2 if by_label[label]), default=3)
        test_per_class = data.draw(st.integers(0, most + 1))
        empty_test = data.draw(st.integers(0, len(by_label[E]) + 1))
        empty_train = data.draw(st.none() | st.integers(0, len(by_label[E])))
        requested = {label: data.draw(st.integers(0, len(car1[label]) + 1))
                     for label in data.draw(st.sets(st.sampled_from([B, T, M])))}
        # Keys may be labels or their names, in any case.
        car1_validation = {data.draw(st.sampled_from([label, label.value, label.value.upper()])): n
                           for label, n in requested.items()}
        try:
            split = make_split(manifest, test_per_class, empty_test, empty_train=empty_train,
                               car1_validation=car1_validation)
        except (ConfigError, DataError):
            return
        parts = {part: split.records(part) for part in Split}
        # The parts partition the manifest, each in recording order.
        assert sorted(i for part in Split for i in split.positions[part]) == list(range(len(records)))
        for part in Split:
            assert parts[part] == sorted(parts[part], key=ManifestRecord.sort_key)
        for label, ordered in by_label.items():
            train, test = ([r for r in parts[part] if r.label is label]
                           for part in (Split.TRAIN, Split.TEST))
            if label is E:
                remainder = len(ordered) - empty_test
                n_train = empty_train if empty_train is not None else round(remainder * 66 / 166)
                assert train == ordered[:n_train]
                assert test == ordered[len(ordered) - empty_test:]
            else:
                n_test = min(test_per_class, len(car2[label]))
                assert test == car2[label][len(car2[label]) - n_test:]
                assert train == car1[label][:len(car1[label]) - requested.get(label, 0)]


class TestEpochSchedule:
    def small_split(self, n_occ=3, n_empty=2):
        records = [ManifestRecord(f"b{i}.cir", B, "car1", "front", f"p{i}", 0)
                   for i in range(n_occ)]
        records += [ManifestRecord(f"e{i}.cir", E, "car2", None, None, i)
                    for i in range(n_empty)]
        manifest = DatasetManifest(tuple(records), RadarConfig())
        return make_split(manifest, test_per_class=0, empty_test=0, empty_train=n_empty)

    def test_multiplicities(self):
        split = self.small_split()
        plan = build_epoch_plan(split, seed=0, reuse_occupied=5, reuse_empty=11)
        from collections import Counter
        uses = Counter(split.manifest.records[i].file for i in plan)
        assert uses == {"b0.cir": 5, "b1.cir": 5, "b2.cir": 5, "e0.cir": 11, "e1.cir": 11}

    def test_published_plan_length(self):
        # (368+367+380) occupied * 200 + 66 empty * 3000 = 421,000 draws
        records = []
        for label, n in ((B, 368), (T, 367), (M, 380)):
            records += [ManifestRecord(f"{label.value}{i}.cir", label, "car1",
                                       "front", f"p{i}", 0) for i in range(n)]
        records += [ManifestRecord(f"e{i}.cir", E, "car2", None, None, i) for i in range(66)]
        manifest = DatasetManifest(tuple(records), RadarConfig())
        split = make_split(manifest, test_per_class=0, empty_test=0, empty_train=66)
        plan = build_epoch_plan(split, seed=1, **RECIPE_REUSE)
        assert len(plan) == 421_000

    def test_tiny_plan_length(self):
        plan = build_epoch_plan(self.small_split(1, 1), seed=0, **RECIPE_REUSE)
        assert len(plan) == 3200

    def test_class_mass_ratio(self):
        split = self.small_split(3, 2)
        plan = build_epoch_plan(split, seed=0, reuse_occupied=7, reuse_empty=13)
        occ = sum(1 for i in plan if split.manifest.records[i].label.occupied)
        emp = len(plan) - occ
        assert emp * (7 * 3) == occ * (13 * 2) * 1  # emp/occ == 13*2/(7*3)

    def test_seeded_shuffle_reproducible_and_seed_sensitive(self):
        split = self.small_split()
        a = build_epoch_plan(split, seed=5, **RECIPE_REUSE)
        b = build_epoch_plan(split, seed=5, **RECIPE_REUSE)
        c = build_epoch_plan(split, seed=6, **RECIPE_REUSE)
        assert a == b
        assert a != c

    def test_plan_over_the_draw_cap_is_refused_before_it_is_built(self, monkeypatch):
        assert 10 * 421_000 < MAX_EPOCH_DRAWS  # ten paper-scale epochs fit
        split = self.small_split(3, 2)  # 3 x 5 + 2 x 11 = 37 draws
        monkeypatch.setattr("uwbocc.dataset.MAX_EPOCH_DRAWS", 37)
        assert len(build_epoch_plan(split, seed=0, reuse_occupied=5, reuse_empty=11)) == 37
        monkeypatch.setattr("uwbocc.dataset.MAX_EPOCH_DRAWS", 36)
        with pytest.raises(ConfigError, match="^reuse_occupied 5 and reuse_empty 11 make 37 "
                                              "draws per epoch, over the cap of 36$"):
            build_epoch_plan(split, seed=0, reuse_occupied=5, reuse_empty=11)

    def test_needs_both_classes(self):
        records = [ManifestRecord("b0.cir", B, "car1", "front", "p0", 0)]
        manifest = DatasetManifest(tuple(records), RadarConfig())
        split = make_split(manifest, test_per_class=0, empty_test=0)
        with pytest.raises(DataError, match="both classes"):
            build_epoch_plan(split, seed=0, **RECIPE_REUSE)
