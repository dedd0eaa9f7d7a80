"""Pulse shaping, multipath synthesis, motion models, scene parsing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbocc.core import ActivityLabel, frobenius_energy, mean_remove
from uwbocc.errors import ConfigError
from uwbocc.simulate import (
    MotionModel,
    PathComponent,
    RadarConfig,
    Scene,
    motion_path,
    parse_scene,
    raised_cosine_response,
    simulate_received,
    synth_dataset,
)

CFG = RadarConfig()


def simulated_pulse(cfg):
    """The simulated pulse: one static unit path at delay 0 is the pulse itself."""
    scene = Scene(clutter_paths=(PathComponent(1.0 + 0j, 0.0),))
    return simulate_received(scene, cfg, rng=0).data[:, 0]


class TestRaisedCosine:
    def test_unit_peak_and_band_edges(self):
        b, beta = CFG.bandwidth, CFG.rolloff
        freqs = np.fft.fftfreq(CFG.n_fast, d=CFG.dt_fast)
        h = raised_cosine_response(freqs, b, beta)
        flat = np.abs(freqs) <= (1 - beta) * b / 2
        stop = np.abs(freqs) >= (1 + beta) * b / 2
        assert np.all(h[flat] == 1.0)
        assert np.all(h[stop] == 0.0)
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert h[0] == 1.0

    def test_taper_midpoint_is_half(self):
        # at |f| = B/2 the cosine taper crosses 1/2 for any rolloff > 0
        assert raised_cosine_response([CFG.bandwidth / 2], CFG.bandwidth, 0.5)[0] == pytest.approx(0.5)
        assert raised_cosine_response([CFG.bandwidth / 2], CFG.bandwidth, 0.25)[0] == pytest.approx(0.5)

    def test_zero_rolloff_is_brick_wall(self):
        h = raised_cosine_response([0.0, 0.249e9, 0.251e9], 500e6, 0.0)
        assert list(h) == [1.0, 1.0, 0.0]

    def test_pulse_peaks_at_time_zero(self):
        pulse = simulated_pulse(CFG)
        assert pulse.shape == (CFG.n_fast,)
        assert np.argmax(np.abs(pulse)) == 0
        # the time-domain peak is the average of the frequency response
        freqs = np.fft.fftfreq(CFG.n_fast, d=CFG.dt_fast)
        h = raised_cosine_response(freqs, CFG.bandwidth, CFG.rolloff)
        assert pulse[0] == pytest.approx(h.mean(), rel=1e-12)
        assert abs(pulse[0].imag) < 1e-15

    def test_parseval(self):
        pulse = simulated_pulse(CFG)
        freqs = np.fft.fftfreq(CFG.n_fast, d=CFG.dt_fast)
        h = raised_cosine_response(freqs, CFG.bandwidth, CFG.rolloff)
        assert np.sum(np.abs(pulse) ** 2) == pytest.approx(np.sum(h**2) / CFG.n_fast, rel=1e-12)

    @pytest.mark.parametrize("field", ["center_freq", "bandwidth", "dt_fast", "dt_slow"])
    def test_non_finite_or_non_positive_timing_rejected(self, field):
        for value in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                RadarConfig(**{field: value})

    def test_nyquist_guard(self):
        # Only the simulator's pulse is held to the fast-time Nyquist limit;
        # a radar section that merely describes recorded data is not.
        cfg = RadarConfig(bandwidth=1.5e9)  # (1+0.5)*1.5e9/2 > 1e9
        with pytest.raises(ConfigError, match="Nyquist"):
            simulated_pulse(cfg)
        with pytest.raises(ConfigError, match="Nyquist"):
            synth_dataset({"empty": 1}, cfg, rng=0)


class TestSimulateReceived:
    def test_static_scene_columns_identical(self):
        scene = Scene(clutter_paths=(PathComponent(1.0 + 0.5j, 5e-9), PathComponent(-0.3 + 0j, 12e-9)))
        cir = simulate_received(scene, CFG, rng=0)
        assert cir.data.shape == (CFG.n_fast, CFG.m_slow)
        assert np.array_equal(cir.data, np.tile(cir.data[:, :1], (1, CFG.m_slow)))
        _, residual = mean_remove(cir)
        assert frobenius_energy(residual) == 0.0

    def test_integer_grid_delay_is_circular_shift(self):
        shift = 11
        delay = shift * CFG.dt_fast
        scene = Scene(clutter_paths=(PathComponent(1.0 + 0j, delay),))
        cir = simulate_received(scene, CFG, rng=0)
        expected = np.roll(simulated_pulse(CFG), shift) * np.exp(-2j * np.pi * CFG.center_freq * delay)
        assert np.abs(cir.data[:, 0] - expected).max() < 1e-12

    def test_superposition(self):
        p1 = PathComponent(0.8 + 0.1j, 4e-9)
        p2 = PathComponent(-0.5 + 0.7j, 19.3e-9)
        both = simulate_received(Scene(clutter_paths=(p1, p2)), CFG, rng=0)
        one = simulate_received(Scene(clutter_paths=(p1,)), CFG, rng=0)
        two = simulate_received(Scene(clutter_paths=(p2,)), CFG, rng=0)
        assert np.abs(both.data - (one.data + two.data)).max() < 1e-12

    def test_amplitude_scaling_is_linear(self):
        base = simulate_received(Scene(clutter_paths=(PathComponent(1.0, 7.7e-9),)), CFG, rng=0)
        scaled = simulate_received(Scene(clutter_paths=(PathComponent(3.0, 7.7e-9),)), CFG, rng=0)
        assert np.abs(scaled.data - 3.0 * base.data).max() < 1e-12

    def test_target_motion_breaks_column_equality(self):
        motion = MotionModel.default_for(ActivityLabel.BREATHING)
        scene = Scene(target_paths=((PathComponent(1.0, 10e-9), motion),))
        cir = simulate_received(scene, CFG, rng=3)
        _, residual = mean_remove(cir)
        assert frobenius_energy(residual) > 0.0

    def test_carrier_phase_dominates_residual(self):
        # breathing delay excursions are tiny against the pulse width, so the
        # residual comes almost entirely from carrier phase rotation; killing
        # the excursion must kill most of the residual energy
        path = PathComponent(1.0, 10e-9)
        motion = MotionModel.default_for(ActivityLabel.BREATHING)
        still = MotionModel.default_for(ActivityLabel.BREATHING, delay_excursion=0.0)
        lively = simulate_received(Scene(target_paths=((path, motion),)), CFG, rng=11)
        frozen = simulate_received(Scene(target_paths=((path, still),)), CFG, rng=11)
        _, res_lively = mean_remove(lively)
        _, res_frozen = mean_remove(frozen)
        # amp_excursion alone leaves some residual, but far less
        assert frobenius_energy(res_lively) > 10.0 * frobenius_energy(res_frozen)

    def test_residual_energy_ordering_across_activities(self):
        path = PathComponent(1.0, 12e-9)
        energies = {}
        for label in (ActivityLabel.BREATHING, ActivityLabel.TALKING, ActivityLabel.MOVING):
            total = 0.0
            for seed in range(8):
                motion = MotionModel.default_for(label)
                cir = simulate_received(Scene(target_paths=((path, motion),)), CFG, rng=seed)
                _, residual = mean_remove(cir)
                total += frobenius_energy(residual)
            energies[label] = total
        assert energies[ActivityLabel.BREATHING] < energies[ActivityLabel.TALKING]
        assert energies[ActivityLabel.TALKING] < energies[ActivityLabel.MOVING]

    def test_noise_energy_matches_sigma(self):
        sigma = 0.05
        scene = Scene(clutter_paths=(PathComponent(0.0, 1e-9),), noise_sigma=sigma)
        total = 0.0
        n_trials = 50
        for seed in range(n_trials):
            cir = simulate_received(scene, CFG, rng=seed)
            total += frobenius_energy(cir)
        samples = CFG.n_fast * CFG.m_slow * n_trials
        mean_power = total / samples
        # E|v|^2 = 2 sigma^2; CLT gives ~0.4% relative std over 320k samples
        assert mean_power == pytest.approx(2 * sigma**2, rel=0.02)

    def test_delay_outside_window_rejected(self):
        scene = Scene(clutter_paths=(PathComponent(1.0, CFG.fast_time_window),))
        with pytest.raises(ConfigError):
            simulate_received(scene, CFG, rng=0)

    def test_determinism(self):
        motion = MotionModel.default_for(ActivityLabel.TALKING)
        scene = Scene(
            target_paths=((PathComponent(1.0, 10e-9), motion),),
            clutter_paths=(PathComponent(0.5, 3e-9),),
            noise_sigma=0.01,
        )
        a = simulate_received(scene, CFG, rng=1234)
        b = simulate_received(scene, CFG, rng=1234)
        assert np.array_equal(a.data, b.data)


class TestMotionModels:
    def test_breathing_is_periodic_sinusoid(self):
        motion = MotionModel(kind=ActivityLabel.BREATHING, rate=0.25, delay_excursion=33e-12, jitter=0.0)
        offsets, _ = motion_path(motion, 100, 0.1, rng=0)
        # period 4 s = 40 repetitions at dt_slow = 0.1 s
        assert np.abs(offsets[40:80] - offsets[:40]).max() < 1e-24
        assert np.abs(offsets).max() == pytest.approx(33e-12, rel=1e-6)

    def test_excursion_bounds(self):
        for label in (ActivityLabel.BREATHING, ActivityLabel.TALKING, ActivityLabel.MOVING):
            motion = MotionModel.default_for(label)
            offsets, factors = motion_path(motion, 200, 0.1, rng=21)
            assert np.abs(offsets).max() <= motion.delay_excursion * (1 + 1e-9)
            assert np.abs(np.abs(factors) - 1.0).max() <= motion.amp_excursion * (1 + 1e-9)

    @pytest.mark.parametrize("field", ["rate", "delay_excursion", "amp_excursion", "jitter",
                                       "phase"])
    def test_non_finite_motion_rejected(self, field):
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                MotionModel(ActivityLabel.BREATHING, **{field: value})

    def test_empty_has_no_motion_model(self):
        with pytest.raises(ConfigError):
            MotionModel(kind=ActivityLabel.EMPTY)


class TestSynthDataset:
    def test_counts_and_metadata(self):
        counts = {ActivityLabel.BREATHING: 6, ActivityLabel.EMPTY: 3}
        records = synth_dataset(counts, CFG, rng=0)
        labels = [r.label for r in records]
        assert labels.count(ActivityLabel.BREATHING) == 6
        assert labels.count(ActivityLabel.EMPTY) == 3
        for rec in records:
            assert rec.cir.data.shape == (CFG.n_fast, CFG.m_slow)
            if rec.label.occupied:
                assert rec.car in ("car1", "car2")
                assert rec.participant is not None
            else:
                assert rec.car == "car2"
                assert rec.participant is None

    def test_occupied_spread_over_both_cars(self):
        records = synth_dataset({"talking": 20}, CFG, rng=1)
        cars = {r.car for r in records}
        assert cars == {"car1", "car2"}

    def test_string_keys_accepted(self):
        records = synth_dataset({"empty": 2}, CFG, rng=0)
        assert all(r.label is ActivityLabel.EMPTY for r in records)

    def test_sample_beyond_single_precision_is_a_config_error(self):
        with pytest.raises(ConfigError, match="empty sample 0 overflows single precision"):
            synth_dataset({"empty": 2}, CFG, rng=0, sensor_noise=1e300)

    def test_seeded_determinism(self):
        a = synth_dataset({"breathing": 3, "empty": 2}, CFG, rng=77)
        b = synth_dataset({"breathing": 3, "empty": 2}, CFG, rng=77)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.cir.data, rb.cir.data)
            assert (ra.label, ra.car, ra.seat, ra.participant, ra.segment_index) == (
                rb.label, rb.car, rb.seat, rb.participant, rb.segment_index)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            synth_dataset({"empty": -1}, CFG, rng=0)

    @pytest.mark.parametrize("counts, message", [
        ({"breathing": 1.7}, "counts: the breathing count must be an integer, got 1.7"),
        ({"breathing": "x"}, "counts: the breathing count must be an integer, got 'x'"),
        ({"breathing": None}, "counts: the breathing count must be an integer, got None"),
        ({"breathing": 1, "Breathing": 2}, "counts: breathing given more than once"),
    ])
    def test_counts_that_are_not_one_integer_per_label_refused(self, counts, message):
        with pytest.raises(ConfigError) as caught:
            synth_dataset(counts, RadarConfig(n_fast=16, m_slow=24), rng=0)
        assert str(caught.value) == message


def format_scene(scene) -> str:
    """The scene in parse_scene's text format, every float written with repr."""
    def path_lines(section, path):
        return [f"[{section}]", f"amplitude = {path.amplitude.real!r} {path.amplitude.imag!r}",
                f"delay = {path.delay!r}"]

    lines = [f"noise_sigma = {scene.noise_sigma!r}"]
    for path in scene.clutter_paths:
        lines += path_lines("clutter", path)
    for path, motion in scene.target_paths:
        lines += path_lines("target", path) + [f"activity = {motion.kind.value}"]
        lines += [f"{key} = {getattr(motion, key)!r}"
                  for key in ("rate", "delay_excursion", "amp_excursion", "jitter", "phase")]
    return "\n".join(lines) + "\n"


non_negative = st.floats(min_value=0.0, allow_infinity=False)
PATHS = st.builds(PathComponent, st.complex_numbers(allow_nan=False, allow_infinity=False),
                  non_negative)
MOTIONS = st.builds(
    MotionModel, st.sampled_from([lab for lab in ActivityLabel if lab.occupied]),
    rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    delay_excursion=non_negative, amp_excursion=non_negative, jitter=non_negative,
    phase=st.floats(allow_nan=False, allow_infinity=False))
SCENES = st.tuples(st.lists(st.tuples(PATHS, MOTIONS), max_size=3),
                   st.lists(PATHS, max_size=3), non_negative).filter(
    lambda parts: parts[0] or parts[1]).map(lambda parts: Scene(*parts))


class TestSceneParsing:
    @settings(max_examples=100, deadline=None)
    @given(SCENES)
    def test_reads_back_a_formatted_scene(self, scene):
        assert parse_scene(format_scene(scene)) == scene

    def test_round_trip_small_scene(self):
        text = """
        # two static reflectors and one breathing target
        noise_sigma = 0.01

        [clutter]
        amplitude = 1.0 0.5
        delay = 5e-9

        [clutter]
        amplitude = -0.3
        delay = 12e-9

        [target]
        amplitude = 0.8
        delay = 10e-9
        activity = breathing
        rate = 0.3
        """
        scene = parse_scene(text)
        assert scene.noise_sigma == 0.01
        assert len(scene.clutter_paths) == 2
        assert scene.clutter_paths[0].amplitude == 1.0 + 0.5j
        assert scene.clutter_paths[1].delay == 12e-9
        assert len(scene.target_paths) == 1
        path, motion = scene.target_paths[0]
        assert motion.kind is ActivityLabel.BREATHING
        assert motion.rate == 0.3

    def test_parsed_scene_simulates(self):
        scene = parse_scene("[clutter]\namplitude = 1\ndelay = 4e-9\n")
        cir = simulate_received(scene, CFG, rng=0)
        assert cir.data.shape == (CFG.n_fast, CFG.m_slow)

    def test_unknown_section_error_names_line(self):
        with pytest.raises(ConfigError, match="myscene:2"):
            parse_scene("noise_sigma = 0\n[windmill]\n", source="myscene")

    def test_missing_key_reported(self):
        with pytest.raises(ConfigError, match="delay"):
            parse_scene("[clutter]\namplitude = 1\n")

    def test_unknown_target_key_rejected(self):
        text = "[target]\namplitude = 1\ndelay = 4e-9\ncolour = red\n"
        with pytest.raises(ConfigError, match="colour"):
            parse_scene(text)

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_scene("what is this\n")


    @pytest.mark.parametrize("line, key", [
        ("activity = sleeping", "activity"),
        ("activity = empty", "activity"),
        ("rate = fast", "rate"),
        ("jitter = lots", "jitter"),
        ("amplitude = big", "amplitude"),
    ])
    def test_malformed_target_value_names_its_line(self, line, key):
        other = "phase = 0" if key == "amplitude" else "amplitude = 1"
        text = f"noise_sigma = 0\n[target]\ndelay = 9e-9\n{other}\n{line}\n"
        with pytest.raises(ConfigError, match=f"^cabin.txt:5: {key}: "):
            parse_scene(text, source="cabin.txt")

    def test_malformed_clutter_delay_names_its_line(self):
        with pytest.raises(ConfigError, match="^cabin.txt:3: delay: expected a number"):
            parse_scene("[clutter]\namplitude = 1\ndelay = soon\n", source="cabin.txt")

    @pytest.mark.parametrize("text, line, key", [
        ("[clutter]\namplitude = 1\ndelay = 4e-9\ndelay = 8e-9\n", 4, "delay"),
        ("noise_sigma = 0\nnoise_sigma = 1\n[clutter]\namplitude = 1\ndelay = 4e-9\n", 2,
         "noise_sigma"),
    ])
    def test_key_given_twice_rejected(self, text, line, key):
        with pytest.raises(ConfigError, match=f"^cabin.txt:{line}: {key} given twice"):
            parse_scene(text, source="cabin.txt")

    def test_invalid_motion_names_its_section(self):
        text = "[clutter]\namplitude = 1\ndelay = 4e-9\n[target]\namplitude = 1\ndelay = 9e-9\n" \
               "rate = -1\n"
        with pytest.raises(ConfigError, match="^cabin.txt:4: motion rate"):
            parse_scene(text, source="cabin.txt")


# Lines a scene text is drawn from: whole valid sections, and single lines
# that are valid or malformed (unknown sections and keys, bad numbers,
# comments, mixed case, blank lines); a key drawn twice in one block repeats it.
SCENE_KEYS = ("amplitude", "delay", "activity", "rate", "delay_excursion", "amp_excursion",
              "jitter", "phase", "noise_sigma", "colour")
SCENE_VALUES = ("1", "0.5 -0.2", "4e-9", "9e-9", "0", "-1", "x", "nan", "inf", "1 2 3", "",
                "1e300", "breathing", "TALKING", "empty", "sleeping")
SCENE_LINES = st.one_of(
    st.sampled_from(["[clutter]\namplitude = 1\ndelay = 4e-9",
                     "[target]\namplitude = 0.8\ndelay = 9e-9\nactivity = moving",
                     "noise_sigma = 0.01"]),
    st.sampled_from(["[clutter]", "[target]", "[ Target ]", "[CLUTTER", "[windmill]", "[]",
                     "", "   ", "# a comment", "what is this", "= 1", "a = b = c"]),
    st.builds("{}{}{}{}".format,
              st.sampled_from(SCENE_KEYS).flatmap(
                  lambda key: st.sampled_from([key, key.upper(), key.title(), f"  {key}"])),
              st.sampled_from(["=", " = ", "= "]), st.sampled_from(SCENE_VALUES),
              st.sampled_from(["", "  # note"])))


@settings(max_examples=500, deadline=None)
@given(st.lists(SCENE_LINES, max_size=12))
def test_scene_reader_returns_a_scene_or_names_the_fault(lines):
    text = "\n".join(lines)
    try:
        scene = parse_scene(text, source="cabin.txt")
    except ConfigError as exc:
        where, _, _ = str(exc).partition(": ")
        assert where.startswith("cabin.txt"), exc
        if where != "cabin.txt":  # a line error names a line of the text that holds something
            lineno = int(where.removeprefix("cabin.txt:"))
            assert 1 <= lineno <= len(text.splitlines()), exc
            assert text.splitlines()[lineno - 1].split("#", 1)[0].strip(), exc
    else:
        assert isinstance(scene, Scene)


@pytest.mark.parametrize("text, message", [
    # A section is built when its block ends, so its fault comes before any later line's.
    ("[clutter]\namplitude = 1\n[target]\nfoo", "cabin.txt:1: [clutter] section missing key 'delay'"),
    ("[clutter]\namplitude = x\ndelay = 1e-9\n[windmill]\n",
     "cabin.txt:2: amplitude: expected 're' or 're im', got 'x'"),
    ("[target]\namplitude = 1\ndelay = 9e-9\nrate = -1\n[clutter]\ndelay = 1 2\n",
     "cabin.txt:1: motion rate must be positive"),
    # A top-level line is checked as it is read.
    ("noise_sigma = x\nwhat is this\n", "cabin.txt:1: noise_sigma must be a number"),
])
def test_first_fault_of_several_is_reported(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_scene(text, source="cabin.txt")
    assert str(caught.value) == message


class TestSceneDatasets:
    """synth_dataset(scene=...): the scene's clutter, noise and target templates."""

    CFG = RadarConfig(n_fast=32, m_slow=40)
    CLUTTER = (PathComponent(1.0 + 0.5j, 5e-9), PathComponent(-0.3, 12e-9))
    PATH = PathComponent(0.8, 10e-9)

    def test_empty_samples_are_the_scene_clutter_plus_its_noise(self):
        quiet = Scene(clutter_paths=self.CLUTTER)
        static = simulate_received(quiet, self.CFG).data
        for rec in synth_dataset({"empty": 2}, self.CFG, rng=0, scene=quiet):
            assert np.array_equal(rec.cir.data, static)
        # The scene's noise level replaces sensor_noise.
        noisy = replace(quiet, noise_sigma=0.05)
        records = synth_dataset({"empty": 20}, self.CFG, rng=1, scene=noisy, sensor_noise=1.0)
        noise = np.stack([rec.cir.data - static for rec in records])
        assert np.std(noise.real) == pytest.approx(0.05, rel=0.03)
        assert np.std(noise.imag) == pytest.approx(0.05, rel=0.03)

    def test_occupied_samples_use_the_scene_template(self):
        # With no excursion the re-randomized motion phase cannot show, so
        # every breathing sample is exactly the template scene.
        still = MotionModel(ActivityLabel.BREATHING, delay_excursion=0.0, amp_excursion=0.0)
        scene = Scene(target_paths=((self.PATH, still),), clutter_paths=self.CLUTTER)
        expected = simulate_received(scene, self.CFG).data
        records = synth_dataset({"breathing": 3, "talking": 1}, self.CFG, rng=2, scene=scene)
        breathing = [rec for rec in records if rec.label is ActivityLabel.BREATHING]
        assert len(breathing) == 3
        for rec in breathing:
            assert np.array_equal(rec.cir.data, expected)
        # A class without a template still gets a randomized moving target.
        (talking,) = [rec for rec in records if rec.label is ActivityLabel.TALKING]
        assert frobenius_energy(mean_remove(talking.cir)[1]) > 0

    def test_breathing_template_with_jitter(self):
        calm = MotionModel(ActivityLabel.BREATHING, rate=0.25, jitter=0.0)
        jittery = replace(calm, jitter=2.0)
        (a,) = synth_dataset({"breathing": 1}, self.CFG, rng=4,
                             scene=Scene(target_paths=((self.PATH, calm),)))
        (b,) = synth_dataset({"breathing": 1}, self.CFG, rng=4,
                             scene=Scene(target_paths=((self.PATH, jittery),)))
        assert not np.array_equal(a.cir.data, b.cir.data)
        # The sample is the template at a fresh phase, its jitter drawn next
        # from the same stream.
        rng = np.random.default_rng(4)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        fresh = Scene(target_paths=((self.PATH, replace(jittery, phase=phase)),))
        assert np.array_equal(b.cir.data, simulate_received(fresh, self.CFG, rng).data)

    def test_two_targets_of_one_activity_rejected(self):
        calm = MotionModel(ActivityLabel.BREATHING)
        scene = Scene(target_paths=((self.PATH, calm), (PathComponent(0.5, 20e-9), calm)))
        with pytest.raises(ConfigError, match="two breathing targets"):
            synth_dataset({"breathing": 1}, self.CFG, rng=0, scene=scene)
