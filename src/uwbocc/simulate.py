"""Synthetic CIR generation from a discrete multipath model.

Each propagation path contributes a band-limited pulse at its delay.  Paths
bound to a target carry a motion model that modulates delay and amplitude
over slow time; clutter paths are static.  Signals are represented at
complex baseband: the carrier enters only through the phase rotation
exp(-j*2*pi*center_freq*delay) applied to each path, which is what turns
millimetre-scale delay micro-motion into the phase signature detectors rely
on.  Fractional delays are applied as a linear phase in the frequency
domain, which is exact for band-limited pulses but circular in the fast-time
window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import ActivityLabel, CirMatrix, SampleRecord, check_seed, read_counts
from .errors import ConfigError

__all__ = [
    "RadarConfig",
    "PathComponent",
    "MotionModel",
    "Scene",
    "simulate_received",
    "synth_dataset",
    "load_scene",
]


@dataclass(frozen=True)
class RadarConfig:
    """Pulse and timing parameters of the radar.

    Defaults follow the acquisition setup this package targets: a raised
    cosine pulse at 6.5 GHz with 500 MHz bandwidth and roll-off 0.5, a 0.1 s
    repetition interval, and 10 s samples (100 columns).  The fast-time
    sample count and interval are configuration choices, not measured values.
    """

    center_freq: float = 6.5e9
    bandwidth: float = 500e6
    rolloff: float = 0.5
    dt_fast: float = 0.5e-9
    dt_slow: float = 0.1
    n_fast: int = 64
    m_slow: int = 100

    def __post_init__(self):
        if not 0.0 <= self.rolloff <= 1.0:
            raise ConfigError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if not all(0 < v < np.inf for v in (self.center_freq, self.bandwidth,
                                             self.dt_fast, self.dt_slow)):
            raise ConfigError("frequencies and sampling intervals must be positive and finite")
        if self.n_fast < 1 or self.m_slow < 2:
            raise ConfigError("need n_fast >= 1 and m_slow >= 2")

    @property
    def fast_time_window(self) -> float:
        """Span of the fast-time axis in seconds; delays must fall inside it."""
        return self.n_fast * self.dt_fast


def raised_cosine_response(freq_offsets, bandwidth: float, rolloff: float) -> np.ndarray:
    """Raised-cosine magnitude response at the given offsets from band center.

    Unit in the flat passband |f| <= (1-rolloff)*B/2, cosine taper out to
    (1+rolloff)*B/2, zero beyond.
    """
    f = np.abs(np.asarray(freq_offsets, dtype=np.float64))
    flat_edge = (1.0 - rolloff) * bandwidth / 2.0
    stop_edge = (1.0 + rolloff) * bandwidth / 2.0
    h = np.zeros_like(f)
    h[f <= flat_edge] = 1.0
    if rolloff > 0:
        taper = (f > flat_edge) & (f < stop_edge)
        h[taper] = 0.5 * (1.0 + np.cos(np.pi / (rolloff * bandwidth) * (f[taper] - flat_edge)))
    return h


def _pulse_spectrum(cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fast-time DFT frequencies and the pulse's response at them.

    The simulated pulse's band must sit below the fast-time Nyquist
    frequency.  Recorded data is not held to this: its radar section only
    describes how it was sampled.
    """
    if (1.0 + cfg.rolloff) * cfg.bandwidth / 2.0 >= 0.5 / cfg.dt_fast:
        raise ConfigError(
            "pulse band edge (1+rolloff)*bandwidth/2 = "
            f"{(1 + cfg.rolloff) * cfg.bandwidth / 2:.3e} Hz exceeds the "
            f"Nyquist frequency {0.5 / cfg.dt_fast:.3e} Hz"
        )
    freqs = np.fft.fftfreq(cfg.n_fast, d=cfg.dt_fast)
    return freqs, raised_cosine_response(freqs, cfg.bandwidth, cfg.rolloff)


@dataclass(frozen=True)
class PathComponent:
    """A discrete propagation path: complex amplitude at a fixed base delay."""

    amplitude: complex
    delay: float

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ConfigError("path amplitude must be finite")
        if not (np.isfinite(self.delay) and self.delay >= 0):
            raise ConfigError("path delay must be finite and non-negative")


# Surrogate motion magnitudes.  33 ps of two-way delay is about 5 mm of
# chest motion; talking and moving scale it by 2x and 10x.  Carrier phase
# decorrelates once excursions pass a carrier cycle, so the moving class
# additionally swings the reflection amplitude hard to keep residual
# energies in the order breathing < talking < moving.  None of these are
# measured values.
_DEFAULT_MOTION = {
    ActivityLabel.BREATHING: dict(rate=0.25, delay_excursion=33e-12, amp_excursion=0.10, jitter=0.0),
    ActivityLabel.TALKING: dict(rate=1.5, delay_excursion=66e-12, amp_excursion=0.25, jitter=0.3),
    ActivityLabel.MOVING: dict(rate=0.5, delay_excursion=330e-12, amp_excursion=2.0, jitter=1.0),
}


@dataclass(frozen=True)
class MotionModel:
    """Slow-time modulation of a target path's delay and amplitude.

    kind selects the trajectory family; rate is the fundamental rate in Hz,
    delay_excursion the peak delay deviation in seconds, amp_excursion the
    peak relative amplitude deviation, jitter a unitless randomness scale,
    and phase the starting phase in radians.
    """

    kind: ActivityLabel
    rate: float = 0.25
    delay_excursion: float = 33e-12
    amp_excursion: float = 0.10
    jitter: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind is ActivityLabel.EMPTY:
            raise ConfigError("an empty car has no target motion")
        if not np.all(np.isfinite([self.rate, self.delay_excursion, self.amp_excursion,
                                   self.jitter, self.phase])):
            raise ConfigError("motion parameters must be finite")
        if self.rate <= 0:
            raise ConfigError("motion rate must be positive")
        if self.delay_excursion < 0 or self.amp_excursion < 0 or self.jitter < 0:
            raise ConfigError("excursions and jitter must be non-negative")

    @classmethod
    def default_for(cls, kind: ActivityLabel, **overrides) -> "MotionModel":
        params = dict(_DEFAULT_MOTION[kind])
        params.update(overrides)
        return cls(kind=kind, **params)


def motion_path(model: MotionModel, n_reps: int, dt_slow: float, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Delay offsets and complex amplitude factors for repetitions 0..n_reps-1.

    Breathing is a smooth sinusoid at the fundamental rate (plus optional
    phase jitter).  Talking is a sinusoid whose rate and phase wander
    randomly.  Moving is a bounded random walk with the largest excursions.
    Deterministic given the random source.
    """
    rng = np.random.default_rng(rng)
    t = np.arange(n_reps) * dt_slow
    kind = model.kind

    if kind is ActivityLabel.BREATHING:
        theta = 2.0 * np.pi * model.rate * t + model.phase
        if model.jitter > 0:
            theta = theta + model.jitter * np.cumsum(rng.normal(0.0, 0.1, n_reps))
        x = np.sin(theta)
    elif kind is ActivityLabel.TALKING:
        wander = np.cumsum(rng.normal(0.0, 1.0, n_reps)) / max(np.sqrt(n_reps), 1.0)
        rate = model.rate * (1.0 + model.jitter * 0.5 * np.tanh(wander))
        theta = 2.0 * np.pi * np.cumsum(rate) * dt_slow + model.phase
        theta = theta + model.jitter * 0.3 * np.cumsum(rng.normal(0.0, 0.2, n_reps))
        x = np.sin(theta)
    else:  # MOVING: bounded random walk, re-scaled to unit peak
        walk = np.cumsum(rng.normal(0.0, 1.0, n_reps))
        walk = walk + model.jitter * rng.normal(0.0, 0.25, n_reps)
        peak = np.max(np.abs(walk))
        x = walk / peak if peak > 0 else walk

    delay_offsets = model.delay_excursion * x
    amp_factors = (1.0 + model.amp_excursion * x).astype(np.complex128)
    return delay_offsets, amp_factors


@dataclass(frozen=True)
class Scene:
    """Everything the simulator needs: target paths with motion, static clutter, noise.

    noise_sigma is the per-sample standard deviation of the real and of the
    imaginary noise component (zero for noise-free scenes).
    """

    target_paths: tuple[tuple[PathComponent, MotionModel], ...] = ()
    clutter_paths: tuple[PathComponent, ...] = ()
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "target_paths", tuple(self.target_paths))
        object.__setattr__(self, "clutter_paths", tuple(self.clutter_paths))
        if len(self.target_paths) + len(self.clutter_paths) < 1:
            raise ConfigError("a scene needs at least one propagation path")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _check_delay_window(delays, cfg: RadarConfig):
    delays = np.asarray(delays, dtype=np.float64)
    if delays.size and (delays.min() < 0 or delays.max() >= cfg.fast_time_window):
        raise ConfigError(
            f"path delay outside the fast-time window [0, {cfg.fast_time_window:.3e}) s: "
            f"range [{delays.min():.3e}, {delays.max():.3e}]"
        )


def _shifted_pulses(freqs, spectrum, delays) -> np.ndarray:
    """Columns of band-limited pulses at the given delays (linear-phase shift)."""
    phase = np.exp(-2j * np.pi * np.outer(freqs, np.asarray(delays)))
    return np.fft.ifft(spectrum[:, None] * phase, axis=0)


def simulate_received(scene: Scene, cfg: RadarConfig, rng=None) -> CirMatrix:
    """Simulate the received CIR matrix for a scene.

    Column m is the superposition of every target path evaluated at its
    delay/amplitude trajectory at time m*dt_slow, the static clutter paths,
    and circularly-symmetric white Gaussian noise.
    """
    return CirMatrix(_received(scene, cfg, rng), cfg.dt_fast, cfg.dt_slow)


def _received(scene: Scene, cfg: RadarConfig, rng) -> np.ndarray:
    """simulate_received's complex128 (n_fast, m_slow) data; noise too strong overflows to inf."""
    rng = np.random.default_rng(rng)
    n, m = cfg.n_fast, cfg.m_slow
    freqs, spectrum = _pulse_spectrum(cfg)
    data = np.zeros((n, m), dtype=np.complex128)

    static = np.zeros(n, dtype=np.complex128)
    for path in scene.clutter_paths:
        _check_delay_window([path.delay], cfg)
        pulse = _shifted_pulses(freqs, spectrum, [path.delay])[:, 0]
        static += path.amplitude * np.exp(-2j * np.pi * cfg.center_freq * path.delay) * pulse
    data += static[:, None]

    for path, motion in scene.target_paths:
        offsets, amp_factors = motion_path(motion, m, cfg.dt_slow, rng)
        delays = path.delay + offsets
        _check_delay_window(delays, cfg)
        carrier = np.exp(-2j * np.pi * cfg.center_freq * delays)
        pulses = _shifted_pulses(freqs, spectrum, delays)
        data += pulses * (path.amplitude * amp_factors * carrier)[None, :]

    if scene.noise_sigma > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            data += scene.noise_sigma * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return data


_SEATS = ("front", "rear", "middle")
_SEGMENTS_PER_PARTICIPANT = 4


def _random_clutter(rng, cfg: RadarConfig, n_paths: int) -> tuple[PathComponent, ...]:
    paths = []
    for _ in range(n_paths):
        amp = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        delay = rng.uniform(0.02, 0.90) * cfg.fast_time_window
        paths.append(PathComponent(complex(amp), float(delay)))
    return tuple(paths)


def _random_target(rng, cfg: RadarConfig, kind: ActivityLabel,
                   template: tuple[PathComponent, MotionModel] | None) -> tuple[PathComponent, MotionModel]:
    if template is not None:
        path, motion = template
        return path, replace(motion, phase=float(rng.uniform(0.0, 2.0 * np.pi)))
    amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
    margin = 2.0 * _DEFAULT_MOTION[kind]["delay_excursion"]
    delay = rng.uniform(0.1 * cfg.fast_time_window + margin, 0.8 * cfg.fast_time_window - margin)
    base = _DEFAULT_MOTION[kind]
    motion = MotionModel(
        kind=kind,
        rate=float(base["rate"] * rng.uniform(0.75, 1.3)),
        delay_excursion=float(base["delay_excursion"] * rng.uniform(0.7, 1.3)),
        amp_excursion=float(base["amp_excursion"] * rng.uniform(0.7, 1.3)),
        jitter=float(base["jitter"]),
        phase=float(rng.uniform(0.0, 2.0 * np.pi)),
    )
    return PathComponent(complex(amp), float(delay)), motion


def synth_dataset(counts, cfg: RadarConfig | None = None, rng=None, *,
                  scene: Scene | None = None, sensor_noise: float = 1e-3,
                  clutter_paths: int = 4) -> list[SampleRecord]:
    """Generate a labeled synthetic dataset with per-class sample counts.

    counts maps ActivityLabel (or its name, in any case) to a non-negative
    integer count; core.read_counts says what it refuses.  Empty samples
    contain clutter and noise only; occupied samples add one randomized
    target path with the motion family of their class.  When a
    scene is given, its clutter, noise level, and any matching target
    templates are used instead of randomized ones (target phase is still
    re-randomized per sample), and sensor_noise and clutter_paths are
    unused; a scene may hold one target per activity.  Empty samples need
    clutter: clutter_paths >= 1, or a scene with clutter.  A sample that
    overflows single precision, the precision .cir files store, is a
    ConfigError.  Deterministic given the seed.

    Occupied samples are spread over two cars (3:2 pattern) and empty samples
    are assigned to car2 only, mirroring the acquisition protocol the split
    logic expects.
    """
    if scene is None and clutter_paths < 0:
        raise ConfigError(f"clutter_paths must be >= 0, got {clutter_paths}")
    if isinstance(rng, (int, np.integer)):
        check_seed(rng)
    cfg = cfg or RadarConfig()
    rng = np.random.default_rng(rng)
    wanted = read_counts(counts, "counts")

    templates: dict[ActivityLabel, tuple[PathComponent, MotionModel]] = {}
    if scene is None:
        if wanted.get(ActivityLabel.EMPTY) and clutter_paths == 0:
            raise ConfigError("empty samples are clutter and noise only, so they need "
                              "clutter_paths >= 1, got 0")
        draw_clutter = partial(_random_clutter, rng, cfg, clutter_paths)
        noise_sigma = sensor_noise
    else:
        draw_clutter = lambda: scene.clutter_paths
        noise_sigma = scene.noise_sigma
        for path, motion in scene.target_paths:
            if motion.kind in templates:
                raise ConfigError(f"the scene has two {motion.kind.value} targets; "
                                  "synth_dataset takes one template per activity")
            templates[motion.kind] = (path, motion)
        if wanted.get(ActivityLabel.EMPTY) and not scene.clutter_paths:
            raise ConfigError("empty samples are the scene's clutter and noise, so they need "
                              "at least one [clutter] section; the scene has none")

    records: list[SampleRecord] = []
    for label in ActivityLabel:
        for i in range(wanted.get(label, 0)):
            clutter = draw_clutter()
            if label.occupied:
                targets = (_random_target(rng, cfg, label, templates.get(label)),)
                participant = i // _SEGMENTS_PER_PARTICIPANT
                provenance = ("car1" if i % 5 < 3 else "car2", _SEATS[participant % len(_SEATS)],
                              f"p{label.value[0]}{participant:03d}", i % _SEGMENTS_PER_PARTICIPANT)
            else:
                targets, provenance = (), ("car2", None, None, i)
            data = _received(Scene(targets, clutter, noise_sigma), cfg, rng)
            with np.errstate(over="ignore"):
                stored = data.astype(np.complex64)  # the precision write_cir stores
            if not np.isfinite(stored).all():
                raise ConfigError(f"{label.value} sample {i} overflows single precision: "
                                  "lower the noise level or the path amplitudes")
            records.append(SampleRecord(CirMatrix(data, cfg.dt_fast, cfg.dt_slow), label,
                                        *provenance))
    return records


def _parse_complex_pair(value: str) -> complex:
    parts = value.split()
    try:
        if len(parts) == 1:
            return complex(float(parts[0]))
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"expected 're' or 're im', got {value!r}")


def _parse_number(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}") from None


def _parse_target_activity(value: str) -> ActivityLabel:
    kind = ActivityLabel.from_string(value)
    if not kind.occupied:
        raise ConfigError(f"a target moves, so its activity cannot be {kind.value!r}")
    return kind


# The values a scene section's keys hold; every key not listed is a number.
_SECTION_PARSERS = {"amplitude": _parse_complex_pair, "activity": _parse_target_activity}
_SECTION_KEYS = {
    "clutter": ("amplitude", "delay"),
    "target": ("amplitude", "delay", "activity", "rate", "delay_excursion", "amp_excursion",
               "jitter", "phase"),
}


def _scene_section(source: str, kind: str, header: int, block: dict):
    """One section's path, or (path, motion) for a [target], from its {key: (value, line)}.

    header is the line of the section's header.  Keys are read in
    _SECTION_KEYS order, so the first bad value reported is the first in
    that order.  amplitude and delay are required, and a target's other
    keys default to its activity's standard motion.
    """
    values = {}
    for key in _SECTION_KEYS[kind]:
        if key in block:
            value, lineno = block.pop(key)
            try:
                values[key] = _SECTION_PARSERS.get(key, _parse_number)(value)
            except ConfigError as exc:
                raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from None
        elif key in ("amplitude", "delay"):
            raise ConfigError(f"{source}:{header}: [{kind}] section missing key {key!r}")
    try:
        if block:
            raise ConfigError(f"unknown {kind} keys {sorted(block)}")
        path = PathComponent(values.pop("amplitude"), values.pop("delay"))
        if kind == "clutter":
            return path
        return path, MotionModel.default_for(values.pop("activity", ActivityLabel.BREATHING),
                                             **values)
    except ConfigError as exc:
        raise ConfigError(f"{source}:{header}: {exc}") from None


def parse_scene(text: str, source: str = "<scene>") -> Scene:
    """Parse the plain-text scene format into a Scene.

    Format: top-level `key = value` lines plus repeated `[clutter]` and
    `[target]` sections, each a block of `key = value` lines.  Clutter keys:
    amplitude (one or two floats: re [im]), delay (seconds).  Target keys add
    activity, rate, delay_excursion, amp_excursion, jitter, phase.  `#`
    starts a comment.  Every malformed value is a ConfigError naming
    source:line.  See docs/formats.md for the full schema.

    The text is read block by block: the top level, then each section from
    its header to the next.  A top-level line is checked as it is read; a
    section is built when its block ends.
    """
    noise_sigma = 0.0
    sections: dict[str, list] = {"clutter": [], "target": []}
    kind, header, block = "", 0, {}  # kind "" is the top level
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if kind:
                sections[kind].append(_scene_section(source, kind, header, block))
            kind, header, block = line.strip("[] ").lower(), lineno, {}
            if kind not in sections:
                raise ConfigError(f"{source}:{lineno}: unknown section [{kind}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in block:
            raise ConfigError(f"{source}:{lineno}: {key} given twice")
        block[key] = (value, lineno)
        if kind:
            continue
        if key != "noise_sigma":
            raise ConfigError(f"{source}:{lineno}: unknown top-level key {key!r}")
        try:
            noise_sigma = float(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: noise_sigma must be a number") from None
    if kind:
        sections[kind].append(_scene_section(source, kind, header, block))

    try:
        return Scene(target_paths=tuple(sections["target"]),
                     clutter_paths=tuple(sections["clutter"]), noise_sigma=noise_sigma)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_scene(path) -> Scene:
    """Read and parse a scene configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scene file {path}: {exc}") from None
    return parse_scene(text, source=str(path))
