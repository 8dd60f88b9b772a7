"""Synthetic body-borne vibration signals from a beam design.

A sliding fingertip excites each beam it passes: the beam catches on the
surface, snaps back, and rings down at its natural frequencies.  The
model is a train of damped modal ring-downs launched every pitch/velocity
seconds, plus a seeded Gaussian noise floor.  It is a desk-scale stand-in
for real recordings (damping ratios are modeling choices, not measured),
good enough to exercise the analysis pipeline end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beams import BeamSpec, mode_constant, nominal_frequency
from .errors import NyquistError
from .signals import REFERENCE_AMPLITUDE, Procedure, Recording, RecordingMeta

DEFAULT_DAMPING_RATIO = 0.02
DEFAULT_NOISE_FLOOR_DB = -70.0
DEFAULT_MODES = 3
DEFAULT_SAMPLE_RATE = 500e3

# Ring-downs are truncated once the envelope has decayed by e^-21 (~1e-9).
_DECAY_CUTOFF_TIME_CONSTANTS = 21.0


def _per_mode(value, modes: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * modes
    values = tuple(float(v) for v in value)
    if len(values) != modes:
        raise ValueError(f"{name} needs {modes} entries, got {len(values)}")
    return values


@dataclass(frozen=True)
class SlideScenario:
    """Parameters of one simulated lateral slide (SI units).

    `pitch` is the center-to-center beam spacing (2 x side in the final
    designs), `velocity` the sliding speed (m/s); beams are struck at
    velocity / pitch per second.  `damping_ratio` and `mode_amplitudes`
    accept a scalar (applied to every mode) or one value per mode; without
    `mode_amplitudes`, mode k + 1 gets amplitude 0.5**(k + 1), so one
    strike's modes sum to less than 1.
    `noise_floor_db` sets the expected amplitude-spectrum level of the
    added Gaussian noise (None disables noise).

    Construction checks, in this order: pitch, velocity, duration and
    sample rate positive and finite; `modes` a mode index in [1, 2**53];
    seed >= 0; duration * sample_rate and `noise_floor_db` finite, and the
    noise sigma that the floor gives over the recording finite; every
    mode below half the sample rate (NyquistError, naming how many modes
    the rate fits); one damping ratio in (0, 1) and one finite amplitude
    per mode; at most one strike per sample.  A scenario that builds can
    be synthesized.
    """

    beam: BeamSpec
    pitch: float
    velocity: float
    duration: float
    modes: int = DEFAULT_MODES
    damping_ratio: float | tuple[float, ...] = DEFAULT_DAMPING_RATIO
    mode_amplitudes: float | tuple[float, ...] | None = None
    noise_floor_db: float | None = DEFAULT_NOISE_FLOOR_DB
    sample_rate: float = DEFAULT_SAMPLE_RATE
    seed: int = 0

    def __post_init__(self):
        for name in ("pitch", "velocity", "duration", "sample_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        mode_constant(self.modes)  # refuses a count past the highest mode index
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.duration * self.sample_rate):
            raise ValueError(
                f"duration * sample_rate must be finite, got {self.duration} s * {self.sample_rate} Hz"
            )
        if self.noise_floor_db is not None:
            if not math.isfinite(self.noise_floor_db):
                raise ValueError(f"noise_floor_db must be finite or None, got {self.noise_floor_db}")
            try:
                sigma = noise_sigma(self.noise_floor_db, self.n_samples)
            except OverflowError:
                sigma = math.inf
            if not math.isfinite(sigma):
                raise ValueError(
                    f"noise_floor_db {self.noise_floor_db} dB gives a noise sigma past the "
                    f"float range over {self.n_samples} samples"
                )
        highest = nominal_frequency(self.beam, self.modes)
        if self.sample_rate <= 2.0 * highest:
            # The modes rise with their index: bisect for the first that does not fit.
            fits, over = 0, self.modes
            while over - fits > 1:
                mid = (fits + over) // 2
                if self.sample_rate <= 2.0 * nominal_frequency(self.beam, mid):
                    over = mid
                else:
                    fits = mid
            most = f"at most {fits} mode{'s' * (fits > 1)}" if fits else "not even mode 1"
            raise NyquistError(
                f"sample rate {self.sample_rate} Hz cannot represent mode at {highest:.4g} Hz; "
                f"need > {2.0 * highest:.4g} Hz; this rate fits {most}"
            )
        damping = _per_mode(self.damping_ratio, self.modes, "damping")
        for zeta in damping:
            if not 0.0 < zeta < 1.0:
                raise ValueError(f"damping must be in (0, 1), got {zeta}")
        amplitudes = self.mode_amplitudes
        if amplitudes is None:
            amplitudes = tuple(0.5 ** (k + 1) for k in range(self.modes))
        amplitudes = _per_mode(amplitudes, self.modes, "amplitudes")
        if not all(math.isfinite(a) for a in amplitudes):
            raise ValueError(f"mode_amplitudes must be finite, got {amplitudes}")
        object.__setattr__(self, "damping_ratio", damping)
        object.__setattr__(self, "mode_amplitudes", amplitudes)
        # At most one strike per sample, so the strike loop ends.
        if self.excitation_rate > self.sample_rate:
            raise ValueError(
                f"strike rate velocity / pitch = {self.excitation_rate:.4g} Hz exceeds "
                f"the sample rate {self.sample_rate} Hz"
            )

    @property
    def n_samples(self) -> int:
        """Samples in the synthesized recording: duration * sample_rate, at least 2."""
        return max(2, int(round(self.duration * self.sample_rate)))

    @property
    def excitation_rate(self) -> float:
        """Beam strikes per second: velocity / pitch (Hz)."""
        return self.velocity / self.pitch


def _ring_down(scenario: SlideScenario, freqs: list[float], n_samples: int) -> np.ndarray:
    """One strike: y(t) = sum_n A_n exp(-2 pi f_n zeta_n t) sin(2 pi f_n sqrt(1 - zeta_n^2) t)."""
    t = np.arange(n_samples) / scenario.sample_rate
    y = np.zeros(n_samples)
    for f_n, zeta, amp in zip(freqs, scenario.damping_ratio, scenario.mode_amplitudes):
        if amp == 0.0:
            continue
        f_damped = f_n * math.sqrt(1.0 - zeta**2)
        y += amp * np.exp(-2.0 * math.pi * f_n * zeta * t) * np.sin(2.0 * math.pi * f_damped * t)
    return y


def noise_sigma(noise_floor_db: float, n_samples: int) -> float:
    """Gaussian sigma whose expected single-sided amplitude-spectrum level
    (rectangular window) equals noise_floor_db.

    White noise spreads over n/2 bins, so the per-bin expected magnitude
    is sigma * sqrt(pi / n); inverting that keeps the displayed floor
    independent of record length.
    """
    target = REFERENCE_AMPLITUDE * 10.0 ** (noise_floor_db / 20.0)
    return target * math.sqrt(n_samples / math.pi)


def slide_signal(scenario: SlideScenario, meta: RecordingMeta | None = None) -> Recording:
    """Superpose ring-downs at the excitation rate plus the noise floor.

    Strikes land every pitch/velocity seconds starting at t = 0.  The
    optional `meta` overrides/extends the labels derived from the
    scenario.  Deterministic for a fixed seed.  Every mode already fits
    the rate: `SlideScenario` checked that when it was built.
    """
    rate = scenario.sample_rate
    n_samples = scenario.n_samples
    period = scenario.pitch / scenario.velocity
    if scenario.duration < period:
        warnings.warn(
            f"duration {scenario.duration} s is shorter than one excitation "
            f"period ({period:.4g} s); signal holds a single strike",
            stacklevel=2,
        )

    freqs = [nominal_frequency(scenario.beam, n) for n in range(1, scenario.modes + 1)]
    # Kernel long enough for the slowest ring-down to die off (~1e-9).
    slowest = min(
        2.0 * math.pi * f * z for f, z in zip(freqs, scenario.damping_ratio)
    )
    kernel_len = min(
        n_samples, max(2, int(math.ceil(_DECAY_CUTOFF_TIME_CONSTANTS / slowest * rate)))
    )
    kernel = _ring_down(scenario, freqs, kernel_len)

    samples = np.zeros(n_samples)
    strike = 0
    while True:
        start = int(round(strike * period * rate))
        if start >= n_samples:
            break
        span = min(kernel_len, n_samples - start)
        samples[start : start + span] += kernel[:span]
        strike += 1

    if scenario.noise_floor_db is not None:
        rng = np.random.default_rng(scenario.seed)
        samples = samples + rng.normal(
            0.0, noise_sigma(scenario.noise_floor_db, n_samples), n_samples
        )

    labels = RecordingMeta(
        exploration_procedure=Procedure.LATERAL_MOTION.value,
        fingerprint_material=scenario.beam.material.name,
    )
    if meta is not None:
        labels = replace(labels, **{k: v for k, v in meta.to_dict().items() if v is not None})
    return Recording(samples=samples, sample_rate=rate, meta=labels)


def scenario_to_dict(scenario: SlideScenario) -> dict:
    """JSON-ready scenario parameters for the simulation sidecar."""
    beam = scenario.beam
    return {
        "beam": {
            "material": {
                "name": beam.material.name,
                "density_kg_m3": beam.material.density,
                "youngs_modulus_pa": beam.material.youngs_modulus,
                "density_range_kg_m3": list(beam.material.density_range)
                if beam.material.density_range
                else None,
            },
            "section": {
                "shape": beam.section.shape.value,
                "outer_m": beam.section.outer,
                "inner_m": beam.section.inner,
            },
            "length_m": beam.length,
        },
        "pitch_m": scenario.pitch,
        "velocity_m_s": scenario.velocity,
        "duration_s": scenario.duration,
        "modes": scenario.modes,
        "damping_ratio": list(scenario.damping_ratio),
        "mode_amplitudes": list(scenario.mode_amplitudes),
        "noise_floor_db": scenario.noise_floor_db,
        "sample_rate_hz": scenario.sample_rate,
        "seed": scenario.seed,
        "excitation_rate_hz": scenario.excitation_rate,
    }
