"""Workloads: seeded inputs, the CLI calls of one pass, and the output checks.

Each workload has three parts.  `setup` builds the inputs in-process from
the seed (the timed set-up); `argvs` lists the `vibroprint` command lines
of one pass; `check` returns the problems found in one pass's outputs,
comparing artifacts against the first pass byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import warnings
from dataclasses import dataclass
from typing import ClassVar
from pathlib import Path

MICS = ("Left", "Right", "Palm")
MATERIALS = ("Default", "ST45B", "PLA", "TPU")
BASELINE = "Default"
# Synthesized from the baseline's scenarios at k times its mode amplitudes,
# both at a -160 dB noise floor, so its normalized mean AUC must be k.
PLANTED = "ST45B"
BASE_AMPLITUDES = (0.02, 0.01)
# Group label -> (beam material, side mm, length mm, noise floor dB).  Two
# modes keep every beam's second mode below the 250 kHz Nyquist limit.
BEAMS = {
    "Default": ("TPU", 2.6, 2.0, -160.0),
    "ST45B": ("TPU", 2.6, 2.0, -160.0),
    "PLA": ("PLA", 1.0, 3.5, -70.0),
    "TPU": ("TPU", 2.6, 1.8, -70.0),
}
SAMPLE_RATE_HZ = 500e3

# The published final-design table: segment -> (side mm, length mm).
RIGID_TABLE = {"FingerTip": (1.0, 4.0), "FingerPhalanx": (1.0, 3.5), "ThumbPhalanx": (1.0, 3.2), "Palm": (1.0, 3.5)}
FLEXIBLE_TABLE = {"FingerTip": (2.6, 2.0), "FingerPhalanx": (2.6, 1.8), "ThumbPhalanx": (2.6, 1.6), "Palm": (2.6, 1.8)}
DESIGN_TABLES = {"PLA": RIGID_TABLE, "ST45B": RIGID_TABLE, "TPU": FLEXIBLE_TABLE}


def _same_as_first(name: str, path: Path, first_digests: dict[str, str], problems: list[str]) -> None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if first_digests.setdefault(name, digest) != digest:
        problems.append(f"{name} differs from the first pass")


def grid_cells(constraints, step: float) -> int:
    """Cells of the design scan's (side, length) grid: floor(width / step) + 1 points per axis."""

    def points(lo, hi):
        return int(math.floor((hi - lo) / step + 1e-9)) + 1

    return points(*constraints.side_range) * points(*constraints.length_range)


@dataclass(frozen=True)
class DesignGrid:
    """`vibroprint design` with layouts for each material at one grid step."""

    step_mm: float
    materials: tuple[str, ...] = ("PLA", "ST45B", "TPU")
    work_unit: ClassVar[str] = "grid cells"
    throughput: ClassVar[tuple[str, str]] = ("grid_cells_per_s", "1/s")

    def setup(self, vp, seed: int, work: Path) -> dict:
        # The design inputs are fixed; the seed only permutes the material order.
        order = list(self.materials)
        random.Random(seed).shuffle(order)
        cells = sum(
            grid_cells(vp.reference_layout_constraints(vp.get_material(name)), self.step_mm * 1e-3)
            for name in order
        )
        return {"order": order, "work_per_pass": cells}

    def digest(self, inputs: dict) -> str:
        return hashlib.sha256(repr((inputs["order"], self.step_mm)).encode()).hexdigest()

    def argvs(self, inputs: dict, out: Path) -> list[list[str]]:
        return [
            ["design", "--material", m, "--grid-step-mm", repr(self.step_mm), "--output-dir", str(out / m)]
            for m in inputs["order"]
        ]

    def check(self, inputs: dict, out: Path, first_digests: dict[str, str]) -> list[str]:
        problems: list[str] = []
        for m in inputs["order"]:
            try:
                with (out / m / "layouts.csv").open(newline="") as fh:
                    rows = list(csv.DictReader(fh))
                got = {r["segment"]: (float(r["side_mm"]), float(r["length_mm"]), float(r["pitch_mm"])) for r in rows}
                want = {seg: (side, length, 2.0 * side) for seg, (side, length) in DESIGN_TABLES[m].items()}
                if len(rows) != len(want) or any(
                    seg not in got or any(abs(g - w) > 1e-9 for g, w in zip(got[seg], want[seg])) for seg in want
                ):
                    problems.append(f"{m}: layouts.csv does not match the final-design table: {got}")
                _same_as_first(f"{m}/feasible_grid.csv", out / m / "feasible_grid.csv", first_digests, problems)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"{m}: unreadable design output ({exc!r})")
        return problems


@dataclass(frozen=True)
class Analyze:
    """`vibroprint analyze <glob>` over a synthesized corpus of slide recordings.

    The corpus has mics x materials x objects x reps recordings of
    `duration_s` seconds at 500 kHz.
    """

    mics: int
    materials: int
    objects: int
    reps: int
    duration_s: float
    write_spectra: bool = False
    work_unit: ClassVar[str] = "audio s"
    throughput: ClassVar[tuple[str, str]] = ("audio_s_per_s", "s/s")

    @property
    def recordings(self) -> int:
        return self.mics * self.materials * self.objects * self.reps

    def plan(self, seed: int) -> tuple[float, list[dict]]:
        """(k, one dict per recording): every random draw comes from the seed."""
        rng = random.Random(seed)
        k = round(rng.uniform(3.0, 12.0), 3)
        velocity = {o: rng.uniform(500.0, 1000.0) for o in range(self.objects)}  # mm/s
        scale = {
            (mic, mat): (1.0 if mat == BASELINE else k if mat == PLANTED else rng.uniform(1.0, 4.0))
            for mic in MICS[: self.mics]
            for mat in MATERIALS[: self.materials]
        }
        items = []
        for mic in MICS[: self.mics]:
            for o in range(self.objects):
                for rep in range(1, self.reps + 1):
                    noise_seed = rng.randrange(2**31)
                    for mat in MATERIALS[: self.materials]:
                        items.append(
                            {
                                "name": f"{mic}_{mat}_obj{o:02d}_r{rep}",
                                "mic": mic,
                                "material": mat,
                                "object": f"obj{o:02d}",
                                "rep": rep,
                                "velocity_mm_s": velocity[o],
                                "amplitudes": tuple(a * scale[(mic, mat)] for a in BASE_AMPLITUDES),
                                "seed": noise_seed,
                            }
                        )
        return k, items

    def setup(self, vp, seed: int, work: Path) -> dict:
        """Synthesize the corpus through slide_signal and write_recording_bundle.

        Any warning (a clipped sample, a slide shorter than one strike) fails
        the generator.
        """
        from vibroprint import dataset, simulate
        from vibroprint.units import mm_to_m

        k, items = self.plan(seed)
        corpus = work / "corpus"
        corpus.mkdir(parents=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for item in items:
                material, side_mm, length_mm, noise_db = BEAMS[item["material"]]
                beam = vp.BeamSpec(vp.get_material(material), vp.CrossSection.square(mm_to_m(side_mm)), mm_to_m(length_mm))
                scenario = vp.SlideScenario(
                    beam=beam,
                    pitch=mm_to_m(2.0 * side_mm),
                    velocity=mm_to_m(item["velocity_mm_s"]),
                    duration=self.duration_s,
                    modes=len(BASE_AMPLITUDES),
                    mode_amplitudes=item["amplitudes"],
                    noise_floor_db=noise_db,
                    sample_rate=SAMPLE_RATE_HZ,
                    seed=item["seed"],
                )
                meta = vp.RecordingMeta(
                    object=item["object"],
                    fingerprint_material=item["material"],
                    microphone=item["mic"],
                    repetition=item["rep"],
                )
                rec = simulate.slide_signal(scenario, meta=meta)
                dataset.write_recording_bundle(
                    rec, corpus / f"{item['name']}.wav", scenario=vp.scenario_to_dict(scenario), timestamp=False
                )
        return {"corpus": corpus, "k": k, "work_per_pass": self.recordings * self.duration_s}

    def digest(self, inputs: dict) -> str:
        h = hashlib.sha256()
        for path in sorted(inputs["corpus"].iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def argvs(self, inputs: dict, out: Path) -> list[list[str]]:
        argv = ["analyze", str(inputs["corpus"] / "*.wav"), "--output-dir", str(out)]
        return [argv + ["--write-spectra"] if self.write_spectra else argv]

    def check(self, inputs: dict, out: Path, first_digests: dict[str, str]) -> list[str]:
        problems: list[str] = []
        try:
            with (out / "auc.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.recordings:
                problems.append(f"auc.csv has {len(rows)} rows, expected {self.recordings}")
            mics = json.loads((out / "ratios.json").read_text())["microphones"]
            for mic in MICS[: self.mics]:
                groups = mics[mic]["groups"]
                if groups[BASELINE]["normalized_mean"] != 1.0:
                    problems.append(f"{mic}: baseline normalized_mean {groups[BASELINE]['normalized_mean']!r} != 1.0")
                planted = groups[PLANTED]["normalized_mean"]
                if abs(planted - inputs["k"]) > 0.01 * inputs["k"]:
                    problems.append(f"{mic}: planted normalized_mean {planted!r} not within 1% of {inputs['k']}")
            _same_as_first("auc.csv", out / "auc.csv", first_digests, problems)
            _same_as_first("ratios.json", out / "ratios.json", first_digests, problems)
            if self.write_spectra:
                for mic in MICS[: self.mics]:
                    for mat in MATERIALS[: self.materials]:
                        name = f"mean_spectrum_{mic}_{mat}.csv"
                        _same_as_first(name, out / name, first_digests, problems)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable analyze output ({exc!r})")
        return problems


WORKLOADS = {
    "design-grid": DesignGrid(step_mm=0.005),
    "analyze-long": Analyze(mics=3, materials=4, objects=2, reps=5, duration_s=0.5),
    "analyze-many": Analyze(mics=3, materials=4, objects=25, reps=2, duration_s=0.02),
    "analyze-spectra": Analyze(mics=2, materials=2, objects=1, reps=6, duration_s=0.2, write_spectra=True),
}

# The same flows at a size that runs in about a second, for the self-test.
TINY_WORKLOADS = {
    "design-grid": DesignGrid(step_mm=0.1),
    "analyze-long": Analyze(mics=3, materials=4, objects=1, reps=1, duration_s=0.02),
    "analyze-many": Analyze(mics=3, materials=4, objects=2, reps=1, duration_s=0.01),
    "analyze-spectra": Analyze(mics=2, materials=2, objects=1, reps=2, duration_s=0.02, write_spectra=True),
}
