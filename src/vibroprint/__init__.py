"""vibroprint: design and analysis of vibration-optimized 3D-printed
robotic fingerprints.

Workflow: pick a material and printer limits (`materials`), predict beam
natural frequencies (`beams`), read the microphone's sensitive bands
(`mic`), search the printable (side, length) space for beams whose first
mode lands in-band (`design`), synthesize slide recordings (`simulate`),
and run spectral AUC analysis against a baseline skin (`signals`,
`dataset`).
"""

__version__ = "0.1.0"

from .beams import (
    BeamSpec,
    CrossSection,
    Shape,
    area,
    frequency_bounds,
    modal_frequencies,
    mode_constant,
    nominal_frequency,
    second_moment,
)
from .dataset import (
    load_manifest,
    read_recording_bundle,
    read_wav,
    write_recording_bundle,
    write_wav,
)
from .design import (
    DesignConstraints,
    FeasibleRegion,
    Segment,
    SegmentLayout,
    feasible_region,
    frequency_sweep,
    material_class,
    reference_design_constraints,
    reference_layout_constraints,
    segment_layouts,
)
from .errors import (
    BaselineError,
    CurveFormatError,
    EmptyRegionError,
    LayoutError,
    ManifestError,
    MaterialConfigError,
    NyquistError,
    SpectrumGridError,
    VibroprintError,
    WavFormatError,
)
from .materials import (
    Material,
    PrinterConstraints,
    builtin_materials,
    default_printer_constraints,
    get_material,
    load_material_config,
)
from .mic import (
    DEFAULT_THRESHOLD_DB,
    MIC_LOW_BAND,
    ResponseCurve,
    SensitivityBand,
    bundled_mic_curve,
    load_response_curve,
    sensitive_bands,
)
from .signals import (
    AucReport,
    BASELINE_MATERIAL,
    DEFAULT_ANALYSIS_BAND,
    GroupStats,
    Microphone,
    Procedure,
    Recording,
    RecordingMeta,
    REFERENCE_AMPLITUDE,
    Spectrum,
    SpectrumMean,
    band_auc,
    dominant_frequency,
    mean_spectrum,
    normalize_against_baseline,
    spectra,
    spectrum,
)
from .simulate import (
    SlideScenario,
    noise_sigma,
    scenario_to_dict,
    slide_signal,
)
