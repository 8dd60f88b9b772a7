"""Exception types shared across the toolkit.

Plain construction mistakes (negative lengths, bad enum values, ...) raise
ValueError; the classes here cover domain failures that callers are expected
to catch and that carry structured diagnostics.
"""


class VibroprintError(Exception):
    """Base class for all domain errors raised by this package."""


class MaterialConfigError(VibroprintError):
    """Material config file missing, unparseable, or physically invalid."""


class CurveFormatError(VibroprintError):
    """Response-curve CSV is missing its header or otherwise malformed."""


class EmptyRegionError(VibroprintError):
    """Feasibility search found no grid point inside the target band.

    Attributes:
        nearest_side: side (m) of the closest-miss grid point.
        nearest_length: length (m) of the closest-miss grid point.
        nearest_frequency: its first-mode frequency bounds (Hz, Hz).
        distance: frequency distance (Hz) from the band.
    """

    def __init__(self, message, nearest_side, nearest_length, nearest_frequency, distance):
        super().__init__(message)
        self.nearest_side = nearest_side
        self.nearest_length = nearest_length
        self.nearest_frequency = nearest_frequency
        self.distance = distance


class LayoutError(VibroprintError):
    """A segment's clearance cap cannot be met by any feasible point.

    Attributes:
        segment_errors: dict mapping segment name -> reason string.
        layouts: layouts of the segments that did succeed.
    """

    def __init__(self, message, segment_errors, layouts=()):
        super().__init__(message)
        self.segment_errors = dict(segment_errors)
        self.layouts = tuple(layouts)


class SpectrumGridError(VibroprintError):
    """Spectra with mismatched frequency grids were combined."""


class BaselineError(VibroprintError):
    """A microphone has no baseline group to normalize against."""


class NyquistError(VibroprintError):
    """Requested synthesis would place a mode at or above Nyquist."""


class WavFormatError(VibroprintError):
    """WAV file uses an encoding or layout this toolkit does not accept."""


class ManifestError(VibroprintError):
    """Dataset manifest failed validation.

    Attributes:
        errors: list of human-readable error strings.
    """

    def __init__(self, message, errors):
        super().__init__(message)
        self.errors = list(errors)
