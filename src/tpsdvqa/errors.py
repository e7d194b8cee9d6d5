"""Exception classes raised by the tpsdvqa pipeline.

Every domain failure maps to one of these classes so callers (and the CLI)
can turn any of them into a stable one-line diagnostic.
"""


class VqaError(Exception):
    """Base class for all tpsdvqa domain errors."""


class OddDimensions(VqaError):
    """Width or height is odd; YUV 4:2:0 chroma subsampling needs even dims."""


class TruncatedStream(VqaError):
    """A file's size is not a whole number of frames, or a frame is cut short."""


class EmptySelection(VqaError):
    """A frame range selected fewer than two frames."""


class PlaneTooSmall(VqaError):
    """Plane dimensions are smaller than the correlation window."""


class DimensionMismatch(VqaError):
    """Two arrays that must share a shape do not."""


class FrameCountMismatch(VqaError):
    """Reference and distorted sequences have different frame counts."""


class NegativeBase(VqaError):
    """Pooled mean score is negative and the exponent is non-integral."""


class LengthMismatch(VqaError):
    """Paired sample sequences have different lengths."""


class ConstantInput(VqaError):
    """The correlation coefficient is undefined for these inputs.

    That is the case for zero variance, a non-finite sample, or fewer than two samples.
    """


class EmptyManifest(VqaError):
    """The dataset manifest contains no entries."""


# the errors the CLI prints, and an evaluate entry records, as one line
REPORTED_ERRORS = (VqaError, ValueError, OSError)
