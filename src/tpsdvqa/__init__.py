"""Full-reference video quality assessment from tempospatial power spectral density.

The pipeline: group luma frames into tensors, reduce each tensor pair to 2D
time-aggregated PSD planes, correlate the planes locally within a Gaussian
window, and pool the correlation maps into a single video score.
"""

from .errors import (
    ConstantInput,
    DimensionMismatch,
    EmptyManifest,
    EmptySelection,
    FrameCountMismatch,
    LengthMismatch,
    NegativeBase,
    OddDimensions,
    PlaneTooSmall,
    TruncatedStream,
    VqaError,
)
from .evaluate import (
    CorrelationReport,
    ManifestEntry,
    correlation_report,
    load_manifest,
    pearson,
    psnr,
    score_manifest,
    spearman,
)
from .metric import (
    MetricConfig,
    QualityReport,
    assess,
    gaussian_window,
    local_moments,
    tensor_score,
    video_score,
    zeta_map,
)
from .spectral import tpsd_of_tensor
from .synth import DistortionSpec, apply_distortion, make_edge_sequence
from .video_io import (
    FileFrames,
    LumaFrame,
    group_tensors,
    read_yuv420_file,
    write_yuv420,
)

__version__ = "0.1.0"
