"""Feature extraction: five modalities, registry, assembly, CSV export."""

from emgactions.features.assemble import (
    FeatureConfig,
    assemble_features,
    extract_feature_matrix,
    registry_for,
)
from emgactions.features.autoregressive import (
    ArModel,
    BadPartitionError,
    OrderTooHighError,
    PoleOnGridError,
    ar_psd,
    band_powers,
    burg_ar,
)
from emgactions.features.crosschannel import (
    DEFAULT_PAIRS,
    BadPairError,
    LengthMismatchError,
    compute_ics,
    ics_max_xcorr,
)
from emgactions.features.export import (
    read_feature_csv,
    write_feature_csv,
    write_registry_csv,
)
from emgactions.features.localbinary import (
    LBP_THRESHOLD,
    LBP_WINDOW,
    WindowTooLongError,
    lbp_features,
)
from emgactions.features.registry import (
    BadIndexError,
    FeatureDescriptor,
    FeatureRegistry,
    build_registry,
)
from emgactions.features.spectral import (
    LMF_COUNT,
    LOG_EPS,
    MOMENT_PAIRS,
    SpectralMoments,
    lmf_features,
    power_spectrum,
    spectral_moments,
)
from emgactions.features.timedomain import TDS_NAMES, tds

__all__ = [
    "FeatureConfig",
    "assemble_features",
    "extract_feature_matrix",
    "registry_for",
    "ArModel",
    "BadPartitionError",
    "OrderTooHighError",
    "PoleOnGridError",
    "ar_psd",
    "band_powers",
    "burg_ar",
    "DEFAULT_PAIRS",
    "BadPairError",
    "LengthMismatchError",
    "compute_ics",
    "ics_max_xcorr",
    "read_feature_csv",
    "write_feature_csv",
    "write_registry_csv",
    "LBP_THRESHOLD",
    "LBP_WINDOW",
    "WindowTooLongError",
    "lbp_features",
    "BadIndexError",
    "FeatureDescriptor",
    "FeatureRegistry",
    "build_registry",
    "LMF_COUNT",
    "LOG_EPS",
    "MOMENT_PAIRS",
    "SpectralMoments",
    "lmf_features",
    "power_spectrum",
    "spectral_moments",
    "TDS_NAMES",
    "tds",
]
