"""esdscan: two-qubit MEMS decoherence, concurrence, and sudden-death zone scans."""

__version__ = "0.1.0"

from .channels import (
    ChannelKind,
    apply_product,
    apply_product_channel,
    check_completeness,
    kraus_operators,
    kraus_set,
)
from .concurrence import (
    IntegrityError,
    XStructureError,
    concurrence,
    wootters_sigmas,
    xstate_concurrence,
)
from .spectra import (
    FormulaDomainError,
    closed_form_spectrum,
    concurrence_from_spectrum,
    numeric_spectrum,
    scan_grid,
)
from .states import (
    DensityMatrixError,
    mems,
    validate_density,
    werner,
)
from .zonescan import (
    SweepConfig,
    Zone,
    ZoneReport,
    find_zones,
    sample_curve,
)

__all__ = [
    "__version__",
    "ChannelKind",
    "apply_product",
    "apply_product_channel",
    "check_completeness",
    "kraus_operators",
    "kraus_set",
    "IntegrityError",
    "XStructureError",
    "concurrence",
    "wootters_sigmas",
    "xstate_concurrence",
    "FormulaDomainError",
    "closed_form_spectrum",
    "concurrence_from_spectrum",
    "numeric_spectrum",
    "scan_grid",
    "DensityMatrixError",
    "mems",
    "validate_density",
    "werner",
    "SweepConfig",
    "Zone",
    "ZoneReport",
    "find_zones",
    "sample_curve",
]
