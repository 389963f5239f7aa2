"""Gaussian ground-state metrology across the superradiant phase transition.

Phase-space tools for two-mode Gaussian states, the thermodynamic-limit
ground state of the Dicke model, quantum Fisher information of the coupling,
and the classical Fisher information of homodyne and photon-counting probes.
"""
from .dicke import (
    DickeParams,
    MomentJet,
    derive,
    ground_moments,
    ground_state,
    moment_jet,
    reduced_radiation_state,
    symplectic_chain,
)
from .errors import (
    CriticalPointSingularity,
    DickeMetrologyError,
    NonConvergedSeries,
    SingularCovarianceError,
    UnphysicalStateError,
)
from .estimation import (
    EstimationResult,
    SldCoefficients,
    fit_power_law,
    qfi,
    qfi_from_jet,
    sld_coefficients,
    sld_coefficients_f1_frame,
    state_derivative,
)
from .gaussian import (
    GaussianState,
    SymplecticSpectrum,
    log_negativity,
    partial_trace,
    symplectic_form,
    symplectic_spectrum,
    wigner_at,
)
from .measurements import (
    DstsParams,
    HomodyneSetting,
    MeanPhotonDecomposition,
    PhotonDistribution,
    Target,
    dsts_params,
    fi_homodyne,
    fi_homodyne_from_jet,
    fi_photon_counting,
    fi_photon_counting_from_jet,
    mean_photon_decomposition,
    photon_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalPointSingularity",
    "DickeMetrologyError",
    "DickeParams",
    "DstsParams",
    "EstimationResult",
    "GaussianState",
    "HomodyneSetting",
    "MeanPhotonDecomposition",
    "MomentJet",
    "NonConvergedSeries",
    "PhotonDistribution",
    "SingularCovarianceError",
    "SldCoefficients",
    "SymplecticSpectrum",
    "Target",
    "UnphysicalStateError",
    "derive",
    "dsts_params",
    "fi_homodyne",
    "fi_homodyne_from_jet",
    "fi_photon_counting",
    "fi_photon_counting_from_jet",
    "fit_power_law",
    "ground_moments",
    "ground_state",
    "log_negativity",
    "mean_photon_decomposition",
    "moment_jet",
    "partial_trace",
    "photon_distribution",
    "qfi",
    "qfi_from_jet",
    "reduced_radiation_state",
    "sld_coefficients",
    "sld_coefficients_f1_frame",
    "state_derivative",
    "symplectic_chain",
    "symplectic_form",
    "symplectic_spectrum",
    "wigner_at",
]
