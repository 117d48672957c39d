"""Outage probability of transmit beamforming under delayed channel-state
feedback, computed three mutually checking ways: closed forms, semi-analytic
quadrature, and Monte Carlo link simulation."""

from .analytic import (
    CodebookSizeResult,
    GainDistribution,
    OutageEstimate,
    SchemeId,
    diversity_order,
    min_codebook_size,
    outage_closed,
    outage_mupbf_closed,
    outage_murvq_closed,
    outage_mutas_closed,
    outage_pbf_closed,
    outage_rvq_closed,
    outage_semianalytic,
    outage_tas_closed,
)
from .channel import (
    DerivedParams,
    PersistenceSpec,
    RngStream,
    SystemConfig,
    derive_params,
    jakes_persistence,
)
from .codebook import Codebook, nu_pdf, rvq_generate
from .montecarlo import McPoint, McResult, TrialPlan, simulate_outage, simulate_outages
from .specfun import (
    bessel_j0,
    expansion_coeffs,
    lemma1_identity,
    noncentral_chi2_cdf,
)

__version__ = "0.1.0"
