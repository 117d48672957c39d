"""Outage probability of transmit beamforming under delayed channel-state
feedback, computed three mutually checking ways: closed forms, semi-analytic
quadrature, and Monte Carlo link simulation."""

from .analytic import (
    CodebookSizeResult,
    GainDistribution,
    OutageEstimate,
    QuadratureSpec,
    SchemeId,
    conditional_outage,
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
    age_channel,
    derive_params,
    draw_channel,
    draw_user_channels,
    jakes_persistence,
)
from .codebook import (
    Codebook,
    SelectionOutcome,
    nu_pdf,
    rvq_generate,
    select_beamformer,
    select_user_antenna,
    select_user_maxnorm,
    tas_codebook,
)
from .montecarlo import McPoint, McResult, TrialPlan, simulate_outage, simulate_outages, sweep
from .specfun import (
    SeriesTolerance,
    bessel_j0,
    expansion_coeffs,
    lemma1_identity,
    noncentral_chi2_cdf,
    regularized_lower_gamma,
)

__version__ = "0.1.0"
