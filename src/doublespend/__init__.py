"""Double-spend race analysis for proof-of-work blockchains.

Exact and approximate probabilities that an attacker controlling a
fraction q of the hash power replaces z confirmed blocks, including the
probability conditioned on the observed confirmation time, asymptotic
formulas and bounds, and a seeded Monte-Carlo simulator acting as an
independent oracle.
"""

from .race import (
    HashSplit,
    NetworkParams,
    attacker_success_closed,
    catchup_probability,
    conditional_probability,
    confirmations_required,
    deviation_tail,
    kappa_density,
    kappa_from_times,
    nakamoto_probability,
    negbin_pmf,
    recover_p_by_quadrature,
)
from .asymptotics import (
    RegimeLabel,
    c_function,
    conditional_asymptotic,
    kappa_threshold,
    p_asymptotic,
    p_bounds,
    psn_asymptotic,
    psn_upper_bound,
    z0_sharp,
    z0_sufficient,
)
from .sim import SimConfig, SimResult, estimate_negbin, estimate_success, sample_race

__version__ = "0.1.0"

__all__ = [
    "HashSplit",
    "NetworkParams",
    "attacker_success_closed",
    "catchup_probability",
    "conditional_probability",
    "confirmations_required",
    "deviation_tail",
    "kappa_density",
    "kappa_from_times",
    "nakamoto_probability",
    "negbin_pmf",
    "recover_p_by_quadrature",
    "RegimeLabel",
    "c_function",
    "conditional_asymptotic",
    "kappa_threshold",
    "p_asymptotic",
    "p_bounds",
    "psn_asymptotic",
    "psn_upper_bound",
    "z0_sharp",
    "z0_sufficient",
    "SimConfig",
    "SimResult",
    "estimate_negbin",
    "estimate_success",
    "sample_race",
]
