"""Truncated Fock-space simulation of a heralded noiseless linear
amplifier, its brute-force circuit oracle, and its two applications:
probabilistic coherent-state cloning and entanglement distillation."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    NonconvergentError,
    TruncationError,
    TruncationWarning,
)
from .fock import (
    DensityOperator,
    MultiModeState,
    coherent_state,
    epr_state,
    fidelity,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    norm_sq,
    number_state,
)
from .optics import loss_channel
from .nla import (
    eta_from_gain,
    gain_from_eta,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
    physical_circuit,
)
from .applications import (
    EffectiveEprParams,
    PurityReport,
    clone_coherent,
    clone_fidelities,
    distill_numeric,
    distill_params,
    postselected_prior_variance,
)

__all__ = [
    "__version__",
    "ConfigError",
    "NonconvergentError",
    "TruncationError",
    "TruncationWarning",
    "DensityOperator",
    "MultiModeState",
    "coherent_state",
    "epr_state",
    "fidelity",
    "minimal_coherent_cutoff",
    "minimal_epr_cutoff",
    "norm_sq",
    "number_state",
    "loss_channel",
    "eta_from_gain",
    "gain_from_eta",
    "misfire_terms",
    "nla_apply",
    "nla_apply_asymptotic",
    "nla_operator",
    "physical_circuit",
    "EffectiveEprParams",
    "PurityReport",
    "clone_coherent",
    "clone_fidelities",
    "distill_numeric",
    "distill_params",
    "postselected_prior_variance",
]
