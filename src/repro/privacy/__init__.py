"""Differential-privacy substrate.

The paper uses the subsampled Gaussian mechanism inside DP-SGD and searches
for the noise multiplier with TensorFlow Privacy.  This package provides the
same functionality without external dependencies:

- :mod:`repro.privacy.rdp` -- Rényi-DP bounds for the (Poisson) subsampled
  Gaussian mechanism and the RDP → (ε, δ) conversion.
- :class:`repro.privacy.accountant.RDPAccountant` -- composition over
  training steps (loaded on first access: a run calibrates σ without it).
- :func:`repro.privacy.calibration.calibrate_sigma` -- binary-search the
  smallest noise multiplier meeting an (ε, δ) target (the paper's
  "search for noise multiplier given ε and δ").
- :mod:`repro.privacy.mechanisms` -- Gaussian mechanism plus the two
  sensitivity-bounding operations the paper contrasts: clipping (vanilla
  DP-SGD) and normalisation (this paper).
"""

import importlib

from repro.privacy.calibration import calibrate_sigma, epsilon_for_sigma
from repro.privacy.mechanisms import (
    clip_gradients,
    gaussian_noise,
    normalize_gradients,
)
from repro.privacy.rdp import DEFAULT_ORDERS, compute_rdp, rdp_to_epsilon

__all__ = [
    "RDPAccountant",
    "calibrate_sigma",
    "epsilon_for_sigma",
    "clip_gradients",
    "normalize_gradients",
    "gaussian_noise",
    "compute_rdp",
    "rdp_to_epsilon",
    "DEFAULT_ORDERS",
]


def __getattr__(name: str):
    """Import :mod:`repro.privacy.accountant` for ``RDPAccountant`` (PEP 562)."""
    if name != "RDPAccountant":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.accountant").RDPAccountant
    globals()[name] = value
    return value
