"""Configuration objects for the DP protocol and the two-stage aggregation."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ADMIN_VERBS",
    "DEFAULT_STATUS_PORT",
    "DPConfig",
    "ProtocolConfig",
]


@dataclass(frozen=True)
class DPConfig:
    """Client-side DP protocol settings (Algorithm 1).

    Attributes
    ----------
    batch_size:
        Local mini-batch size ``b_c``.  The paper deliberately uses a small
        value (8 or 16) so that DP noise dominates each upload, which is what
        makes the first-stage aggregation work.
    sigma:
        Noise multiplier of the Gaussian mechanism.  ``sigma = 0`` disables
        DP (used for the "Non-DP" reference rows of Tables 15-16).
    momentum:
        Per-slot gradient momentum ``beta`` (0.1 in the paper).
    bounding:
        ``"normalize"`` (this paper) or ``"clip"`` (vanilla DP-SGD baseline).
    clip_norm:
        Clipping threshold ``C``; only used when ``bounding == "clip"``.
    """

    batch_size: int = 16
    sigma: float = 1.0
    momentum: float = 0.1
    bounding: str = "normalize"
    clip_norm: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.bounding not in ("normalize", "clip"):
            raise ValueError("bounding must be 'normalize' or 'clip'")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


#: Default port of the status/admin endpoint (coordinator default + 1).
DEFAULT_STATUS_PORT = 7734

#: Verbs accepted by ``POST /admin/<verb>[/<worker>]``.
ADMIN_VERBS = ("pause", "resume", "drain", "undrain")


@dataclass(frozen=True)
class ProtocolConfig:
    """Server-side aggregation settings (Algorithms 2 and 3).

    Attributes
    ----------
    gamma:
        Server's belief about the fraction of honest workers; the second
        stage keeps the ``ceil(gamma * n)`` best-scoring uploads.
    ks_significance:
        Significance level of the KS test (0.05 in the paper).
    norm_k:
        Width (in standard deviations) of the chi-square norm acceptance
        interval (3 in the paper).
    use_first_stage, use_second_stage:
        Ablation switches; both are on for the full protocol.

    The server gradient is always taken over the whole (tiny) auxiliary
    set, as in the paper.
    """

    gamma: float = 0.5
    ks_significance: float = 0.05
    norm_k: float = 3.0
    use_first_stage: bool = True
    use_second_stage: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.ks_significance < 1.0:
            raise ValueError("ks_significance must be in (0, 1)")
        if self.norm_k <= 0:
            raise ValueError("norm_k must be positive")
