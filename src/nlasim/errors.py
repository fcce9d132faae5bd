"""Exception and warning types shared across the package."""


class TruncationError(ValueError):
    """A cutoff is too small to hold the requested state or operation.

    Raised when an automatically sized cutoff cannot be found or would
    pass its cap, or when a beamsplitter would push photons past a mode
    cutoff by more than the overflow tolerance, ``optics.OVERFLOW_TOL``.
    """


class NonconvergentError(ValueError):
    """An amplification request lands in the unnormalizable regime.

    The ideal gain map g**n diverges on geometric-tailed states once the
    scaled tail stops decaying (effective parameter >= 1), and the
    postselected Gaussian prior stops being normalizable once
    (g**2 - 1) * variance >= 1.
    """


class ConfigError(ValueError):
    """Invalid command-line configuration."""


class TruncationWarning(UserWarning):
    """A constructed state silently dropped a small but nonzero tail."""
