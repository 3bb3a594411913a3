"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor extents do not satisfy an operation's preconditions."""


class ConfigError(ValueError):
    """A model or training configuration violates its invariants."""


class DecodeError(ValueError):
    """An audio byte stream could not be decoded; the message names the defect."""


class ManifestError(ValueError):
    """A dataset manifest is malformed or references an unknown fold."""


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class NonFiniteLossError(RuntimeError):
    """Training met a NaN or infinite loss; the message names epoch and batch."""
