"""Exception types shared across the package."""


class LshnetError(Exception):
    """Base class for all package errors."""


class DimensionError(LshnetError):
    """Operands disagree on vector/matrix dimensions."""


class ContractError(LshnetError):
    """A caller violated an operation's precondition."""


class InfeasibleSparsity(LshnetError):
    """No (K, L) satisfies the cost budget for the requested sparsity."""


class DataError(LshnetError):
    """Dataset content is invalid (bad ids, malformed lines, ...)."""


class ConfigError(LshnetError):
    """Run configuration is malformed or fails schema validation."""


class ModelFormatError(LshnetError, ValueError):
    """A model or neuron-index stream is truncated or malformed."""
