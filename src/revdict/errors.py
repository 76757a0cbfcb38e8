"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or inconsistent settings."""


class DataError(ValueError):
    """Malformed input data (unparseable file contents, wrong schema)."""


class NonFiniteLossError(ArithmeticError):
    """A NaN/Inf loss in training or backprop, or a NaN/Inf model output."""
