"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or inconsistent settings."""


class DataError(ValueError):
    """Malformed input data (unparseable file contents, wrong schema)."""


class NonFiniteLossError(ArithmeticError):
    """A NaN/Inf loss in training or backprop, or a NaN/Inf model output."""


@contextmanager
def decoding(source, error: type[ValueError] = DataError):
    """Turn a UnicodeDecodeError raised while reading ``source`` as text into ``error`` naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} does not decode)") from exc
