"""Shared exception types, and the input checks that raise them."""
from contextlib import contextmanager


class EvPolicyError(Exception):
    """Base class for all package errors."""


class TraceSchemaError(EvPolicyError):
    """Input file is missing a required column or has an unusable header."""


class TraceValidationError(EvPolicyError):
    """Trace content violates an invariant (spacing, sign, length)."""


class ConfigError(EvPolicyError, ValueError):
    """A run configuration is incomplete or inconsistent."""


def require_numbers(config, names) -> None:
    """A ConfigError unless each attribute of ``config`` in ``names`` is
    exactly an int or a float: a bool or a string would compare, or fail
    to, deep inside a rollout, and the step log writes numbers with repr."""
    for name in names:
        value = getattr(config, name)
        if type(value) not in (int, float):
            raise ConfigError(f"{name} must be an int or a float, got {value!r}")


@contextmanager
def open_utf8(path, **kwargs):
    """``path`` opened as UTF-8 text; a byte read from it that is not UTF-8
    is a ConfigError naming the file, not a ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


class RuleParseError(EvPolicyError):
    """Rule script could not be parsed."""

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.token = token


class PolicyFault(EvPolicyError):
    """A policy could not keep producing decisions; the episode must abort."""

    def __init__(self, message: str, step_index: int | None = None,
                 diagnostics: str = ""):
        super().__init__(message)
        self.step_index = step_index
        self.diagnostics = diagnostics


class PolicySpawnError(EvPolicyError):
    """External policy process could not be started."""


class OperatorTransportError(EvPolicyError):
    """The mutation operator endpoint could not be reached or replied badly."""
