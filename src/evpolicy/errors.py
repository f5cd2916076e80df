"""Shared exception types, and the input checks that raise them."""
import json
import math
from contextlib import contextmanager

# The longest wait a run may schedule, in ms: a decision deadline, an HTTP
# timeout or a retry sleep. ``select`` takes its timeout as a C int of ms,
# and a setting past this one would overflow there or in the socket and
# sleep calls.
MAX_WAIT_MS = 2**31 - 1


class EvPolicyError(Exception):
    """Base class for all package errors."""


class TraceSchemaError(EvPolicyError):
    """Input file is missing a required column or has an unusable header."""


class TraceValidationError(EvPolicyError):
    """Trace content violates an invariant (spacing, sign, length)."""


class ConfigError(EvPolicyError, ValueError):
    """A run configuration is incomplete or inconsistent."""


def require_numbers(config, names) -> None:
    """A ConfigError unless each attribute of ``config`` in ``names`` is a
    finite int or float, exactly: a bool, a string or a NaN would compare
    wrongly, or fail to, in a rollout, and the step log writes them by repr."""
    for name in names:
        value = getattr(config, name)
        if type(value) not in (int, float):
            raise ConfigError(f"{name} must be an int or a float, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


@contextmanager
def open_utf8(path, encoding="utf-8", **kwargs):
    """``path`` opened as UTF-8 text (``encoding="utf-8-sig"`` also skips a
    leading byte-order mark); a byte read from it that is not UTF-8 is a
    ConfigError naming the file, not a ``UnicodeDecodeError``."""
    with open(path, encoding=encoding, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json_lines(path):
    """Each non-blank line of the UTF-8 file ``path``: its number, its text
    and its JSON value. A line that is not JSON, or nests deeper than
    ``json`` can read, is a ConfigError naming the file and the line."""
    with open_utf8(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {number}, column "
                                  f"{exc.colno}: {exc.msg}") from None
            except RecursionError:
                raise ConfigError(f"{path}: line {number}: JSON nested "
                                  "too deeply") from None
            yield number, line, value


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
