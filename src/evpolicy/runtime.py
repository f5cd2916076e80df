"""Policy execution: handles, external-process protocol, guardrail wrapper."""
from __future__ import annotations

import json
import math
import os
import selectors
import shlex
import subprocess
import time
from operator import attrgetter
from typing import Callable, Sequence

from .baseline import BaselineConfig, baseline_decide
from .errors import ConfigError, PolicyFault, PolicySpawnError, open_utf8
from .operators import API_KEY_ENV
from .pydriver import DECISION_INPUTS, PROTOCOL
from .simulation import BatteryConfig, Observation

PROTOCOL_HANDSHAKE = {"protocol": PROTOCOL}
REQUEST_KEYS = tuple(key for key, _ in DECISION_INPUTS)
_request_values = attrgetter(*(field for _, field in DECISION_INPUTS))
# A request line without the forecast. ``str`` of an int or a float is the
# ``repr`` that ``json`` writes, except for the non-finite floats.
_REQUEST = "{" + ", ".join(f'"{key}": %s' for key in REQUEST_KEYS) + "}\n"
MAX_CONSECUTIVE_FAULTS = 3
STDERR_TAIL_BYTES = 2000
READ_BYTES = 65536  # one pipe's default capacity on Linux
EXIT_WAIT_S = 1.0  # for a child whose stdout closed to exit
CLOSE_WAIT_S = 2.0  # for a closed child's pipes and exit
GUARDRAIL_EPS = 1e-9
DECISION_TIMEOUT_MS = 1000  # a child's deadline per decision, by default
# How an evolve candidate runs: a rule script, or a Python child process.
PROGRAM_MODES = ("builtin_rules", "external_process")


class PolicyHandle:
    """Executable policy wrapper. decide() is total: faults become idle."""

    def __init__(self, name: str = "policy"):
        # perfbench's probe counts an evolve run's baseline rollouts by this
        # name; run_episode and the artifacts do not read it.
        self.name = name
        self.fault_log: list[str] = []

    def decide(self, obs: Observation) -> float:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NativePolicy(PolicyHandle):
    def __init__(self, fn: Callable[[Observation], float], name: str = "native"):
        super().__init__(name)
        self._fn = fn

    def decide(self, obs: Observation) -> float:
        return float(self._fn(obs))


class RuleScriptPolicy(PolicyHandle):
    def __init__(self, source_text: str, name: str = "rules"):
        # Imported here: only rule policies need the interpreter.
        from . import rules
        super().__init__(name)
        self.script = rules.parse_rule_script(source_text)
        self._evaluate = rules.evaluate_rules

    def decide(self, obs: Observation) -> float:
        return self._evaluate(self.script, obs, fault_log=self.fault_log)


def encode_request(obs: Observation, forecast: bool) -> bytes:
    """``json.dumps`` of the request for ``obs``, with a newline, as bytes.

    Without the forecast the line comes from one template, and only a
    request holding a NaN or an infinity goes through ``json`` per number.
    """
    values = _request_values(obs)
    if forecast:
        request = dict(zip(REQUEST_KEYS, values),
                       forecast=list(obs.forecast.values))
        return (json.dumps(request) + "\n").encode()
    line = _REQUEST % values
    if "nan" in line or "inf" in line:  # no key holds either
        line = _REQUEST % tuple(map(json.dumps, values))
    return line.encode()


class ExternalProcessPolicy(PolicyHandle):
    """Child process speaking the line protocol, one JSON request per step.

    Per-decision timeout; a timeout, a malformed reply or an ``err`` reply
    (the candidate raised, see :mod:`evpolicy.pydriver`) substitutes idle and
    is logged. Three consecutive faults abort via :class:`PolicyFault`. A reply
    that arrives after its request timed out is discarded, never taken as a
    later step's reply.

    While a reply is awaited, one ``select`` loop reads the child's stdout
    and its stderr, so a chatty child never blocks on a full pipe; only the
    last ``STDERR_TAIL_BYTES`` of stderr are kept for diagnostics. End of
    file on stdout is a :class:`PolicyFault` at once, naming the child's
    exit code. The child's stdin is non-blocking: a request the child does
    not read before the decision deadline is a :class:`PolicyFault` too.
    ``select`` on pipes makes this class POSIX-only.

    A v2 child answers the handshake with ``{"protocol": "v2g-policy/2",
    "forecast": <bool>}`` as its first line; requests omit ``forecast`` once
    it has said ``false``. Requests carry ``forecast`` until then, so a v1
    child, which never answers, receives it on every request.

    The child gets the parent's environment without ``EVPOLICY_API_KEY``
    (:data:`evpolicy.operators.API_KEY_ENV`): candidate code never sees the
    operator's key.
    """

    def __init__(self, command: Sequence[str],
                 timeout_ms: int = DECISION_TIMEOUT_MS):
        super().__init__("external")
        argv = list(command)
        self.timeout_s = timeout_ms / 1000.0
        env = {key: value for key, value in os.environ.items()
               if key != API_KEY_ENV}
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=env)
        except OSError as exc:
            raise PolicySpawnError(f"cannot spawn {argv!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._selector = selectors.DefaultSelector()
        for pipe in (self._proc.stdout, self._proc.stderr):
            self._selector.register(pipe, selectors.EVENT_READ)
        self._stdout = b""  # read from stdout, not yet split into lines
        self._stdout_eof = False
        self._stderr = b""  # tail of the child's stderr
        self._consecutive_faults = 0
        self._awaiting_answer = True  # no line from the child read yet
        self._send_forecast = True
        self._owed_replies = 0  # replies still due to timed-out requests
        self._send(json.dumps(PROTOCOL_HANDSHAKE).encode() + b"\n",
                   time.monotonic() + self.timeout_s)

    def _send(self, data: bytes, deadline: float) -> None:
        """Write one request line before ``deadline``, most often in one
        write; while the child's stdin is full, read its output meanwhile."""
        if (written := self._write(data)) == len(data):
            return
        stdin = self._proc.stdin
        self._selector.register(stdin, selectors.EVENT_WRITE)
        try:
            while (data := data[written:]) and time.monotonic() < deadline:
                self._read_ready(deadline)
                written = self._write(data)
        finally:
            self._selector.unregister(stdin)
        if data:
            raise PolicyFault("policy process did not read its request within "
                              f"{self.timeout_s:g} s",
                              diagnostics=self._stderr_tail())

    def _write(self, data: bytes) -> int:
        """How much of ``data`` the child's stdin takes without blocking."""
        try:
            return os.write(self._proc.stdin.fileno(), data)
        except BlockingIOError:
            return 0
        except OSError:  # the child has exited; the end of file on its
            return len(data)  # stdout reports it, with the exit code

    def _read_ready(self, deadline: float) -> bool:
        """Read what the child writes before ``deadline``; False if no
        selected pipe was ready.

        A pipe at end of file leaves the selector.
        """
        events = self._selector.select(max(0.0, deadline - time.monotonic()))
        for key, _ in events:
            if key.fileobj is self._proc.stdin:
                continue  # writable: the caller writes
            chunk = os.read(key.fd, READ_BYTES)
            if not chunk:
                self._selector.unregister(key.fileobj)
                if key.fileobj is self._proc.stdout:
                    self._stdout_eof = True
            elif key.fileobj is self._proc.stdout:
                self._stdout += chunk
            else:
                self._stderr = (self._stderr + chunk)[-STDERR_TAIL_BYTES:]
        return bool(events)

    def _drain(self, deadline: float) -> None:
        """Read both pipes to end of file, or until ``deadline``.

        The deadline holds against a child that never stops writing.
        """
        while (self._selector.get_map() and time.monotonic() < deadline
               and self._read_ready(deadline)):
            pass

    def _stderr_tail(self) -> str:
        if self._proc.poll() is not None:  # read what is left to end of file
            self._drain(time.monotonic() + EXIT_WAIT_S)
        return self._stderr.decode(errors="replace")

    def _next_line(self, deadline: float) -> str | None:
        """The child's next stdout line, or None at the deadline.

        At end of file an unterminated last line is still returned.
        """
        while (end := self._stdout.find(b"\n")) < 0:
            if self._stdout_eof:
                if self._stdout:  # an unterminated last line
                    self._stdout += b"\n"
                    continue
                try:
                    status = f"exit code {self._proc.wait(EXIT_WAIT_S)}"
                except subprocess.TimeoutExpired:
                    status = "still running"
                raise PolicyFault(f"policy process closed its stdout ({status})",
                                  diagnostics=self._stderr_tail())
            if time.monotonic() >= deadline:
                return None
            self._read_ready(deadline)
        line, self._stdout = self._stdout[:end], self._stdout[end + 1:]
        return line.decode(errors="replace").strip()

    def decide(self, obs: Observation) -> float:
        deadline = time.monotonic() + self.timeout_s
        self._send(encode_request(obs, self._send_forecast), deadline)
        reply = self._read_reply(obs, deadline)
        if reply is None:
            self._owed_replies += 1
            return self._fault(obs, "timeout waiting for reply")
        try:
            value = float(reply)
            if not math.isfinite(value):
                raise ValueError(f"non-finite reply {reply!r}")
        except ValueError as exc:
            if reply.startswith("err "):
                return self._fault(obs, f"candidate raised: {reply[4:]}")
            return self._fault(obs, f"malformed reply: {exc}")
        self._consecutive_faults = 0
        return value

    def _read_reply(self, obs: Observation, deadline: float) -> str | None:
        """Return this step's reply line, or None at the deadline.

        The handshake answer (only as the child's first line) and replies
        still owed to timed-out requests are consumed on the way.
        """
        while (line := self._next_line(deadline)) is not None:
            first, self._awaiting_answer = self._awaiting_answer, False
            if first and line.startswith("{"):
                self._take_answer(obs, line)
            elif self._owed_replies:
                self._owed_replies -= 1
            else:
                return line
        return None

    def _take_answer(self, obs: Observation, line: str) -> None:
        """Read the child's handshake answer; a bad one keeps the forecast."""
        try:
            wants = json.loads(line).get("forecast")  # a "{" line is a dict
        except (ValueError, RecursionError):  # RecursionError: deep nesting
            wants = None
        if not isinstance(wants, bool):
            self.fault_log.append(f"step {obs.step_index}: malformed reply: "
                                  f"bad handshake answer {line[:80]!r}")
            return
        self._send_forecast = wants

    def _fault(self, obs: Observation, reason: str) -> float:
        self.fault_log.append(f"step {obs.step_index}: {reason}")
        self._consecutive_faults += 1
        if self._consecutive_faults >= MAX_CONSECUTIVE_FAULTS:
            raise PolicyFault(
                f"{MAX_CONSECUTIVE_FAULTS} consecutive policy faults "
                f"(last: {reason})",
                diagnostics="\n".join(
                    self.fault_log[-MAX_CONSECUTIVE_FAULTS:]))
        return 0.0

    def close(self) -> None:
        """Send ``end`` if the child's stdin takes it, read both pipes to end
        of file, then reap the child.

        A child still running at the deadline is killed.
        """
        if not self._proc.stdin.closed:  # close() may run twice
            self._write(b'{"end": true}\n')
        self._proc.stdin.close()
        deadline = time.monotonic() + CLOSE_WAIT_S
        self._drain(deadline)
        try:
            self._proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._selector.close()
        self._proc.stdout.close()
        self._proc.stderr.close()


class GuardrailPolicy(PolicyHandle):
    """Semantic guardrails: power envelope plus SoC floor/ceiling sign rules."""

    def __init__(self, inner: PolicyHandle, battery: BatteryConfig):
        super().__init__(f"guarded({inner.name})")
        self.inner = inner
        self.battery = battery
        self.fault_log = inner.fault_log  # shared list
        self.violation_counter = 0
        self.last_raw_kw = 0.0

    def decide(self, obs: Observation) -> float:
        raw = float(self.inner.decide(obs))
        self.last_raw_kw = raw
        value = raw if math.isfinite(raw) else 0.0
        value = min(max(value, -self.battery.max_discharge_kw),
                    self.battery.max_charge_kw)
        if obs.soc <= self.battery.soc_min:
            value = max(value, 0.0)
        if obs.soc >= self.battery.soc_max:
            value = min(value, 0.0)
        if not math.isfinite(raw) or abs(value - raw) > GUARDRAIL_EPS:
            self.violation_counter += 1
        return value

    def close(self) -> None:
        self.inner.close()


def make_policy(spec: str, battery: BatteryConfig,
                baseline: BaselineConfig | None = None,
                timeout_ms: int = DECISION_TIMEOUT_MS) -> PolicyHandle:
    """Build a handle from a CLI-style policy spec.

    Accepts a policy name (``baseline``, ``idle``), a ``*.rules`` file path,
    or ``cmd:<command line>`` for an external process; the command line is
    split as a POSIX shell would, and an empty or unbalanced one is a
    ConfigError. ``baseline`` sets the baseline's thresholds (the defaults
    when None), ``timeout_ms`` an external process's decision deadline.
    """
    if spec == "baseline":
        cfg = baseline or BaselineConfig()
        handle = NativePolicy(lambda obs: baseline_decide(obs, cfg, battery),
                              name="baseline")
    elif spec == "idle":
        handle = NativePolicy(lambda obs: 0.0, name="idle")
    elif spec.startswith("cmd:"):
        try:
            argv = shlex.split(spec[4:])
        except ValueError as exc:  # an unbalanced quotation or escape
            raise ConfigError(f"{spec!r}: {exc}") from exc
        if not argv:
            raise ConfigError(f"{spec!r}: expected a command after cmd:")
        handle = ExternalProcessPolicy(argv, timeout_ms=timeout_ms)
    elif spec.endswith(".rules"):
        with open_utf8(spec) as fh:
            handle = RuleScriptPolicy(fh.read(), name=spec)
    else:
        raise ConfigError(
            f"unknown policy {spec!r}: expected a registered name "
            "(baseline, idle), a .rules file, or cmd:...")
    return GuardrailPolicy(handle, battery)
