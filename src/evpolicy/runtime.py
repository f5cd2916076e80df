"""Policy execution: handles, external-process protocol, guardrail wrapper."""
from __future__ import annotations

import json
import math
import os
import queue
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .baseline import BaselineConfig, baseline_decide
from .errors import ConfigError, PolicyFault, PolicySpawnError
from .pydriver import PROTOCOL
from .rules import evaluate_rules, parse_rule_script
from .simulation import BatteryConfig, Observation

PROTOCOL_HANDSHAKE = {"protocol": PROTOCOL}
MAX_CONSECUTIVE_FAULTS = 3
STDERR_TAIL_BYTES = 2000
GUARDRAIL_EPS = 1e-9


@dataclass
class PolicyProgram:
    name: str
    source_text: str
    mode: str  # builtin_rules | external_process
    command: list[str] | None = None  # argv that serves an external_process

    def __post_init__(self):
        if self.mode not in ("builtin_rules", "external_process"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        # An empty rule script is still legal (implicit idle rule).
        if self.mode == "external_process" and not self.source_text.strip():
            raise ValueError("external_process policy needs source text")


class PolicyHandle:
    """Executable policy wrapper. decide() is total: faults become idle."""

    def __init__(self, name: str = "policy"):
        self.name = name
        self.violation_counter = 0
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
        super().__init__(name)
        self.script = parse_rule_script(source_text)

    def decide(self, obs: Observation) -> float:
        return evaluate_rules(self.script, obs, fault_log=self.fault_log)


class ExternalProcessPolicy(PolicyHandle):
    """Child process speaking the line protocol, one JSON request per step.

    Per-decision timeout; a timeout or malformed reply substitutes idle and is
    logged. Three consecutive faults abort via :class:`PolicyFault`. A reply
    that arrives after its request timed out is discarded, never taken as a
    later step's reply. The child's stderr is drained continuously, so a
    chatty child never blocks on a full pipe; only its last few kilobytes are
    kept for diagnostics.

    A v2 child answers the handshake with ``{"protocol": "v2g-policy/2",
    "forecast": <bool>}`` as its first line; requests omit ``forecast`` once
    it has said ``false``. Requests carry ``forecast`` until then, so a v1
    child, which never answers, receives it on every request.
    """

    def __init__(self, command: Sequence[str] | str, timeout_ms: int = 1000):
        super().__init__("external")
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout_s = timeout_ms / 1000.0
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, bufsize=1)
        except OSError as exc:
            raise PolicySpawnError(f"cannot spawn {argv!r}: {exc}") from exc
        self._lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        # Tail of the child's stderr; only the drain thread assigns it.
        self._stderr = b""
        self._stderr_reader = threading.Thread(target=self._drain_stderr,
                                               daemon=True)
        self._stderr_reader.start()
        self._consecutive_faults = 0
        self._awaiting_answer = True  # no line from the child read yet
        self._send_forecast = True
        self._owed_replies = 0  # replies still due to timed-out requests
        self._send(PROTOCOL_HANDSHAKE)

    def _pump(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line)

    def _drain_stderr(self) -> None:
        fd = self._proc.stderr.fileno()
        while chunk := os.read(fd, 4096):
            self._stderr = (self._stderr + chunk)[-STDERR_TAIL_BYTES:]

    def _send(self, payload: dict) -> None:
        try:
            self._proc.stdin.write(json.dumps(payload) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise PolicyFault(f"policy process pipe closed: {exc}",
                              diagnostics=self._stderr_tail()) from exc

    def _stderr_tail(self) -> str:
        if self._proc.poll() is not None:  # let the drain reach end of file
            self._stderr_reader.join(timeout=1.0)
        return self._stderr.decode(errors="replace")

    def decide(self, obs: Observation) -> float:
        request = {
            "charge_price": obs.charge_price,
            "discharge_price": obs.discharge_price,
            "soc": obs.soc,
            "ttd": obs.ttd_minutes,
            "load_kw": obs.load_kw,
            "pv_kw": obs.pv_kw,
            "max_charge_kw": obs.max_charge_kw,
            "max_discharge_kw": obs.max_discharge_kw,
        }
        if self._send_forecast:
            request["forecast"] = list(obs.forecast.values)
        self._send(request)
        try:
            reply = self._read_reply(obs, time.monotonic() + self.timeout_s)
            value = float(reply)
            if not math.isfinite(value):
                raise ValueError(f"non-finite reply {reply!r}")
        except queue.Empty:
            self._owed_replies += 1
            return self._fault(obs, "timeout waiting for reply")
        except ValueError as exc:
            return self._fault(obs, f"malformed reply: {exc}")
        self._consecutive_faults = 0
        return value

    def _read_reply(self, obs: Observation, deadline: float) -> str:
        """Return this step's reply line; raise queue.Empty at the deadline.

        The handshake answer (only as the child's first line) and replies
        still owed to timed-out requests are consumed on the way.
        """
        while True:
            line = self._lines.get(
                timeout=max(0.0, deadline - time.monotonic())).strip()
            first, self._awaiting_answer = self._awaiting_answer, False
            if first and line.startswith("{"):
                self._take_answer(obs, line)
            elif self._owed_replies:
                self._owed_replies -= 1
            else:
                return line

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
                diagnostics="\n".join(self.fault_log[-MAX_CONSECUTIVE_FAULTS:])
                or self._stderr_tail())
        return 0.0

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(json.dumps({"end": True}) + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                pass
        try:
            self._proc.stdin.close()
        except OSError:  # unflushed bytes for a child that has exited
            pass
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        for reader, pipe in ((self._reader, self._proc.stdout),
                             (self._stderr_reader, self._proc.stderr)):
            reader.join(timeout=1.0)
            if not reader.is_alive():  # never close a pipe under a reader
                pipe.close()


class GuardrailPolicy(PolicyHandle):
    """Semantic guardrails: power envelope plus SoC floor/ceiling sign rules."""

    def __init__(self, inner: PolicyHandle, battery: BatteryConfig):
        super().__init__(f"guarded({inner.name})")
        self.inner = inner
        self.battery = battery
        self.fault_log = inner.fault_log  # shared list
        self.last_raw_kw = 0.0

    def decide(self, obs: Observation) -> float:
        raw = self.inner.decide(obs)
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
                options: dict | None = None) -> PolicyHandle:
    """Build a handle from a CLI-style policy spec.

    Accepts a policy name (``baseline``, ``idle``), a ``*.rules`` file path,
    or ``cmd:<command line>`` for an external process.
    """
    options = options or {}
    if spec == "baseline":
        try:
            cfg = BaselineConfig(**options.get("baseline", {}))
        except TypeError as exc:  # an unknown or mistyped config field
            raise ConfigError(f"baseline: {exc}") from exc
        handle = NativePolicy(lambda obs: baseline_decide(obs, cfg, battery),
                              name="baseline")
    elif spec == "idle":
        handle = NativePolicy(lambda obs: 0.0, name="idle")
    elif spec.startswith("cmd:"):
        handle = ExternalProcessPolicy(
            spec[4:], timeout_ms=options.get("timeout_ms", 1000))
    elif spec.endswith(".rules"):
        with open(spec) as fh:
            handle = RuleScriptPolicy(fh.read(), name=spec)
    else:
        raise ConfigError(
            f"unknown policy {spec!r}: expected a registered name "
            "(baseline, idle), a .rules file, or cmd:...")
    return GuardrailPolicy(handle, battery)


def policy_from_program(program: PolicyProgram, battery: BatteryConfig,
                        timeout_ms: int = 1000) -> PolicyHandle:
    """Instantiate a candidate program as a runnable handle."""
    if program.mode == "builtin_rules":
        handle = RuleScriptPolicy(program.source_text, name=program.name)
    else:
        handle = ExternalProcessPolicy(program.command, timeout_ms=timeout_ms)
    return GuardrailPolicy(handle, battery)
