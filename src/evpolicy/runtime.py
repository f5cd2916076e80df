"""Policy execution: handles, external-process protocol, guardrail wrapper."""
from __future__ import annotations

import json
import math
import os
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .baseline import BaselineConfig, baseline_decide
from .errors import ConfigError, PolicyFault, PolicySpawnError
from .rules import RuleScript, evaluate_rules, parse_rule_script
from .simulation import Action, BatteryConfig, Observation

PROTOCOL_HANDSHAKE = {"protocol": "v2g-policy/1"}
MAX_CONSECUTIVE_FAULTS = 3
STDERR_TAIL_BYTES = 2000
GUARDRAIL_EPS = 1e-9


@dataclass
class PolicyProgram:
    name: str
    source_text: str
    mode: str  # builtin_rules | external_process
    metadata: dict = field(default_factory=dict)

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
    def __init__(self, fn: Callable[[Observation], object], name: str = "native"):
        super().__init__(name)
        self._fn = fn

    def decide(self, obs: Observation) -> float:
        out = self._fn(obs)
        return out.power_kw if isinstance(out, Action) else float(out)


class RuleScriptPolicy(PolicyHandle):
    def __init__(self, script: RuleScript | str, name: str = "rules"):
        super().__init__(name)
        self.script = (parse_rule_script(script)
                       if isinstance(script, str) else script)

    def decide(self, obs: Observation) -> float:
        return evaluate_rules(self.script, obs, fault_log=self.fault_log)


class ExternalProcessPolicy(PolicyHandle):
    """Child process speaking the line protocol, one JSON request per step.

    Per-decision timeout; a timeout or malformed reply substitutes idle and is
    logged. Three consecutive faults abort via :class:`PolicyFault`. The
    child's stderr is drained continuously, so a chatty child never blocks on
    a full pipe; only its last few kilobytes are kept for diagnostics.
    """

    def __init__(self, command: Sequence[str] | str, timeout_ms: int = 1000,
                 name: str = "external"):
        super().__init__(name)
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
            "forecast": list(obs.forecast.values),
        }
        self._send(request)
        try:
            reply = self._lines.get(timeout=self.timeout_s).strip()
            value = float(reply)
            if not math.isfinite(value):
                raise ValueError(f"non-finite reply {reply!r}")
        except queue.Empty:
            return self._fault(obs, "timeout waiting for reply")
        except ValueError as exc:
            return self._fault(obs, f"malformed reply: {exc}")
        self._consecutive_faults = 0
        return value

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
                self._proc.stdin.close()
            except (BrokenPipeError, OSError, ValueError):
                pass
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()


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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _make_baseline(battery: BatteryConfig, options: dict) -> PolicyHandle:
    cfg = BaselineConfig(**options.get("baseline", {}))
    step_minutes = options.get("step_minutes", 5)
    return NativePolicy(
        lambda obs: baseline_decide(obs, cfg, battery, step_minutes),
        name="baseline")


def _make_idle(battery: BatteryConfig, options: dict) -> PolicyHandle:
    return NativePolicy(lambda obs: 0.0, name="idle")


POLICY_REGISTRY: dict[str, Callable[[BatteryConfig, dict], PolicyHandle]] = {
    "baseline": _make_baseline,
    "idle": _make_idle,
}


def make_policy(spec: str, battery: BatteryConfig,
                options: dict | None = None) -> PolicyHandle:
    """Build a handle from a CLI-style policy spec.

    Accepts a registry name (``baseline``, ``idle``), a ``*.rules`` file path,
    or ``cmd:<command line>`` for an external process.
    """
    options = options or {}
    if spec in POLICY_REGISTRY:
        handle = POLICY_REGISTRY[spec](battery, options)
    elif spec.startswith("cmd:"):
        handle = ExternalProcessPolicy(
            spec[4:], timeout_ms=options.get("timeout_ms", 1000))
    elif spec.endswith(".rules"):
        with open(spec) as fh:
            handle = RuleScriptPolicy(fh.read(), name=spec)
    else:
        raise ConfigError(
            f"unknown policy {spec!r}: expected a registered name "
            f"({', '.join(sorted(POLICY_REGISTRY))}), a .rules file, or cmd:...")
    return GuardrailPolicy(handle, battery)


def policy_from_program(program: PolicyProgram, battery: BatteryConfig,
                        timeout_ms: int = 1000) -> PolicyHandle:
    """Instantiate a candidate program as a runnable handle."""
    if program.mode == "builtin_rules":
        handle = RuleScriptPolicy(program.source_text, name=program.name)
    else:
        handle = ExternalProcessPolicy(program.metadata["command"],
                                       timeout_ms=timeout_ms)
    return GuardrailPolicy(handle, battery)
