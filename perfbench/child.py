"""One evpolicy CLI invocation in a fresh process, with probes and spans.

Usage: python child.py <spec.json>

The spec names the checkout's ``src`` directory, the CLI argv, the result
file and, for a traced invocation, the spans file. The invocation always
records a few probe timestamps (one per episode and per operator request,
never per step), which the end-to-end metrics come from. A traced invocation
also records a span around every call into the layers listed in LAYERS.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

# (layer, module, attribute path). A traced wrapper replaces the function in
# the defining module and under every alias in the other evpolicy modules,
# because callers look the name up in their own module.
LAYERS = (
    ("market.load_trace", "evpolicy.market", "load_trace"),
    ("market.synthetic_trace", "evpolicy.market", "synthetic_trace"),
    ("market.trace_stats", "evpolicy.market", "trace_stats"),
    ("market.forecast_at", "evpolicy.market", "forecast_at"),
    ("simulation.session_at", "evpolicy.simulation", "session_at"),
    ("simulation.observation_at", "evpolicy.simulation", "observation_at"),
    ("simulation.apply_action", "evpolicy.simulation", "apply_action"),
    ("simulation.run_episode", "evpolicy.simulation", "run_episode"),
    ("simulation.write_step_log", "evpolicy.simulation",
     "EpisodeReport.write_step_log"),
    ("baseline.baseline_decide", "evpolicy.baseline", "baseline_decide"),
    ("rules.parse_rule_script", "evpolicy.rules", "parse_rule_script"),
    ("rules.evaluate_rules", "evpolicy.rules", "evaluate_rules"),
    ("rewards.fit_score", "evpolicy.rewards", "fit_score"),
    ("rewards.behavioral_metrics", "evpolicy.rewards", "behavioral_metrics"),
    ("runtime.external.decide", "evpolicy.runtime",
     "ExternalProcessPolicy.decide"),
    ("runtime.guardrail.decide", "evpolicy.runtime", "GuardrailPolicy.decide"),
    ("ledgers.build_ledger", "evpolicy.ledgers", "build_ledger"),
    ("ledgers.quadrant_sample", "evpolicy.ledgers", "quadrant_sample"),
    ("prompts.build_prompt", "evpolicy.prompts", "build_prompt"),
    ("operators.complete", "evpolicy.operators", "MockOperator.complete"),
    ("evolve.extract_program", "evpolicy.evolve", "extract_program"),
    ("evolve.make_feedback", "evpolicy.evolve", "make_feedback"),
)


def _fault_log_len(args, kwargs):
    log = kwargs.get("fault_log", args[2] if len(args) > 2 else None)
    return len(log) if log is not None else 0


# Counts read before and after a call; the span's counter keeps the change.
# They read attributes with defaults, so a renamed attribute reads 0.
DELTAS = {
    "rules.evaluate_rules": _fault_log_len,
    "runtime.external.decide":
        lambda a, k: len(getattr(a[0], "fault_log", ())),
    "runtime.guardrail.decide":
        lambda a, k: getattr(a[0], "violation_counter", 0),
}
# Counts read from a call's return value.
RESULTS = {
    "prompts.build_prompt": lambda r: len(getattr(r, "user_text", "")),
}


def resolve(module: str, path: str):
    """Return (owner, attribute, function), or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def replace_everywhere(owner, attr: str, fn, wrapper) -> None:
    """Install ``wrapper`` in place of ``fn`` at its owner and every alias."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name == "evpolicy" or name.startswith("evpolicy."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


class Tracer:
    """In-memory spans: [layer index, start, end, parent span, counter]."""

    def __init__(self):
        self.layers: list[str] = []
        self.absent: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]

    def install(self) -> None:
        for layer, module, path in LAYERS:
            found = resolve(module, path)
            if found is None:
                self.absent.append(layer)
                continue
            owner, attr, fn = found
            self.layers.append(layer)
            replace_everywhere(owner, attr, fn, self.wrap(
                len(self.layers) - 1, fn, DELTAS.get(layer),
                RESULTS.get(layer)))

    def wrap(self, layer: int, fn, delta=None, result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            before = delta(args, kwargs) if delta else 0
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if delta:
                    span[4] = delta(args, kwargs) - before
            if result:
                span[4] = result(out)
            return out
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "absent": self.absent,
                       "spans": self.spans}, fh, separators=(",", ":"))


class Probes:
    """Episode and operator-request timestamps, recorded on every run."""

    def __init__(self):
        self.episodes: list[dict] = []
        self.requests: list[list[float]] = []
        self.policies: list = []

    def install(self) -> None:
        import evpolicy.cli
        import evpolicy.simulation
        fn = evpolicy.simulation.run_episode
        replace_everywhere(evpolicy.simulation, "run_episode", fn,
                           self._episode(fn))
        make_policy = evpolicy.cli.make_policy
        evpolicy.cli.make_policy = self._policy(make_policy)
        make_operator = evpolicy.cli.make_operator
        evpolicy.cli.make_operator = self._operator(make_operator)

    def _episode(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            policy = args[3] if len(args) > 3 else kwargs.get("policy")
            entry = {"start": clock(), "policy": getattr(policy, "name", "")}
            self.episodes.append(entry)
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                entry["end"] = clock()
                entry["aborted_at"] = getattr(exc, "step_index", None)
                raise
            entry["end"] = clock()
            entry["steps"] = report.n_steps
            return report
        return probe

    def _policy(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            handle = fn(*args, **kwargs)
            self.policies.append(handle)
            return handle
        return probe

    def _operator(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            operator = fn(*args, **kwargs)
            times: list[float] = []
            self.requests.append(times)
            complete = operator.complete

            def timed_complete(bundle):
                times.append(clock())
                return complete(bundle)
            operator.complete = timed_complete
            return operator
        return probe


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import evpolicy.cli  # PYTHONPATH names the checkout's src first
    if not evpolicy.__file__.startswith(spec["src"]):
        print(f"evpolicy imported from {evpolicy.__file__}, not the checkout",
              file=sys.stderr)
        return 90
    probes = Probes()
    probes.install()
    tracer = Tracer() if spec.get("spans") else None
    if tracer is not None:
        tracer.install()
    code = evpolicy.cli.main(spec["argv"])
    main_end = clock()
    result = {
        "exit_code": code,
        "main_end": main_end,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "episodes": probes.episodes,
        "requests": probes.requests,
        "policy_faults": sum(len(getattr(p, "fault_log", ()))
                             for p in probes.policies),
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
