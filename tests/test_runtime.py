import fcntl
import functools
import inspect
import io
import json
import math
import random
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpolicy import pydriver
from evpolicy.errors import PolicyFault, PolicySpawnError
from evpolicy.market import PriceForecast, forecast_at, synthetic_trace
from evpolicy.rewards import RewardConfig
from evpolicy.runtime import (EXIT_WAIT_S, READ_BYTES, STDERR_TAIL_BYTES,
                              ExternalProcessPolicy, GuardrailPolicy,
                              NativePolicy, encode_request, make_policy)
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 run_episode)
from tests.conftest import make_obs

HELPERS = Path(__file__).parent / "helpers"
# The parent's traced memory peak while an 8 MB reply line with no newline
# comes in and its child is closed: a few reads of READ_BYTES, not the line.
FLOOD_PEAK_BYTES = 2**20


def child_cmd(name):
    return [sys.executable, str(HELPERS / name)]


def driver_cmd(candidate):
    return [sys.executable, "-m", "evpolicy.pydriver",
            str(HELPERS / candidate)]


def assert_replies_unshifted(candidate):
    """A candidate echoing its SoC gets each SoC back, with no fault."""
    handle = ExternalProcessPolicy(driver_cmd(candidate), timeout_ms=5000)
    socs = [0.3, 0.4, 0.5, 0.6, 0.7]
    try:
        decisions = [handle.decide(make_obs(step_index=i, soc=soc))
                     for i, soc in enumerate(socs)]
    finally:
        handle.close()
    assert decisions == socs
    assert handle.fault_log == []


def load_candidate(candidate):
    namespace: dict = {}
    exec((HELPERS / candidate).read_text(), namespace)  # noqa: S102
    return namespace["decide_power"]


def record_requests(handle):
    """Collect every payload the parent sends after the handshake."""
    sent = []
    send = handle._send

    def recording(data, deadline):
        sent.append(json.loads(data))
        send(data, deadline)

    handle._send = recording
    return sent


@contextmanager
def hard_time_limit(seconds):
    """Fail the test after ``seconds``, even from inside a blocking system
    call. ``pytest.fail`` raises a BaseException, so no ``except OSError``
    in the code under test swallows it."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Replies "1" to a request that carries the forecast and "2" to one without.
FORECAST_PROBE = ("    msg = json.loads(line)\n"
                  "    if msg.get('end'): break\n"
                  "    print('1' if 'forecast' in msg else '2', flush=True)")


class TestGuardrails:
    def test_floor_blocks_discharge(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: -5.0), battery)
        assert wrapped.decide(make_obs(soc=0.20)) == 0.0
        assert wrapped.violation_counter == 1

    def test_in_bounds_passthrough(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 3.0), battery)
        assert wrapped.decide(make_obs(soc=0.50)) == 3.0
        assert wrapped.violation_counter == 0

    def test_envelope_clamp(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 12.0), battery)
        assert wrapped.decide(make_obs(soc=0.50)) == 7.0
        assert wrapped.violation_counter == 1

    def test_ceiling_blocks_charge(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 5.0), battery)
        assert wrapped.decide(make_obs(soc=1.0)) == 0.0

    def test_fuzzer_inner_policy_always_finite_and_bounded(self, battery):
        rng = random.Random(13)
        outputs = [float("nan"), float("inf"), -float("inf"), 1e9, -1e9]
        fuzzer = NativePolicy(
            lambda o: rng.choice(outputs + [rng.uniform(-20, 20)]))
        wrapped = GuardrailPolicy(fuzzer, battery)
        for _ in range(2000):
            soc = rng.uniform(0.0, 1.0)
            value = wrapped.decide(make_obs(soc=soc))
            assert math.isfinite(value)
            assert -battery.max_discharge_kw <= value <= battery.max_charge_kw
            if soc <= battery.soc_min:
                assert value >= 0.0
            if soc >= battery.soc_max:
                assert value <= 0.0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_flat_decide_matches_the_min_max_expression(self, data):
        battery = data.draw(GUARDRAIL_BATTERIES)
        limits = [battery.max_charge_kw, -battery.max_discharge_kw]
        bounds = [battery.soc_min, battery.soc_max]
        raws = data.draw(st.lists(st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                             *limits, *(x + 1e-10 for x in limits)]),
            st.integers(-20, 20)), min_size=1, max_size=8))
        socs = st.one_of(st.sampled_from(bounds), st.floats(-0.5, 1.5),
                         st.sampled_from([x + d for x in bounds
                                          for d in (-1e-12, 1e-12)]))
        steps = [(raw, data.draw(socs)) for raw in raws]
        pending = iter(raw for raw, _ in steps)
        guarded = GuardrailPolicy(NativePolicy(lambda obs: next(pending)),
                                  battery)
        blocked = 0
        for raw, soc in steps:
            value = guarded.decide(make_obs(soc=soc))
            expected, block = min_max_guardrail(float(raw), soc, battery)
            blocked += block
            assert repr(value) == repr(expected)
            assert repr(guarded.last_raw_kw) == repr(float(raw))
            assert guarded.violation_counter == blocked


# Limits of either type: an int limit comes back from the guardrail as it is.
GUARDRAIL_BATTERIES = st.builds(
    BatteryConfig,
    max_charge_kw=st.sampled_from([7.0, 7, 3.3, 11]),
    max_discharge_kw=st.sampled_from([7.0, 7, 5.5, 1]),
    soc_min=st.sampled_from([0.2, 0, 0.1]),
    soc_max=st.sampled_from([1.0, 1, 0.9]))


def min_max_guardrail(raw, soc, battery):
    """The guardrail's value and whether it blocked ``raw``, by the
    ``min``/``max`` expression ``GuardrailPolicy.decide`` once used."""
    value = raw if math.isfinite(raw) else 0.0
    value = min(max(value, -battery.max_discharge_kw), battery.max_charge_kw)
    if soc <= battery.soc_min:
        value = max(value, 0.0)
    if soc >= battery.soc_max:
        value = min(value, 0.0)
    return value, not math.isfinite(raw) or abs(value - raw) > 1e-9


class TestExternalProcess:
    def test_constant_idle_child(self, battery):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'end' in line: break\n"
             "    if 'protocol' in line: continue\n"
             "    print('0', flush=True)"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs()) == 0.0
            assert handle.decide(make_obs()) == 0.0
        finally:
            handle.close()

    def test_soc_conditional_child_in_rollout(self, battery):
        trace = synthetic_trace(days=1, seed=2)
        sessions = [ConnectionSession(0, len(trace), arrival_soc=0.22,
                                      target_soc=0.25)]
        handle = GuardrailPolicy(
            ExternalProcessPolicy(child_cmd("soc_child.py"), timeout_ms=5000),
            battery)
        try:
            report = run_episode(trace, sessions, battery, handle,
                                 RewardConfig(), 0, 50)
        finally:
            handle.close()
        # charges while below 30%, idles afterwards; matches the child source
        assert report.records[0].applied_kw > 0
        assert report.records[-1].applied_kw == 0.0
        assert max(r.soc_after for r in report.records) >= 0.3

    def test_silent_child_faults_then_aborts(self, battery):
        handle = ExternalProcessPolicy(child_cmd("silent_child.py"),
                                       timeout_ms=50)
        try:
            assert handle.decide(make_obs(step_index=0)) == 0.0
            assert handle.decide(make_obs(step_index=1)) == 0.0
            with pytest.raises(PolicyFault):
                handle.decide(make_obs(step_index=2))
            assert len(handle.fault_log) == 3
        finally:
            handle.close()

    def test_malformed_reply_is_fault_not_crash(self, battery):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n"
             "    if 'end' in line: break\n"
             "    print('sell everything!!', flush=True)"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs()) == 0.0
            assert handle.fault_log
        finally:
            handle.close()

    def test_non_finite_reply_is_a_malformed_reply(self):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n"
             "    if 'end' in line: break\n"
             "    print('nan', flush=True)"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs(step_index=4)) == 0.0
        finally:
            handle.close()
        assert handle.fault_log == [
            "step 4: malformed reply: non-finite reply 'nan'"]

    def test_candidate_that_raises_is_a_fault(self):
        handle = ExternalProcessPolicy(driver_cmd("raising_candidate.py"),
                                       timeout_ms=5000)
        try:
            decisions = [handle.decide(make_obs(step_index=i, soc=soc))
                         for i, soc in enumerate([0.2, 0.8, 0.5, 0.2, 0.8])]
            assert decisions == [0.0, 0.0, 1.0, 0.0, 0.0]
            assert handle.fault_log == [
                "step 0: candidate raised: RuntimeError: boom, on two lines",
                "step 1: candidate raised: ValueError: could not convert "
                "string to float: 'a lot'",
                "step 3: candidate raised: RuntimeError: boom, on two lines",
                "step 4: candidate raised: ValueError: could not convert "
                "string to float: 'a lot'"]
            with pytest.raises(PolicyFault, match="3 consecutive"):
                handle.decide(make_obs(step_index=5, soc=0.2))
        finally:
            handle.close()

    def test_candidate_prints_do_not_shift_replies(self, battery):
        assert_replies_unshifted("print_candidate.py")

    @pytest.mark.parametrize("candidate", ["dunder_stdout_candidate.py",
                                           "fd1_candidate.py"])
    def test_candidate_stdout_writes_do_not_shift_replies(self, candidate):
        # Around sys.stdout: sys.__stdout__ and file descriptor 1 itself.
        assert_replies_unshifted(candidate)

    def test_candidate_stdin_reads_do_not_swallow_requests(self):
        # A candidate reading stdin reads /dev/null, not the next request.
        assert_replies_unshifted("stdin_candidate.py")

    @pytest.mark.parametrize("exited", [False, True])
    def test_close_closes_pipes(self, exited):
        # The child reads the handshake, then either serves or exits.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "sys.stdin.readline()\n"
             f"if {exited}: sys.exit(0)\n"
             "for line in sys.stdin:\n"
             "    if 'end' in line: break"], timeout_ms=5000)
        if exited:
            handle._proc.wait(timeout=10)
        handle.close()
        assert handle._proc.stdout.closed and handle._proc.stderr.closed

    def test_spawn_failure(self):
        with pytest.raises(PolicySpawnError):
            ExternalProcessPolicy(["/nonexistent/policy-binary"])

    def test_episode_abort_carries_step_index(self, battery):
        trace = synthetic_trace(days=1, seed=2)
        sessions = [ConnectionSession(0, len(trace), 0.5)]
        handle = ExternalProcessPolicy(child_cmd("silent_child.py"),
                                       timeout_ms=50)
        try:
            with pytest.raises(PolicyFault) as err:
                run_episode(trace, sessions, battery, handle, RewardConfig(),
                            0, 20)
            assert err.value.step_index == 2
        finally:
            handle.close()


    def test_stderr_flood_does_not_stall_episode(self, battery, tmp_path):
        # A candidate that writes 2 KB to stderr every step fills the 64 KB
        # stderr pipe within a few dozen steps unless it is drained.
        candidate = tmp_path / "flooder.py"
        candidate.write_text(
            "import sys\n"
            "def decide_power(charge_price, discharge_price, soc, ttd,\n"
            "                 load_kw, pv_kw, max_charge_kw,\n"
            "                 max_discharge_kw):\n"
            "    sys.stderr.write('x' * 2048 + '\\n')\n"
            "    return 0.0\n")
        trace = synthetic_trace(days=6, seed=2)
        sessions = [ConnectionSession(0, len(trace), 0.5)]
        handle = ExternalProcessPolicy(
            [sys.executable, "-m", "evpolicy.pydriver", str(candidate)],
            timeout_ms=5000)
        try:
            report = run_episode(trace, sessions, battery, handle,
                                 RewardConfig(), 0, 1500)
            tail = handle._stderr_tail()
        finally:
            handle.close()
        assert len(report.records) == 1500
        assert handle.fault_log == []
        assert all(r.applied_kw == 0.0 for r in report.records)
        assert "x" in tail and len(tail) <= STDERR_TAIL_BYTES

    def test_late_reply_is_discarded_not_shifted(self, battery):
        # The child answers soc 0.31 after 1.3 s, past the 1 s timeout; that
        # stale reply must not be returned for the request that follows.
        handle = ExternalProcessPolicy(child_cmd("late_child.py"),
                                       timeout_ms=1000)
        try:
            assert handle.decide(make_obs(step_index=0, soc=0.20)) == 0.20
            assert handle.decide(make_obs(step_index=1, soc=0.31)) == 0.0
            got = [handle.decide(make_obs(step_index=i, soc=soc))
                   for i, soc in ((2, 0.42), (3, 0.53), (4, 0.64))]
        finally:
            handle.close()
        assert got == [0.42, 0.53, 0.64]
        assert handle.fault_log == ["step 1: timeout waiting for reply"]

    def test_v1_child_receives_forecast_on_every_request(self, battery):
        trace = synthetic_trace(days=1, seed=5)
        sessions = [ConnectionSession(0, len(trace), 0.5, 0.8)]
        handle = ExternalProcessPolicy(child_cmd("ref_child.py"),
                                       timeout_ms=5000)
        sent = record_requests(handle)
        try:
            run_episode(trace, sessions, battery, handle, RewardConfig(),
                        0, 50)
        finally:
            handle.close()
        assert handle.fault_log == []
        assert len(sent) == 50
        assert all(len(msg["forecast"]) == 288 for msg in sent)

    @pytest.mark.parametrize("candidate,wants", [("price_candidate.py", False),
                                                 ("fc_candidate.py", True)])
    def test_forecast_sent_only_to_a_driver_that_asks(self, battery,
                                                      candidate, wants):
        handle = ExternalProcessPolicy(driver_cmd(candidate), timeout_ms=5000)
        sent = record_requests(handle)
        try:
            for i in range(3):
                handle.decide(make_obs(step_index=i))
        finally:
            handle.close()
        assert handle.fault_log == []
        # The first request goes out before the answer can have been read.
        assert ["forecast" in msg for msg in sent] == [True, wants, wants]

    @pytest.mark.parametrize("answer", ["""'{"forecast": fals'""",
                                        """'{"forecast": 0}'""",
                                        """'{"a": ' * 10_000"""],
                             ids=["truncated", "not-bool", "deep-nesting"])
    def test_malformed_handshake_answer_keeps_forecast(self, battery, answer):
        # `answer` is the child's source for the line it sends first.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import json, sys\n"
             f"print({answer}, flush=True)\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n" + FORECAST_PROBE],
            timeout_ms=5000)
        try:
            assert handle.decide(make_obs(step_index=0)) == 1.0
            assert handle.decide(make_obs(step_index=1)) == 1.0
        finally:
            handle.close()
        assert len(handle.fault_log) == 1
        assert handle.fault_log[0].startswith(
            "step 0: malformed reply: bad handshake answer")

    def test_brace_line_after_first_reply_is_malformed_reply(self, battery):
        # Only the child's first line can be the answer; a later {...} line,
        # such as a dict printed by the candidate, is a malformed reply.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import json, sys\n"
             "n = 0\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line:\n"
             "        print(json.dumps({'protocol': 'v2g-policy/2',\n"
             "                          'forecast': False}), flush=True)\n"
             "        continue\n"
             "    n += 1\n"
             "    if n == 2:\n"
             "        print('{\"forecast\": true}', flush=True)\n"
             "        continue\n" + FORECAST_PROBE],
            timeout_ms=5000)
        try:
            assert handle.decide(make_obs(step_index=0)) == 1.0
            assert handle.decide(make_obs(step_index=1)) == 0.0
            assert handle.decide(make_obs(step_index=2)) == 2.0
        finally:
            handle.close()
        assert len(handle.fault_log) == 1
        assert handle.fault_log[0].startswith("step 1: malformed reply:")

    def test_answer_then_silence_aborts_on_third_timeout(self, battery):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "print('{\"protocol\": \"v2g-policy/2\", \"forecast\": false}',\n"
             "      flush=True)\n"
             "for line in sys.stdin:\n"
             "    pass"], timeout_ms=200)
        try:
            assert handle.decide(make_obs(step_index=0)) == 0.0
            assert handle.decide(make_obs(step_index=1)) == 0.0
            with pytest.raises(PolicyFault):
                handle.decide(make_obs(step_index=2))
        finally:
            handle.close()
        assert handle.fault_log == [f"step {i}: timeout waiting for reply"
                                    for i in range(3)]

    def test_candidate_that_does_not_parse_faults_at_once(self, tmp_path):
        # The child exits before its first reply; waiting out the 30 s
        # timeout would be a stall, not a diagnosis.
        candidate = tmp_path / "broken.py"
        candidate.write_text("def decide_power(charge_price\n    return 0\n")
        handle = ExternalProcessPolicy(
            [sys.executable, "-m", "evpolicy.pydriver", str(candidate)],
            timeout_ms=30000)
        started = time.monotonic()
        try:
            with pytest.raises(PolicyFault) as err:
                handle.decide(make_obs(step_index=0))
        finally:
            handle.close()
        assert time.monotonic() - started < 10
        assert "closed its stdout (exit code 1)" in str(err.value)
        assert "SyntaxError" in err.value.diagnostics

    def test_close_reads_stderr_written_after_last_reply(self):
        # 200 KB is three times a pipe's capacity: the child finishes only
        # if close() keeps reading, and the tail is the last bytes written.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n"
             "    if 'end' in line: break\n"
             "    print('0', flush=True)\n"
             "sys.stderr.write('x' * 200_000 + 'LAST')\n"], timeout_ms=5000)
        assert handle.decide(make_obs()) == 0.0
        started = time.monotonic()
        handle.close()
        assert time.monotonic() - started < 1.5
        assert handle._proc.returncode == 0
        assert handle._stderr_tail().endswith("x" * 100 + "LAST")
        assert len(handle._stderr_tail()) == STDERR_TAIL_BYTES

    def test_close_kills_child_that_never_stops_writing_stderr(self):
        # A child that never stops writing can find its pipe ready at every
        # select, here forced so: close() must still kill it at its deadline.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "while True:\n"
             "    sys.stderr.write('y' * 1000)\n"], timeout_ms=5000)
        read_ready = handle._read_ready
        started = time.monotonic()

        def always_ready(deadline):
            read_ready(deadline)
            assert time.monotonic() - started < 5, "close() kept reading"
            return True

        handle._read_ready = always_ready
        try:
            handle.close()
        finally:
            handle._proc.kill()
        assert time.monotonic() - started < 3
        assert handle._proc.returncode == -9  # SIGKILL

    def test_child_that_stops_reading_faults_at_the_deadline(self):
        # The child prints a reply every millisecond but never reads its
        # stdin, which requests carrying a 288-price forecast fill within a
        # dozen steps; a blocking write there would never return.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import time\n"
             "while True:\n"
             "    print('0', flush=True)\n"
             "    time.sleep(0.001)\n"], timeout_ms=1000)
        obs = make_obs()._replace(
            forecast=forecast_at(synthetic_trace(days=1), 0))
        started = time.monotonic()
        try:
            with hard_time_limit(20):
                with pytest.raises(PolicyFault,
                                   match="did not read its request"):
                    for i in range(1000):
                        handle.decide(obs._replace(step_index=i))
                faulted = time.monotonic() - started
                handle.close()
        finally:
            handle._proc.kill()  # if close() did not return
        assert faulted < 5
        assert time.monotonic() - started < 10
        assert handle._proc.returncode == -9  # killed by close()

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                        reason="F_SETPIPE_SZ is Linux only")
    def test_a_request_that_fills_stdin_waits_for_the_child(self):
        # The child's stdin pipe holds one page, so a request with a
        # 288-price forecast (about 6 KB) takes more than one write; the
        # child starts reading after 0.3 s, well inside its deadline.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys, time\n"
             "time.sleep(0.3)\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n"
             "    if 'end' in line: break\n"
             "    print('7.0', flush=True)\n"], timeout_ms=5000)
        fcntl.fcntl(handle._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, 4096)
        obs = make_obs()._replace(
            forecast=forecast_at(synthetic_trace(days=1), 0))
        writes = []
        write = handle._write

        def recording(data):
            writes.append(write(data))
            return writes[-1]

        handle._write = recording
        try:
            assert handle.decide(obs) == 7.0
            assert len(writes) > 1  # the request, before close() writes
        finally:
            handle.close()
        assert handle.fault_log == []
        assert handle._proc.returncode == 0

    def test_a_child_that_closes_stdout_and_lives_on_is_still_running(self):
        # The child outlives the EXIT_WAIT_S wait that follows the end of
        # file on its stdout; close() still leaves no process behind.
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import os, time\n"
             "os.close(1)\n"
             f"time.sleep({EXIT_WAIT_S + 1})\n"], timeout_ms=5000)
        try:
            with pytest.raises(PolicyFault, match=(
                    r"^policy process closed its stdout \(still running\)$")):
                handle.decide(make_obs())
        finally:
            handle.close()
        assert handle._proc.returncode is not None

    def test_a_reply_line_that_never_ends_faults_at_once(self):
        # The child writes 8 MB with no newline, then waits. The fault comes
        # once the line passes READ_BYTES, long before the deadline, and
        # close() throws the rest of the flood away as it reads it.
        tracemalloc.start()
        try:
            handle = ExternalProcessPolicy(child_cmd("flood_child.py"),
                                           timeout_ms=5000)
            started = time.monotonic()
            try:
                with pytest.raises(PolicyFault, match=(
                        f"^policy process wrote more than {READ_BYTES} "
                        "bytes without a newline$")):
                    handle.decide(make_obs())
                assert time.monotonic() - started < handle.timeout_s
            finally:
                handle.close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert handle._proc.returncode == 0  # it read its stdin to the end
        assert peak < FLOOD_PEAK_BYTES

    def test_unterminated_last_line_is_the_reply(self):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "sys.stdin.readline()\n"  # the handshake
             "sys.stdin.readline()\n"
             "sys.stdout.write('0.5')\n"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs()) == 0.5
        finally:
            handle.close()
        assert handle.fault_log == []


class TestPydriver:
    def serve(self, candidate, messages):
        out = io.StringIO()
        pydriver.serve(load_candidate(candidate),
                       stdin=[json.dumps(m) + "\n" for m in messages],
                       stdout=out)
        return out.getvalue().splitlines()

    def request(self, **extra):
        return {"charge_price": 0.1, "discharge_price": 0.1, "soc": 0.5,
                "ttd": 600.0, "load_kw": 0.5, "pv_kw": 0.0,
                "max_charge_kw": 7.0, "max_discharge_kw": 7.0, **extra}

    @pytest.mark.parametrize("candidate,wants", [("price_candidate.py", False),
                                                 ("fc_candidate.py", True)])
    def test_answers_v2_handshake(self, candidate, wants):
        lines = self.serve(candidate, [{"protocol": "v2g-policy/2"},
                                       {"end": True}])
        assert [json.loads(line) for line in lines] == [
            {"protocol": "v2g-policy/2", "forecast": wants}]

    def test_v1_handshake_gets_no_answer(self):
        lines = self.serve("fc_candidate.py", [
            {"protocol": "v2g-policy/1"},
            self.request(forecast=[0.1, 0.4]), {"end": True}])
        assert lines == ["3.5"]

    def test_replies_err_when_the_candidate_raises(self):
        lines = self.serve("raising_candidate.py", [
            self.request(soc=0.2), self.request(soc=0.8),
            self.request(soc=0.5), {"end": True}])
        assert lines == [
            "err RuntimeError: boom, on two lines",
            "err ValueError: could not convert string to float: 'a lot'",
            "1.0"]

    def test_err_reply_keeps_a_bounded_message(self):
        def decide_power(*args):
            raise RuntimeError("x" * 2048)

        out = io.StringIO()
        pydriver.serve(decide_power, stdin=[json.dumps(self.request()) + "\n"],
                       stdout=out)
        message = "RuntimeError: " + "x" * 2048
        assert out.getvalue() == (
            f"err {message[:pydriver.ERR_MESSAGE_CHARS]}\n")

    def test_serves_requests_without_forecast_after_answering(self):
        lines = self.serve("price_candidate.py", [
            {"protocol": "v2g-policy/2"}, self.request(),
            self.request(soc=0.2), {"end": True}])
        assert lines[1:] == ["3.5", "7.0"]

    def test_skips_blank_lines(self):
        out = io.StringIO()
        pydriver.serve(load_candidate("price_candidate.py"),
                       stdin=["\n", "  \n", json.dumps(self.request()) + "\n",
                              '  {"end": true}  \n', "\n"],
                       stdout=out)
        assert out.getvalue() == "3.5\n"

    def test_no_argument_exits_2_with_the_usage_line(self):
        done = subprocess.run([sys.executable, "-m", "evpolicy.pydriver"],
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "usage: python -m evpolicy.pydriver <policy_file.py>\n")

    def test_a_file_without_decide_power_exits_2(self, tmp_path, battery):
        candidate = tmp_path / "misnamed.py"
        candidate.write_text("def decide(soc):\n    return 0.0\n")
        handle = make_policy(f"cmd:{shlex.quote(sys.executable)} -m "
                             f"evpolicy.pydriver {shlex.quote(str(candidate))}",
                             battery, timeout_ms=5000)
        try:
            with pytest.raises(PolicyFault) as fault:
                handle.decide(make_obs())
        finally:
            handle.close()
        assert str(fault.value) == (
            "policy process closed its stdout (exit code 2)")
        assert ("policy file does not define decide_power()"
                in fault.value.diagnostics)

    @pytest.mark.parametrize("line,error", [
        ('{"end": true} 1', "extra data"),  # as json.loads would have it
        ('{"charge_price": 0.1}', "not a request, handshake or end"),
    ])
    def test_stops_at_a_line_that_is_not_one_message(self, line, error):
        with pytest.raises(ValueError, match=error):
            pydriver.serve(load_candidate("price_candidate.py"),
                           stdin=[line + "\n"], stdout=io.StringIO())


def fc_positional(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                  max_charge_kw, max_discharge_kw, forecast):
    return 0.0


def fc_keyword_only(charge_price, *args, forecast):
    return 0.0


def fc_defaulted(charge_price, soc=0.5, /, forecast=None, *args, flag=1,
                 **kwargs):
    return 0.0


def star_only(*args, **kwargs):
    return 0.0


@functools.wraps(fc_positional)
def fc_wrapped(*args, **kwargs):
    return fc_positional(*args, **kwargs)


def with_signature(*args):
    return 0.0


with_signature.__signature__ = inspect.signature(fc_keyword_only)


class CallableCandidate:
    def __call__(self, charge_price, forecast):
        return 0.0

    def method(self, soc, forecast=None):
        return 0.0


PARAMETER_CASES = {
    "positional": (fc_positional, True),
    "keyword-only": (fc_keyword_only, True),
    "defaulted": (fc_defaulted, True),
    "star-args": (star_only, False),
    "lambda": (lambda charge_price, soc: 0.0, False),
    "partial": (functools.partial(fc_positional, 0.1, 0.1), True),
    "wraps": (fc_wrapped, True),
    "signature-attribute": (with_signature, True),
    "callable-instance": (CallableCandidate(), True),
    "bound-method": (CallableCandidate().method, True),
    "builtin": (abs, False),
}


@pytest.mark.parametrize("fn,wants", PARAMETER_CASES.values(),
                         ids=PARAMETER_CASES.keys())
def test_parameter_names_agree_with_inspect(fn, wants):
    names = pydriver.parameter_names(fn)
    assert names == tuple(inspect.signature(fn).parameters)
    assert ("forecast" in names) is wants


REQUEST_NUMBER = st.one_of(st.floats(), st.integers(-10**30, 10**30))


class TestEncodeRequest:
    """The request bytes are what ``json.dumps`` wrote for the request dict."""

    @staticmethod
    def old_request(obs):
        return {"charge_price": obs.charge_price,
                "discharge_price": obs.discharge_price, "soc": obs.soc,
                "ttd": obs.ttd_minutes, "load_kw": obs.load_kw,
                "pv_kw": obs.pv_kw, "max_charge_kw": obs.max_charge_kw,
                "max_discharge_kw": obs.max_discharge_kw}

    @given(values=st.tuples(*[st.floats()] * 6),
           limits=st.tuples(REQUEST_NUMBER, REQUEST_NUMBER))
    @example(values=(math.nan, -math.inf, -0.0, 5e-324, math.inf, 1e-310),
             limits=(7, 11))
    @example(values=(0.1, 0.1, 0.5, 120, 0.5, 0.0), limits=(7.0, -math.inf))
    def test_template_matches_json_dumps(self, values, limits):
        obs = make_obs(None, *values, *limits, forecast=PriceForecast((0.1,)))
        assert encode_request(obs, False) == (
            json.dumps(self.old_request(obs)) + "\n").encode()

    @given(values=st.tuples(*[st.floats()] * 6),
           forecast=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=5))
    def test_forecast_request_matches_json_dumps(self, values, forecast):
        obs = make_obs(None, *values, forecast=PriceForecast(tuple(forecast)))
        request = {**self.old_request(obs), "forecast": forecast}
        assert encode_request(obs, True) == (
            json.dumps(request) + "\n").encode()


class TestReferenceAgreement:
    """The IPC path and the in-process path give the same episode."""

    @given(seed=st.integers(0, 10_000), arrival_soc=st.floats(0.2, 0.9),
           candidate=st.sampled_from(["price_candidate.py",
                                      "fc_candidate.py"]))
    @settings(max_examples=4, deadline=None)
    def test_pydriver_matches_native(self, seed, arrival_soc, candidate):
        battery = BatteryConfig()
        trace = synthetic_trace(days=1, seed=seed)
        sessions = [ConnectionSession(0, len(trace), arrival_soc)]
        fn = load_candidate(candidate)
        if candidate == "fc_candidate.py":
            native = NativePolicy(lambda o: fn(
                o.charge_price, o.discharge_price, o.soc, o.ttd_minutes,
                o.load_kw, o.pv_kw, o.max_charge_kw, o.max_discharge_kw,
                list(o.forecast.values)))
        else:
            native = NativePolicy(lambda o: fn(
                o.charge_price, o.discharge_price, o.soc, o.ttd_minutes,
                o.load_kw, o.pv_kw, o.max_charge_kw, o.max_discharge_kw))
        ref = run_episode(trace, sessions, battery,
                          GuardrailPolicy(native, battery), RewardConfig(),
                          0, len(trace))
        handle = GuardrailPolicy(
            ExternalProcessPolicy(driver_cmd(candidate), timeout_ms=5000),
            battery)
        try:
            ipc = run_episode(trace, sessions, battery, handle,
                              RewardConfig(), 0, len(trace))
        finally:
            handle.close()
        assert handle.fault_log == []
        assert ([r.applied_kw for r in ipc.records]
                == [r.applied_kw for r in ref.records])
        assert ipc.total_reward == ref.total_reward


class TestMakePolicy:
    def test_registry_names(self, battery):
        for name in ("baseline", "idle"):
            handle = make_policy(name, battery)
            assert math.isfinite(handle.decide(make_obs()))

    def test_rules_file(self, tmp_path, battery):
        f = tmp_path / "p.rules"
        f.write_text("if charge_price <= 0.12 then max_charge_kw\n")
        handle = make_policy(str(f), battery)
        assert handle.decide(make_obs(charge_price=0.10)) == 7.0

    def test_unknown_spec(self, battery):
        with pytest.raises(ValueError):
            make_policy("definitely-not-a-policy", battery)
