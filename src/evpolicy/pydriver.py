"""Protocol driver for Python candidate policies.

Usage: ``python -m evpolicy.pydriver <policy_file.py>``

Loads a file that defines ``decide_power(charge_price, discharge_price, soc,
ttd, load_kw, pv_kw, max_charge_kw, max_discharge_kw)`` (an optional trailing
``forecast`` parameter is passed when accepted) and serves it over the
line protocol: handshake line, then one JSON request per line, one reply
per line, until ``{"end": true}``. A reply is a decimal, or ``err <message>``
on one line when ``decide_power`` raises or returns something ``float()``
rejects; the parent counts an ``err`` reply as a policy fault.

The parent's handshake is ``{"protocol": "v2g-policy/2"}``. The driver
answers it with one line, ``{"protocol": "v2g-policy/2", "forecast": true}``
if ``decide_power`` takes ``forecast`` and ``"forecast": false`` otherwise;
after a ``false`` answer the parent leaves the price forecast out of its
requests. Any other handshake (``v2g-policy/1``) gets no answer. Children
that never answer (v1 children) are still served: the parent keeps sending
``forecast`` to them on every request.

Candidate code runs in this separate process, so a crashing or hanging policy
cannot take the simulator down with it. Replies are paired with requests by
order, so one stray stdout line would shift them all, and one line the
candidate read from stdin would be a request lost. ``main`` therefore reads
requests from a private duplicate of file descriptor 0 and writes replies to
one of fd 1, then points fd 0 at ``/dev/null`` and fd 1 at stderr before the
candidate's file runs: whatever the candidate writes to stdout, through
``print``, ``sys.__stdout__``, ``os.write(1, ...)`` or a subprocess that
inherits fd 1, goes to stderr, and its stdin reads see end of file.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
from contextlib import redirect_stdout

PROTOCOL = "v2g-policy/2"
ERR_MESSAGE_CHARS = 200  # of an exception's message in an ``err`` reply


def serve(fn, stdin=None, stdout=None) -> None:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    params = list(inspect.signature(fn).parameters)
    wants_forecast = "forecast" in params
    with redirect_stdout(sys.stderr):  # a candidate print is not a reply
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            msg = json.loads(line)
            if msg.get("protocol"):
                if msg["protocol"] == PROTOCOL:
                    stdout.write(json.dumps({"protocol": PROTOCOL,
                                             "forecast": wants_forecast}) + "\n")
                    stdout.flush()
                continue
            if msg.get("end"):
                break
            args = [msg["charge_price"], msg["discharge_price"], msg["soc"],
                    msg["ttd"], msg["load_kw"], msg["pv_kw"],
                    msg["max_charge_kw"], msg["max_discharge_kw"]]
            if wants_forecast:
                args.append(msg["forecast"])
            try:
                reply = f"{float(fn(*args))}"
            except Exception as exc:  # noqa: BLE001 - the parent decides
                message = " ".join(f"{type(exc).__name__}: {exc}".split())
                reply = f"err {message[:ERR_MESSAGE_CHARS]}"
            stdout.write(f"{reply}\n")
            stdout.flush()


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m evpolicy.pydriver <policy_file.py>",
              file=sys.stderr)
        return 2
    # os.dup's copies are not inherited by the candidate's subprocesses.
    with os.fdopen(os.dup(0)) as requests, \
            os.fdopen(os.dup(1), "w") as replies:
        with open(os.devnull) as null:
            os.dup2(null.fileno(), 0)
        os.dup2(2, 1)
        namespace: dict = {}
        with open(argv[0]) as fh, redirect_stdout(sys.stderr):
            exec(compile(fh.read(), argv[0], "exec"), namespace)  # noqa: S102
        fn = namespace.get("decide_power")
        if not callable(fn):
            print("policy file does not define decide_power()", file=sys.stderr)
            return 2
        serve(fn, stdin=requests, stdout=replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
