"""Protocol driver for Python candidate policies.

Usage: ``python -m evpolicy.pydriver <policy_file.py>``

Loads a file that defines ``decide_power(charge_price, discharge_price, soc,
ttd, load_kw, pv_kw, max_charge_kw, max_discharge_kw)`` (an optional trailing
``forecast`` parameter is passed when accepted) and serves it over the
line protocol. These eight decision inputs are defined once, in
:data:`DECISION_INPUTS`: the prompt's signature, the request keys, the
candidate's argument order and the rule language's variables are all built
from it. ``ttd`` is :attr:`Observation.ttd_minutes`, in minutes. The
protocol is a handshake line, then one JSON request per line, one reply
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

The driver starts once per episode and answers one request per decision, so
it imports only ``json``, ``operator``, ``os``, ``sys`` and ``contextlib``
at start-up (never :mod:`inspect`, see :func:`parameter_names`), and
``main`` reads requests and writes replies as bytes, one write and one flush
per reply.
"""
from __future__ import annotations

import json
import os
import sys
from contextlib import redirect_stdout
from operator import itemgetter

PROTOCOL = "v2g-policy/2"
# (request key, Observation field) of each argument of decide_power, in order.
DECISION_INPUTS = (
    ("charge_price", "charge_price"), ("discharge_price", "discharge_price"),
    ("soc", "soc"), ("ttd", "ttd_minutes"), ("load_kw", "load_kw"),
    ("pv_kw", "pv_kw"), ("max_charge_kw", "max_charge_kw"),
    ("max_discharge_kw", "max_discharge_kw"))
ERR_MESSAGE_CHARS = 200  # of an exception's message in an ``err`` reply

_FUNCTION = type(lambda: None)
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08  # inspect.CO_VARARGS, CO_VARKEYWORDS


def parameter_names(fn) -> tuple[str, ...]:
    """The names of ``fn``'s parameters, as ``inspect.signature`` lists them.

    A plain function's names come from its code object, so the driver starts
    without importing :mod:`inspect`. Any other callable (a
    ``functools.partial``, a callable instance, a builtin) goes through
    ``inspect.signature``, and so does a function with attributes of its
    own: ``functools.wraps`` sets ``__wrapped__``, whose code object, not
    the wrapper's ``*args``, names a ``forecast`` parameter, and a
    ``__signature__`` overrides the code.
    """
    if type(fn) is not _FUNCTION or fn.__dict__:
        import inspect
        return tuple(inspect.signature(fn).parameters)
    code = fn.__code__
    n_pos, n_kwonly = code.co_argcount, code.co_kwonlyargcount
    names = code.co_varnames
    # co_varnames holds the positional, then the keyword-only parameters,
    # then *args and **kwargs; a signature lists *args before keyword-only.
    rest = iter(names[n_pos + n_kwonly:])
    varargs = (next(rest),) if code.co_flags & _CO_VARARGS else ()
    varkw = (next(rest),) if code.co_flags & _CO_VARKEYWORDS else ()
    return names[:n_pos] + varargs + names[n_pos:n_pos + n_kwonly] + varkw


def serve(fn, stdin=None, stdout=None) -> None:
    """Serve ``fn`` on text streams: request lines from ``stdin``, replies
    written to ``stdout`` (by default ``sys.stdin`` and ``sys.stdout``)."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def reply(text: str) -> None:
        stdout.write(text)
        stdout.flush()

    _serve(fn, stdin, reply)


def _serve(fn, lines, reply) -> None:
    """Answer each request line in ``lines`` by passing one reply line to
    ``reply``, until ``end``."""
    wants_forecast = "forecast" in parameter_names(fn)
    keys = [key for key, _ in DECISION_INPUTS]
    if wants_forecast:
        keys.append("forecast")
    arguments = itemgetter(*keys)  # a request's arguments, in order
    answer = json.dumps({"protocol": PROTOCOL,
                         "forecast": wants_forecast}) + "\n"
    # raw_decode skips the whitespace handling of json.loads, about a third
    # of its time on a request; the line is stripped, and the check after
    # it rejects what json.loads would reject as extra data.
    decode = json.JSONDecoder().raw_decode
    with redirect_stdout(sys.stderr):  # a candidate print is not a reply
        for line in lines:
            line = line.strip()
            if not line:
                continue
            msg, end = decode(line)
            if end < len(line):
                raise ValueError(f"extra data after a message: {line[:80]!r}")
            if "soc" in msg:  # a decision request, the hot path
                args = arguments(msg)
                try:
                    text = f"{float(fn(*args))}\n"
                except Exception as exc:  # noqa: BLE001 - the parent decides
                    message = " ".join(f"{type(exc).__name__}: {exc}".split())
                    text = f"err {message[:ERR_MESSAGE_CHARS]}\n"
                reply(text)
            elif msg.get("end"):
                break
            elif not msg.get("protocol"):
                raise ValueError("not a request, handshake or end: "
                                 f"{line[:80]!r}")
            elif msg["protocol"] == PROTOCOL:  # other handshakes: silence
                reply(answer)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m evpolicy.pydriver <policy_file.py>",
              file=sys.stderr)
        return 2
    # os.dup's copies are not inherited by the candidate's subprocesses.
    with os.fdopen(os.dup(0), "rb") as requests, \
            os.fdopen(os.dup(1), "wb") as replies:
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

        def reply(text: str) -> None:
            replies.write(text.encode())
            replies.flush()

        _serve(fn, map(bytes.decode, requests), reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
