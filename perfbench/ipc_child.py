"""Serve a Python candidate through evpolicy.pydriver.serve, counting bytes.

Usage: python ipc_child.py <candidate.py> <counts.json>

The traced sim-week-ipc run launches candidates through this script in place
of ``python -m evpolicy.pydriver``, so the protocol's request and reply bytes
are counted from outside the program. Counts cover every line, including the
handshake and the end message.
"""
from __future__ import annotations

import json
import sys

from evpolicy import pydriver


class CountingReader:
    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0
        self.lines = 0

    def __iter__(self):
        for line in self.stream:
            self.bytes += len(line.encode())
            self.lines += 1
            yield line


class CountingWriter:
    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0
        self.lines = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        self.lines += text.count("\n")
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()


def main(candidate: str, counts_path: str) -> int:
    namespace: dict = {}
    with open(candidate) as fh:
        exec(compile(fh.read(), candidate, "exec"), namespace)  # noqa: S102
    stdin, stdout = CountingReader(sys.stdin), CountingWriter(sys.stdout)
    try:
        pydriver.serve(namespace["decide_power"], stdin=stdin, stdout=stdout)
    finally:
        with open(counts_path, "w") as fh:
            json.dump({"request_bytes": stdin.bytes, "request_lines": stdin.lines,
                       "reply_bytes": stdout.bytes, "reply_lines": stdout.lines},
                      fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
