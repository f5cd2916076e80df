"""A policy child that writes 8 MB to stdout with no newline, then waits for
its stdin to close: a reply line that never ends. Run it as a policy:

    evpolicy simulate ... --policy "cmd:python tests/helpers/flood_child.py"
"""
import sys

FLOOD_BYTES = 8 * 2**20

sys.stdout.buffer.write(b"7" * FLOOD_BYTES)
sys.stdout.buffer.flush()
sys.stdin.buffer.read()
