"""Python candidate that reads a line from stdin on every call.

It returns the SoC it was given, so a swallowed request shows.
"""
import sys


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    sys.stdin.readline()
    return soc
