"""Python candidate that writes to ``sys.__stdout__`` on every call.

It returns the SoC it was given, so a reply shifted by a written line shows.
"""
import sys


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    sys.__stdout__.write(f"debug {soc}\n")
    sys.__stdout__.flush()
    return soc
