"""Python candidate that writes to file descriptor 1 on every call.

It returns the SoC it was given, so a reply shifted by a written line shows.
"""
import os


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    os.write(1, f"debug {soc}\n".encode())
    return soc
