"""Python candidate that prints when loaded and on every call.

It returns the SoC it was given, so a reply shifted by a printed line shows.
"""

print("print_candidate loaded")


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    print(f"debug {soc}")
    return soc
