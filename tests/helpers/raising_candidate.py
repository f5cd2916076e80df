"""A candidate that raises below 50 % SoC, returns text that float() rejects
above it, and 1 kW at exactly 50 %."""


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    if soc < 0.5:
        raise RuntimeError("boom,\non two lines")
    if soc > 0.5:
        return "a lot"
    return 1.0
