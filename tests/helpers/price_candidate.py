"""Python candidate with the paper's 8-argument signature (no forecast)."""


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw):
    if soc < 0.25 or (ttd <= 120 and soc < 0.8):
        return max_charge_kw
    if discharge_price >= 0.3 and soc > 0.3:
        return -max_discharge_kw
    if pv_kw > load_kw and soc < 0.95:
        return min(pv_kw - load_kw, max_charge_kw)
    if charge_price <= 0.12 and soc < 0.9:
        return max_charge_kw * 0.5
    return 0.0
