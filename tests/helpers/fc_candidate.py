"""Python candidate with the 9-argument signature: it reads the forecast.

Charges while the price is well below the coming peak and sells into the
peak itself, so its actions depend on every value of ``forecast``.
"""


def decide_power(charge_price, discharge_price, soc, ttd, load_kw, pv_kw,
                 max_charge_kw, max_discharge_kw, forecast):
    peak = max(forecast)
    if soc < 0.25 or (ttd <= 120 and soc < 0.8):
        return max_charge_kw
    if discharge_price >= 0.9 * peak and soc > 0.3:
        return -max_discharge_kw
    if charge_price <= 0.5 * peak and soc < 0.9:
        return max_charge_kw * 0.5
    return 0.0
