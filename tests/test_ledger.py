import csv
import json

import pytest

from evpolicy.errors import ConfigError
from evpolicy.ledgers import (LEDGER_COLUMNS, QUADRANTS, LedgerEntry,
                              action_summary, build_ledger, classify_quadrant,
                              export_ledger, format_entry, quadrant_sample,
                              render_examples)
from evpolicy.market import lower_median


def entry(step, quadrant, action_kw=0.0, soc_pct=45.0, charge_price=0.18,
          pv_kw=2.1, load_kw=0.6, ttd_min=120.0, reward=0.01):
    return LedgerEntry(step=step, soc_pct=soc_pct, charge_price=charge_price,
                       discharge_price=charge_price, pv_kw=pv_kw,
                       load_kw=load_kw, ttd_min=ttd_min, action_kw=action_kw,
                       reward=reward, quadrant=quadrant)


def synthetic_ledger(per_quadrant):
    """per_quadrant maps quadrant name -> entry count; steps stay unique."""
    entries = []
    step = 0
    for q in QUADRANTS:
        for _ in range(per_quadrant.get(q, 0)):
            entries.append(entry(step, q))
            step += 1
    return entries


class TestClassification:
    SPLIT = 0.20

    def test_four_corners(self):
        assert classify_quadrant(0.30, 2.0, self.SPLIT) == "high_price_high_solar"
        assert classify_quadrant(0.30, 0.0, self.SPLIT) == "high_price_no_solar"
        assert classify_quadrant(0.10, 2.0, self.SPLIT) == "low_price_high_solar"
        assert classify_quadrant(0.10, 0.0, self.SPLIT) == "low_price_no_solar"

    def test_boundary_is_low(self):
        # exactly at a split counts as the low side of that split
        assert classify_quadrant(0.20, 0.1, self.SPLIT) == "low_price_no_solar"

    def test_default_spec_uses_lower_middle_median(self):
        assert lower_median([0.4, 0.1, 0.3, 0.2]) == 0.2

    def test_default_spec_rejects_empty(self):
        with pytest.raises(ConfigError):
            build_ledger([])


class TestQuadrantSample:
    def test_balanced_pools_split_evenly(self):
        entries = synthetic_ledger({q: 1000 for q in QUADRANTS})
        sample = quadrant_sample(entries, 1500, seed=3)
        counts = {q: sum(1 for e in sample if e.quadrant == q)
                  for q in QUADRANTS}
        assert counts == {q: 375 for q in QUADRANTS}

    def test_shortfall_redistribution(self):
        pools = {q: 1000 for q in QUADRANTS}
        pools["high_price_no_solar"] = 10
        entries = synthetic_ledger(pools)
        sample = quadrant_sample(entries, 1500, seed=3)
        counts = {q: sum(1 for e in sample if e.quadrant == q)
                  for q in QUADRANTS}
        assert len(sample) == 1500
        assert counts["high_price_no_solar"] == 10
        others = sorted(v for q, v in counts.items()
                        if q != "high_price_no_solar")
        assert others == [496, 497, 497]

    def test_deterministic_under_seed(self):
        entries = synthetic_ledger({q: 500 for q in QUADRANTS})
        a = quadrant_sample(entries, 100, seed=11)
        b = quadrant_sample(entries, 100, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        entries = synthetic_ledger({q: 500 for q in QUADRANTS})
        a = quadrant_sample(entries, 100, seed=11)
        b = quadrant_sample(entries, 100, seed=12)
        assert a != b

    def test_no_duplicates(self):
        entries = synthetic_ledger({q: 300 for q in QUADRANTS})
        sample = quadrant_sample(entries, 800, seed=1)
        steps = [e.step for e in sample]
        assert len(steps) == len(set(steps))

    def test_quadrant_major_chronological_order(self):
        entries = synthetic_ledger({q: 200 for q in QUADRANTS})
        sample = quadrant_sample(entries, 80, seed=5)
        seen = [sample[0].quadrant]
        for e in sample[1:]:
            if e.quadrant != seen[-1]:
                seen.append(e.quadrant)
        assert seen == [q for q in QUADRANTS if q in seen]
        for q in QUADRANTS:
            steps = [e.step for e in sample if e.quadrant == q]
            assert steps == sorted(steps)

    def test_request_capped_at_population(self):
        entries = synthetic_ledger({q: 5 for q in QUADRANTS})
        sample = quadrant_sample(entries, 1500, seed=0)
        assert len(sample) == 20

    def test_too_small_request_rejected(self):
        entries = synthetic_ledger({q: 5 for q in QUADRANTS})
        with pytest.raises(ConfigError):
            quadrant_sample(entries, 3)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ConfigError):
            quadrant_sample([], 100)


class TestFormatting:
    def test_charge_entry_exemplar(self):
        e = entry(0, "low_price_high_solar", action_kw=4.0)
        assert format_entry(e) == ("{SoC: 45%, price: 0.18, PV: 2.1 kW, "
                                   "TTD: 120 min -> action: +4.0 kW (charge)}")

    def test_discharge_entry(self):
        e = entry(0, "high_price_no_solar", action_kw=-7.0, soc_pct=80.0,
                  charge_price=0.42, pv_kw=0.0, ttd_min=300.0)
        assert format_entry(e) == ("{SoC: 80%, price: 0.42, PV: 0.0 kW, "
                                   "TTD: 300 min -> action: -7.0 kW "
                                   "(discharge)}")

    def test_idle_entry_prints_unsigned_zero(self):
        assert "action: 0.0 kW (idle)" in format_entry(
            entry(0, "low_price_no_solar", action_kw=0.0))

    def test_action_summary_percentages(self):
        entries = ([entry(i, "low_price_no_solar", 7.0) for i in range(3)]
                   + [entry(9, "high_price_no_solar", -5.0)]
                   + [entry(i + 10, "low_price_no_solar", 0.0)
                      for i in range(6)])
        text = action_summary(entries)
        assert "Total examples: 10" in text
        assert "Charge actions: 3 (30.0%)" in text
        assert "Discharge actions: 1 (10.0%)" in text
        assert "Idle actions: 6 (60.0%)" in text

    def test_render_narrative_has_header_then_lines(self):
        entries = [entry(0, "low_price_no_solar", 2.0),
                   entry(1, "low_price_no_solar", 0.0)]
        text = render_examples(entries)
        head, _, body = text.partition("\n\n")
        assert head.startswith("Total examples: 2")
        assert body.count("\n") == 1
        assert body.splitlines() == [format_entry(e) for e in entries]

    def test_render_empty_is_empty_string(self):
        assert render_examples([]) == ""


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,suffix", [("csv", "ledger.csv"),
                                            ("jsonl", "ledger.jsonl")])
    def test_export_then_load_is_identity(self, tmp_path, fmt, suffix):
        entries = [entry(i, QUADRANTS[i % 4], action_kw=(-1) ** i * (i / 3),
                         soc_pct=20.0 + i * 0.777, charge_price=0.1 + i / 97)
                   for i in range(40)]
        path = tmp_path / suffix
        export_ledger(entries, path)  # the suffix picks the format
        with open(path, newline="") as fh:
            if fmt == "csv":
                loaded = [LedgerEntry(
                    step=int(row["step"]), quadrant=row["quadrant"],
                    **{c: float(row[c]) for c in LEDGER_COLUMNS[1:-1]})
                    for row in csv.DictReader(fh)]
            else:
                loaded = [LedgerEntry(**json.loads(line)) for line in fh]
        assert loaded == entries


class TestBuildLedger:
    def test_entries_mirror_episode_records(self, battery, fixture_trace,
                                            fixture_sessions, tmp_path):
        from evpolicy.rewards import RewardConfig
        from evpolicy.runtime import make_policy
        from evpolicy.simulation import read_step_log, run_episode
        policy = make_policy("baseline", battery)
        report = run_episode(fixture_trace, fixture_sessions, battery, policy,
                             RewardConfig(), 0, len(fixture_trace))
        entries = build_ledger(report.step_rows())
        # the step log on disk carries the same rows
        report.write_step_log(tmp_path / "steps.jsonl")
        assert build_ledger(read_step_log(tmp_path / "steps.jsonl")) == entries
        assert len(entries) == len(report.records)
        for e, r in zip(entries, report.records):
            assert e.step == r.observation.step_index
            assert e.soc_pct == pytest.approx(r.observation.soc * 100)
            assert e.action_kw == r.applied_kw
            assert e.quadrant in QUADRANTS
