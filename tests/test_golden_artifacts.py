"""Behaviour lock: byte-for-byte hashes of the artifacts of fixed CLI runs.

The runs read the CSV fixture trace (not ``synthetic_trace``), so the inputs
do not depend on the platform's libm. To regenerate the hashes after a
deliberate behaviour change:

    PYTHONPATH=src python -m tests.test_golden_artifacts
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from evpolicy.cli import main
from tests.test_evolve import REPLIES

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_artifacts.json"
TRACE = str(DATA / "fixture_trace.csv")
STRATEGIES = ("imitation", "hybrid")
ITERS = 5


def produce(root: Path) -> dict[str, str]:
    """Run simulate, ledger and a mock evolve under ``root``; hash each
    artifact, keyed by its path relative to ``root``."""
    sim = root / "sim"
    assert main(["simulate", "--trace", TRACE, "--policy", "baseline",
                 "--out", str(sim)]) == 0
    assert main(["ledger", "--from", str(sim / "steps.jsonl"),
                 "--out", str(root / "ledger.csv")]) == 0
    replies = root / "replies.jsonl"
    replies.write_text("".join(json.dumps({"reply": r}) + "\n"
                               for r in REPLIES))
    assert main(["evolve", "--trace", TRACE,
                 "--strategy", ",".join(STRATEGIES), "--iters", str(ITERS),
                 "--operator", f"mock:{replies}",
                 "--out", str(root / "evo")]) == 0

    paths = ["sim/steps.jsonl", "sim/report.json", "ledger.csv"]
    for strategy in STRATEGIES:
        paths.append(f"evo/{strategy}/run.json")
        for k in range(ITERS):
            paths += [f"evo/{strategy}/iter_{k}/{name}"
                      for name in ("prompt.txt", "policy.txt", "report.json")]
    return {p: hashlib.sha256((root / p).read_bytes()).hexdigest()
            for p in paths}


def test_artifacts_match_golden_hashes(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = produce(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = [p for p in golden if got[p] != golden[p]]
    assert not changed, f"artifacts differ from the golden hashes: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = produce(Path(tmp))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
