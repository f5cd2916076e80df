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
# A hybrid run whose first three iterations fail, each in its own way: no
# code block, a rule that does not parse, and a rule that faults on every
# decision above 30 % SoC (it keeps its report). The fourth reply works and
# repeats. These lock the prompts that follow a failed iteration.
FAILING_REPLIES = [
    "I would rather not write a policy today.",
    "```\nif soc < then 1\n```",
    "```\nif soc > 0.3 then 1 / (soc - soc)\nif soc <= 0.3 then 7\n```",
    "```\nif soc < 0.25 then max_charge_kw\n```",
]


def _write_replies(path: Path, replies) -> str:
    path.write_text("".join(json.dumps({"reply": r}) + "\n" for r in replies))
    return f"mock:{path}"


def produce(root: Path) -> dict[str, str]:
    """Run simulate, ledger and two mock evolves under ``root``; hash each
    artifact, keyed by its path relative to ``root``."""
    sim = root / "sim"
    assert main(["simulate", "--trace", TRACE, "--policy", "baseline",
                 "--out", str(sim)]) == 0
    assert main(["ledger", "--from", str(sim / "steps.jsonl"),
                 "--out", str(root / "ledger.csv")]) == 0
    assert main(["evolve", "--trace", TRACE,
                 "--strategy", ",".join(STRATEGIES), "--iters", str(ITERS),
                 "--operator", _write_replies(root / "replies.jsonl", REPLIES),
                 "--out", str(root / "evo")]) == 0
    assert main(["evolve", "--trace", TRACE, "--strategy", "hybrid",
                 "--iters", str(ITERS),
                 "--operator", _write_replies(root / "failing.jsonl",
                                              FAILING_REPLIES),
                 "--out", str(root / "evo_fail")]) == 0

    paths = ["sim/steps.jsonl", "sim/report.json", "ledger.csv"]
    for run in [f"evo/{strategy}" for strategy in STRATEGIES] + ["evo_fail"]:
        paths.append(f"{run}/run.json")
        # A failed iteration may leave no policy.txt or report.json; the
        # test compares the sets of paths, so one that comes or goes shows.
        for k in range(ITERS):
            paths += [path for name in ("prompt.txt", "policy.txt",
                                        "report.json")
                      if (root / (path := f"{run}/iter_{k}/{name}")).exists()]
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
