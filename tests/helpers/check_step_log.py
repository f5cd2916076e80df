"""Check that every line of each step log is what the JSON encoder writes.

    python tests/helpers/check_step_log.py smoke/csv/steps.jsonl ...

Exits 1, naming the first few differing lines of each file, unless every
line is ``json.dumps(row, sort_keys=True)`` of the row it holds.
"""
import json
import sys


def main(paths):
    failed = False
    for path in paths:
        with open(path) as fh:
            lines = fh.readlines()
        bad = [number for number, line in enumerate(lines, 1)
               if json.dumps(json.loads(line), sort_keys=True) + "\n" != line]
        if bad:
            failed = True
            print(f"{path}: lines that differ from the encoder: {bad[:5]}",
                  file=sys.stderr)
        else:
            print(f"{path}: {len(lines)} lines, each as the encoder writes it")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
