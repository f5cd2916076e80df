"""Protocol child echoing ``soc``; its reply for soc 0.31 comes 1.3 s late."""
import json
import sys
import time

for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    msg = json.loads(line)
    if msg.get("protocol"):
        continue
    if msg.get("end"):
        break
    if msg["soc"] == 0.31:
        time.sleep(1.3)
    sys.stdout.write(f"{msg['soc']}\n")
    sys.stdout.flush()
