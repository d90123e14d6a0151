"""Record the outputs the benchmark checks against, at seed 0.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for `suite`, the name, claim, verdict and
witness of every check of `verify-theorems --suite all`; for `scan`, the
count and digest of every complete set the scan workload enumerates.
Regenerate it only when the program is meant to change those outputs.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

suite = workloads.Suite()
_, (code, text) = suite.serve(suite.make_inputs(0)[0])
checks = [{k: c[k] for k in ("name", "claim", "ok", "witness")}
          for c in json.loads(text)["checks"]]

scan = workloads.Scan(workers=1)
_, sets = scan.serve(scan.make_inputs(0)[0])
counts = {key: {"count": len(found),
                "digest": workloads.matrix_digest(F, found)}
          for key, F, A, w, found in sorted(sets, key=lambda s: s[0])}

workloads.REFERENCE.write_text(json.dumps({"suite": checks, "scan": counts},
                                          indent=1) + "\n")
print(f"suite exit {code}: {sum(c['ok'] for c in checks)}/{len(checks)} ok; "
      f"{len(counts)} scan sets")
