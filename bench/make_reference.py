#!/usr/bin/env python3
"""Record the reference outputs of the fixed queries from the program in src/.

    python3 bench/make_reference.py

Run it at the commit whose outputs are the reference; it rewrites
bench/reference.json.  Seeded queries and the deep-input probes have no
stored reference: oracles in workloads.py predict their outputs.  An output
longer than INLINE_LIMIT bytes with no float in it is stored as a SHA-256
digest, which compares exactly like the full text.
"""

import hashlib
import json
import re

from run import BENCH, OUT, ROOT, _now, run_query
from workloads import WORKLOADS, build

INLINE_LIMIT = 16384


def main() -> None:
    references = {}
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        queries, _ = build(workload, 0, OUT / workload / "inputs", ROOT)
        for query in queries:
            if not query.reference:
                continue
            proc, _, meta = run_query(query, None, _now() + 600)
            if meta is None or proc.returncode != 0:
                raise SystemExit(f"{query.name}: exit {proc.returncode}\n"
                                 f"{proc.stderr.decode(errors='replace')}")
            text = proc.stdout.decode()
            if len(text) > INLINE_LIMIT and not re.search(r"\d\.\d|e[-+]\d", text):
                references[query.name] = {
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "bytes": len(text)}
            else:
                references[query.name] = {"stdout": text}
    (BENCH / "reference.json").write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
