"""One timed set-up in a fresh interpreter, as a CLI user pays it.

Usage: python3 probe_setup.py SRC INPUTS_JSON

Times `import algroup.cli` before anything else is imported, then the
parsing of every generated input (a JSON list of `.alg` texts) with the
program's parser, and prints one JSON line.  run.py starts this several
times per run and reports the median of the sums as setup_s.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import algroup.cli  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402

from algroup.parsing import parse_problem  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as handle:
    texts = json.load(handle)
t2 = time.perf_counter()
for text in texts:
    parse_problem(text)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t3 - t2}))
