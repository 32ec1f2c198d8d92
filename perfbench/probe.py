"""Set-up probe, run in a fresh interpreter.

Usage: python3 probe.py SRC_DIR WARMUP_JSON

Times ``import hardylab.cli``, then runs one small warm-up op of each kind
the workload runs, and prints {"import_s": ...}; the caller times the whole
process for ``setup_s``, interpreter start-up included. Only the standard
library is imported before hardylab, so numpy's import is counted as the CLI
pays it.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hardylab.cli  # noqa: E402

imported = time.perf_counter()
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        hardylab.cli.main(argv)
print(json.dumps({"import_s": imported - start}))
