"""Run one benchmark op with traitsim's layers wrapped in spans.

Usage:
    python3 perfbench/traced.py SPANS_JSON cli ARG...     # traitsim ARG...
    python3 perfbench/traced.py SPANS_JSON atoms ARG...   # mint_atoms.py ARG...

The op's outputs are exactly those of the untraced op.  The spans, and the
time ``import`` of the package took, are written to SPANS_JSON when the op
ends, even if it fails.
"""

from __future__ import annotations

import sys
import time

from spans import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    start = time.perf_counter_ns()
    if kind == "cli":
        import traitsim.cli as entry
    else:
        import mint_atoms as entry  # imports traitsim.oracle
    import_s = (time.perf_counter_ns() - start) / 1e9
    recorder = Recorder()
    install(recorder)
    try:
        return entry.main(args)
    finally:
        recorder.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
