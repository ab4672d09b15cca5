"""Run ``red-qaoa serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_host.py SPAN_DIR serve --socket ... [serve options]``.
The untraced runs start the daemon as ``python -m repro.cli serve``
directly; this launcher exists only for the traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

if __name__ == "__main__":
    import tracing

    tracing.install(sys.argv[1])
    from repro.cli import main

    code = main(sys.argv[2:])
    tracing.flush()
    sys.exit(code)
