"""``python -m repro`` — the command-line interface.

Delegates to :func:`repro.cli.main`, so ``python -m repro place qft6
histidine`` behaves exactly like ``python -m repro.cli place qft6
histidine``.
"""

import gc
import sys

from repro.cli import main

if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    # The imports above built nearly every object this process will ever
    # hold, and they live until exit: freezing them keeps the run's full
    # collections and interpreter finalization from walking them again.
    # Only process entry points freeze; cli.main() runs in-process too.
    gc.freeze()
    sys.exit(main())
