"""``PYTHONPATH=src python -m benchmarks.e2e run|all|compare ...``."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
