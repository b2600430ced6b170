"""Benchmark entry point; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tmbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
