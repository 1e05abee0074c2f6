"""Make the benchmark's modules and the program under test importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from common import use_source  # noqa: E402

use_source()
