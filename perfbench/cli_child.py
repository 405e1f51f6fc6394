"""Fresh-interpreter entry point for one CLI run.

    python3 perfbench/cli_child.py CONFIG [CLI FLAGS...]
    python3 perfbench/cli_child.py --import-only

Puts the checkout's src/ on the path and calls kickedharper.cli.main(argv).
`python -m kickedharper.cli` cannot be used: cli.py has no __main__ guard,
so that form exits 0 without running anything.  With --import-only it
prints time.perf_counter() (a system-wide monotonic clock on Linux) right
after `import kickedharper.cli` completes, which the parent turns into the
set-up time.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from kickedharper.cli import main  # noqa: E402

if __name__ == "__main__":
    if sys.argv[1:] == ["--import-only"]:
        print(repr(time.perf_counter()))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
