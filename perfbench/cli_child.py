"""Run the CLI as ``python -m schwinger_su3.cli ARGS`` would, timed with the
reference sampled alongside (clock.py). Exits with the CLI's exit code; the
last line on stderr is {"scaled_s": ..., "wall_s": ...}:

    python3 perfbench/cli_child.py dim 1 1
"""

import json
import runpy
import sys

from clock import run_sampled


def cli():
    sys.argv = ["schwinger_su3.cli", *sys.argv[1:]]
    try:
        runpy.run_module("schwinger_su3.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    return 0


code, scaled, wall = run_sampled(cli)
sys.stdout.flush()
print(json.dumps({"scaled_s": scaled, "wall_s": wall}), file=sys.stderr)
sys.exit(code)
