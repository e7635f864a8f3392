"""Run the roughmix CLI as ``python -m roughmix.cli`` does, between two speed probes.

    python3 perfbench/cli_child.py PROBES_FILE <roughmix.cli arguments>

A ``cli`` op runs in a fresh process, which the scheduler may place on
another CPU than the benchmark's, so the probes run here, in that process.
Their two times go to PROBES_FILE, one line "<before> <after>" in seconds,
when the CLI exits with code 0.
"""

import os
import runpy
import sys
from pathlib import Path

from speed import probe

probes_file = Path(sys.argv[1])
sys.argv = ["roughmix.cli"] + sys.argv[2:]
sys.path[0] = os.getcwd()  # as under ``python -m``
before = probe()
try:
    runpy.run_module("roughmix.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    if done.code not in (None, 0):
        raise
after = probe()
probes_file.write_text(f"{before!r} {after!r}\n")
