"""The benchmark's self-test, run as a test: it calls into package internals
(``tensor.normalize_zscore``, ``protocol.metric_m_pool``,
``protocol._snapshot_maps``), so a change that breaks the harness fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
