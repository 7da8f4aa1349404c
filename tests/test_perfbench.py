"""The benchmark's self-test and tracer, run as tests: they call into and
patch package internals (``tensor.normalize_zscore``,
``protocol.metric_m_pool``, ``protocol._snapshot_maps``), so a change that
breaks the harness fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_tracer_finds_every_name(monkeypatch):
    # a traced name the package no longer has would silently read 0 in its metric
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install(with_cli=True)
        assert tracer.missing == []
    finally:
        tracer.restore()
