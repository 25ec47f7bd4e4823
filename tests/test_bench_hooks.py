"""The program names that the benchmark in ``perfbench/`` patches exist.

``perfbench/worker.py`` and ``perfbench/serve.py`` wrap functions of the
program by attribute name at run time, so renaming or deleting one of them
breaks the benchmark only when it runs.  These tests install the
benchmark's own hooks on the real modules and take them off again.
"""

from pathlib import Path

import pytest

from tickslab import consensus, engine, router, transport
from tickslab.harness import cli, episode, world

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    return tracing, worker


def test_worker_hooks_install_and_uninstall(perfbench):
    tracing, worker = perfbench
    owners = (
        episode, engine, consensus, transport, world, router,
        transport.ToolServer, router.EnvelopeSession,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    counts = worker.CallCounts()
    try:
        worker.install_layers(tracer, (episode, engine, consensus, transport, world, router))
        counts.install(engine, consensus)
        assert [dict(vars(owner)) for owner in owners] != before
    finally:
        counts.uninstall()
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


@pytest.mark.parametrize(
    "owner, attr",
    [
        (cli, "build_model"),
        (transport.ToolServer, "serve_stream"),
        (transport.ToolServer, "handle_frame"),
        (world, "step_env"),
        (world, "_actuate"),
    ],
)
def test_serve_patch_targets_exist(owner, attr):
    assert callable(getattr(owner, attr))
