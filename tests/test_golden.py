"""Behaviour lock: SHA-256 digests of `tickslab run` output on tasks50.

Behaviour is the bytes of ``episodes.jsonl`` and ``metrics.json``.  A
refactor or a speed-up must leave these digests where they are.  They were
recorded with the numpy version below; if a different numpy build moves
them, regenerate them in a change of their own and say why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tickslab.harness.cli import main

RECORDED_NUMPY = "2.4.6"
TASKS = Path(__file__).parent / "fixtures" / "tasks50.jsonl"

# (policy, seed override) -> (episodes.jsonl digest, metrics.json digest)
GOLDEN = {
    ("ctm", None): (
        "d0d4078ddb9ac2a9c46325c40f62b5e520941f4259374f833d2a90d8c798ba0b",
        "462cf01c11590b9287f91f1eec9cfe994c33f735a19907d7ab44713c64b6e5f9",
    ),
    ("ctm", 5): (
        "c5993a38595edb987af2e038660d6040ce704751f7699ce2f73abe874496aa10",
        "228049d5fcbfa3b82e1f98c9fd737b86727dae9c8b89b5421386084b63d7ae29",
    ),
    ("oracle", None): (
        "e8a7a67922b764d8186807e5e830db64e6eb909090a7f79bc9d5c1c033591bf0",
        "0a615a92af80d356e70f991affb4637f454673d42fec2eac33d7f6c0a0047b24",
    ),
}

# ctm seed 0 under {"consensus": {"wait_policy": "one"}}: the winner is
# merged with the next branch to halt inside the window.
GOLDEN_WAIT_ONE = (
    "69e70df3db60a03f4e2673a513e3b3611953e67b6afa95f6f0ea7c79c9712ba9",
    "95601e9b09033d0a406a3badd6db57f9de80ea439db6f7bd8e7d978b80c0197d",
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(tmp_path: Path, *extra: str) -> tuple[str, str]:
    argv = ["run", "--tasks", str(TASKS), "--out", str(tmp_path), *extra]
    assert main(argv) == 0
    return sha256(tmp_path / "episodes.jsonl"), sha256(tmp_path / "metrics.json")


@pytest.mark.parametrize(
    "policy,seed", list(GOLDEN), ids=[f"{p}-seed{s or 0}" for p, s in GOLDEN]
)
def test_run_digests(tmp_path, policy, seed):
    extra = ["--policy", policy]
    if seed is not None:
        extra += ["--seed", str(seed)]
    got = run_digests(tmp_path, *extra)
    assert got == GOLDEN[(policy, seed)], (
        f"{policy} digests moved (recorded with numpy {RECORDED_NUMPY}, "
        f"installed numpy {np.__version__}): got {got}"
    )


def test_live_run_with_generous_deadline_matches_ctm(tmp_path):
    # Live mode is the deterministic step under a wall-clock stop; a clock
    # that never runs out leaves the output byte for byte the same.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"consensus": {"live": True, "deadline_ms": 600000}}))
    out = tmp_path / "out"
    got = run_digests(out, "--policy", "ctm", "--config", str(config))
    assert got == GOLDEN[("ctm", None)], (
        f"live ctm digests differ from deterministic ones (recorded with numpy "
        f"{RECORDED_NUMPY}, installed numpy {np.__version__}): got {got}"
    )


def test_wait_policy_one_run_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"consensus": {"wait_policy": "one"}}))
    out = tmp_path / "out"
    got = run_digests(out, "--policy", "ctm", "--config", str(config))
    assert got == GOLDEN_WAIT_ONE, (
        f"wait_policy one digests moved (recorded with numpy {RECORDED_NUMPY}, "
        f"installed numpy {np.__version__}): got {got}"
    )


def test_gen_tasks_reproduces_the_fixture(tmp_path):
    # The fixture was written by gen-tasks; this pins the task-file bytes.
    out = tmp_path / "tasks.jsonl"
    assert main(["gen-tasks", "--seed", "20260810", "--count", "50", "--out", str(out)]) == 0
    assert out.read_bytes() == TASKS.read_bytes()
