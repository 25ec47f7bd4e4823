"""The golden digests hold under every OpenBLAS kernel; numpy's SIMD level moves one.

Every product on the step path is a fixed-order ``einsum`` or the affect
norm's left-to-right sum, so no run reaches BLAS (``test_cli.py`` guards the
source).  Each case reruns the ``test_golden.GOLDEN`` runs in ``tickslab``
subprocesses with OpenBLAS held to another kernel (``OPENBLAS_CORETYPE``) or
numpy's own loops held below a dispatch level (``NPY_DISABLE_CPU_FEATURES``).
One ``np.dot`` on the step path moved 5 of the 6 golden cases under Prescott.
"""

from __future__ import annotations

import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import cli_env
from test_golden import GOLDEN, TASKS, sha256

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return "an unknown BLAS"


pytestmark = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or "openblas" not in blas_name(),
    reason=f"the kernels named here are OpenBLAS x86-64 ones; "
    f"this is {platform.machine()} with {blas_name()}",
)

# numpy's X86_V4 float64 exp and log loops round some inputs differently from
# its X86_V3 and baseline loops (about 5 % and 0.3 % of normal draws), and
# engine.certainty takes both, so below X86_V4 one c_merged of ctm seed 5 moves
# in its last bit: the episode log's digest moves, the metrics' does not.
BELOW_X86_V4 = {
    **GOLDEN,
    ("ctm", 5): (
        "b1e84f6a378b1588afb502d0d2c05ff476dadcb8b866ee06a5557bc567834048",
        GOLDEN[("ctm", 5)][1],
    ),
}

# (variable, value, CPU features the setting needs, the digests it gives)
SETTINGS = [
    ("OPENBLAS_CORETYPE", "Prescott", (), GOLDEN),
    ("OPENBLAS_CORETYPE", "Nehalem", (), GOLDEN),
    ("OPENBLAS_CORETYPE", "Haswell", ("AVX2", "FMA3"), GOLDEN),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR", (), BELOW_X86_V4),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR", (), BELOW_X86_V4),
]


@pytest.mark.parametrize(
    "variable, value, needs, digests", SETTINGS,
    ids=[f"{variable}={value}" for variable, value, _, _ in SETTINGS],
)
def test_golden_digests_hold(tmp_path, variable, value, needs, digests):
    lacking = [feature for feature in needs if not __cpu_features__.get(feature)]
    if lacking:
        pytest.skip(f"this CPU lacks {', '.join(lacking)}, which the {value} kernel runs")
    undispatched = set(value.split(",")) - set(__cpu_dispatch__)
    if variable == "NPY_DISABLE_CPU_FEATURES" and undispatched:
        pytest.skip(f"this numpy build dispatches no {', '.join(sorted(undispatched))}")
    for policy, seed in GOLDEN:
        out = tmp_path / f"{policy}-{seed or 0}"
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "run", "--tasks", str(TASKS),
             "--out", str(out), "--policy", policy, "--seed", str(seed or 0)],
            capture_output=True,
            env={**cli_env(), variable: value},
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        got = sha256(out / "episodes.jsonl"), sha256(out / "metrics.json")
        assert got == digests[(policy, seed)], f"{policy} seed {seed or 0} under {variable}={value}"
