"""Deterministic tick-slab reasoning runtime.

Multimodal frames fuse into a context vector; parallel reasoning branches
expand thought in slabs of ticks, accumulate neural synchrony, and halt on
an affect-modulated certainty threshold; a confidence vote merges branch
outcomes; a gated router serializes the decision into canonical JSON-RPC
tool envelopes; and a bounded torque/PWM chain turns merged state into
actuation.  A simulated task harness exercises the whole loop end to end.
"""

from .affect import AffectParams, affect_decode, modulate_epsilon
from .actuator import (
    ActuatorParams,
    TrajectorySample,
    compliance_filter,
    interpolate_trajectory,
    plan_torque,
    torque_to_pwm,
)
from .config import Config
from .consensus import BranchOutcome, ConsensusResult, merge, timeout_safe_pass
from .engine import (
    BranchState,
    CtmParams,
    SlabResult,
    certainty,
    gated_carry,
    halt_decision,
    initial_state,
    mu_mlp,
    push_history,
    run_slab,
    sync_update,
    synapse,
)
from .envelope import Envelope, EnvelopeMeta, parse_envelope, serialize_envelope
from .params import ModelParams, build_model
from .perception import EncoderWeights, encode_modality, fuse, spectrum
from .router import GateOutcome, RouterParams, ToolRegistry, ToolSpec, policy_gate, select_action
from .transport import LoopbackTransport, StdioTransport, TcpTransport, ToolServer, dispatch
from .weights import load_weights, save_weights

__version__ = "0.1.0"
