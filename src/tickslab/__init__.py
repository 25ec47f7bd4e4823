"""Deterministic tick-slab reasoning runtime.

Multimodal frames fuse into a context vector; parallel reasoning branches
expand thought in slabs of ticks, accumulate neural synchrony, and halt on
an affect-modulated certainty threshold; a confidence vote merges branch
outcomes; a gated router serializes the decision into canonical JSON-RPC
tool envelopes; and a bounded torque/PWM chain turns merged state into
actuation.  A simulated task harness exercises the whole loop end to end.

The tool side (``errors``, ``schema``, ``envelope``, ``registry``,
``transport``, ``harness.world``, ``harness.cli``) imports neither numpy nor a
reasoning module at module level, so ``tickslab serve`` starts without them.
"""

__version__ = "0.1.0"
