"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from conftest import LateStart, cli_env, fusion_vector, make_ctm
from reference import mu_mlp, sync_scan_tick
from tickslab import consensus
from tickslab.actuator import ActuatorParams, plan_torque
from tickslab.config import Config, ConsensusConfig
from tickslab.consensus import branch_permutations, decide_step, merge
from tickslab.engine import certainty, initial_state, sync_update
from tickslab.envelope import AFFECT_DIMS, serialize_envelope
from tickslab.harness.cli import main as cli_main
from tickslab.harness.episode import OUTCOME_ERROR, Policy, run_episode
from tickslab.harness.metrics import compute_metrics
from tickslab.harness.tasks import gen_tasks, load_tasks, save_tasks
from tickslab.harness.world import build_registry
from tickslab.params import build_model
from tickslab.rng import SplitMix64

FIXTURE_50 = Path(__file__).parent / "fixtures" / "tasks50.jsonl"
CTM_SMOKE_SEED = 5  # frozen after a one-time scan: yields both gate branches


def report(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


class TestAcceptance:
    def test_c01_low_rank_equivalence(self):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a = rng.normal(size=(8, 4)).astype(np.float32)
            b = rng.normal(size=(64, 4)).astype(np.float32)
            bias = rng.normal(size=64).astype(np.float32)
            hist = rng.uniform(-1, 1, size=(64, 8)).astype(np.float32)
            got = mu_mlp(hist, a, b, bias)
            dense = b.astype(np.float64) @ a.astype(np.float64).T
            want = np.tanh(
                bias.astype(np.float64) + np.sum(dense * hist.astype(np.float64), axis=1)
            )
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"low-rank sweep took {elapsed:.1f}s"
        report(1, "low-rank readout equals dense readout (1e-5, 1000x)")

    def test_c02_sync_scan_equivalence(self):
        rng = np.random.default_rng(202)
        for trial in range(1000):
            n_ticks = int(rng.integers(1, 33))
            params = make_ctm(seed=int(trial % 50))
            sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
            states = [
                rng.uniform(-1, 1, size=params.config.neurons).astype(np.float32)
                for _ in range(n_ticks)
            ]
            closed = sync_update(sync, states, params)
            scanned = sync.astype(np.float64)  # both routes round once
            for z in states:
                scanned = sync_scan_tick(scanned, z, params)
            np.testing.assert_allclose(
                scanned.astype(np.float32), closed, rtol=1e-5, atol=1e-8
            )
        report(2, "incremental sync scan equals closed form (1e-5, L in 1..32)")

    def test_c03_certainty_calibration(self):
        params = make_ctm(seed=3, sync_pairs=32)
        # uniform logits -> certainty 0
        w_uniform = np.ones((4, 32), dtype=np.float32)
        _, c = certainty(np.ones(32, dtype=np.float32), w_uniform, params)
        assert abs(c) < 1e-7
        # near-one-hot -> certainty ~ 1
        w_hot = np.zeros((4, 32), dtype=np.float32)
        w_hot[0, 0] = 10.0
        hot = np.zeros(32, dtype=np.float32)
        hot[0] = 1.0
        _, c = certainty(hot, w_hot, params)
        assert c > 1.0 - 1e-6
        # range on 1e5 random draws
        rng = np.random.default_rng(303)
        w = rng.normal(size=(4, 32)).astype(np.float32)
        for _ in range(100_000):
            sync = (rng.normal(size=32) * rng.uniform(0.01, 30)).astype(np.float32)
            _, c = certainty(sync, w, params)
            assert 0.0 <= c <= 1.0
        # scale monotonicity
        lo = make_ctm(seed=3, sync_pairs=32, logit_scale=1.0)
        hi = make_ctm(seed=3, sync_pairs=32, logit_scale=8.0)
        for _ in range(1000):
            sync = rng.normal(size=32).astype(np.float32)
            _, c1 = certainty(sync, w, lo)
            _, c8 = certainty(sync, w, hi)
            assert c8 >= c1 - 1e-12
        report(3, "certainty calibration (uniform=0, one-hot~1, range, scale-monotone)")

    def test_c04_consensus_order_independence(self):
        params = make_ctm(seed=4)
        rng = np.random.default_rng(404)
        for trial in range(1000):
            n = int(rng.integers(2, 9))
            outcomes = []
            for i in range(n):
                sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
                logits = (rng.normal(size=params.config.logit_count) * 4).astype(np.float32)
                from reference import entropy, softmax

                conf = max(
                    0.0, 1.0 - entropy(softmax(logits)) / np.log(params.config.logit_count)
                )
                from tickslab.consensus import BranchOutcome

                state = replace(initial_state(params), sync=sync, certainty_trace=(conf,))
                outcomes.append(BranchOutcome(i, state, True))
            base = merge(outcomes, params)
            perm = list(outcomes)
            SplitMix64(trial).shuffle(perm)
            other = merge(perm, params)
            assert np.array_equal(base.sync_merged, other.sync_merged)
            assert base.confidence_merged == other.confidence_merged
            assert base.contributors == other.contributors
            stack = np.stack([o.state.sync for o in outcomes])
            assert np.all(base.sync_merged >= stack.min(axis=0) - 1e-6)
            assert np.all(base.sync_merged <= stack.max(axis=0) + 1e-6)
        report(4, "merge is permutation-invariant bitwise and stays in the hull")

    def test_c05_exactly_one_output_race(self):
        params = make_ctm(
            seed=5, neurons=4, history=2, rank=1, sync_pairs=4,
            ticks_per_slab=2, max_slabs=2, fusion_dim=4,
        )
        fvec = fusion_vector(5, dim=4)
        seed_state = initial_state(params)
        window = ConsensusConfig(
            branches=2, deadline_ticks=params.config.ticks_per_slab * params.config.max_slabs,
            deadline_ms=1.0, live=True,
        )
        rng = np.random.default_rng(505)
        saw_normal = saw_fallback = 0
        clock = LateStart()
        with (
            mock.patch.object(consensus, "merge", wraps=consensus.merge) as merged,
            mock.patch.object(
                consensus, "timeout_safe_pass", wraps=consensus.timeout_safe_pass
            ) as fell_back,
            mock.patch.object(consensus.time, "monotonic", clock),
        ):
            for trial in range(1000):
                merged.reset_mock()
                fell_back.reset_mock()
                # the trajectory starts 0-4 ms late: the sum of two 0-2 ms draws
                clock.delay = float(np.sum(rng.uniform(0.0, 0.002, size=2)))
                perms = branch_permutations(trial, params.config.sync_pairs, window.branches)
                result, _ = decide_step(seed_state, fvec, params, 0.05, perms, None, window)
                paths = (merged.call_count, fell_back.call_count)
                if result.fallback:
                    saw_fallback += 1
                    assert paths == (0, 1), f"paths run (merge, timeout): {paths}"
                    assert result.contributors == ()
                    assert result.confidence_merged == 0.0
                else:
                    saw_normal += 1
                    assert paths == (1, 0), f"paths run (merge, timeout): {paths}"
                    assert len(result.contributors) >= 1
        assert saw_normal > 0 and saw_fallback > 0, (
            f"race never exercised both paths (normal={saw_normal}, "
            f"fallback={saw_fallback})"
        )
        report(5, f"exactly one result per step over 1000 races "
                  f"(normal={saw_normal}, fallback={saw_fallback})")

    def test_c06_torque_optimality(self):
        rng = np.random.default_rng(606)
        joints, pairs = 12, 16
        cases = 1000
        mappings = rng.normal(size=(cases, joints, pairs)) * 2
        syncs = rng.normal(size=(cases, pairs))
        lows = rng.uniform(-6, -0.2, size=(cases, joints))
        highs = rng.uniform(0.2, 6, size=(cases, joints))
        targets = np.einsum("cjp,cp->cj", mappings, syncs)

        # vectorized projected-gradient oracle: step 1e-2, 1e4 iterations
        tau = np.zeros_like(targets)
        for _ in range(10_000):
            tau = tau - 1e-2 * 2.0 * (tau - targets)
            np.clip(tau, lows, highs, out=tau)
        oracle = tau

        from tickslab.numerics import matvec

        for c in range(cases):
            params = ActuatorParams(
                mapping=mappings[c].astype(np.float32),
                tau_min=lows[c],
                tau_max=highs[c],
                gain=np.ones(joints),
            )
            got = plan_torque(syncs[c].astype(np.float32), params)
            target = matvec(params.mapping, syncs[c].astype(np.float32))
            np.testing.assert_allclose(
                got,
                np.clip(target, lows[c], highs[c]),
                rtol=0,
                atol=0,
            )
            # oracle target uses float64 @; compare at the stated tolerance
            np.testing.assert_allclose(got, np.clip(targets[c], lows[c], highs[c]), atol=1e-5)
            np.testing.assert_allclose(got, oracle[c], atol=1e-5)
            assert np.all(got >= lows[c]) and np.all(got <= highs[c])
            for j in range(joints):
                on_target = got[j] == target[j]
                on_low = got[j] == lows[c][j] and target[j] < lows[c][j]
                on_high = got[j] == highs[c][j] and target[j] > highs[c][j]
                assert on_target or on_low or on_high, "certificate violated"
        report(6, "torque clamp matches the projected-gradient oracle (1000x)")

    def test_c07_envelope_conformance(self):
        from test_envelope import GOLDEN_BYTES, assert_lossless, golden_envelope, random_envelope

        assert serialize_envelope(golden_envelope()) == GOLDEN_BYTES
        rng = np.random.default_rng(707)
        for _ in range(1000):
            assert_lossless(random_envelope(rng))
        report(7, "envelopes: golden bytes, 1000 lossless canonical round trips")

    def test_c09_end_to_end_determinism(self, tmp_path):
        import subprocess
        import sys

        tasks_path = tmp_path / "tasks.jsonl"
        save_tasks(tasks_path, gen_tasks(909, 6))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = subprocess.run(
                [
                    sys.executable, "-m", "tickslab.harness.cli",
                    "run", "--tasks", str(tasks_path), "--policy", "ctm",
                    "--seed", "5", "--out", str(out),
                ],
                capture_output=True,
                timeout=300,
                env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (
                    (out / "episodes.jsonl").read_bytes(),
                    (out / "metrics.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0], "episode logs differ between runs"
        assert outputs[0][1] == outputs[1][1], "metrics differ between runs"
        report(9, "two CLI processes emit bitwise-identical logs and metrics")

    def test_c10_scripted_oracle_suite(self):
        start = time.monotonic()
        tasks = load_tasks(FIXTURE_50)
        assert len(tasks) == 50
        config = Config(seed=0)
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        logs = [
            run_episode(task, config, Policy.SCRIPTED_ORACLE, model=model)
            for task in tasks
        ]
        result = compute_metrics(logs)
        expected_ael = sum(len(t.steps) for t in tasks) / len(tasks)
        assert expected_ael == 5.28  # frozen from the bundled fixture
        assert result.tsr == 1.0
        assert result.esr == 1.0
        assert result.ael == expected_ael
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
        report(10, f"oracle suite: TSR=1, ESR=1, AEL={result.ael} in {elapsed:.1f}s")

    def test_c11_ctm_policy_smoke(self):
        tasks = load_tasks(FIXTURE_50)
        config = Config(seed=CTM_SMOKE_SEED)
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        logs = [run_episode(task, config, Policy.CTM, model=model) for task in tasks]

        budget = config.engine.max_slabs * config.engine.ticks_per_slab
        for task, log in zip(tasks, logs):
            assert log.outcome != OUTCOME_ERROR
            assert log.steps_used <= task.budget_steps
            for record in log.records:
                assert record.slab_count <= config.engine.max_slabs
                assert record.ticks <= budget
                assert 0.0 <= record.c_merged <= 1.0
                assert record.epsilon >= config.affect.epsilon0
                assert record.action in registry
        result = compute_metrics(logs)
        assert 0.0 <= result.tsr <= 1.0
        assert 0.0 <= result.esr <= 1.0
        assert result.ael <= max(t.budget_steps for t in tasks)
        rethinks = sum(log.rethinks for log in logs)
        forced = sum(log.forced_dispatches for log in logs)
        assert rethinks >= 1, "no Rethink event at gamma=0.70"
        assert forced >= 1, "no forced dispatch at the slab budget"
        report(11, f"ctm smoke: invariants hold, rethinks={rethinks}, forced={forced}")

    def test_c12_operating_constant_audit(self):
        config = Config()
        assert config.engine.decay == 0.999
        assert config.engine.logit_scale == 8.0
        assert config.engine.logit_count == 4
        assert config.affect.epsilon0 == 0.75
        assert config.affect.alpha == 0.5
        assert config.engine.carry_beta == 0.9
        assert config.perception.concat_dim == 224
        assert config.perception.fusion_dim == 256
        assert config.affect.hidden == 32
        assert AFFECT_DIMS == 8
        report(12, "reference operating constants audited in the defaults")
