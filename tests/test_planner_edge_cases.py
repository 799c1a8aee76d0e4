"""Edge-case tests for the planner and baseline under unusual inputs."""

from __future__ import annotations

import pytest

from repro.baselines.mlm_ds import BaselineConfig, MLMDeepSpeedBaseline
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


@pytest.fixture(scope="module")
def fast_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


class TestTinyMiniBatches:
    def test_single_sample_minibatch(self, gpt_cost_model, fast_config):
        planner = DynaPipePlanner(gpt_cost_model, config=fast_config)
        plan = planner.plan([Sample(input_tokens=300, target_tokens=20)])
        assert plan.num_microbatches == 1
        assert plan.predicted_iteration_ms > 0

    def test_fewer_samples_than_replicas_uses_fallback(self, gpt_cost_model, fast_config):
        """With 2 replicas and 2 very different samples every replica still
        gets at least one micro-batch (the non-empty rebalance fallback)."""
        planner = DynaPipePlanner(gpt_cost_model, data_parallel_size=2, config=fast_config)
        plan = planner.plan([Sample(900, 50), Sample(30, 5)])
        assert len(plan.replicas) == 2
        assert all(replica.micro_batches for replica in plan.replicas)

    def test_more_replicas_than_samples_raises(self, gpt_cost_model, fast_config):
        from repro.core.recomputation import OutOfMemoryError

        planner = DynaPipePlanner(gpt_cost_model, data_parallel_size=4, config=fast_config)
        with pytest.raises(OutOfMemoryError):
            planner.plan([Sample(100, 10)])

    def test_identical_samples(self, gpt_cost_model, fast_config):
        planner = DynaPipePlanner(gpt_cost_model, config=fast_config)
        plan = planner.plan([Sample(256, 16)] * 32)
        assert plan.padding.overall_efficiency == pytest.approx(1.0)

    def test_extreme_length_mix(self, gpt_cost_model, fast_config):
        """One huge sample among many tiny ones still plans and isolates the
        huge sample in its own micro-batch."""
        samples = [Sample(8, 2)] * 40 + [Sample(1800, 100)]
        planner = DynaPipePlanner(gpt_cost_model, config=fast_config)
        plan = planner.plan(samples)
        shapes = plan.plans[0].microbatch_shapes
        largest = max(shapes, key=lambda s: s.enc_seq_len)
        assert largest.batch_size == 1
        assert largest.enc_seq_len >= 1900


class TestBaselineEdgeCases:
    def test_single_sample(self, gpt_cost_model):
        baseline = MLMDeepSpeedBaseline(
            gpt_cost_model,
            config=BaselineConfig(max_seq_len=1024, micro_batch_size=4, recompute=RecomputeMode.FULL),
        )
        plan = baseline.plan([Sample(200, 20)])
        assert plan.num_microbatches == 1

    def test_all_samples_longer_than_packing_budget(self, gpt_cost_model):
        """If every sample exceeds the packing length (dataloader forgot to
        truncate), packing drops them all and planning fails loudly."""
        baseline = MLMDeepSpeedBaseline(
            gpt_cost_model,
            config=BaselineConfig(max_seq_len=128, micro_batch_size=2, recompute=RecomputeMode.FULL),
        )
        with pytest.raises(ValueError):
            baseline.plan([Sample(500, 50), Sample(600, 60)])

    def test_t5_default_target_budget(self, t5_cost_model, flan_samples):
        baseline = MLMDeepSpeedBaseline(
            t5_cost_model,
            config=BaselineConfig(max_seq_len=1024, micro_batch_size=2, recompute=RecomputeMode.FULL),
        )
        plan = baseline.plan(flan_samples[:60])
        for mb in plan.all_micro_batches():
            assert mb.dec_seq_len == 1024 // 4


class TestAllInfeasibleOrderSearch:
    def test_identity_order_kept_when_every_permutation_scores_inf(
        self, gpt_cost_model, flan_samples_gpt, monkeypatch
    ):
        """When every searched permutation scores ``inf``, the planner must
        emit the identity order (which passed the feasibility check), not
        the search's first candidate."""
        from repro.simulator.incremental import IncrementalOrderSimulator

        score = IncrementalOrderSimulator.score

        def identity_only(self, order):
            if list(order) != list(range(len(order))):
                return float("inf")
            return score(self, order)

        emitted = []
        simulation = IncrementalOrderSimulator.simulation

        def record_order(self, order, *args, **kwargs):
            emitted.append(list(order))
            return simulation(self, order, *args, **kwargs)

        monkeypatch.setattr(IncrementalOrderSimulator, "score", identity_only)
        monkeypatch.setattr(IncrementalOrderSimulator, "simulation", record_order)
        planner = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=True, tmax_sample_count=8)
        )
        plan = planner.plan(list(flan_samples_gpt[:96]))
        [search] = [replica.ordering_search for replica in plan.replicas]
        assert search is not None and search.evaluated > 1
        # The bug needs a search whose candidates are all non-identity.
        assert search.makespan_ms == float("inf")
        assert search.order != list(range(len(search.order)))
        [order] = emitted
        assert order == list(range(plan.num_microbatches))
        peaks = plan.plans[0].metadata.predicted_peak_memory_bytes
        assert max(peaks) <= planner.device_memory_bytes
