"""Tests for dynamic recomputation selection (paper §7).

The planner tries each mode of ``MODE_PREFERENCE`` in turn and keeps the
first whose partition and simulated peak memory fit the device.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive_schedule import ScheduleKind
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import MODE_PREFERENCE, OutOfMemoryError
from repro.model.memory import RecomputeMode


def _planner(cost_model, device_memory_bytes=None, kind=ScheduleKind.MEMORY_AWARE_ADAPTIVE, **config):
    return DynaPipePlanner(
        cost_model,
        config=PlannerConfig(
            schedule_kind=kind,
            order_search=False,
            tmax_sample_count=8,
            device_memory_bytes=device_memory_bytes,
            **config,
        ),
    )


def _static(cost_model):
    return max(cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages))


def _long_samples(samples):
    return sorted(samples, key=lambda s: s.total_tokens)[-40:]


class TestSelection:
    def test_mode_preference_cheapest_first(self):
        assert MODE_PREFERENCE == (
            RecomputeMode.NONE,
            RecomputeMode.SELECTIVE,
            RecomputeMode.FULL,
        )

    def test_memory_pressure_selects_heavier_mode(self, gpt_cost_model, flan_samples_gpt):
        """When the iteration cannot fit without checkpointing, a heavier
        recomputation mode is selected instead of failing, and NONE alone
        is rejected on the same device."""
        device_memory = _static(gpt_cost_model) + 150 * 1024**2
        samples = _long_samples(flan_samples_gpt)
        plan = _planner(gpt_cost_model, device_memory).plan(samples)
        assert plan.recompute in (RecomputeMode.SELECTIVE, RecomputeMode.FULL)
        none_only = _planner(
            gpt_cost_model, device_memory, dynamic_recompute=False, recompute=RecomputeMode.NONE
        )
        with pytest.raises(OutOfMemoryError):
            none_only.plan(samples)

    def test_peak_memory_within_budget(self, gpt_cost_model, flan_samples_gpt):
        planner = _planner(gpt_cost_model)
        plan = planner.plan(_long_samples(flan_samples_gpt))
        for replica in plan.replicas:
            assert all(
                peak <= planner.device_memory_bytes * (1 + 1e-9)
                for peak in replica.simulation.peak_activation_bytes
            )

    def test_1f1b_kind_supported(self, gpt_cost_model, flan_samples_gpt):
        planner = _planner(gpt_cost_model, 400 * 1024**3, ScheduleKind.ONE_F_ONE_B)
        plan = planner.plan(flan_samples_gpt[:60])
        assert plan.recompute is RecomputeMode.NONE
        assert all(p.metadata.schedule_name == "1f1b" for p in plan.plans)
