"""The MLM+DS baseline reproduces plans recorded before its replica path changed.

See ``baseline_golden.py`` for the grid and how the fixture was recorded.
"""

from __future__ import annotations

import pytest

from baseline_golden import entry_key, grid, load_golden, oom_message, plan_entry


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _inputs(request, model: str):
    cost_model = request.getfixturevalue(f"{model}_cost_model")
    samples = request.getfixturevalue("flan_samples_gpt" if model == "gpt" else "flan_samples")
    return cost_model, samples


@pytest.mark.parametrize(
    "model,dp,mode", grid(), ids=[entry_key(*point) for point in grid()]
)
def test_plan_matches_golden(request, golden, model, dp, mode):
    expected = golden["entries"][entry_key(model, dp, mode)]
    actual = plan_entry(*_inputs(request, model), dp, mode)
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        assert actual[name] == value, name


def test_out_of_memory_message_matches_golden(request, golden):
    assert oom_message(*_inputs(request, "gpt")) == golden["oom_message"]
