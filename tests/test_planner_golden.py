"""The planner reproduces plans recorded before its replica path changed.

See ``planner_golden.py`` for the grid and how the fixture was recorded.
"""

from __future__ import annotations

import pytest

from planner_golden import entry_key, grid, load_golden, plan_entry


@pytest.fixture(scope="module")
def golden():
    return load_golden()["entries"]


@pytest.mark.parametrize(
    "model,kind,order_search,dp",
    grid(),
    ids=[entry_key(*point) for point in grid()],
)
def test_plan_matches_golden(
    request, golden, model, kind, order_search, dp
):
    cost_model = request.getfixturevalue(f"{model}_cost_model")
    samples = request.getfixturevalue("flan_samples_gpt" if model == "gpt" else "flan_samples")
    expected = golden[entry_key(model, kind, order_search, dp)]
    actual = plan_entry(cost_model, samples, kind, order_search, dp)
    assert actual.keys() == expected.keys()
    if "searches" in expected:
        assert actual["searches"] == expected["searches"]
    for name, value in expected["plan"].items():
        assert actual["plan"][name] == value, name
