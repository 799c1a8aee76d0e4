"""Tests of the top-level public API surface."""

from __future__ import annotations

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"

    def test_key_entry_points_present(self):
        for name in (
            "DynaPipePlanner",
            "MLMDeepSpeedBaseline",
            "CostModel",
            "SyntheticFlanDataset",
            "TrainingSession",
            "PlannerPool",
            "get_model_config",
        ):
            assert name in repro.__all__

    def test_subpackages_importable(self):
        import importlib

        for module in (
            "repro.core",
            "repro.comm",
            "repro.schedule",
            "repro.simulator",
            "repro.costmodel",
            "repro.model",
            "repro.cluster",
            "repro.data",
            "repro.batching",
            "repro.baselines",
            "repro.parallel",
            "repro.training",
            "repro.runtime",
            "repro.instructions",
            "repro.fleet",
            "repro.utils",
        ):
            assert importlib.import_module(module) is not None

    def test_public_items_have_docstrings(self):
        """Every public class/function exported at the top level is documented."""
        missing = [
            name
            for name in repro.__all__
            if name != "__version__"
            and not isinstance(getattr(repro, name), dict)
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not missing, f"missing docstrings for: {missing}"

    def test_quickstart_docstring_names_exist(self):
        """The module docstring's quickstart only references real symbols."""
        doc = repro.__doc__ or ""
        for name in ("CostModel", "DynaPipePlanner", "SyntheticFlanDataset", "get_model_config"):
            assert name in doc
            assert hasattr(repro, name)

    def test_editable_install_metadata(self):
        import importlib.metadata

        try:
            version = importlib.metadata.version("repro")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("package metadata not installed")
        assert version == repro.__version__
