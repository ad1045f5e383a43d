"""Public-API surface tests: exports, versioning, docstrings."""

import importlib

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.etc",
    "repro.scheduling",
    "repro.heuristics",
    "repro.cga",
    "repro.parallel",
    "repro.baselines",
    "repro.dynamic",
    "repro.experiments",
    "repro.util",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
    "repro.kernels",
    "repro.problems",
]


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstrings(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_top_level_all_is_importable_star_set(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestPublicDocstrings:
    def test_key_classes_documented(self):
        from repro import (
            AsyncCGA,
            CGAConfig,
            ETCMatrix,
            Schedule,
            SimulatedPACGA,
            StopCondition,
        )

        for obj in (AsyncCGA, CGAConfig, ETCMatrix, Schedule, SimulatedPACGA, StopCondition):
            assert obj.__doc__ and len(obj.__doc__.strip()) > 20

    def test_engines_share_run_signature(self):
        from repro import AsyncCGA, ShmBlockPACGA, SimulatedPACGA, SyncCGA, ThreadedPACGA

        for engine in (AsyncCGA, SyncCGA, ThreadedPACGA, ShmBlockPACGA, SimulatedPACGA):
            assert callable(getattr(engine, "run"))

    def test_registries_are_nonempty(self):
        from repro.cga.crossover import CROSSOVERS
        from repro.cga.fitness import FITNESS
        from repro.cga.local_search import LOCAL_SEARCHES
        from repro.cga.mutation import MUTATIONS
        from repro.cga.neighborhood import NEIGHBORHOODS
        from repro.cga.replacement import REPLACEMENTS
        from repro.cga.selection import SELECTIONS
        from repro.heuristics import HEURISTICS

        for registry in (
            CROSSOVERS,
            FITNESS,
            LOCAL_SEARCHES,
            MUTATIONS,
            NEIGHBORHOODS,
            REPLACEMENTS,
            SELECTIONS,
            HEURISTICS,
        ):
            assert registry
            for key, value in registry.items():
                assert isinstance(key, str)
                assert callable(value) or isinstance(value, list)
