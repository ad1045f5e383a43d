"""Engine-registry drift checks.

The CLI's ``--engine`` choices, ``repro.cga.SEQUENTIAL_ENGINES``, the
experiments runner and the takeover study must all resolve engines from
:mod:`repro.runtime.registry` — these tests fail if any dispatch site
grows its own list again.
"""

import numpy as np
import pytest

from repro.cga import SEQUENTIAL_ENGINES, CGAConfig, EngineHooks, StopCondition
from repro.runtime.registry import (
    ENGINE_SPECS,
    EngineSpec,
    create_engine,
    engine_aliases,
    engine_names,
    register_engine,
    resolve_engine,
    sequential_engines,
)


class TestRegistry:
    def test_all_six_engines_registered(self):
        assert engine_names() == [
            "async",
            "sync",
            "vectorized",
            "sim",
            "threads",
            "shm",
        ]

    def test_aliases_resolve_to_canonical_specs(self):
        aliases = engine_aliases()
        assert aliases == {
            "pacga-sim": "sim",
            "pacga-threads": "threads",
            "pacga-shm": "shm",
        }
        for alias, name in aliases.items():
            assert resolve_engine(alias) is ENGINE_SPECS[name]

    def test_unknown_engine_error_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid engines.*async"):
            resolve_engine("island")

    def test_unknown_kwarg_rejected_before_import(self):
        with pytest.raises(TypeError, match="does not accept"):
            ENGINE_SPECS["async"].create(None, None, frobnicate=1)

    def test_alias_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(
                EngineSpec(name="island", module="x", qualname="Y", aliases=("pacga-sim",))
            )
        assert "island" not in ENGINE_SPECS  # validation precedes mutation


class TestNoDrift:
    def test_cli_choices_are_registry_names_plus_aliases(self):
        from repro.cli.engines import engine_choices

        assert engine_choices() == [*engine_names(), *sorted(engine_aliases())]

    def test_cli_parser_accepts_every_registry_spelling(self):
        from repro.cli import build_parser

        parser = build_parser()
        for name in [*engine_names(), *engine_aliases()]:
            assert parser.parse_args(["solve", "--engine", name]).engine == name

    def test_cli_epilog_lists_every_alias(self):
        from repro.cli.engines import alias_epilog

        text = alias_epilog()
        for alias, name in engine_aliases().items():
            assert f"{alias} = {name}" in text

    def test_sequential_engines_derive_from_registry(self):
        specs = sequential_engines()
        assert SEQUENTIAL_ENGINES == specs
        for name, cls in specs.items():
            assert ENGINE_SPECS[name].parallelism == "sequential"
            assert ENGINE_SPECS[name].load() is cls

    def test_runner_factory_builds_through_registry(self, tiny_instance):
        from repro.experiments.runner import engine_factory

        cfg = CGAConfig(
            grid_rows=4, grid_cols=4, ls_iterations=1, seed_with_minmin=False
        )
        stop = StopCondition(max_generations=3)
        factory = engine_factory("async", tiny_instance, cfg, stop)
        res = factory(np.random.SeedSequence(3))
        direct = create_engine(
            "async", tiny_instance, cfg, seed=np.random.SeedSequence(3)
        ).run(stop)
        assert res.best_fitness == direct.best_fitness
        assert np.array_equal(res.best_assignment, direct.best_assignment)

    def test_takeover_error_lists_registry_names(self):
        from repro.experiments.takeover import takeover_experiment

        with pytest.raises(ValueError, match="update must be one of.*async.*got 'island'"):
            takeover_experiment(update="island")

    def test_takeover_accepts_alias(self):
        from repro.experiments.takeover import takeover_experiment

        result = takeover_experiment(
            update="pacga-sim", grid_rows=8, grid_cols=8, max_generations=3
        )
        assert result.update == "pacga-sim"
        assert len(result.proportions) >= 2


#: every registered engine takes lifecycle hooks, a common keyword
HOOKED_ENGINES = engine_names()


class TestHooksKeyword:
    def test_no_engine_takes_on_generation(self):
        for spec in ENGINE_SPECS.values():
            assert "on_generation" not in spec.extra_kwargs, spec.name

    @pytest.mark.parametrize("name", HOOKED_ENGINES)
    def test_create_passes_hooks_to_every_engine(self, name, tiny_instance):
        """``hooks`` is common, like ``obs``: no spec lists it, and
        ``create`` hands the object itself to every engine."""
        assert "hooks" not in ENGINE_SPECS[name].extra_kwargs
        hooks = EngineHooks()
        cfg = CGAConfig(grid_rows=4, grid_cols=4, seed_with_minmin=False)
        eng = create_engine(name, tiny_instance, cfg, seed=0, hooks=hooks)
        assert eng.hooks is hooks

    @pytest.mark.parametrize("name", HOOKED_ENGINES)
    def test_on_stop_fires_once_with_result(self, name, tiny_instance):
        spec = ENGINE_SPECS[name]
        cfg = CGAConfig(
            grid_rows=4,
            grid_cols=4,
            ls_iterations=1,
            seed_with_minmin=False,
            n_threads=2 if spec.parallelism != "sequential" else 1,
        )
        extras = {"lockstep": True} if "lockstep" in spec.extra_kwargs else {}
        stopped = []
        hooks = EngineHooks(on_stop=lambda e, r: stopped.append((e, r)))
        eng = create_engine(name, tiny_instance, cfg, seed=0, hooks=hooks, **extras)
        res = eng.run(StopCondition(max_generations=2))
        assert len(stopped) == 1
        assert stopped[0][0] is eng
        assert stopped[0][1] is res
