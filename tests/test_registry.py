"""Contract tests for the index registry (the single source of truth).

The registry is what keeps the CLI, the benchmark figure modules, and the
exported API in agreement: these tests pin the invariants every consumer
relies on — exported classes are registered, aliases resolve, factories
build working indexes, and ``python -m repro info`` advertises everything.
"""

import random

import pytest

import repro
from repro import registry
from repro.cli import main as cli_main
from repro.core.interfaces import Index
from repro.errors import InvalidConfigurationError
from repro.perf import PerfContext
from repro.registry import (
    CATEGORIES,
    FIGURES,
    IndexSpec,
    UnknownIndexError,
    factories,
    resolve,
    specs,
)


# ComposedIndex is the recombination framework, not a competitor: it has
# no zero-argument configuration (callers supply the four dimensions), so
# it has no registry spec.
EXEMPT = {repro.ComposedIndex}


def exported_index_classes():
    return {
        name: obj
        for name in repro.__all__
        if isinstance(obj := getattr(repro, name), type)
        and issubclass(obj, Index)
        and obj not in EXEMPT
    }


class TestCoverage:
    def test_every_exported_index_class_is_registered(self):
        registered = {spec.factory for spec in specs()}
        for name, cls in exported_index_classes().items():
            assert cls in registered, f"{name} exported but not registered"

    def test_every_spec_factory_is_an_exported_index_class(self):
        exported = set(exported_index_classes().values())
        for spec in specs():
            assert spec.factory in exported, (
                f"{spec.name} registered but its class is not exported"
            )

    def test_one_spec_per_class_and_configuration(self):
        seen = {}
        for spec in specs():
            key = (spec.factory, tuple(sorted(spec.default_kwargs.items())))
            assert key not in seen, (
                f"{spec.name} duplicates {seen[key]}: same factory and kwargs"
            )
            seen[key] = spec.name

    def test_categories_and_figures_are_valid(self):
        for spec in specs():
            assert spec.category in CATEGORIES
            for figure in spec.figures:
                assert figure in FIGURES

    def test_extensions_present(self):
        # LIPP/APEX/FINEdex are CLI-reachable AND benchmark-reachable.
        ext = {spec.name for spec in specs(category="extension")}
        assert ext == {"LIPP", "APEX", "FINEdex"}


class TestResolution:
    def test_every_alias_resolves_to_its_spec(self):
        for spec in specs():
            assert resolve(spec.name) is spec
            for alias in spec.aliases:
                assert resolve(alias) is spec, f"{alias} -> {spec.name}"

    def test_resolution_is_case_and_separator_insensitive(self):
        assert resolve("ALEX") is resolve("alex")
        assert resolve("FITING-TREE-BUF") is resolve("fiting_buf")
        assert resolve("  pgm  ") is resolve("pgm")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownIndexError):
            resolve("frobnicator")

    def test_aliases_are_unique_across_specs(self):
        seen = {}
        for spec in specs():
            for key in (spec.name, *spec.aliases):
                norm = key.strip().casefold().replace("_", "-")
                assert seen.setdefault(norm, spec.name) == spec.name


class TestFactories:
    @pytest.mark.parametrize("spec", specs(), ids=lambda s: s.name)
    def test_build_load_and_roundtrip(self, spec):
        rng = random.Random(99)
        keys = sorted(rng.sample(range(0, 10**9, 2), 1000))
        items = [(k, k ^ 0x5A5A) for k in keys]
        index = spec.build(PerfContext())
        index.bulk_load(items)
        assert len(index) == 1000
        for k, v in rng.sample(items, 100):
            assert index.get(k) == v, f"{spec.name} lost key {k}"
        assert index.get(keys[0] + 1) is None

    def test_build_kwarg_overrides(self):
        index = resolve("cceh").build(PerfContext(), segment_bits=4)
        assert index.segment_bits == 4

    def test_spec_is_callable_like_a_factory(self):
        perf = PerfContext()
        index = resolve("btree")(perf)
        assert index.perf is perf

    def test_views_match_specs(self):
        read = factories(figure="read")
        write = factories(figure="write")
        assert set(read) == {
            s.label_in("read") for s in specs(figure="read")
        }
        # The read-only case calls the static PGM just "PGM"...
        assert read["PGM"].spec is resolve("pgm-static")
        # ...while the updatable case means the dynamic one.
        assert write["PGM"].spec is resolve("pgm")

    def test_view_overrides_reach_the_constructor(self):
        view = factories(figure="read", overrides={"RS": {"eps": 4}})
        index = view["RS"](PerfContext())
        assert index.eps == 4


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            registry.register(
                IndexSpec(
                    name="ALEX",
                    factory=resolve("alex").factory,
                    category="extension",
                )
            )

    def test_duplicate_alias_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            registry.register(
                IndexSpec(
                    name="NotAlex",
                    factory=resolve("alex").factory,
                    category="extension",
                    aliases=("alex",),
                )
            )

    def test_bad_category_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            IndexSpec(
                name="X", factory=resolve("alex").factory, category="nope"
            )

    def test_register_and_unregister_roundtrip(self):
        spec = registry.register(
            name="TestOnly",
            factory=resolve("btree").factory,
            category="extension",
            aliases=("test-only",),
        )
        try:
            assert resolve("test-only") is spec
            assert spec in specs(category="extension")
        finally:
            registry.unregister("TestOnly")
        with pytest.raises(UnknownIndexError):
            resolve("test-only")

    def test_decorator_form_registers_class(self):
        @registry.register(name="TestDecorated", category="extension")
        class _Decorated(type(resolve("btree").build())):
            pass

        try:
            assert resolve("testdecorated").factory is _Decorated
        finally:
            registry.unregister("TestDecorated")


class TestCliAgreement:
    def test_info_lists_every_registered_index(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        for spec in specs():
            assert spec.cli_name in out, f"{spec.cli_name} missing from info"
            assert spec.category in out

    def test_bench_accepts_any_alias(self, capsys):
        code = cli_main(
            ["bench", "--index", "FITING_TREE_BUF", "--workload",
             "read-only", "--keys", "1000", "--ops", "200"]
        )
        assert code == 0
        assert "FITing-tree-buf" in capsys.readouterr().out
