"""Tests for the generic component registry framework (repro.registry)."""

from __future__ import annotations

import pytest

from repro.registry import Registry, RegistryEntry, UnknownComponentError


class Widget:
    def __init__(self, size: int = 1, color: str = "red") -> None:
        self.size = size
        self.color = color


def make_registry() -> Registry:
    registry = Registry("widget")
    registry.register("plain", Widget, summary="a plain widget")
    return registry


class TestRegistration:
    def test_decorator_returns_object_unchanged(self):
        registry = Registry("widget")

        @registry.register("decorated")
        class Decorated:
            pass

        assert Decorated.__name__ == "Decorated"
        assert registry.get("decorated").builder is Decorated

    def test_direct_call_registers(self):
        registry = make_registry()
        assert "plain" in registry
        assert registry.get("plain").summary == "a plain widget"

    def test_duplicate_name_rejected(self):
        registry = make_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register("plain", Widget)

    def test_replace_overwrites(self):
        registry = make_registry()
        registry.register("plain", Widget, summary="v2", replace=True)
        assert registry.get("plain").summary == "v2"
        assert len(registry) == 1

    def test_alias_resolves_to_same_entry(self):
        registry = Registry("widget")
        registry.register("canonical", Widget, aliases=("alt", "other"))
        assert registry.get("alt") is registry.get("canonical")
        assert "other" in registry

    def test_alias_clash_rejected(self):
        registry = make_registry()
        with pytest.raises(ValueError, match="alias"):
            registry.register("fancy", Widget, aliases=("plain",))

    def test_name_clash_with_alias_rejected(self):
        registry = Registry("widget")
        registry.register("canonical", Widget, aliases=("alt",))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("alt", Widget)

    def test_unregister_removes_name_and_aliases(self):
        registry = Registry("widget")
        registry.register("canonical", Widget, aliases=("alt",))
        registry.unregister("canonical")
        assert "canonical" not in registry
        assert "alt" not in registry

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            Registry("")


class TestLookup:
    def test_unknown_name_raises_keyerror_subclass(self):
        registry = make_registry()
        with pytest.raises(UnknownComponentError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_unknown_name_message_lists_available(self):
        registry = make_registry()
        with pytest.raises(UnknownComponentError, match="plain"):
            registry.get("nope")

    def test_names_sorted(self):
        registry = make_registry()
        registry.register("abacus", Widget)
        assert registry.names() == ["abacus", "plain"]

    def test_names_with_aliases(self):
        registry = Registry("widget")
        registry.register("b", Widget, aliases=("a",))
        assert registry.names(include_aliases=True) == ["a", "b"]
        assert registry.names() == ["b"]

    def test_iteration_and_len(self):
        registry = make_registry()
        registry.register("abacus", Widget)
        assert list(registry) == ["abacus", "plain"]
        assert len(registry) == 2

    def test_contains_non_string(self):
        registry = make_registry()
        assert 42 not in registry

    def test_metadata_read_only(self):
        registry = Registry("widget")
        registry.register("w", Widget, metadata={"key": "value"})
        metadata = registry.metadata("w")
        assert metadata["key"] == "value"
        with pytest.raises(TypeError):
            metadata["key"] = "other"  # type: ignore[index]

    def test_nested_metadata_not_shared_between_entries(self):
        registry = Registry("widget")
        shared = {"defaults": {"k": 1}}
        registry.register("a", Widget, metadata=shared)
        registry.register("b", Widget, metadata=shared)
        shared["defaults"]["k"] = 2  # caller mutates its own dict afterwards
        assert registry.metadata("a")["defaults"] == {"k": 1}
        registry.metadata("a")["defaults"]["k"] = 3  # nested level is a copy too
        assert registry.metadata("b")["defaults"] == {"k": 1}


class TestBuild:
    def test_builds_with_kwargs(self):
        registry = make_registry()
        widget = registry.build("plain", size=3, color="blue")
        assert widget.size == 3
        assert widget.color == "blue"

    def test_unknown_kwarg_names_component_and_key(self):
        registry = make_registry()
        with pytest.raises(TypeError) as excinfo:
            registry.build("plain", sized=3)
        message = str(excinfo.value)
        assert "plain" in message
        assert "sized" in message
        assert "size" in message  # the accepted keys are listed

    def test_unknown_name_raises(self):
        registry = make_registry()
        with pytest.raises(UnknownComponentError):
            registry.build("nope")

    def test_var_keyword_builder_accepts_anything(self):
        registry = Registry("widget")
        registry.register("open", lambda **kwargs: kwargs)
        assert registry.build("open", anything=1) == {"anything": 1}

    def test_explicit_valid_kwargs_override_introspection(self):
        registry = Registry("widget")
        registry.register(
            "strict", lambda **kwargs: kwargs, valid_kwargs=("allowed",)
        )
        assert registry.build("strict", allowed=1) == {"allowed": 1}
        with pytest.raises(TypeError, match="strict"):
            registry.build("strict", forbidden=1)

    def test_callable_valid_kwargs_resolved_lazily(self):
        registry = Registry("widget")
        allowed = ["first"]
        registry.register(
            "lazy", lambda **kwargs: kwargs, valid_kwargs=lambda: tuple(allowed)
        )
        assert registry.build("lazy", first=1) == {"first": 1}
        with pytest.raises(TypeError, match="second"):
            registry.build("lazy", second=2)
        allowed.append("second")  # the source of truth grows; no re-registration
        assert registry.build("lazy", second=2) == {"second": 2}

    def test_build_via_alias(self):
        registry = Registry("widget")
        registry.register("canonical", Widget, aliases=("alt",))
        assert isinstance(registry.build("alt"), Widget)

    def test_build_without_kwargs_reads_no_signature(self, monkeypatch):
        """No keyword can be unknown, so none is checked; an unknown name
        still fails."""
        from repro import registry as registry_module

        def unreadable(builder):
            raise AssertionError("signature read")

        monkeypatch.setattr(registry_module, "_keyword_parameters", unreadable)
        registry = make_registry()
        assert isinstance(registry.build("plain"), Widget)
        with pytest.raises(UnknownComponentError):
            registry.build("nope")


class TestDescribe:
    def test_rows_sorted_and_complete(self):
        registry = Registry("widget")
        registry.register("b", Widget, summary="second")
        registry.register(
            "a", Widget, aliases=("first_alias",), summary="first", metadata={"k": 1}
        )
        rows = registry.describe()
        assert [row["name"] for row in rows] == ["a", "b"]
        first = rows[0]
        assert first["kind"] == "widget"
        assert first["aliases"] == ["first_alias"]
        assert first["summary"] == "first"
        assert first["metadata"] == {"k": 1}

    def test_describe_metadata_is_a_copy(self):
        registry = Registry("widget")
        registry.register("w", Widget, metadata={"k": 1})
        rows = registry.describe()
        rows[0]["metadata"]["k"] = 2
        assert registry.metadata("w")["k"] == 1

    def test_entry_dataclass_exposed(self):
        registry = make_registry()
        entry = registry.get("plain")
        assert isinstance(entry, RegistryEntry)
        assert entry.name == "plain"


class TestDomainRegistries:
    """The four library registries are Registry instances with metadata."""

    def test_attacks(self):
        from repro.byzantine import ATTACKS

        assert isinstance(ATTACKS, Registry)
        for name in ("none", "gaussian", "label_flip", "lmp", "alittle", "inner"):
            assert name in ATTACKS

    def test_defenses_carry_config_defaults(self):
        from repro.defenses import DEFENSES, defense_config_defaults

        assert isinstance(DEFENSES, Registry)
        assert defense_config_defaults("two_stage") == {"gamma": "gamma"}
        assert defense_config_defaults("krum") == {
            "byzantine_fraction": "byzantine_fraction"
        }
        assert callable(defense_config_defaults("trimmed_mean")["trim_fraction"])
        assert defense_config_defaults("mean") == {}

    def test_defense_config_defaults_returns_a_copy(self):
        from repro.defenses import defense_config_defaults

        defaults = defense_config_defaults("two_stage")
        defaults["injected"] = "byzantine_fraction"
        assert "injected" not in defense_config_defaults("two_stage")
        assert "injected" not in defense_config_defaults("first_stage_only")

    def test_datasets_carry_spec_and_default_model(self):
        from repro.data import DATASETS
        from repro.data.registry import DatasetSpec

        metadata = DATASETS.metadata("mnist_like")
        assert isinstance(metadata["spec"], DatasetSpec)
        assert metadata["default_model"] == "mlp_medium"

    def test_models(self):
        from repro.nn import MODELS

        assert isinstance(MODELS, Registry)
        assert MODELS.names() == ["linear", "mlp_large", "mlp_medium", "mlp_small"]
