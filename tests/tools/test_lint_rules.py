"""Fixture-driven tests of the built-in lint rules (REP001-REP007).

Each rule gets at least one *bad* fixture that must produce the expected
finding and one *good* fixture that must stay clean; the fixtures are
linted through the public :func:`repro.tools.lint.lint_text` entry point
with paths chosen to hit the rule's target scope.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.tools.lint import LINT_RULES, lint_text


def lint(source: str, path: str, **kwargs) -> list:
    return lint_text(textwrap.dedent(source), path, **kwargs)


def codes(findings) -> list[str]:
    return [finding.code for finding in findings]


def symbols(findings) -> list[str]:
    return [finding.symbol for finding in findings]


# --------------------------------------------------------------------- #
# REP001 -- naked nondeterminism
# --------------------------------------------------------------------- #
class TestRep001:
    PATH = "src/repro/core/example.py"

    @pytest.mark.parametrize("snippet, symbol", [
        ("np.random.seed(0)", "global-numpy-random"),
        ("x = np.random.normal(size=3)", "global-numpy-random"),
        ("rng = np.random.default_rng()", "unseeded-rng"),
        ("ss = np.random.SeedSequence()", "unseeded-rng"),
        ("v = random.random()", "stdlib-random"),
        ("v = random.shuffle(items)", "stdlib-random"),
        ("t = time.time()", "wall-clock"),
        ("t = time.time_ns()", "wall-clock"),
        ("u = uuid.uuid4()", "uuid"),
        ("u = uuid.uuid1()", "uuid"),
    ])
    def test_bad(self, snippet, symbol):
        source = f"""
        import numpy as np
        import random
        import time
        import uuid
        items = ()
        {snippet}
        """
        findings = lint(source, self.PATH, select=["REP001"])
        assert symbols(findings) == [symbol]

    def test_good_counter_derived_rng(self):
        source = """
        import numpy as np
        import time

        def make_rng(seed, component, round_index):
            key = np.random.SeedSequence((seed, component, round_index))
            return np.random.default_rng(key)

        def deadline():
            return time.monotonic() + 5.0
        """
        assert lint(source, self.PATH, select=["REP001"]) == []

    def test_import_aliases_resolved(self):
        source = """
        from numpy.random import default_rng as make
        from time import time as now
        r = make()
        t = now()
        """
        findings = lint(source, self.PATH, select=["REP001"])
        assert symbols(findings) == ["unseeded-rng", "wall-clock"]

    def test_out_of_scope_path_ignored(self):
        source = "import time\nt = time.time()\n"
        assert lint(source, "src/repro/analysis/tables.py", select=["REP001"]) == []
        # ... but --unscoped promotes the rule to every file
        assert codes(lint(
            source, "src/repro/analysis/tables.py",
            select=["REP001"], unscoped=True,
        )) == ["REP001"]


# --------------------------------------------------------------------- #
# REP002 -- shared mutable state in backend-executed files
# --------------------------------------------------------------------- #
class TestRep002:
    PATH = "src/repro/federated/worker.py"

    def test_bad_module_level_dict_the_pr7_race(self):
        # The exact regression REP002 exists for: replacing the
        # threading.local() wrapper of the worker-process model cache
        # with a plain dict reintroduces the PR 7 gradient-corruption race.
        source = """
        _PROCESS_CACHE = {}
        """
        findings = lint(source, self.PATH, select=["REP002"])
        assert symbols(findings) == ["module-mutable-state"]

    @pytest.mark.parametrize("snippet", [
        "CACHE = {}",
        "CACHE = []",
        "CACHE = set()",
        "CACHE = dict()",
        "CACHE = collections.defaultdict(list)",
        "CACHE = [x for x in range(3)]",
    ])
    def test_bad_module_level_variants(self, snippet):
        source = f"import collections\n{snippet}\n"
        assert codes(lint(source, self.PATH, select=["REP002"])) == ["REP002"]

    def test_bad_class_level_container(self):
        source = """
        class Pool:
            cache = {}
        """
        findings = lint(source, self.PATH, select=["REP002"])
        assert symbols(findings) == ["class-mutable-state"]

    def test_good_thread_local_and_immutables(self):
        source = """
        import threading
        from types import MappingProxyType

        _PROCESS_CACHE = threading.local()
        _LIMIT = 8
        _NAMES = ("a", "b")
        _FROZEN = frozenset({"a"})
        _TABLE = MappingProxyType({"a": 1})
        __all__ = ["Pool"]

        class Pool:
            __slots__ = ["datasets"]

            def __init__(self):
                self.datasets = []   # instance state: owned per object
        """
        assert lint(source, self.PATH, select=["REP002"]) == []

    def test_only_backend_executed_files_in_scope(self):
        source = "CACHE = {}\n"
        assert lint(source, "src/repro/federated/history.py", select=["REP002"]) == []


# --------------------------------------------------------------------- #
# REP003 -- dtype discipline
# --------------------------------------------------------------------- #
class TestRep003:
    PATH = "src/repro/core/example.py"

    @pytest.mark.parametrize("snippet", [
        "x = np.zeros((3, 3))",
        "x = np.empty(4)",
        "x = np.array([1.0, 2.0])",
        "x = np.asarray(values)",
    ])
    def test_bad(self, snippet):
        source = f"import numpy as np\nvalues = [1]\n{snippet}\n"
        assert codes(lint(source, self.PATH, select=["REP003"])) == ["REP003"]

    def test_good_explicit_dtype(self):
        source = """
        import numpy as np
        values = [1]
        a = np.zeros((3, 3), dtype=np.float64)
        b = np.empty(4, dtype=np.float64)
        c = np.array([1.0], dtype=np.float64)
        d = np.asarray(values, dtype=np.float64)
        e = np.zeros_like(a)           # *_like preserves dtype by contract
        f = np.zeros(4, np.float64)    # positional dtype counts too
        """
        assert lint(source, self.PATH, select=["REP003"]) == []

    def test_out_of_scope_path_ignored(self):
        source = "import numpy as np\nx = np.zeros(3)\n"
        assert lint(source, "src/repro/federated/worker.py", select=["REP003"]) == []


# --------------------------------------------------------------------- #
# REP004 -- registry hygiene
# --------------------------------------------------------------------- #
class TestRep004:
    # targets=(): scenario packs anywhere on disk are in scope
    PATH = "mypack/components.py"

    def test_bad_unregistered_component(self):
        source = """
        from repro.defenses.base import Aggregator

        class ForgottenRule(Aggregator):
            def aggregate(self, uploads, context):
                return uploads[0]
        """
        findings = lint(source, self.PATH, select=["REP004"])
        assert symbols(findings) == ["unregistered-component"]
        assert "ForgottenRule" in findings[0].message

    def test_good_decorator_registration(self):
        source = """
        from repro.defenses import DEFENSES
        from repro.defenses.base import Aggregator

        @DEFENSES.register("my_rule", summary="clip then average")
        class MyRule(Aggregator):
            def aggregate(self, uploads, context):
                return uploads[0]
        """
        assert lint(source, self.PATH, select=["REP004"]) == []

    def test_good_direct_call_registration(self):
        source = """
        from repro.federated.faults import FAULTS, FaultModel

        class Eclipse(FaultModel):
            pass

        FAULTS.register("eclipse", Eclipse, summary="partition a clique")
        """
        assert lint(source, self.PATH, select=["REP004"]) == []

    def test_good_private_and_base_classes_exempt(self):
        source = """
        from repro.federated.backends import ExecutionBackend

        class _PooledBackend(ExecutionBackend):
            pass

        class Unrelated:
            pass
        """
        assert lint(source, self.PATH, select=["REP004"]) == []

    def test_bad_config_defaults_key_not_accepted(self):
        source = """
        from repro.defenses import DEFENSES
        from repro.defenses.base import Aggregator

        @DEFENSES.register(
            "demo",
            metadata={"config_defaults": {"trim": "trim_fraction"}},
        )
        class Demo(Aggregator):
            def __init__(self, trim_fraction=0.1):
                self.trim_fraction = trim_fraction
        """
        findings = lint(source, self.PATH, select=["REP004"])
        assert symbols(findings) == ["config-defaults-mismatch"]
        assert "'trim'" in findings[0].message

    def test_good_config_defaults_match(self):
        source = """
        from repro.defenses import DEFENSES
        from repro.defenses.base import Aggregator

        _DEFAULTS = {"trim_fraction": "byzantine_fraction"}

        @DEFENSES.register("demo", metadata={"config_defaults": _DEFAULTS})
        class Demo(Aggregator):
            def __init__(self, trim_fraction=0.1):
                self.trim_fraction = trim_fraction
        """
        assert lint(source, self.PATH, select=["REP004"]) == []

    def test_var_keyword_builder_with_literal_valid_kwargs(self):
        source = """
        from repro.defenses import DEFENSES

        @DEFENSES.register(
            "demo",
            metadata={"config_defaults": {"gamma": "gamma"}},
            valid_kwargs=("sigma",),
        )
        def build_demo(**kwargs):
            return object()
        """
        findings = lint(source, self.PATH, select=["REP004"])
        assert symbols(findings) == ["config-defaults-mismatch"]

    def test_var_keyword_builder_with_lazy_valid_kwargs_skipped(self):
        # valid_kwargs resolved at runtime (a callable): not statically
        # visible, so the rule must stay silent rather than guess.
        source = """
        from repro.defenses import DEFENSES

        def _lazy():
            return ("gamma",)

        @DEFENSES.register(
            "demo",
            metadata={"config_defaults": {"gamma": "gamma"}},
            valid_kwargs=_lazy,
        )
        def build_demo(**kwargs):
            return object()
        """
        assert lint(source, self.PATH, select=["REP004"]) == []


# --------------------------------------------------------------------- #
# REP005 -- wire/service robustness
# --------------------------------------------------------------------- #
class TestRep005:
    PATH = "src/repro/federated/service.py"

    def test_bad_bare_except(self):
        source = """
        def drain():
            try:
                pass
            except:
                pass
        """
        findings = lint(source, self.PATH, select=["REP005"])
        assert symbols(findings) == ["bare-except"]

    def test_good_typed_except(self):
        source = """
        def drain():
            try:
                pass
            except (ConnectionError, OSError):
                pass
        """
        assert lint(source, self.PATH, select=["REP005"]) == []

    def test_bad_socket_without_deadline(self):
        source = """
        import socket

        def connect(host, port):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.connect((host, port))
            return sock
        """
        findings = lint(source, self.PATH, select=["REP005"])
        assert symbols(findings) == ["no-socket-deadline"]

    def test_good_socket_with_settimeout_or_timeout_kwarg(self):
        source = """
        import socket

        def connect(host, port):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect((host, port))
            return sock

        def dial(host, port):
            return socket.create_connection((host, port), timeout=5.0)
        """
        assert lint(source, self.PATH, select=["REP005"]) == []

    def test_bad_non_atomic_write(self):
        source = """
        import json

        def save(path, state):
            with open(path, "w") as handle:
                json.dump(state, handle)
        """
        findings = lint(source, "src/repro/federated/state.py", select=["REP005"])
        assert symbols(findings) == ["non-atomic-write"]

    def test_bad_non_atomic_np_save(self):
        source = """
        import numpy as np

        def save(path, arr):
            np.save(path, arr)
        """
        findings = lint(source, "src/repro/federated/state.py", select=["REP005"])
        assert symbols(findings) == ["non-atomic-write"]

    def test_good_write_temp_then_replace(self):
        source = """
        import json
        import os

        def save(path, state):
            tmp = str(path) + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(state, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        """
        assert lint(source, "src/repro/federated/state.py", select=["REP005"]) == []

    def test_good_append_mode_jsonl_exempt(self):
        source = """
        def open_log(path):
            return open(path, "a")
        """
        assert lint(source, self.PATH, select=["REP005"]) == []


# --------------------------------------------------------------------- #
# REP006 -- out= aliasing in BLAS contractions
# --------------------------------------------------------------------- #
class TestRep006:
    PATH = "src/repro/federated/engines.py"

    @pytest.mark.parametrize("snippet", [
        "np.matmul(a, b, out=a)",
        "np.dot(a, b, out=b)",
        "np.einsum('ij,jk->ik', a, b, out=a)",
        "np.tensordot(a, b, axes=1, out=b)",
        "np.matmul(a, b, out=a[0])",    # same base buffer, still overlapping
        "np.matmul(a[1:], b, out=a)",
    ])
    def test_bad(self, snippet):
        source = f"""
        import numpy as np
        a = np.zeros((4, 4), dtype=np.float64)
        b = np.ones((4, 4), dtype=np.float64)
        {snippet}
        """
        assert codes(lint(source, self.PATH, select=["REP006"])) == ["REP006"]

    def test_good_disjoint_out_and_safe_ufuncs(self):
        source = """
        import numpy as np
        a = np.zeros((4, 4), dtype=np.float64)
        b = np.ones((4, 4), dtype=np.float64)
        scratch = np.empty((4, 4), dtype=np.float64)
        np.matmul(a, b, out=scratch)
        np.einsum('ij,jk->ik', a, b, out=scratch)
        np.multiply(a, 2.0, out=a)    # elementwise in-place: defined and fine
        np.maximum(a, 0.0, out=a)
        """
        assert lint(source, self.PATH, select=["REP006"]) == []

    def test_einsum_subscripts_not_an_operand(self):
        # The first einsum argument is the subscript string; it must never
        # be compared against out=.
        source = """
        import numpy as np
        a = np.zeros((4, 4), dtype=np.float64)
        out = np.empty(4, dtype=np.float64)
        np.einsum('ii->i', a, out=out)
        """
        assert lint(source, self.PATH, select=["REP006"]) == []


# --------------------------------------------------------------------- #
# REP007 -- RNG streams keyed by loop position
# --------------------------------------------------------------------- #
class TestRep007:
    PATH = "src/repro/federated/sampling.py"

    BAD = """
    import numpy as np
    from repro.federated.sampling import derive_rng

    def worker_rngs(seed, cohort):
        rngs = []
        for index, worker_id in enumerate(cohort):
            rngs.append(derive_rng(seed, "worker", index))
        return rngs

    def noise_streams(seed, cohort):
        streams = []
        for position, worker in enumerate(cohort):
            key = np.random.SeedSequence((seed, position))
            streams.append(np.random.default_rng(key))
        return streams
    """

    GOOD = """
    import numpy as np
    from repro.federated.sampling import derive_rng

    def worker_rngs(seed, cohort):
        rngs = []
        for index, worker_id in enumerate(cohort):
            rngs.append(derive_rng(seed, "worker", worker_id))
        return rngs

    def noise_streams(seed, cohort):
        return [
            np.random.default_rng(np.random.SeedSequence((seed, worker_id)))
            for worker_id in cohort
        ]
    """

    def test_bad_fixture_flagged_once_per_misuse(self):
        findings = lint(self.BAD, self.PATH, select=["REP007"])
        # One finding per misused sink call: the derive_rng call, and the
        # SeedSequence (not double-counted by the wrapping default_rng).
        assert symbols(findings) == ["order-keyed-rng", "order-keyed-rng"]
        assert "'index'" in findings[0].message
        assert "'position'" in findings[1].message

    def test_good_fixture_stable_ids_clean(self):
        assert lint(self.GOOD, self.PATH, select=["REP007"]) == []

    def test_bare_enumerate_target_flagged(self):
        # ``for pair in enumerate(...)`` binds (index, item): keying on the
        # pair embeds the position too.
        source = """
        import numpy as np
        for pair in enumerate(items):
            rng = np.random.default_rng(np.random.SeedSequence(pair))
        """
        findings = lint(source, self.PATH, select=["REP007"])
        assert symbols(findings) == ["order-keyed-rng"]

    def test_range_loop_over_stable_ids_clean(self):
        # ``for worker_id in range(n)`` iterates the ids themselves (the
        # fixed Byzantine pool does exactly this); only enumerate positions
        # are execution-order artifacts.
        source = """
        from repro.federated.sampling import derive_rng
        def pool_rngs(seed, n):
            return [derive_rng(seed, "byzantine", j) for j in range(n)]
        """
        assert lint(source, self.PATH, select=["REP007"]) == []

    def test_out_of_scope_path_ignored(self):
        findings = lint(self.BAD, "src/repro/analysis/tables.py", select=["REP007"])
        assert findings == []


# --------------------------------------------------------------------- #
# rule registration / extension API
# --------------------------------------------------------------------- #
class TestRuleRegistry:
    def test_builtin_rules_registered(self):
        for code in (
            "REP001", "REP002", "REP003", "REP004",
            "REP005", "REP006", "REP007",
        ):
            assert code in LINT_RULES

    def test_slug_aliases_resolve(self):
        assert LINT_RULES.get("naked-nondeterminism").name == "REP001"
        assert LINT_RULES.get("blas-out-aliasing").name == "REP006"

    def test_third_party_rule_via_public_registry_api(self):
        import ast as ast_module

        from repro.tools.lint import LintRule

        @LINT_RULES.register("PACK001", summary="no eval() in pack code")
        class NoEval(LintRule):
            code = "PACK001"
            name = "no-eval"

            def check(self, module):
                for node in module.walk(ast_module.Call):
                    if (
                        isinstance(node.func, ast_module.Name)
                        and node.func.id == "eval"
                    ):
                        yield self.finding(module, node, "eval() call")

        try:
            findings = lint_text("eval('1+1')\n", "pack/x.py", select=["PACK001"])
            assert codes(findings) == ["PACK001"]
        finally:
            LINT_RULES.unregister("PACK001")
