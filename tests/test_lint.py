"""Unit tests for the repro.lint static analyzer.

One class per rule family, each exercising the fixture flavours the
suite standardises on: a *positive* snippet the rule must flag, a
*negative* snippet it must not, and the positive snippet with an inline
``# repro: allow[CODE]`` suppression.  Engine semantics get their own
class, and a self-check keeps ``src/repro/lint`` clean under its own
rules.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    RULES,
    lint_paths,
    lint_source,
    module_name_for,
    rules_by_code,
    suppressed_lines,
)
from repro.lint import cli as lint_cli
from repro.lint.engine import profile_for_path
from repro.lint.rules import PROFILE_RELAXED

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(source, module):
    """The rule codes flagged for a dedented snippet under ``module``."""
    return [d.code for d in lint_source(textwrap.dedent(source), module)]


class TestDET001SetIteration:
    def test_flags_for_loop_over_set_literal(self):
        assert codes("for x in {1, 2}:\n    print(x)\n", "repro.core.x") == ["DET001"]

    def test_flags_comprehension_over_set_call(self):
        assert codes("rows = [x for x in set(items)]\n", "repro.api") == ["DET001"]

    def test_ignores_iteration_over_list(self):
        assert codes("for x in [1, 2]:\n    print(x)\n", "repro.core.x") == []

    def test_ignores_sorted_set(self):
        assert codes("for x in sorted({1, 2}):\n    print(x)\n", "repro.api") == []

    def test_ignores_modules_off_the_output_path(self):
        assert codes("for x in {1, 2}:\n    print(x)\n", "tools.scratch") == []

    def test_inline_suppression(self):
        source = "for x in {1, 2}:  # repro: allow[DET001]\n    print(x)\n"
        assert codes(source, "repro.core.x") == []


class TestDET002ReprTieBreak:
    def test_flags_sorted_key_repr(self):
        assert codes("order = sorted(nodes, key=repr)\n", "repro.api") == ["DET002"]

    def test_flags_min_with_repr_in_lambda(self):
        source = "best = min(nodes, key=lambda n: (cost[n], repr(n)))\n"
        assert codes(source, "repro.routing.x") == ["DET002"]

    def test_ignores_value_keys(self):
        assert codes("order = sorted(nodes, key=len)\n", "repro.api") == []

    def test_sanctioned_in_the_canonical_order_module(self):
        source = "order = sorted(nodes, key=repr)\n"
        assert codes(source, "repro.core._bitset") == []

    def test_inline_suppression(self):
        source = "order = sorted(nodes, key=repr)  # repro: allow[DET002]\n"
        assert codes(source, "repro.api") == []


class TestDET003HashOnFingerprintPath:
    def test_flags_builtin_hash_in_fingerprint_module(self):
        assert codes("token = hash(spec)\n", "repro.analysis.sharding") == ["DET003"]

    def test_flags_hash_in_any_repro_module(self):
        assert codes("token = hash(spec)\n", "repro.routing.x") == ["DET003"]

    def test_ignores_dunder_hash_definitions(self):
        source = """
        class Spec:
            def __hash__(self):
                return hash((self.a, self.b))
        """
        assert codes(source, "repro.analysis.sharding") == []

    def test_hashlib_is_not_flagged(self):
        source = "import hashlib\ndigest = hashlib.sha256(b'x').hexdigest()\n"
        assert codes(source, "repro.analysis.serialization") == []


class TestDET004GlobalRandom:
    def test_flags_global_random_calls(self):
        source = "import random\nvalue = random.random()\n"
        assert codes(source, "repro.core.x") == ["DET004"]

    def test_flags_unseeded_random_instance(self):
        source = "import random\nrng = random.Random()\n"
        assert codes(source, "repro.core.x") == ["DET004"]

    def test_seeded_private_instance_is_sanctioned(self):
        source = "import random\nrng = random.Random(derived_seed)\n"
        assert codes(source, "repro.core.x") == []


class TestDET005WallClock:
    def test_flags_time_time_in_fingerprint_module(self):
        source = "import time\nstamp = time.time()\n"
        assert codes(source, "repro.analysis.serialization") == ["DET005"]

    def test_flags_uuid4_in_persistence_module(self):
        source = "import uuid\ntoken = uuid.uuid4()\n"
        assert codes(source, "repro.hardware.io") == ["DET005"]

    def test_flags_wall_clock_in_any_repro_module(self):
        source = "import time\nstamp = time.time()\n"
        assert codes(source, "repro.routing.x") == ["DET005"]

    def test_durations_via_monotonic_are_sanctioned(self):
        source = "import time\nstart = time.monotonic()\n"
        assert codes(source, "repro.analysis.serialization") == []


class TestROB001DirectWrites:
    def test_flags_open_for_write_in_persistence_module(self):
        source = "with open(path, 'w') as fh:\n    fh.write(text)\n"
        assert codes(source, "repro.hardware.io") == ["ROB001"]

    def test_ignores_reads(self):
        source = "with open(path) as fh:\n    text = fh.read()\n"
        assert codes(source, "repro.hardware.io") == []

    def test_flags_open_for_write_in_any_repro_module(self):
        source = "with open(path, 'w') as fh:\n    fh.write(text)\n"
        assert codes(source, "repro.routing.x") == ["ROB001"]

    @pytest.mark.parametrize("mode", ["rb+", "r+", "w+b", "ab+"])
    def test_flags_in_place_update_modes(self, mode):
        source = f"with open(path, {mode!r}) as fh:\n    fh.truncate(0)\n"
        assert codes(source, "repro.hardware.io") == ["ROB001"]

    @pytest.mark.parametrize(
        "mode", ["'rb' if flag else 'wb'", "'ab' if flag else 'rb'"]
    )
    def test_flags_either_branch_of_a_conditional_mode(self, mode):
        source = f"handle = open(path, {mode})\n"
        assert codes(source, "repro.hardware.io") == ["ROB001"]

    def test_mode_keyword_is_checked(self):
        source = "handle = open(path, mode='r+')\n"
        assert codes(source, "repro.hardware.io") == ["ROB001"]

    def test_serialization_itself_is_sanctioned(self):
        # atomic_write_bytes must be able to open its own temp files.
        source = "with open(path, 'wb') as fh:\n    fh.write(data)\n"
        assert codes(source, "repro.analysis.serialization") == []

    def test_inline_suppression(self):
        source = "handle = open(path, 'a')  # repro: allow[ROB001]\n"
        assert codes(source, "repro.hardware.io") == []


class TestROB002SwallowedExceptions:
    def test_flags_silent_broad_except(self):
        source = """
        try:
            work()
        except Exception:
            pass
        """
        assert codes(source, "repro.analysis.x") == ["ROB002"]

    def test_reraise_is_fine(self):
        source = """
        try:
            work()
        except Exception as exc:
            raise RuntimeError("context") from exc
        """
        assert codes(source, "repro.analysis.x") == []

    def test_counter_recording_is_fine(self):
        source = """
        try:
            work()
        except Exception:
            STATS.increment("fallbacks")
        """
        assert codes(source, "repro.analysis.x") == []

    def test_narrow_except_is_fine(self):
        source = """
        try:
            work()
        except KeyError:
            pass
        """
        assert codes(source, "repro.analysis.x") == []


class TestROB003UnverifiedPickle:
    def test_flags_pickle_load_outside_shard_readers(self):
        source = "import pickle\nobj = pickle.load(fh)\n"
        assert codes(source, "repro.core.x") == ["ROB003"]

    def test_sharding_module_is_sanctioned(self):
        source = "import pickle\nobj = pickle.load(fh)\n"
        assert codes(source, "repro.analysis.sharding") == []

    def test_pickle_dumps_is_not_flagged(self):
        source = "import pickle\nblob = pickle.dumps(obj)\n"
        assert codes(source, "repro.core.x") == []


class TestPAR001SubmittedCallables:
    def test_flags_lambda_submitted_to_a_pool(self):
        source = "future = pool.submit(lambda: work())\n"
        assert codes(source, "repro.analysis.x") == ["PAR001"]

    def test_flags_nested_def_submitted_to_a_pool(self):
        source = """
        def run(pool):
            def task():
                return 1
            return pool.submit(task)
        """
        assert codes(source, "repro.analysis.x") == ["PAR001"]

    def test_flags_lambda_factory_keyword(self):
        source = "spec = replace(spec, circuit_factory=lambda: build())\n"
        assert codes(source, "repro.analysis.x") == ["PAR001"]

    def test_module_level_def_is_fine(self):
        source = """
        def task():
            return 1

        def run(pool):
            return pool.submit(task)
        """
        assert codes(source, "repro.analysis.x") == []

    def test_inline_suppression(self):
        source = "future = pool.submit(lambda: 1)  # repro: allow[PAR001]\n"
        assert codes(source, "repro.analysis.x") == []


class TestPAR002WorkerMutatesModuleState:
    def test_flags_global_assignment_in_a_worker(self):
        source = """
        COUNTER = 0

        def worker(x):
            global COUNTER
            COUNTER = COUNTER + x
            return x

        def run(pool):
            return pool.submit(worker, 1)
        """
        assert codes(source, "repro.analysis.x") == ["PAR002"]

    def test_flags_subscript_write_to_a_module_dict(self):
        source = """
        CACHE = {}

        def worker(x):
            CACHE[x] = True
            return x

        def run(pool):
            return pool.submit(worker, 1)
        """
        assert codes(source, "repro.analysis.x") == ["PAR002"]

    def test_stats_counters_are_sanctioned(self):
        source = """
        STATS = make_stats()

        def worker(x):
            STATS.counters[x] = 1
            return x

        def run(pool):
            return pool.submit(worker, 1)
        """
        assert codes(source, "repro.analysis.x") == []

    def test_unsubmitted_functions_are_not_workers(self):
        source = """
        CACHE = {}

        def helper(x):
            CACHE[x] = True
        """
        assert codes(source, "repro.analysis.x") == []

    def test_local_mutation_is_fine(self):
        source = """
        def worker(x):
            local = {}
            local[x] = True
            return local

        def run(pool):
            return pool.submit(worker, 1)
        """
        assert codes(source, "repro.analysis.x") == []


class TestPAR003MutableDefaults:
    def test_flags_a_registry_provider(self):
        source = """
        @PLACERS.register("greedy")
        def build(options={}):
            return options
        """
        diagnostics = lint_source(textwrap.dedent(source), "repro.core.x")
        assert [d.code for d in diagnostics] == ["PAR003"]
        assert "'options'" in diagnostics[0].message

    def test_flags_a_placer_method(self):
        source = """
        class Greedy(Placer):
            def place(self, hints=[]):
                return hints
        """
        diagnostics = lint_source(textwrap.dedent(source), "repro.core.x")
        assert [d.code for d in diagnostics] == ["PAR003"]
        assert "'hints'" in diagnostics[0].message

    def test_flags_a_plain_helper_class(self):
        source = """
        class Helper:
            def collect(self, out=[]):
                return out
        """
        assert codes(source, "repro.routing.x") == ["PAR003"]

    def test_flags_keyword_only_and_constructor_defaults(self):
        source = "def walk(graph, *, seen=set(), extra=dict()):\n    return seen\n"
        assert codes(source, "repro.routing.x") == ["PAR003", "PAR003"]

    def test_none_default_is_fine(self):
        source = """
        @PLACERS.register("greedy")
        def build(options=None, limit=3, name="x", pair=(1, 2)):
            return options or {}
        """
        assert codes(source, "repro.core.x") == []

    def test_inline_suppression(self):
        source = "def build(options={}):  # repro: allow[PAR003]\n    return options\n"
        assert codes(source, "repro.core.x") == []


class TestSER001CanonicalJson:
    def test_flags_non_canonical_dump(self):
        source = """
        import json

        def save(path, payload):
            atomic_write_text(path, json.dumps(payload))
        """
        diagnostics = lint_source(textwrap.dedent(source), "repro.hardware.io")
        assert [d.code for d in diagnostics] == ["SER001"]
        assert "sort_keys" in diagnostics[0].message

    def test_flags_a_dump_in_any_repro_module(self):
        source = """
        import json

        def show(payload):
            return json.dumps(payload)
        """
        assert codes(source, "repro.routing.x") == ["SER001"]

    def test_flags_sort_keys_false_and_file_dumps(self):
        source = (
            "import json\n"
            "text = json.dumps(payload, sort_keys=False)\n"
            "json.dump(payload, handle)\n"
        )
        assert codes(source, "repro.routing.x") == ["SER001", "SER001"]

    def test_sort_keys_true_is_canonical(self):
        source = (
            "import json\n"
            "text = json.dumps(payload, sort_keys=True)\n"
            "json.dump(payload, handle, indent=1, sort_keys=True)\n"
        )
        assert codes(source, "repro.routing.x") == []

    def test_inline_suppression(self):
        source = "import json\ntext = json.dumps(p)  # repro: allow[SER001]\n"
        assert codes(source, "repro.routing.x") == []


class TestSuppressionSpans:
    """Inline allows on multi-line statements (span-aware matching)."""

    def test_allow_on_the_first_line_of_a_multiline_statement(self):
        source = (
            "import time\n"
            "payload = build(  # repro: allow[DET005]\n"
            "    time.time(),\n"
            ")\n"
        )
        assert codes(source, "repro.analysis.serialization") == []

    def test_allow_on_the_closing_line_of_a_simple_statement(self):
        source = (
            "order = sorted(\n"
            "    nodes,\n"
            "    key=repr,\n"
            ")  # repro: allow[DET002]\n"
        )
        assert codes(source, "repro.api") == []

    def test_allow_on_an_interior_line_of_the_flagged_node(self):
        source = (
            "order = sorted(\n"
            "    nodes,\n"
            "    key=repr,  # repro: allow[DET002]\n"
            ")\n"
        )
        assert codes(source, "repro.api") == []

    def test_allow_in_a_compound_body_does_not_blanket_the_header(self):
        source = """
        try:
            work()
        except Exception:
            pass  # repro: allow[ROB002]
        """
        assert codes(source, "repro.analysis.x") == ["ROB002"]

    def test_allow_on_the_except_header_works(self):
        source = """
        try:
            work()
        except Exception:  # repro: allow[ROB002]
            pass
        """
        assert codes(source, "repro.analysis.x") == []

    def test_unrelated_code_on_the_same_line_does_not_suppress(self):
        source = "order = sorted(nodes, key=repr)  # repro: allow[DET001]\n"
        assert codes(source, "repro.api") == ["DET002"]


class TestProfiles:
    def test_scripts_and_benchmarks_lint_relaxed(self):
        assert profile_for_path("scripts/run_bench.py") == PROFILE_RELAXED
        assert profile_for_path("benchmarks/suite.py") == PROFILE_RELAXED
        assert profile_for_path("src/repro/api.py") == "strict"

    def test_relaxed_runs_determinism_rules_unconditionally(self):
        diagnostics = lint_source(
            "for x in {1, 2}:\n    print(x)\n",
            "run_bench",  # bare stem: outside the repro package
            profile=PROFILE_RELAXED,
        )
        assert [d.code for d in diagnostics] == ["DET001"]

    def test_relaxed_skips_scope_sensitive_rules(self):
        diagnostics = lint_source(
            "import pickle\nobj = pickle.load(fh)\n",
            "run_bench",
            profile=PROFILE_RELAXED,
        )
        assert diagnostics == []

    def test_strict_profile_ignores_bare_stems(self):
        assert codes("for x in {1, 2}:\n    print(x)\n", "run_bench") == []


class TestEngine:
    def test_module_name_for_strips_src_prefix(self):
        assert module_name_for("src/repro/timing/trace.py") == "repro.timing.trace"

    def test_module_name_for_init_is_the_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_suppressed_lines_parses_multiple_codes(self):
        lines = suppressed_lines("x = 1  # repro: allow[DET001, ROB002]\n")
        assert lines == {1: frozenset({"DET001", "ROB002"})}

    def test_syntax_error_yields_parse_diagnostic(self):
        diagnostics = lint_source("def broken(:\n", "repro.core.x")
        assert [d.code for d in diagnostics] == ["PARSE"]

    def test_diagnostics_are_ordered_and_formatted(self):
        source = "a = sorted(xs, key=repr)\nb = sorted(ys, key=repr)\n"
        diagnostics = lint_source(source, "repro.api", path="m.py")
        assert [d.line for d in diagnostics] == [1, 2]
        assert diagnostics[0].format().startswith("m.py:1:")

    def test_every_rule_has_a_distinct_code(self):
        assert len(rules_by_code()) == len(RULES)


class TestCommandLine:
    @pytest.fixture
    def root(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "x.py").write_text("value = hash('a')\n")
        return tmp_path

    def test_check_fails_on_any_finding(self, root, capsys):
        assert lint_cli.main(["--check", "--root", str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("src/repro/x.py:1:")
        assert "DET003" in captured.out
        assert "1 finding(s)" in captured.err

    def test_json_report(self, root, capsys):
        assert lint_cli.main(["--format", "json", "--root", str(root)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert [f["code"] for f in report["findings"]] == ["DET003"]

    def test_clean_tree_passes(self, root, capsys):
        (root / "src" / "repro" / "x.py").write_text(
            "value = hash('a')  # repro: allow[DET003]\n"
        )
        assert lint_cli.main(["--check", "--root", str(root)]) == 0
        assert capsys.readouterr().out == "repro.lint: clean\n"

    def test_baseline_options_are_gone(self, root, capsys):
        for argv in (["--baseline"], ["--check", "--baseline-file", "b.json"]):
            with pytest.raises(SystemExit) as info:
                lint_cli.main([*argv, "--root", str(root)])
            assert info.value.code == 2
            assert "--baseline" in capsys.readouterr().err


class TestSelfCheck:
    def test_lint_package_passes_its_own_rules(self):
        diagnostics = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "lint")], root=str(REPO_ROOT)
        )
        assert diagnostics == [], [d.format() for d in diagnostics]
