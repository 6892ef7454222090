"""repro.analysis lint engine: every rule fires on its bad fixture and
stays silent on the good one; suppressions need reasons; reports
round-trip as repro-analysis/v1 JSON."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.analysis.engine import lint_paths, lint_source, module_path_for
from repro.analysis.findings import Finding, dump_report, load_report, report_dict
from repro.analysis.rules import ALL_RULES, rule_ids


def lint(source: str, module_path: str = "repro/scratch/example.py"):
    return lint_source(textwrap.dedent(source), module_path)


def rules_hit(source: str, module_path: str = "repro/scratch/example.py"):
    return {finding.rule for finding in lint(source, module_path)}


class TestDtypeLiteralRule:
    def test_bare_np_float64_flagged(self):
        findings = lint("import numpy as np\nx = np.zeros(3, dtype=np.float64)\n")
        assert [f.rule for f in findings] == ["dtype-literal"]
        assert findings[0].line == 2

    def test_string_dtype_keyword_flagged(self):
        assert rules_hit('import numpy as np\nx = np.zeros(3, dtype="float32")\n') == {
            "dtype-literal"
        }

    def test_default_dtype_route_is_clean(self):
        clean = """
            import numpy as np
            from repro.tensor.dtypes import ACCUMULATION_DTYPE, default_dtype
            x = np.zeros(3, dtype=default_dtype())
            y = np.zeros(3, dtype=ACCUMULATION_DTYPE)
        """
        assert rules_hit(clean) == set()

    def test_dtypes_module_itself_is_exempt(self):
        source = "import numpy as np\nACCUMULATION_DTYPE = np.dtype(np.float64)\n"
        assert lint(source, "repro/tensor/dtypes.py") == []
        assert rules_hit(source, "repro/tensor/other.py") == {"dtype-literal"}


LOCKED_CLASS_BAD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def racy_read(self):
            return self._count

        def racy_write(self):
            self._count = 0
"""

LOCKED_CLASS_GOOD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def read(self):
            with self._lock:
                return self._count
"""


class TestLockDisciplineRule:
    def test_unlocked_read_and_write_of_guarded_attribute_flagged(self):
        findings = [f for f in lint(LOCKED_CLASS_BAD) if f.rule == "lock-discipline"]
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "read" in messages and "mutated" in messages
        assert "Counter._count" in messages

    def test_consistently_locked_class_is_clean(self):
        assert rules_hit(LOCKED_CLASS_GOOD) == set()

    def test_mutator_method_call_counts_as_mutation(self):
        source = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def racy_add(self, item):
                    self._items.append(item)
        """
        findings = [f for f in lint(source) if f.rule == "lock-discipline"]
        assert len(findings) == 1
        assert "Box._items" in findings[0].message

    def test_init_and_lockless_classes_are_exempt(self):
        source = """
            import threading

            class NoLocks:
                def __init__(self):
                    self._count = 0

                def bump(self):
                    self._count += 1
        """
        assert rules_hit(source) == set()


class TestAtomicWriteRule:
    def test_direct_open_write_in_serve_flagged(self):
        source = """
            def save(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
        """
        assert rules_hit(source, "repro/serve/example.py") == {"atomic-write"}

    def test_hand_rolled_staging_is_flagged(self):
        source = """
            import os
            from repro.utils.checkpoint import staging_path

            def save(path, payload):
                stage = staging_path(path)
                with open(stage, "w") as handle:
                    handle.write(payload)
                os.replace(stage, path)
        """
        findings = lint(source, "repro/serve/example.py")
        assert [f.rule for f in findings] == ["atomic-write"]
        assert "repro.utils.checkpoint" in findings[0].message

    def test_checkpoint_module_is_the_one_writer(self):
        source = 'def save(path):\n    open(path, "w").close()\n'
        assert rules_hit(source, "repro/utils/checkpoint.py") == set()
        assert rules_hit(source, "repro/utils/other.py") == {"atomic-write"}

    def test_np_save_flagged_and_reads_clean(self):
        source = """
            import numpy as np

            def save(path, array):
                np.save(path, array)

            def load(path):
                with open(path, "r") as handle:
                    return handle.read()
        """
        findings = lint(source, "repro/core/example.py")
        assert [f.rule for f in findings] == ["atomic-write"]
        assert "np.save" in findings[0].message

    def test_experiments_package_is_checked(self):
        source = """
            def export(path, table):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(table)

            def doc(output, text):
                output.write_text(text)
        """
        findings = lint(source, "repro/experiments/example.py")
        assert [f.rule for f in findings] == ["atomic-write", "atomic-write"]
        assert ".write_text()" in findings[1].message


class TestMutableDefaultRule:
    def test_list_and_dict_defaults_flagged(self):
        source = "def f(a, items=[], cache={}):\n    return a\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["mutable-default", "mutable-default"]

    def test_constructor_call_default_flagged(self):
        assert rules_hit("def f(x=dict()):\n    return x\n") == {"mutable-default"}

    def test_none_default_is_clean(self):
        assert rules_hit("def f(items=None):\n    return items or []\n") == set()


class TestBenchWallclockRule:
    def test_time_time_in_bench_flagged(self):
        source = "import time\n\ndef measure():\n    return time.time()\n"
        assert rules_hit(source, "repro/bench/example.py") == {"bench-wallclock"}
        assert rules_hit(source, "repro/serve/example.py") == {"bench-wallclock"}

    def test_perf_counter_is_clean(self):
        source = "import time\n\ndef measure():\n    return time.perf_counter()\n"
        assert rules_hit(source, "repro/bench/example.py") == set()

    def test_wallclock_allowed_outside_timing_packages(self):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        assert rules_hit(source, "repro/utils/example.py") == set()


class TestEvalNoGradRule:
    def test_unguarded_eval_forward_flagged(self):
        source = """
            def predict_logits(model, batch):
                return model(batch).data
        """
        findings = lint(source)
        assert [f.rule for f in findings] == ["eval-no-grad"]
        assert "predict_logits()" in findings[0].message

    def test_no_grad_block_is_clean(self):
        source = """
            from repro.tensor import no_grad

            def predict_logits(model, batch):
                with no_grad():
                    return model(batch).data
        """
        assert rules_hit(source) == set()

    def test_no_grad_inside_loop_is_clean(self):
        # Regression: the scanner must track no_grad scoping through
        # nested compound statements, not re-walk their bodies.
        source = """
            from repro.tensor import no_grad

            def evaluate_accuracy(model, loader):
                correct = 0
                for images, labels in loader:
                    with no_grad():
                        logits = model(images).data
                    correct += int((logits.argmax(axis=1) == labels).sum())
                return correct
        """
        assert rules_hit(source) == set()

    def test_forward_in_loop_header_outside_guard_flagged(self):
        source = """
            def evaluate_all(model, batches):
                return [model(batch) for batch in batches]
        """
        assert rules_hit(source) == {"eval-no-grad"}

    def test_non_eval_functions_are_exempt(self):
        source = """
            def train_step(model, batch):
                return model(batch)
        """
        assert rules_hit(source) == set()


class TestDenseMaskMultiplyRule:
    def test_binop_mask_multiply_flagged(self):
        findings = lint("pruned = weights * mask\n")
        assert [f.rule for f in findings] == ["dense-mask-multiply"]

    def test_np_multiply_and_attribute_mask_flagged(self):
        source = """
            import numpy as np
            a = np.multiply(weights, self.mask)
            b = masks[name] * parameter.data
        """
        findings = lint(source)
        assert [f.rule for f in findings] == ["dense-mask-multiply"] * 2

    def test_mask_apply_route_is_clean(self):
        clean = """
            def seal(model, mask):
                mask.apply(model)
                scale = alpha * beta
                return scale
        """
        assert rules_hit(clean) == set()

    def test_mask_module_and_tensor_engine_are_exempt(self):
        source = "pruned = weights * mask\n"
        assert lint(source, "repro/pruning/mask.py") == []
        assert lint(source, "repro/tensor/functional.py") == []
        assert rules_hit(source, "repro/pruning/other.py") == {"dense-mask-multiply"}


class TestAdhocMetricsRule:
    def test_hand_rolled_counter_in_instrumented_module_flagged(self):
        source = """
            class Supervisor:
                def crash(self):
                    self._stats["crashes"] += 1
        """
        findings = lint(source, "repro/serve/fleet/supervisor.py")
        assert [f.rule for f in findings] == ["adhoc-metrics"]
        assert "registry counter" in findings[0].message
        # The stats-struct form: a field of a counter container.
        source = """
            class Batcher:
                def flush(self, window):
                    self._stats.requests += len(window)
                    self.total += 1
        """
        findings = lint(source, "repro/serve/batching.py")
        assert [f.rule for f in findings] == ["adhoc-metrics"]
        assert "self._stats.requests" in findings[0].message

    def test_time_time_in_instrumented_core_module_flagged(self):
        source = "import time\nbegin = time.time()\n"
        assert rules_hit(source, "repro/core/parallel.py") == {"adhoc-metrics"}

    def test_registry_route_and_perf_counter_are_clean(self):
        clean = """
            import time
            from repro.obs.registry import default_registry

            _M_CRASHES = default_registry().counter("fleet_shard_crashes_total")

            class Supervisor:
                def crash(self):
                    _M_CRASHES.inc()
                    self.last_crash = time.perf_counter()
        """
        assert rules_hit(clean, "repro/serve/fleet/supervisor.py") == set()

    def test_uninstrumented_modules_are_exempt(self):
        source = 'class T:\n    def f(self):\n        self._stats["n"] += 1\n'
        assert lint(source, "repro/experiments/grid.py") == []
        # time.time() outside serve/bench/instrumented scope stays legal.
        assert rules_hit("import time\nt = time.time()\n", "repro/utils/clock.py") == set()


class TestSuppressions:
    def test_reasoned_suppression_silences_exactly_that_rule(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)"
            "  # repro: ignore[dtype-literal] -- fixture pinned to double\n"
        )
        assert lint(source) == []

    def test_suppression_without_reason_is_its_own_finding(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  # repro: ignore[dtype-literal]\n"
        )
        rules = [f.rule for f in lint(source)]
        assert "bad-suppression" in rules
        assert "dtype-literal" in rules  # nothing was silenced

    def test_suppression_of_unknown_rule_is_rejected(self):
        source = "x = 1  # repro: ignore[no-such-rule] -- whatever\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["bad-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_suppression_only_covers_its_own_line(self):
        source = (
            "import numpy as np\n"
            "a = np.zeros(3, dtype=np.float64)  # repro: ignore[dtype-literal] -- pinned\n"
            "b = np.zeros(3, dtype=np.float64)\n"
        )
        findings = lint(source)
        assert [(f.rule, f.line) for f in findings] == [("dtype-literal", 3)]

    def test_suppression_syntax_in_docstring_is_inert(self):
        source = '"""Suppress with # repro: ignore[rule-id] -- reason."""\nx = 1\n'
        assert lint(source) == []


class TestEngineAndReport:
    def test_module_path_anchors_at_repro(self):
        assert module_path_for("/root/repo/src/repro/serve/batching.py") == (
            "repro/serve/batching.py"
        )
        assert module_path_for("src/repro/tensor/dtypes.py") == "repro/tensor/dtypes.py"

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "metrics"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import numpy as np\nx = np.float64(0)\n")
        (package / "good.py").write_text("x = 1\n")
        findings = lint_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["dtype-literal"]
        assert findings[0].path == "repro/metrics/bad.py"

    def test_report_round_trips(self, tmp_path):
        findings = [
            Finding(path="repro/a.py", line=3, column=1, rule="dtype-literal", message="m1"),
            Finding(path="repro/a.py", line=1, column=0, rule="mutable-default", message="m2"),
        ]
        path = str(tmp_path / "report.json")
        dump_report(findings, path)
        loaded = load_report(path)
        assert loaded == sorted(findings)
        document = report_dict(findings)
        assert document["format"] == "repro-analysis/v1"
        assert document["total"] == 2
        assert document["counts_by_rule"] == {"dtype-literal": 1, "mutable-default": 1}

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1, "findings": []}')
        with pytest.raises(ValueError, match="format"):
            load_report(str(path))

    def test_every_shipped_rule_has_a_stable_unique_id(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids)) == len(ALL_RULES)
        assert all(rule.summary for rule in ALL_RULES)


class TestRepoIsClean:
    def test_src_tree_has_zero_findings(self):
        # The CI gate in executable form: the shipped tree must lint
        # clean (reasoned suppressions only).
        import repro

        root = repro.__path__[0]
        findings = lint_paths([root])
        assert findings == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in findings
        )

    def test_cli_strict_exit_codes(self, tmp_path):
        bad = tmp_path / "repro" / "metrics"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("import numpy as np\nx = np.float64(0)\n")
        report = tmp_path / "report.json"

        def run(*arguments):
            return subprocess.run(
                [sys.executable, "-m", "repro.analysis", *arguments],
                capture_output=True,
                text=True,
            )

        strict = run("lint", str(tmp_path), "--strict", "--json", str(report))
        assert strict.returncode == 1
        assert "dtype-literal" in strict.stdout
        assert load_report(str(report))[0].rule == "dtype-literal"
        assert run("lint", str(tmp_path)).returncode == 0  # non-strict reports only


class TestLinkChecker:
    """`python -m repro.analysis links` — the docs half of the CI docs-gate."""

    def test_github_anchor_slugs(self):
        from repro.analysis.links import slugify

        assert slugify("Running the tests and benchmarks") == "running-the-tests-and-benchmarks"
        # Code spans drop their backticks, `&`/`(`/`)`/`.` vanish, the
        # space around a removed `&` leaves a double hyphen.
        assert slugify("Benchmarks & regression gating (`repro.bench`)") == (
            "benchmarks--regression-gating-reprobench"
        )
        assert slugify("Chaos drills (`REPRO_CHAOS`)") == "chaos-drills-repro_chaos"
        assert slugify("`python -m repro.serve` flags") == "python--m-reproserve-flags"

    def test_duplicate_headings_get_suffixes(self):
        from repro.analysis.links import heading_anchors

        anchors = heading_anchors("# Setup\n\n## Setup\n\n## Setup\n")
        assert {"setup", "setup-1", "setup-2"} <= anchors

    def test_broken_file_and_anchor_reported(self, tmp_path):
        from repro.analysis.links import check_links

        doc = tmp_path / "README.md"
        doc.write_text(
            "# Title\n\n## Real heading\n\n"
            "[ok](#real-heading)\n"
            "[bad](#not-a-heading)\n"
            "[gone](docs/MISSING.md)\n"
            "[external](https://example.com/never-fetched)\n"
            "```\n[fenced](also/missing.md)\n```\n"
        )
        problems, checked, skipped = check_links([str(doc)])
        assert checked == 3 and skipped == 1
        assert [(p.line, p.target) for p in problems] == [
            (6, "#not-a-heading"),
            (7, "docs/MISSING.md"),
        ]

    def test_cross_file_anchor_resolves_relative_to_source(self, tmp_path):
        from repro.analysis.links import check_links

        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "A.md").write_text("# A\n\n[over there](B.md#the-target)\n")
        (docs / "B.md").write_text("# B\n\n## The target\n")
        problems, checked, _ = check_links([str(docs / "A.md")])
        assert problems == [] and checked == 1

    def test_committed_docs_are_link_clean(self):
        # The CI docs-gate in executable form, pinned to the repo root
        # inferred from this test file's location.
        import pathlib

        from repro.analysis.links import check_links, default_doc_paths

        root = str(pathlib.Path(__file__).resolve().parent.parent)
        paths = default_doc_paths(root)
        assert any(p.endswith("README.md") for p in paths)
        problems, checked, _ = check_links(paths)
        assert checked > 0
        assert problems == [], "\n".join(
            f"{p.location()}: {p.target}: {p.message}" for p in problems
        )
