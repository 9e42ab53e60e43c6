"""Tests for the rtslint AST checker: each rule, pragmas, JSON, repo-clean."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.rtslint import RULES, lint_paths, lint_source  # noqa: E402
from tools.rtslint.rules import _EMIT_HOOKS  # noqa: E402


def _lint(code: str, path: str = "src/repro/core/example.py", select=()):
    return lint_source(textwrap.dedent(code), path, select=select)


def _rules_hit(code: str, **kwargs):
    return {v.rule for v in _lint(code, **kwargs)}


class TestFloatEq:
    def test_flags_float_literal_equality(self):
        assert "float-eq" in _rules_hit("def f(x):\n    return x == 1.5\n")

    def test_flags_not_equal(self):
        assert "float-eq" in _rules_hit("def f(x):\n    return 0.25 != x\n")

    def test_allows_int_equality_and_float_inequality(self):
        code = "def f(x):\n    return x == 1 or x < 1.5\n"
        assert "float-eq" not in _rules_hit(code)


class TestMutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "list()", "dict()", "set()"])
    def test_flags_mutable_defaults(self, default):
        assert "mutable-default" in _rules_hit(f"def f(a, b={default}):\n    pass\n")

    def test_flags_keyword_only_defaults(self):
        assert "mutable-default" in _rules_hit("def f(*, b=[]):\n    pass\n")

    def test_allows_none_and_tuples(self):
        code = "def f(a=None, b=(), c=1):\n    pass\n"
        assert "mutable-default" not in _rules_hit(code)


class TestHeapInternals:
    def test_flags_arr_and_pos_access(self):
        code = "def f(heap, entry):\n    heap._slots[0] = entry\n    heap._pos[entry] = 3\n"
        violations = [v for v in _lint(code) if v.rule == "heap-internals"]
        assert len(violations) == 2

    def test_allows_inside_heap_module(self):
        code = "def f(heap):\n    return heap._slots\n"
        assert (
            _lint(code, path="src/repro/structures/heap.py") == []
        )

    def test_allows_public_api(self):
        code = "def f(heap, e):\n    heap.rekey(e, 5)\n    heap.remove(e)\n"
        assert "heap-internals" not in _rules_hit(code)


class TestUnguardedObs:
    def test_flags_bare_emit(self):
        code = """
        class E:
            def f(self):
                self.obs.query_matured(1, 2, 3)
        """
        assert "unguarded-obs" in _rules_hit(code)

    def test_allows_enabled_guard(self):
        code = """
        class E:
            def f(self):
                if self.obs.enabled:
                    self.obs.query_matured(1, 2, 3)
        """
        assert "unguarded-obs" not in _rules_hit(code)

    def test_allows_alias_guard(self):
        code = """
        class E:
            def f(self):
                obs_on = self.obs.enabled
                if obs_on:
                    self.obs.query_matured(1, 2, 3)
        """
        assert "unguarded-obs" not in _rules_hit(code)

    def test_allows_none_guard(self):
        code = """
        class E:
            def f(self):
                if self._obs is not None:
                    self._obs.inc("rts_dt_messages_total", type="signal")
        """
        assert "unguarded-obs" not in _rules_hit(code)

    def test_flags_bare_generic_emit(self):
        code = """
        class E:
            def f(self):
                self.obs.inc("rts_batch_bisections_total")
        """
        assert "unguarded-obs" in _rules_hit(code)

    @pytest.mark.parametrize(
        "call",
        [
            'obs.set("rts_shard_skew_ratio", 1.0)',
            'obs.observe("rts_phase_seconds", 0.1, phase="route")',
            "obs.batch_processed(3, 2, 2)",
            'obs.ingest_quarantined("csv")',
            "obs.shard_restart(0)",
            "obs.sync_work_counters(counters)",
        ],
    )
    def test_flags_every_unguarded_emit(self, call):
        code = f"def f(obs, counters):\n    {call}\n"
        assert "unguarded-obs" in _rules_hit(code)

    def test_ignores_non_obs_receivers(self):
        code = """
        class E:
            def f(self):
                self._tree.rebuild("all", 3)
        """
        assert "unguarded-obs" not in _rules_hit(code)

    def test_skips_obs_package_itself(self):
        code = "def f(obs):\n    obs.inc('rts_elements_total')\n"
        assert _lint(code, path="src/repro/obs/observer.py") == []


class TestEmitSurfaceClosure:
    """Every public emit method of Observability is one the
    ``unguarded-obs`` rule knows; the null sink has none of them, so an
    unguarded call would raise AttributeError when telemetry is off."""

    def test_emit_methods_are_lint_guarded(self):
        from repro.obs import Observability

        public = {
            name
            for name, value in vars(Observability).items()
            if callable(value) and not name.startswith("_")
        }
        assert public - {"report", "describe"} == _EMIT_HOOKS

    def test_null_sink_has_no_emit_method(self):
        from repro.obs import NULL_OBS

        assert not any(hasattr(NULL_OBS, name) for name in _EMIT_HOOKS)


class TestBareExcept:
    def test_flags_bare_except(self):
        code = "def f():\n    try:\n        pass\n    except:\n        pass\n"
        assert "bare-except" in _rules_hit(code)

    def test_allows_typed_except(self):
        code = "def f():\n    try:\n        pass\n    except ValueError:\n        pass\n"
        assert "bare-except" not in _rules_hit(code)


class TestPaperRefDocstring:
    def test_flags_missing_docstring(self):
        assert "paper-ref-docstring" in _rules_hit("def f():\n    pass\n")

    def test_flags_docstring_without_citation(self):
        code = 'def f():\n    """Does things."""\n'
        assert "paper-ref-docstring" in _rules_hit(code)

    @pytest.mark.parametrize(
        "cite", ["Section 4", "Eq. (5)", "Theorem 1", "Lemma 2", "§4"]
    )
    def test_allows_paper_citations(self, cite):
        code = f'def f():\n    """Implements {cite} of the paper."""\n'
        assert "paper-ref-docstring" not in _rules_hit(code)

    def test_skips_private_functions_and_non_core_files(self):
        code = "def _helper():\n    pass\n"
        assert "paper-ref-docstring" not in _rules_hit(code)
        assert (
            _lint("def f():\n    pass\n", path="src/repro/streams/workload.py") == []
        )


class TestUndeclaredMetric:
    """The rule AST-parses repro/obs/catalog.py (found via the linted
    path's ancestors, falling back to cwd/src) — it never imports it."""

    def _hits(self, code, **kwargs):
        return [v for v in _lint(code, **kwargs) if v.rule == "undeclared-metric"]

    def test_flags_missing_rts_prefix(self):
        hits = self._hits('def f(reg):\n    reg.counter("events_total").inc()\n')
        assert len(hits) == 1
        assert "namespace prefix" in hits[0].message

    def test_flags_name_absent_from_catalog(self):
        hits = self._hits(
            'def f(reg):\n    reg.counter("rts_bogus_total").inc()\n'
        )
        assert len(hits) == 1
        assert "not declared" in hits[0].message

    def test_allows_cataloged_names(self):
        code = (
            "def f(reg):\n"
            '    reg.counter("rts_elements_total").inc()\n'
            '    reg.gauge("rts_alive_queries").set(1)\n'
            '    reg.histogram("rts_phase_seconds", [1.0])\n'
        )
        assert self._hits(code) == []

    def test_flags_undeclared_work_gauge(self):
        # Only the six WorkCounters fields are declared; there is no
        # rts_work_* name-prefix exemption.
        code = 'def f(reg):\n    reg.gauge("rts_work_heap_pops").set(2)\n'
        assert len(self._hits(code)) == 1

    def test_allows_declared_work_gauge(self):
        code = 'def f(reg):\n    reg.gauge("rts_work_heap_ops").set(2)\n'
        assert self._hits(code) == []

    def test_flags_undeclared_name_in_obs_inc(self):
        code = (
            "def f(obs):\n"
            "    if obs.enabled:\n"
            '        obs.inc("rts_nope_total")\n'
        )
        hits = self._hits(code)
        assert len(hits) == 1
        assert "not declared" in hits[0].message

    def test_checks_obs_set_and_observe_names(self):
        code = (
            "def f(obs):\n"
            "    if obs.enabled:\n"
            '        obs.set("rts_alive_queries", 1)\n'
            '        obs.observe("latency", 1.0)\n'
        )
        (hit,) = self._hits(code)
        assert "namespace prefix" in hit.message

    def test_ignores_set_on_non_obs_receivers(self):
        code = 'def f(flags):\n    flags.set("verbose")\n'
        assert self._hits(code) == []

    def test_skips_non_literal_names(self):
        code = "def f(reg, name):\n    reg.counter(name).inc()\n"
        assert self._hits(code) == []

    def test_pragma_suppresses(self):
        code = (
            "def f(reg):\n"
            '    reg.counter("oops")  # rtslint: disable=undeclared-metric\n'
        )
        assert self._hits(code) == []


class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self):
        code = "def f(heap):\n    return heap._slots  # rtslint: disable=heap-internals\n"
        assert _lint(code, select=["heap-internals"]) == []

    def test_line_pragma_does_not_suppress_other_rules(self):
        code = "def f(a=[]):  # rtslint: disable=heap-internals\n    pass\n"
        assert "mutable-default" in _rules_hit(code)

    def test_file_pragma(self):
        code = (
            "# rtslint: disable-file=paper-ref-docstring\n"
            "def f():\n    pass\n"
        )
        assert "paper-ref-docstring" not in _rules_hit(code)

    def test_disable_all(self):
        code = "def f(heap):\n    return heap._slots  # rtslint: disable=all\n"
        assert _lint(code, select=["heap-internals"]) == []


class TestDriver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", "f.py", select=["bogus"])

    def test_select_restricts_rules(self):
        code = "def f(a=[]):\n    return a == 1.5\n"
        violations = _lint(code, select=["float-eq"])
        assert {v.rule for v in violations} == {"float-eq"}

    def test_violation_carries_location(self):
        v = _lint("def f(x):\n    return x == 1.5\n", select=["float-eq"])[0]
        assert v.line == 2
        assert v.path.endswith("example.py")

    def test_all_rules_documented(self):
        for name, (description, _fn) in RULES.items():
            assert description, f"rule {name} lacks a description"


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.rtslint", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )

    def test_repo_src_is_clean(self):
        proc = self._run("src/")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_output_and_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    pass\n")
        proc = self._run("--json", str(bad))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule"] == "mutable-default"
        assert payload[0]["line"] == 1

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for name in RULES:
            assert name in proc.stdout


def test_lint_paths_on_repo_src_is_clean():
    assert lint_paths([str(ROOT / "src")]) == []


def test_repo_tools_and_scripts_are_clean():
    """Satellite coverage: the linter's own code and scripts/ pass it."""
    assert lint_paths([str(ROOT / "tools"), str(ROOT / "scripts")]) == []


class TestPragmaEdgeCases:
    def test_file_pragma_combined_with_line_pragma(self):
        code = (
            "# rtslint: disable-file=paper-ref-docstring\n"
            "def f(heap):\n"
            "    return heap._slots  # rtslint: disable=heap-internals\n"
        )
        assert _lint(code) == []

    def test_file_pragma_does_not_absorb_other_line_rules(self):
        code = (
            "# rtslint: disable-file=paper-ref-docstring\n"
            "def f(heap):\n"
            "    return heap._slots\n"
        )
        assert _rules_hit(code) == {"heap-internals"}

    def test_pragma_on_continuation_line_covers_the_statement(self):
        code = (
            "def f(heap, entry):\n"
            "    heap._slots.insert(\n"
            "        0,\n"
            "        entry,\n"
            "    )  # rtslint: disable=heap-internals\n"
        )
        assert "heap-internals" not in _rules_hit(code)

    def test_pragma_on_statement_head_covers_wrapped_lines(self):
        code = (
            "def f(heap, entry):\n"
            "    heap._slots.insert(  # rtslint: disable=heap-internals\n"
            "        0,\n"
            "        entry,\n"
            "    )\n"
        )
        assert "heap-internals" not in _rules_hit(code)

    def test_pragma_inside_function_does_not_blanket_the_body(self):
        code = (
            "def f(heap):  # rtslint: disable=heap-internals\n"
            "    x = 1\n"
            "    return heap._slots\n"
        )
        assert "heap-internals" in _rules_hit(code)

    def test_unknown_rule_name_in_pragma_is_a_violation(self):
        code = "x = 1  # rtslint: disable=heap-internal\n"
        violations = _lint(code)
        assert [v.rule for v in violations] == ["unknown-pragma"]
        assert "heap-internal" in violations[0].message

    def test_unknown_rule_in_file_pragma_is_a_violation(self):
        code = "# rtslint: disable-file=bogus-rule\nx = 1\n"
        assert "unknown-pragma" in _rules_hit(code)

    def test_unknown_pragma_reported_even_under_select(self):
        code = "x = 1  # rtslint: disable=bogus\n"
        violations = _lint(code, select=["float-eq"])
        assert [v.rule for v in violations] == ["unknown-pragma"]


class TestCliPragmaExit:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.rtslint", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )

    def test_unknown_pragma_rule_exits_nonzero(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("x = 1  # rtslint: disable=no-such-rule\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "unknown-pragma" in proc.stdout


class TestBaseline:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.rtslint", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )

    def test_write_then_compare_grandfathers_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    pass\n")
        baseline = tmp_path / "baseline.json"

        proc = self._run(str(bad), "--write-baseline", str(baseline))
        assert proc.returncode == 0
        payload = json.loads(baseline.read_text())
        assert payload["tool"] == "rtslint"
        assert payload["version"] == 1

        proc = self._run(str(bad), "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_new_instance_of_grandfathered_rule_still_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    pass\n")
        baseline = tmp_path / "baseline.json"
        self._run(str(bad), "--write-baseline", str(baseline))

        bad.write_text(
            "def f(a=[]):\n    pass\n\ndef g(b={}):\n    pass\n"
        )
        proc = self._run(str(bad), "--baseline", str(baseline))
        assert proc.returncode == 1

    def test_unknown_pragma_is_never_absorbed_by_baseline(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # rtslint: disable=bogus\n")
        baseline = tmp_path / "baseline.json"
        self._run(str(bad), "--write-baseline", str(baseline))

        proc = self._run(str(bad), "--baseline", str(baseline))
        assert proc.returncode == 1
        assert "unknown-pragma" in proc.stdout

    def test_missing_baseline_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        proc = self._run(str(bad), "--baseline", str(tmp_path / "nope.json"))
        assert proc.returncode == 2
