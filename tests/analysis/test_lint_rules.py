"""Per-rule fixtures: every shipped rule catches its positive snippet
and passes its negative, on any path, with no way to silence it."""

import textwrap

from repro.analysis.lint import lint_source

DET_PATH = "src/repro/sim/fake.py"
"""A replayed-layer path (the pack has no path scopes; any path would do)."""
PLAIN_PATH = "src/repro/tools/fake.py"


def lint(source, path=PLAIN_PATH):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestDET001UnseededRandomness:
    def test_stdlib_random_flagged(self):
        findings = lint("""\
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """)
        assert rule_ids(findings) == ["DET001"]
        assert "random.uniform" in findings[0].message

    def test_from_import_resolved(self):
        findings = lint("""\
            from random import randint

            value = randint(0, 10)
            """)
        assert rule_ids(findings) == ["DET001"]

    def test_numpy_legacy_global_state_flagged(self):
        findings = lint("""\
            import numpy as np

            np.random.seed(0)
            draws = np.random.uniform(size=4)
            """)
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_unseeded_default_rng_flagged(self):
        findings = lint("""\
            import numpy as np

            rng = np.random.default_rng()
            """)
        assert rule_ids(findings) == ["DET001"]
        assert "OS entropy" in findings[0].message

    def test_seeded_generator_passes(self):
        findings = lint("""\
            import numpy as np

            def make(seed):
                rng = np.random.default_rng(seed)
                return rng.uniform(0.0, 1.0)
            """)
        assert findings == []

    def test_seeded_stdlib_random_instance_passes(self):
        findings = lint("""\
            import random

            rng = random.Random(7)
            """)
        assert findings == []

    def test_local_name_shadowing_not_resolved(self):
        findings = lint("""\
            def run(random):
                return random.uniform(0.0, 1.0)
            """)
        assert findings == []

    def test_runtime_module_is_not_exempt(self):
        findings = lint("""\
            import numpy as np

            rng = np.random.default_rng()
            """, path="src/repro/runtime/shard.py")
        assert rule_ids(findings) == ["DET001"]

    def test_justified_noqa_comment_does_not_silence(self):
        findings = lint("""\
            import numpy as np

            rng = np.random.default_rng()  # repro: noqa[DET001] -- interactive demo only
            """)
        assert rule_ids(findings) == ["DET001"]


class TestDET002WallClock:
    def test_wall_clock_in_deterministic_scope_flagged(self):
        findings = lint("""\
            import time

            def stamp():
                return time.time()
            """, path=DET_PATH)
        assert rule_ids(findings) == ["DET002"]

    def test_datetime_now_flagged(self):
        findings = lint("""\
            from datetime import datetime

            def stamp():
                return datetime.now()
            """, path=DET_PATH)
        assert rule_ids(findings) == ["DET002"]

    def test_os_environ_read_flagged_once(self):
        findings = lint("""\
            import os

            fast = os.environ.get("FAST", "")
            """, path=DET_PATH)
        assert rule_ids(findings) == ["DET002"]
        assert "os.environ" in findings[0].message

    def test_wall_clock_outside_replayed_layers_flagged(self):
        findings = lint("""\
            import time

            def stamp():
                return time.time()
            """, path="src/repro/testbed/fake.py")
        assert rule_ids(findings) == ["DET002"]

    def test_monotonic_perf_counter_passes(self):
        findings = lint("""\
            import time

            def tick():
                return time.perf_counter()
            """, path=DET_PATH)
        assert findings == []


class TestDET003SetOrdering:
    def test_join_over_set_flagged(self):
        findings = lint("""\
            def report(entries):
                kinds = {e.kind for e in entries}
                return ", ".join(kinds)
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_list_comp_over_set_flagged(self):
        findings = lint("""\
            def rows(labels):
                wanted = set(labels)
                return [label.upper() for label in wanted]
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_accumulating_loop_over_set_flagged(self):
        findings = lint("""\
            def collect(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_list_of_set_flagged(self):
        findings = lint("""\
            def order(seen):
                return list(seen & {1, 2, 3})
            """)
        assert rule_ids(findings) == ["DET003"]

    def test_sorted_set_passes(self):
        findings = lint("""\
            def report(entries):
                kinds = {e.kind for e in entries}
                return ", ".join(sorted(kinds))
            """)
        assert findings == []

    def test_reassigned_name_not_tracked(self):
        findings = lint("""\
            def report(entries):
                kinds = set(entries)
                kinds = sorted(kinds)
                return ", ".join(kinds)
            """)
        assert findings == []

    def test_dict_iteration_passes(self):
        findings = lint("""\
            def report(counts):
                return ", ".join(f"{k}={v}" for k, v in counts.items())
            """)
        assert findings == []

    def test_membership_and_order_insensitive_use_passes(self):
        findings = lint("""\
            def tally(items):
                seen = set(items)
                return len(seen), max(seen)
            """)
        assert findings == []


class TestDET004UnorderedReduction:
    def test_sum_over_set_flagged(self):
        findings = lint("""\
            def total(raw):
                weights = {w for w in raw if w > 0}
                return sum(weights)
            """)
        assert rule_ids(findings) == ["DET004"]

    def test_generator_draining_set_flagged(self):
        findings = lint("""\
            def total(raw):
                weights = set(raw)
                return sum(w * 2.0 for w in weights)
            """)
        assert rule_ids(findings) == ["DET004"]

    def test_fsum_over_set_flagged(self):
        findings = lint("""\
            import math

            def total(weights):
                return math.fsum(set(weights))
            """)
        assert rule_ids(findings) == ["DET004"]

    def test_numpy_mean_over_set_flagged(self):
        findings = lint("""\
            import numpy as np

            def average(values):
                return np.mean(set(values))
            """)
        assert rule_ids(findings) == ["DET004"]

    def test_sum_over_sorted_set_passes(self):
        findings = lint("""\
            def total(raw):
                weights = {w for w in raw if w > 0}
                return sum(sorted(weights))
            """)
        assert findings == []

    def test_sum_over_list_passes(self):
        findings = lint("""\
            def total(values):
                return sum(values)
            """)
        assert findings == []


class TestROB001SwallowedException:
    def test_bare_except_flagged(self):
        findings = lint("""\
            def run(task):
                try:
                    task()
                except:
                    return None
            """)
        assert rule_ids(findings) == ["ROB001"]
        assert "bare" in findings[0].message

    def test_broad_except_without_evidence_flagged(self):
        findings = lint("""\
            def run(task):
                try:
                    return task()
                except Exception:
                    return None
            """)
        assert rule_ids(findings) == ["ROB001"]

    def test_broad_except_in_tuple_flagged(self):
        findings = lint("""\
            def run(task):
                try:
                    return task()
                except (ValueError, Exception):
                    return None
            """)
        assert rule_ids(findings) == ["ROB001"]

    def test_reraise_passes(self):
        findings = lint("""\
            def run(task):
                try:
                    return task()
                except Exception:
                    cleanup()
                    raise
            """)
        assert findings == []

    def test_metrics_emission_passes(self):
        findings = lint("""\
            from repro.obs.metrics import get_metrics

            def run(task):
                try:
                    return task()
                except Exception:
                    get_metrics().counter("task.error").inc()
                    return None
            """)
        assert findings == []

    def test_trace_emission_passes(self):
        findings = lint("""\
            def run(task, recorder, event):
                try:
                    return task()
                except Exception:
                    recorder.record(event)
                    return None
            """)
        assert findings == []

    def test_narrow_except_passes(self):
        findings = lint("""\
            def load(path):
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return None
            """)
        assert findings == []


class TestOBS001UntypedTraceEvent:
    def test_dict_payload_flagged(self):
        findings = lint("""\
            def emit(recorder):
                recorder.record({"type": "flow", "mcs": 9})
            """)
        assert rule_ids(findings) == ["OBS001"]

    def test_wrong_arity_flagged(self):
        findings = lint("""\
            def emit(recorder, clock):
                recorder.record("ba-triggered", clock)
            """)
        assert rule_ids(findings) == ["OBS001"]

    def test_string_payload_flagged(self):
        findings = lint("""\
            def emit(recorder):
                recorder.record("something happened")
            """)
        assert rule_ids(findings) == ["OBS001"]

    def test_typed_constructor_passes(self):
        findings = lint("""\
            from repro.obs.events import FaultEvent

            def emit(recorder, clock):
                recorder.record(FaultEvent(origin="policy", kind="x", time_s=clock))
            """)
        assert findings == []

    def test_variable_event_passes(self):
        findings = lint("""\
            def emit(recorder, event):
                recorder.record(event)
            """)
        assert findings == []


class TestAPI001MutableDefault:
    def test_list_default_flagged(self):
        findings = lint("""\
            def replay(entries, gaps=[]):
                return gaps
            """)
        assert rule_ids(findings) == ["API001"]

    def test_dict_and_factory_call_defaults_flagged(self):
        findings = lint("""\
            def configure(options={}, extras=list()):
                return options, extras
            """)
        assert rule_ids(findings) == ["API001", "API001"]

    def test_keyword_only_default_flagged(self):
        findings = lint("""\
            def run(*, acc=set()):
                return acc
            """)
        assert rule_ids(findings) == ["API001"]

    def test_dataclass_field_default_flagged(self):
        findings = lint("""\
            from dataclasses import dataclass, field

            @dataclass
            class Window:
                samples: list = field(default=[])
            """)
        assert rule_ids(findings) == ["API001"]
        assert "Window" in findings[0].message

    def test_dataclass_literal_default_flagged(self):
        findings = lint("""\
            from dataclasses import dataclass

            @dataclass
            class Window:
                samples: list = []
            """)
        assert rule_ids(findings) == ["API001"]

    def test_none_default_and_factory_pass(self):
        findings = lint("""\
            from dataclasses import dataclass, field

            def replay(entries, gaps=None):
                return [] if gaps is None else gaps

            @dataclass
            class Window:
                samples: list = field(default_factory=list)
            """)
        assert findings == []


class TestSYN001Syntax:
    def test_unparseable_file_is_a_finding(self):
        findings = lint("def broken(:\n    pass\n")
        assert rule_ids(findings) == ["SYN001"]

