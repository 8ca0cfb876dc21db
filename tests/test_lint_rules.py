"""Fixture-level coverage of the ``repro lint`` rule pack.

Every rule gets the same trio: a known-bad snippet that must fire with
the right rule id on the right line, a known-good snippet that must stay
clean, and an inline-suppression case that must be honored.  The
snippets run through :func:`repro.analysis.analyze_source` with a
repo-shaped pretend path, because several rules scope on the layer the
file lives in.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source, registered_rules


def run(source: str, relpath: str, rule: str):
    return analyze_source(textwrap.dedent(source), relpath, select=[rule])


def lines(findings):
    return [f.line for f in findings]


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert sorted(registered_rules()) == [
            "GMS001", "GMS002", "GMS003", "GMS004", "GMS005",
        ]

    def test_rules_carry_titles(self):
        for rule in registered_rules().values():
            assert rule.title

    def test_unknown_rule_id_rejected(self):
        from repro.analysis import LintError

        with pytest.raises(LintError, match="GMS999"):
            analyze_source("x = 1", "src/repro/mining/x.py",
                           select=["GMS999"])


class TestGMS001SetPurity:
    BAD = """
        import numpy as np
        from numpy import setdiff1d as sd

        def shrink(cands, neigh):
            kept = np.intersect1d(cands, neigh, assume_unique=True)
            return sd(kept, neigh)
    """

    def test_flags_direct_and_aliased_calls(self):
        findings = run(self.BAD, "src/repro/mining/bad.py", "GMS001")
        assert [(f.rule, f.line) for f in findings] == [
            ("GMS001", 6), ("GMS001", 7),
        ]

    def test_alias_cannot_evade(self):
        source = """
            import numpy as secretly_numpy

            def shrink(a, b):
                return secretly_numpy.isin(a, b)
        """
        findings = run(source, "src/repro/learning/bad.py", "GMS001")
        assert lines(findings) == [5]

    def test_union_idiom_flagged(self):
        source = """
            import numpy as np

            def union(a, b):
                return np.unique(np.concatenate([a, b]))
        """
        findings = run(source, "src/repro/optimization/bad.py", "GMS001")
        assert lines(findings) == [5]

    def test_out_of_scope_layers_clean(self):
        # core/ *implements* the algebra: the same source is fine there.
        findings = run(self.BAD, "src/repro/core/impl.py", "GMS001")
        assert findings == []

    def test_clean_setbase_usage_passes(self):
        source = """
            def shrink(cands, neigh_set):
                return cands.intersect(neigh_set)
        """
        assert run(source, "src/repro/mining/good.py", "GMS001") == []

    def test_inline_suppression_honored(self):
        source = """
            import numpy as np

            def shrink(a, b):
                return np.intersect1d(a, b)  # gms: ignore[GMS001]
        """
        assert run(source, "src/repro/mining/sup.py", "GMS001") == []


class TestGMS002CounterDiscipline:
    def test_unaccounted_op_method_flagged(self):
        source = """
            import numpy as np
            from repro.core.interface import SetBase

            class Rogue(SetBase):
                def intersect(self, other):
                    return Rogue(np.intersect1d(self._d, other._d))

                def contains(self, element):
                    return element in self._d
        """
        findings = run(source, "src/repro/core/rogue.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [
            ("GMS002", 6), ("GMS002", 9),
        ]
        assert "Rogue.intersect" in findings[0].message

    def test_counters_or_delegation_pass(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Polite(SetBase):
                def intersect(self, other):
                    COUNTERS.record_bulk(len(self._d) + len(other._d), 0)
                    return self._d

                def union(self, other):
                    return other.union(self)  # delegation to an operand

                def diff(self, other):
                    return super().diff(other)  # delegation to the default

                def intersect_count(self, other):
                    a = self._coerce(other)
                    return a.intersect_count(self)  # delegation to a local

                def contains(self, element):
                    COUNTERS.record_point()
                    return element in self._d

                def cardinality(self):
                    return len(self._d)  # not an op method: exempt
        """
        assert run(source, "src/repro/core/polite.py", "GMS002") == []

    def test_raw_storage_calls_are_not_delegation(self):
        # Methods named like op methods, called on private storage, mutate
        # a raw container: they account nothing.
        source = """
            from repro.core.interface import SetBase

            class Raw(SetBase):
                def add(self, element):
                    self._d.add(int(element))

                def remove(self, element):
                    self._d.discard(int(element))

                def pivot_branch(self, X, graph, pivot=None):
                    for v in sorted(self._d - graph[pivot]._d):
                        yield v, self, X
                        self._d.remove(v)
                        X._d.add(v)
        """
        findings = run(source, "src/repro/core/raw.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [
            ("GMS002", 5), ("GMS002", 8), ("GMS002", 11),
        ]
        assert "Raw.add" in findings[0].message

    def test_bulk_instruction_without_accounting_flagged(self):
        source = """
            from repro.core.interface import SetBase

            class Bulk(SetBase):
                def intersect_count_many(self, graph, vertices):
                    return sum(len(self._d & graph[v]._d) for v in vertices)
        """
        findings = run(source, "src/repro/core/bulk.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 5)]
        assert "Bulk.intersect_count_many" in findings[0].message

    def test_bulk_instruction_recording_or_delegating_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                def intersect_count_many(self, graph, vertices):
                    COUNTERS.record_bulk(len(vertices) * len(self._d), 0,
                                         len(vertices))
                    return sum(len(self._d & graph[v]._d) for v in vertices)

            class Delegated(SetBase):
                def intersect_count_many(self, graph, vertices):
                    return sum(self.intersect_count(graph[v])
                               for v in vertices)
        """
        assert run(source, "src/repro/core/bulk.py", "GMS002") == []

    def test_pivot_instruction_without_accounting_flagged(self):
        source = """
            from repro.core.interface import SetBase

            class Pivot(SetBase):
                def intersect_count_argmax(self, graph, vertices):
                    counts = [len(self._d & graph[v]._d) for v in vertices]
                    return vertices[counts.index(max(counts))]
        """
        findings = run(source, "src/repro/core/pivot.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 5)]
        assert "Pivot.intersect_count_argmax" in findings[0].message

    def test_pivot_instruction_recording_or_delegating_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                def intersect_count_argmax(self, graph, vertices):
                    COUNTERS.record_bulk(len(vertices) * len(self._d), 0,
                                         len(vertices))
                    counts = [len(self._d & graph[v]._d) for v in vertices]
                    return vertices[counts.index(max(counts))]

            class Delegated(SetBase):
                def intersect_count_argmax(self, graph, vertices):
                    counts = [self.intersect_count(graph[v])
                              for v in vertices]
                    return vertices[counts.index(max(counts))]
        """
        assert run(source, "src/repro/core/pivot.py", "GMS002") == []

    def test_tomita_instruction_without_accounting_flagged(self):
        source = """
            from repro.core.interface import SetBase

            class Tomita(SetBase):
                def pivot_branch(self, X, graph, pivot=None):
                    for v in sorted(self._d - graph[pivot]._d):
                        b = graph[v]._d
                        yield v, Tomita(self._d & b), Tomita(X._d & b)
                        self._d -= {v}
                        X._d |= {v}
        """
        findings = run(source, "src/repro/core/tomita.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 5)]
        assert "Tomita.pivot_branch" in findings[0].message

    def test_tomita_instruction_recording_or_delegating_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                def pivot_branch(self, X, graph, pivot=None):
                    for v in sorted(self._d - graph[pivot]._d):
                        b = graph[v]._d
                        COUNTERS.record_step(2, 0, len(self._d) + len(X._d)
                                             + 2 * len(b), 0)
                        yield v, Recorded(self._d & b), Recorded(X._d & b)

            class Delegated(SetBase):
                def pivot_branch(self, X, graph, pivot=None):
                    yield from super().pivot_branch(X, graph, pivot)
        """
        assert run(source, "src/repro/core/tomita.py", "GMS002") == []

    def test_subtree_instruction_without_accounting_flagged(self):
        source = """
            from repro.core.interface import SetBase

            class Subtree(SetBase):
                def maximal_clique_count(self, X, graph):
                    if not self._d and not X._d:
                        return 1, 1, 0
                    return len(self._d), 1 + len(self._d), 1
        """
        findings = run(source, "src/repro/core/subtree.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 5)]
        assert "Subtree.maximal_clique_count" in findings[0].message

    def test_subtree_instruction_recording_or_delegating_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                def maximal_clique_count(self, X, graph):
                    COUNTERS.record_step(len(self._d) + 1, 0,
                                         len(self._d), 0)
                    return len(self._d), 1 + len(self._d), 1

            class Delegated(SetBase):
                def maximal_clique_count(self, X, graph):
                    return super().maximal_clique_count(X, graph)
        """
        assert run(source, "src/repro/core/subtree.py", "GMS002") == []

    def test_clique_instruction_without_accounting_flagged(self):
        source = """
            from repro.core.interface import SetBase

            class Kclist(SetBase):
                def clique_count(self, graph, levels):
                    if levels == 1:
                        return len(self._d)
                    return sum(Kclist(self._d & graph[v]._d)
                               .clique_count(graph, levels - 1)
                               for v in self._d)
        """
        findings = run(source, "src/repro/core/kclist.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 5)]
        assert "Kclist.clique_count" in findings[0].message

    def test_clique_instruction_delegating_passes(self):
        source = """
            from repro.core.interface import SetBase

            class Delegated(SetBase):
                def clique_branch(self, graph, levels):
                    yield from super().clique_branch(graph, levels)
        """
        assert run(source, "src/repro/core/kclist.py", "GMS002") == []

    def test_pair_instruction_without_accounting_flagged(self):
        source = """
            import numpy as np
            from repro.core.interface import SetBase

            class Rows(SetBase):
                @classmethod
                def intersect_count_pairs(cls, graph, us, vs):
                    rows = graph.matrix[us] & graph.matrix[vs]
                    return int(np.bitwise_count(rows).sum())
        """
        findings = run(source, "src/repro/core/rows.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 7)]
        assert "Rows.intersect_count_pairs" in findings[0].message

    def test_ops_kernel_call_is_no_accounting(self):
        source = """
            from repro.core.interface import SetBase
            from repro.core.ops import popcount

            class Popcounted(SetBase):
                @classmethod
                def intersect_count_pairs(cls, graph, us, vs):
                    rows = graph.matrix[us] & graph.matrix[vs]
                    return popcount(rows)
        """
        findings = run(source, "src/repro/core/rows.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 7)]

    def test_pair_instruction_recording_or_delegating_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                @classmethod
                def intersect_count_pairs(cls, graph, us, vs):
                    COUNTERS.record_bulk(0, 0, len(us))
                    return sum(len(graph[u]._d & graph[v]._d)
                               for u, v in zip(us, vs))

            class Delegated(SetBase):
                @classmethod
                def intersect_count_pairs(cls, graph, us, vs):
                    return super().intersect_count_pairs(graph, us, vs)
        """
        assert run(source, "src/repro/core/rows.py", "GMS002") == []

    def test_arc_pass_instruction_without_accounting_flagged(self):
        source = """
            import numpy as np
            from repro.core.interface import SetBase

            class Arcs(SetBase):
                @classmethod
                def clique_count_arcs(cls, graph, levels):
                    offsets, targets = graph.arcs
                    counts = np.zeros(len(targets), dtype=np.int64)
                    return counts, counts.copy()
        """
        findings = run(source, "src/repro/core/arcs.py", "GMS002")
        assert [(f.rule, f.line) for f in findings] == [("GMS002", 7)]
        assert "Arcs.clique_count_arcs" in findings[0].message

    def test_arc_pass_instruction_recording_or_delegating_passes(self):
        source = """
            import numpy as np
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            class Recorded(SetBase):
                @classmethod
                def clique_count_arcs(cls, graph, levels):
                    offsets, targets = graph.arcs
                    COUNTERS.record_bulk(0, 0, len(targets))
                    counts = np.zeros(len(targets), dtype=np.int64)
                    return counts, counts.copy()

            class Delegated(SetBase):
                @classmethod
                def clique_count_arcs(cls, graph, levels):
                    return super().clique_count_arcs(graph, levels)
        """
        assert run(source, "src/repro/core/arcs.py", "GMS002") == []

    def test_aliased_counters_import_recognized(self):
        source = """
            from repro.core import counters as _counters
            from repro.core.interface import SetBase

            class Aliased(SetBase):
                def add(self, element):
                    _counters.COUNTERS.record_point()
                    self._d.add(element)
        """
        assert run(source, "src/repro/core/aliased.py", "GMS002") == []

    def test_module_helper_with_counters_passes(self):
        source = """
            from repro.core.counters import COUNTERS
            from repro.core.interface import SetBase

            def _kernel(a, b):
                COUNTERS.record_bulk(len(a) + len(b), 0)
                return a

            class Helper(SetBase):
                def intersect(self, other):
                    return Helper(_kernel(self._d, other._d))
        """
        assert run(source, "src/repro/core/helper.py", "GMS002") == []

    def test_abstract_bodies_exempt(self):
        source = """
            from repro.core.interface import SetBase

            class Iface(SetBase):
                def intersect(self, other):
                    \"\"\"Subclasses implement.\"\"\"

                def union(self, other):
                    raise NotImplementedError
        """
        assert run(source, "src/repro/core/iface.py", "GMS002") == []

    def test_transitive_local_subclass_checked(self):
        source = """
            from repro.core.interface import SetBase

            class Mid(SetBase):
                pass

            class Leaf(Mid):
                def remove(self, element):
                    self._d.discard(element)
        """
        findings = run(source, "src/repro/core/leaf.py", "GMS002")
        assert lines(findings) == [8]

    def test_imported_backend_subclass_checked(self):
        source = """
            from repro.core.sorted_set import SortedSet

            class Sub(SortedSet):
                def add(self, element):
                    self._data = self._data

                def remove(self, element):
                    super().remove(element)
        """
        findings = run(source, "src/repro/core/sub.py", "GMS002")
        assert lines(findings) == [5]

    def test_non_setbase_class_ignored(self):
        source = """
            class Plain:
                def intersect(self, other):
                    return [x for x in self.items if x in other.items]
        """
        assert run(source, "src/repro/core/plain.py", "GMS002") == []


class TestGMS003ResourceLifecycle:
    def test_orphan_creation_flagged(self):
        source = """
            from multiprocessing import shared_memory

            def leak(nbytes):
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
                return seg.name
        """
        findings = run(source, "src/repro/platform/leak.py", "GMS003")
        assert [(f.rule, f.line) for f in findings] == [("GMS003", 5)]
        assert "SharedMemory" in findings[0].message

    def test_try_finally_release_passes(self):
        source = """
            from multiprocessing import shared_memory

            def careful(nbytes):
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
                try:
                    return bytes(seg.buf)
                finally:
                    seg.close()
                    seg.unlink()
        """
        assert run(source, "src/repro/platform/ok.py", "GMS003") == []

    def test_with_statement_passes(self):
        source = """
            from contextlib import closing
            from multiprocessing import shared_memory

            def scoped(nbytes):
                with shared_memory.SharedMemory(create=True,
                                                size=nbytes) as seg:
                    return bytes(seg.buf)

            def wrapped(nbytes):
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
                with closing(seg):
                    return bytes(seg.buf)
        """
        assert run(source, "src/repro/platform/ok2.py", "GMS003") == []

    def test_ownership_transfer_by_return_passes(self):
        source = """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
        """
        assert run(source, "src/repro/platform/ok3.py", "GMS003") == []

    def test_owner_class_slot_passes(self):
        source = """
            from multiprocessing import shared_memory

            class Owner:
                def __init__(self, nbytes):
                    self._seg = shared_memory.SharedMemory(
                        create=True, size=nbytes)

                def close(self):
                    self._seg.close()
                    self._seg.unlink()
        """
        assert run(source, "src/repro/platform/owner.py", "GMS003") == []

    def test_finalizer_registration_passes(self):
        source = """
            import weakref
            from multiprocessing import shared_memory

            def backstopped(owner, nbytes):
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
                weakref.finalize(owner, seg.unlink)
                return seg.name
        """
        assert run(source, "src/repro/platform/fin.py", "GMS003") == []

    def test_pool_never_shut_down_flagged(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor
            import concurrent.futures

            def orphan_pool(tasks):
                pool = ProcessPoolExecutor(max_workers=2)
                return [pool.submit(task) for task in tasks]

            def orphan_threads(fn):
                threads = concurrent.futures.ThreadPoolExecutor(1)
                return threads.submit(fn)
        """
        findings = run(source, "src/repro/platform/exp.py", "GMS003")
        assert lines(findings) == [6, 10]
        assert "ProcessPoolExecutor" in findings[0].message
        assert "ThreadPoolExecutor" in findings[1].message

    def test_pool_under_with_passes(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def scoped(fn, items):
                with ProcessPoolExecutor(max_workers=2) as pool:
                    return list(pool.map(fn, items))
        """
        assert run(source, "src/repro/platform/pw.py", "GMS003") == []

    def test_pool_shut_down_in_finally_passes(self):
        source = """
            from concurrent.futures import ThreadPoolExecutor

            def careful(fn):
                pool = ThreadPoolExecutor(max_workers=1)
                try:
                    return pool.submit(fn).result()
                finally:
                    pool.shutdown(wait=True)
        """
        assert run(source, "src/repro/platform/pf.py", "GMS003") == []

    def test_pool_on_owner_with_close_passes(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            class Session:
                def __init__(self):
                    self._pool = None

                def ensure_pool(self):
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(max_workers=2)
                    return self._pool

                def close(self):
                    if self._pool is not None:
                        self._pool.shutdown(wait=True)
        """
        assert run(source, "src/repro/platform/po.py", "GMS003") == []

    def test_inline_suppression_honored(self):
        source = """
            from multiprocessing import shared_memory

            def intentional(nbytes):
                seg = shared_memory.SharedMemory(  # gms: ignore[GMS003]
                    create=True, size=nbytes)
                return seg
        """
        assert run(source, "src/repro/platform/sup.py", "GMS003") == []


class TestGMS004SilentSuppression:
    def test_silent_pass_and_continue_flagged(self):
        source = """
            def swallow(items):
                out = []
                for item in items:
                    try:
                        out.append(item())
                    except Exception:
                        continue
                try:
                    out.sort()
                except:
                    pass
                return out
        """
        findings = run(source, "src/repro/platform/sw.py", "GMS004")
        assert [(f.rule, f.line) for f in findings] == [
            ("GMS004", 7), ("GMS004", 11),
        ]

    def test_logged_suppression_passes(self):
        source = """
            import logging

            logger = logging.getLogger(__name__)

            def careful(fn):
                try:
                    return fn()
                except Exception:
                    logger.debug("swallowed", exc_info=True)
                    return None
        """
        assert run(source, "src/repro/platform/log.py", "GMS004") == []

    def test_suppress_helper_passes(self):
        source = """
            def teardown(segs, _suppress):
                for name, seg in segs.items():
                    try:
                        seg.close()
                    except Exception as exc:
                        _suppress("close", name, exc)
        """
        assert run(source, "src/repro/platform/sup2.py", "GMS004") == []

    def test_reraise_passes(self):
        source = """
            import os

            def staged(path, parse):
                try:
                    parse(path)
                except Exception:
                    os.remove(path)
                    raise
        """
        assert run(source, "src/repro/platform/rr.py", "GMS004") == []

    def test_narrow_handler_exempt(self):
        source = """
            def lookup(table, key):
                try:
                    return table[key]
                except KeyError:
                    return None
        """
        assert run(source, "src/repro/platform/narrow.py", "GMS004") == []

    def test_inline_suppression_honored(self):
        source = """
            def stored_and_reraised(box, fn):
                try:
                    fn()
                except BaseException as exc:  # gms: ignore[GMS004]
                    box.append(exc)
        """
        assert run(source, "src/repro/platform/box.py", "GMS004") == []


class TestGMS005Determinism:
    def test_global_rng_draws_flagged(self):
        source = """
            import random

            import numpy as np

            def jitter():
                return np.random.rand() + random.random()
        """
        findings = run(source, "src/repro/platform/rng.py", "GMS005")
        assert lines(findings) == [7, 7]
        assert all(f.rule == "GMS005" for f in findings)

    def test_seeded_generators_pass(self):
        source = """
            import random

            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                pyrng = random.Random(seed)
                return rng.integers(10), pyrng.randint(0, 9)
        """
        assert run(source, "src/repro/platform/seeded.py", "GMS005") == []

    def test_wall_clock_into_values_flagged(self):
        source = """
            from datetime import datetime

            def stamp(result):
                result["generated"] = datetime.now().isoformat()
                return result
        """
        findings = run(source, "src/repro/platform/clock.py", "GMS005")
        assert lines(findings) == [5]

    def test_time_time_timing_fields_exempt(self):
        source = """
            import time

            def measure(fn):
                start = time.time()
                fn()
                return time.time() - start
        """
        assert run(source, "src/repro/platform/timing.py", "GMS005") == []

    def test_set_iteration_flagged_but_sorted_passes(self):
        source = """
            def reassemble(parts):
                out = []
                for part in set(parts):
                    out.append(part)
                for part in sorted(set(parts)):
                    out.append(part)
                return out
        """
        findings = run(source, "src/repro/platform/iter.py", "GMS005")
        assert lines(findings) == [4]


class TestSuppressionMachinery:
    def test_bare_ignore_suppresses_all_rules(self):
        source = """
            import numpy as np

            def shrink(a, b):
                return np.intersect1d(a, b)  # gms: ignore
        """
        assert analyze_source(textwrap.dedent(source),
                              "src/repro/mining/all.py") == []

    def test_ignore_for_other_rule_does_not_suppress(self):
        source = """
            import numpy as np

            def shrink(a, b):
                return np.intersect1d(a, b)  # gms: ignore[GMS004]
        """
        findings = analyze_source(textwrap.dedent(source),
                                  "src/repro/mining/other.py",
                                  select=["GMS001"])
        assert lines(findings) == [5]

    def test_marker_inside_string_is_inert(self):
        source = '''
            import numpy as np

            DOC = "write # gms: ignore[GMS001] on the offending line"

            def shrink(a, b):
                return np.intersect1d(a, b)
        '''
        findings = analyze_source(textwrap.dedent(source),
                                  "src/repro/mining/str.py",
                                  select=["GMS001"])
        assert lines(findings) == [7]

    def test_syntax_error_raises_lint_error(self):
        from repro.analysis import LintError

        with pytest.raises(LintError, match="cannot parse"):
            analyze_source("def broken(:\n", "src/repro/mining/broken.py")
