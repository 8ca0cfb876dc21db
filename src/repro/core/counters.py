"""Software performance counters for the set-algebra layer.

GMS integrates with PAPI to read hardware counters (paper, Listing 4 and
section 4.3).  A pure-Python reproduction has no portable access to hardware
counters, so the set-algebra layer maintains *software* counters instead:
every set operation records how many elements it touched (a proxy for memory
words read) and how many it produced (a proxy for words written).  The
:mod:`repro.runtime.papi` facade converts these counters into the
PAPI-flavoured quantities used by the paper's machine-efficiency analysis
(section 8.8), e.g. simulated stalled CPU cycles.

Counter units (normative)
-------------------------
``elements_read``/``elements_written`` count **elements** (set members), a
representation-independent unit: every backend records ``|A| + |B|`` reads
per bulk operation and ``|result|`` writes for materializing operations
(``*_count`` operations write nothing); a point operation records one
read, plus one write when it actually modifies the set (``add`` of an
absent element, ``remove`` of a present one).  Identical operation sequences on
identical inputs therefore produce identical deltas across all exact
backends — the property the cross-backend regression tests pin.  A bulk
call over ``n`` operands (``SetBase.intersect_count_many`` or the pivot
scan ``SetBase.intersect_count_argmax``) records exactly what its ``n``
per-operand ``intersect_count`` operations would: ``n`` set operations
and the same reads and writes.  The pass instruction
``SetBase.intersect_count_pairs`` over ``n`` pairs records what its
``n`` per-pair ``intersect_count`` operations would; its default is one
``intersect_count_many`` per run of equal ``u``, and the ``bitset`` and
``sorted`` fast paths make one record call for the whole pass.  The
Tomita step ``SetBase.pivot_branch`` records what its per-operation
sequence would: the pivot scan, one ``diff``, and per child two ``intersect``
operations plus the ``remove``/``add`` point operations that move the
child from ``P`` to ``X``.  BK's subtree ``SetBase.maximal_clique_count``
records what its per-step recursion would, one such step per call that
is no leaf (a leaf records nothing); the ``bitset`` and ``hash`` fast
paths make one ``record_step`` call per subtree with those sums.  The
kClist step ``SetBase.clique_count``
records what its per-operation recursion would: one intersection per
child ``A ∩ N(v)`` (``|A| + |N(v)|`` reads, ``|child|`` writes, whether
it builds the child or refills it by ``intersect_assign``), nothing below
an empty child, and at the last level one ``intersect_count_many`` per
candidate set.  ``SetBase.clique_branch`` records, by each yield, that
child's intersection (an ``intersect_count`` at ``levels == 1``) plus its
``clique_count``.  The ``bitset`` and ``hash`` fast paths make one
record call per ``clique_count`` call or per yield with those sums.
The pass instruction ``SetBase.clique_count_arcs`` returns, per arc
``(u, v)`` of a graph, the count ``clique_branch`` yields for ``v`` and
that yield's ``elements_read`` delta; its default consumes each
vertex's ``clique_branch``, so it records what they record.  A fast
path (``bitset`` at ``levels == 2``) records what the default records
over the whole pass, in one call.

The counters are global on purpose: they mirror how PAPI instruments a whole
parallel region rather than a single data structure.  Use
:func:`snapshot` / :func:`Snapshot.delta` to meter a region.
"""

from __future__ import annotations

from dataclasses import dataclass


class Counters:
    """Mutable global counter block.

    Attributes
    ----------
    set_ops:
        Number of bulk set operations (intersections, unions, differences).
    point_ops:
        Number of fine-grained operations (``contains``, ``add``, ``remove``).
    elements_read:
        Elements touched as operation inputs — the memory-read proxy.
        Always cardinalities (see the module docstring), never words.
    elements_written:
        Elements materialized as operation outputs — the memory-write proxy.
    sketch_builds:
        Sketch constructions from raw member arrays (Bloom filter fills,
        KMV signature hashes) — the metric behind the incremental-pivot
        regression tests: maintaining a sketch incrementally must not
        rebuild it from scratch once per recursive call.
    payload_bytes_shipped:
        Bytes the parallel runtime shipped *to* pool workers: the pickled
        arguments of every pool task.  A pool's warm state reaches its
        workers by fork inheritance and adds nothing here.  Recorded
        parent-side only (workers never ship payloads), so worker counter
        deltas carry 0.
    payload_tasks:
        Number of pool tasks shipped; ``payload_bytes_shipped /
        payload_tasks`` is the bench's payload-bytes-per-task metric.
    """

    __slots__ = ("set_ops", "point_ops", "elements_read", "elements_written",
                 "sketch_builds", "payload_bytes_shipped", "payload_tasks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.set_ops = 0
        self.point_ops = 0
        self.elements_read = 0
        self.elements_written = 0
        self.sketch_builds = 0
        self.payload_bytes_shipped = 0
        self.payload_tasks = 0

    # The record methods are deliberately tiny: they sit on the hot path
    # of every set operation.
    def record_bulk(self, read: int, written: int, ops: int = 1) -> None:
        """Record *ops* bulk set operations touching *read* inputs in total.

        One call accounts a whole operation, or a whole bulk instruction.
        """
        self.set_ops += ops
        self.elements_read += read
        self.elements_written += written

    def record_step(self, ops: int, points: int, read: int,
                    written: int) -> None:
        """Record *ops* bulk and *points* point operations in one call.

        A bulk instruction that mixes both kinds (a Tomita step's
        children: two intersections each, then a ``remove`` and an
        ``add``) accounts them together; *read* and *written* are the
        sums over all of them.
        """
        self.set_ops += ops
        self.point_ops += points
        self.elements_read += read
        self.elements_written += written

    def record_point(self, read: int = 1) -> None:
        """Record one point operation (membership test, add, remove)."""
        self.point_ops += 1
        self.elements_read += read

    def record_sketch_build(self) -> None:
        """Record one from-scratch sketch construction (full member hash)."""
        self.sketch_builds += 1

    def record_payload(self, nbytes: int) -> None:
        """Record one pool task whose arguments pickle to *nbytes*."""
        self.payload_bytes_shipped += nbytes
        self.payload_tasks += 1

    def absorb(self, delta: "Snapshot") -> None:
        """Fold a :class:`Snapshot` delta into this block.

        The parallel suite runner uses this to merge per-worker counter
        deltas back into the parent process's global block, so process-wide
        totals stay meaningful whether the cells ran in-process or in a
        worker pool.
        """
        self.set_ops += delta.set_ops
        self.point_ops += delta.point_ops
        self.elements_read += delta.elements_read
        self.elements_written += delta.elements_written
        self.sketch_builds += delta.sketch_builds
        self.payload_bytes_shipped += delta.payload_bytes_shipped
        self.payload_tasks += delta.payload_tasks

    @property
    def memory_traffic(self) -> int:
        """Total element traffic — the quantity the stall model consumes."""
        return self.elements_read + self.elements_written


@dataclass(frozen=True)
class Snapshot:
    """Immutable copy of the counter block at one instant."""

    set_ops: int
    point_ops: int
    elements_read: int
    elements_written: int
    sketch_builds: int = 0
    payload_bytes_shipped: int = 0
    payload_tasks: int = 0

    def delta(self, later: "Snapshot") -> "Snapshot":
        """Return the counter increments between ``self`` and *later*."""
        return Snapshot(
            set_ops=later.set_ops - self.set_ops,
            point_ops=later.point_ops - self.point_ops,
            elements_read=later.elements_read - self.elements_read,
            elements_written=later.elements_written - self.elements_written,
            sketch_builds=later.sketch_builds - self.sketch_builds,
            payload_bytes_shipped=(later.payload_bytes_shipped
                                   - self.payload_bytes_shipped),
            payload_tasks=later.payload_tasks - self.payload_tasks,
        )

    def merge(self, other: "Snapshot") -> "Snapshot":
        """Elementwise sum of two deltas.

        Merging is associative and commutative (it is integer addition per
        field), which is what makes sharded execution safe: the merge of
        per-worker deltas equals the sequential totals regardless of how
        the cells were chunked or in which order the shards complete.
        """
        return Snapshot(
            set_ops=self.set_ops + other.set_ops,
            point_ops=self.point_ops + other.point_ops,
            elements_read=self.elements_read + other.elements_read,
            elements_written=self.elements_written + other.elements_written,
            sketch_builds=self.sketch_builds + other.sketch_builds,
            payload_bytes_shipped=(self.payload_bytes_shipped
                                   + other.payload_bytes_shipped),
            payload_tasks=self.payload_tasks + other.payload_tasks,
        )

    __add__ = merge

    @classmethod
    def zero(cls) -> "Snapshot":
        """The merge identity."""
        return cls(0, 0, 0, 0, 0)

    @property
    def memory_traffic(self) -> int:
        return self.elements_read + self.elements_written


#: The process-wide counter block used by every set implementation.
COUNTERS = Counters()


def snapshot() -> Snapshot:
    """Capture the current global counter values."""
    return Snapshot(
        set_ops=COUNTERS.set_ops,
        point_ops=COUNTERS.point_ops,
        elements_read=COUNTERS.elements_read,
        elements_written=COUNTERS.elements_written,
        sketch_builds=COUNTERS.sketch_builds,
        payload_bytes_shipped=COUNTERS.payload_bytes_shipped,
        payload_tasks=COUNTERS.payload_tasks,
    )


def merge_snapshots(snapshots) -> Snapshot:
    """Merge an iterable of :class:`Snapshot` deltas into one total."""
    total = Snapshot.zero()
    for snap in snapshots:
        total = total.merge(snap)
    return total


def reset() -> None:
    """Zero the global counters (start of a measured region)."""
    COUNTERS.reset()
