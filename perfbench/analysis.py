"""Arithmetic of the repository benchmark.

Pure functions over the raw samples avm_perfbench writes: the percentile
rule, span self time, open-loop latency, and the reduction of a run into
the metrics BENCHMARK.json names. test_analysis.py checks them on synthetic
inputs.
"""

import bisect
import math
import statistics

MIN_BEYOND = 10          # a percentile needs this many samples above it
MIB = float(1 << 20)


def query_limit_ms(raw):
    """Latency limit of an open-loop query: one period of its reader. A
    query slower than that from its due time makes the reader's next query
    start late, so the offered load is no longer being served."""
    return 1e3 / raw["config"]["reader_hz"]


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values`, or None when fewer than
    `min_beyond` samples lie above it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def histogram_percentile(buckets, q, min_beyond=MIN_BEYOND):
    """Upper bound of the histogram bucket holding the nearest-rank
    q-quantile; buckets are [upper_bound, count] pairs in ascending order."""
    n = sum(count for _, count in buckets)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    seen = 0
    for upper, count in buckets:
        seen += count
        if seen >= rank:
            return upper
    return None


def open_loop(queries):
    """Latency (end - due) and generator lateness (start - due), in seconds,
    of open-loop samples given as (due_ns, start_ns, end_ns, ok)."""
    latency = [(end - due) * 1e-9 for due, _, end, _ in queries]
    lateness = [(start - due) * 1e-9 for due, start, _, _ in queries]
    return latency, lateness


def union_length(intervals):
    """Total length covered by [start, end) intervals, overlaps counted once."""
    total = 0
    covered_to = None
    for start, end in sorted(intervals):
        if covered_to is None or start > covered_to:
            total += end - start
            covered_to = end
        elif end > covered_to:
            total += end - covered_to
            covered_to = end
    return total


def _contains(outer, inner):
    return outer[3] <= inner[3] and inner[3] + inner[4] <= outer[3] + outer[4]


def span_tree(spans, control_tid):
    """Parent index of every span (None for roots).

    spans are (name, cat, tid, ts_ns, dur_ns). A span's parent is the
    innermost span enclosing it on its own thread. A span with no parent on
    its thread that the benchmark did not open itself (category "bench") ran
    on a pool thread on behalf of the control thread: its parent is the
    innermost control-thread span enclosing it outside any span of its own
    name -- the control thread drains pool tasks too, and a task it ran
    (with whatever it opened inside) is a sibling of the pool's tasks, not
    their parent."""
    parents = [None] * len(spans)
    by_tid = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s[2], []).append(i)
    for indices in by_tid.values():
        indices.sort(key=lambda i: (spans[i][3], -spans[i][4], i))
        stack = []
        for i in indices:
            while stack and not _contains(spans[stack[-1]], spans[i]):
                stack.pop()
            parents[i] = stack[-1] if stack else None
            stack.append(i)
    control = by_tid.get(control_tid, [])
    starts = [spans[i][3] for i in control]
    for i, s in enumerate(spans):
        if parents[i] is not None or s[1] == "bench" or s[2] == control_tid:
            continue
        k = bisect.bisect_right(starts, s[3]) - 1
        candidate = control[k] if k >= 0 else None
        while candidate is not None and not _contains(spans[candidate], s):
            candidate = parents[candidate]
        twin = candidate
        while twin is not None:
            if spans[twin][0] == s[0]:
                candidate = parents[twin]
            twin = parents[twin]
        parents[i] = candidate
    return parents


def self_times(spans, parents):
    """Duration of each span minus the union of its children's intervals,
    clipped to the span, in nanoseconds."""
    children = [[] for _ in spans]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    result = []
    for i, s in enumerate(spans):
        lo, hi = s[3], s[3] + s[4]
        covered = union_length(
            (max(lo, spans[c][3]), min(hi, spans[c][3] + spans[c][4]))
            for c in children[i])
        result.append(s[4] - covered)
    return result


def root_of(i, parents):
    while parents[i] is not None:
        i = parents[i]
    return i


def ancestor_named(i, name, spans, parents):
    """Nearest proper ancestor of span i called `name`, or None."""
    i = parents[i]
    while i is not None and spans[i][0] != name:
        i = parents[i]
    return i


def join_skew(spans, parents):
    """Median over exec.joins phases of slowest node ÷ mean node."""
    nodes = {}
    for i, s in enumerate(spans):
        if s[0] != "exec.node_joins":
            continue
        phase = ancestor_named(i, "exec.joins", spans, parents)
        if phase is not None:
            nodes.setdefault(phase, []).append(s[4])
    ratios = [max(d) / statistics.mean(d) for d in nodes.values()
              if statistics.mean(d) > 0]
    return statistics.median(ratios) if ratios else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.mean(values) if values else 0.0


def _required(value, what):
    if value is None:
        raise ValueError("too few samples for " + what)
    return value


def by_dataset(raw):
    """The run's sequences grouped by dataset, in the order the run first
    met each. Every dataset must have run at least once."""
    groups = {}
    for s in raw["sequences"]:
        groups.setdefault(s["seed"], []).append(s)
    if len(groups) != raw["config"]["datasets"]:
        raise ValueError("the run did not finish one round of datasets")
    return list(groups.values())


# The calls a sequence times: set-up, then maintenance. A key holds one wall
# time per sequence, or a list of one per call in the order they ran.
SETUP_CALLS = ("generate_s", "ingest_s", "materialize_s", "buffer_register_s")
MAINT_CALLS = ("batch_s", "delete_s", "publish_s", "rebalance_s")


def fastest_total_s(group, keys):
    """Sum over the calls named by `keys` of each call's fastest repeat among
    the sequences of one dataset. Other processes on a shared host only ever
    add time, so a call's fastest repeat is the closest a run gets to the
    code's own cost."""
    total = 0.0
    for key in keys:
        repeats = [s[key] for s in group]
        if isinstance(repeats[0], list):
            total += sum(min(call) for call in zip(*repeats))
        else:
            total += min(repeats)
    return total


def best_wall_s(raw):
    """Mean over the run's datasets of the fastest maintenance wall."""
    return _mean([fastest_total_s(g, MAINT_CALLS) for g in by_dataset(raw)])


def end_to_end(raw):
    """The end-to-end metrics of one untraced run: (name -> (value, unit)).

    Timings sum each call's fastest repeat within a dataset and average over
    the datasets; batch_p50_s is the median over every (dataset, batch) of
    that ApplyBatch call's fastest repeat."""
    groups = by_dataset(raw)
    walls = [fastest_total_s(g, MAINT_CALLS) for g in groups]
    batches = [min(call) for g in groups
               for call in zip(*(s["batch_s"] for s in g))]
    return {
        "setup_s": (_mean([fastest_total_s(g, SETUP_CALLS) for g in groups]),
                    "s"),
        "maint_wall_s": (_mean(walls), "s"),
        "maint_cells_per_s": (_ratio(sum(g[0]["cells"] for g in groups),
                                     sum(walls)), "1/s"),
        "batch_p50_s": (_required(percentile(batches, 0.5), "batch_p50_s"),
                        "s"),
        # Exact per dataset; the mean over the run's datasets averages out
        # the inputs' own spread.
        "sim_makespan_s": (_mean([g[0]["sim_makespan_s"] for g in groups]),
                           "s"),
        "peak_rss_mib": (raw["sequences"][0]["peak_rss_bytes"] / MIB, "MiB"),
    }


def serving(raw):
    """Operation outcomes of one untraced run, including the serving tail."""
    seqs = raw["sequences"]
    deletes = [d for s in seqs for d in s["delete_s"]]
    latency, lateness = open_loop(raw["queries"])
    has_queries = bool(raw["queries"])
    limit_ms = query_limit_ms(raw) if has_queries else 0.0
    misses = sum(1 for (_, _, _, ok), lat in zip(raw["queries"], latency)
                 if not ok or lat * 1e3 > limit_ms)
    attempted, failed = outcome_counts(raw)
    service = raw.get("calibration", {}).get("service_s", [])
    wall = raw.get("calibration", {}).get("wall_s", 0.0)
    saturation_hz = _ratio(len(service), wall)
    offered_hz = raw["config"]["reader_hz"] * raw["provenance"][
        "reader_threads"]
    ms = 1e3
    return {
        "delete_p50_s": (_required(percentile(deletes, 0.5), "delete_p50_s")
                         if deletes else 0.0, "s"),
        "query_p50_ms": (_required(percentile(latency, 0.5), "query_p50_ms")
                         * ms if has_queries else 0.0, "ms"),
        "query_p99_ms": (_required(percentile(latency, 0.99), "query_p99_ms")
                         * ms if has_queries else 0.0, "ms"),
        "query_miss_frac": (misses / len(latency) if has_queries else 0.0,
                            "ratio"),
        "failed_frac": (failed / attempted if attempted else 0.0, "ratio"),
        "loadgen.late_p99_ms": ((percentile(lateness, 0.99) or 0.0) * ms,
                                "ms"),
        # Closed-loop calibration on the base epoch, off every clock.
        "serve.closed_loop_p50_ms": ((percentile(service, 0.5) or 0.0) * ms,
                                     "ms"),
        "serve.saturation_hz": (saturation_hz, "1/s"),
        "serve.offered_load_frac": (_ratio(offered_hz, saturation_hz),
                                    "ratio"),
        "samples.sequences": (len(seqs), "count"),
        "samples.batches": (sum(len(s["batch_s"]) for s in seqs), "count"),
        "samples.queries": (len(latency), "count"),
    }


def outcome_counts(raw):
    """(attempted, failed) operations: maintenance calls and queries."""
    return (sum(s["attempted"] for s in raw["sequences"]),
            sum(s["failed"] for s in raw["sequences"]))


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(traced, untraced):
    """The per-layer metrics: spans and counters of the traced run, report
    fields and benchmark-side timings per sequence, and the operation
    outcomes of the untraced run."""
    seqs = traced["sequences"]
    n = len(seqs)
    spans = [tuple(s) for s in traced["spans"]]
    control = next((s[2] for s in spans if s[0] == "bench.maintain"), None)
    parents = span_tree(spans, control)
    selfs = self_times(spans, parents)
    stage = {}
    for i, s in enumerate(spans):
        root = spans[root_of(i, parents)][0]
        if root in ("bench.maintain", "bench.query"):
            stage[s[0]] = stage.get(s[0], 0) + selfs[i]

    def stage_s(name):
        return stage.get(name, 0) * 1e-9 / n

    # Node joins run concurrently on pool threads; their time is the span
    # of wall-clock they cover, not the sum of their durations.
    node_joins = union_length(
        (s[3], s[3] + s[4]) for i, s in enumerate(spans)
        if s[0] == "exec.node_joins" and
        spans[root_of(i, parents)][0] == "bench.maintain")

    counters = traced["metrics"]["counters"]

    def per_seq(key):
        return sum(s[key] for s in seqs) / n

    def per_seq_total(key):  # `key` holds one wall time per call
        return sum(sum(s[key]) for s in seqs) / n

    def count(name):
        return counters.get(name, 0) / n

    batch_total = per_seq_total("batch_s")
    triples_s, plan_s, exec_s = (per_seq("triples_s"), per_seq("plan_s"),
                                 per_seq("exec_s"))
    pool_hist = traced["metrics"]["histograms"].get("pool.task_seconds", {})
    m = {
        "setup.generate_s": (_median([s["generate_s"] for s in seqs]), "s"),
        "setup.ingest_s": (_median([s["ingest_s"] for s in seqs]), "s"),
        "setup.materialize_s": (_median([s["materialize_s"] for s in seqs]),
                                "s"),
        "maintenance.triples_s": (triples_s, "s"),
        "maintenance.plan_s": (plan_s, "s"),
        "maintenance.exec_s": (exec_s, "s"),
        "maintenance.other_s": (batch_total - triples_s - plan_s - exec_s,
                                "s"),
        # Share of the insert (ApplyBatch) wall time.
        "maintenance.planner_share": (_ratio(triples_s + plan_s, batch_total),
                                      "ratio"),
        "maintenance.pairs": (per_seq("pairs"), "count"),
        "maintenance.triples": (per_seq("triples"), "count"),
        "maintenance.bytes_transferred": (per_seq("bytes_transferred"),
                                          "bytes"),
        "maintenance.bytes_joined": (per_seq("bytes_joined"), "bytes"),
        "maintenance.base_chunks_moved": (per_seq("base_chunks_moved"),
                                          "count"),
        "deletions.retraction_joins": (per_seq("retraction_joins"), "count"),
        "deletions.s": (per_seq_total("delete_s"), "s"),
    }
    for name in ("plan.stage1", "plan.stage2", "plan.stage3", "maint.split",
                 "maint.ingest", "maint.modifications", "exec.transfers",
                 "exec.view_merge", "exec.delta_fold",
                 "exec.cleanup", "serve.query"):
        m[name + "_s"] = (stage_s(name), "s")
    m["exec.node_joins_s"] = (node_joins * 1e-9 / n, "s")
    m["exec.node_joins_skew"] = (join_skew(spans, parents), "ratio")
    for name in ("join.scan_pairs", "join.probe_pairs", "join.scanned_cells",
                 "join.probes", "join.interior_cells", "join.boundary_cells",
                 "store.chunks_aliased", "store.chunks_deep_copied",
                 "store.cow_breaks", "chunk.densified", "buffer.evictions",
                 "buffer.reloads", "pool.tasks_run"):
        m[name] = (count(name), "count")
    m["join.interior_share"] = (_ratio(
        counters.get("join.interior_cells", 0),
        counters.get("join.interior_cells", 0) +
        counters.get("join.boundary_cells", 0)), "ratio")
    m["shape_cache.hit_ratio"] = (_ratio(
        counters.get("shape_cache.hits", 0),
        counters.get("shape_cache.hits", 0) +
        counters.get("shape_cache.misses", 0)), "ratio")
    m["chunk_pool.hit_ratio"] = (_ratio(
        counters.get("chunk_pool.hits", 0),
        counters.get("chunk_pool.hits", 0) +
        counters.get("chunk_pool.misses", 0)), "ratio")
    m["buffer.bytes_reloaded"] = (count("buffer.reloaded_bytes"), "bytes")
    m["buffer.rebalance_s"] = (per_seq_total("rebalance_s"), "s")
    m["buffer.resident_mib"] = (per_seq("resident_bytes") / MIB, "MiB")
    m["serve.publish_s"] = (per_seq_total("publish_s"), "s")
    m["serve.retire_lag_max_s"] = (max(s["retire_lag_max_s"] for s in seqs),
                                   "s")
    m["serve.epochs_live_max"] = (traced["samples"]["epochs_live_max"],
                                  "count")
    m["pool.task_p50_s"] = (histogram_percentile(
        pool_hist.get("buckets", []), 0.5) or 0.0, "s")
    m["pool.queue_depth_max"] = (traced["samples"]["queue_depth_max"],
                                 "count")
    m["trace.overhead_frac"] = (_ratio(best_wall_s(traced),
                                       best_wall_s(untraced)) - 1.0, "ratio")
    outcomes = serving(untraced)
    m.update(outcomes)
    return m


def correct(raw):
    """Every sequence's view matched recomputation (and, when serving, the
    last epoch matched the view)."""
    return bool(raw["sequences"]) and all(
        s["view_matches"] and s["served_matches"] for s in raw["sequences"])
