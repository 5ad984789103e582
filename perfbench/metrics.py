"""Turns one flor_perfbench raw record into the benchmark's metrics.

Pure functions over flor_perfbench's --out JSON, so the rules are testable
without running flor (see test_perfbench.py).

Percentile rule: a tail percentile is reported only when at least ten
samples lie beyond it, so a p99 needs 1000 samples, a p95 200, a p90 100.
`tail()` walks TAIL_QUANTILES from the top and takes the first that
qualifies. Tails are printed and reported per layer, but no end-to-end
metric is a tail or a median over all ops: a workload's ops are of kinds
whose latencies lie orders of magnitude apart, so a quantile over all of
them lands in the tail of one kind and jumps with the mix. The end-to-end
latency is the geometric mean of every round trip instead; a few host
stalls barely move it. Medians are interpolated (statistics.median).
"""

import math
import statistics

TAIL_QUANTILES = (0.99, 0.95, 0.90, 0.75)
MIN_BEYOND = 10


def nearest_rank(values, q):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values):
    """(quantile, value) of the highest quantile in TAIL_QUANTILES with at
    least MIN_BEYOND samples beyond it, or None when none has."""
    for q in TAIL_QUANTILES:
        value, beyond = nearest_rank(values, q) if values else (0, 0)
        if values and beyond >= MIN_BEYOND:
            return q, value
    return None


def percentile(values, q):
    """The q-quantile, or None unless ten samples lie beyond it."""
    if not values:
        return None
    value, beyond = nearest_rank(values, q)
    return value if beyond >= MIN_BEYOND else None


def p99(values):
    return percentile(values, 0.99)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def ops_of(raw, kind=None):
    return [o for o in raw["ops"] if kind is None or o["k"] == kind]


# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.geomean", "ms"),
    ("stored_bytes_per_ckpt_byte", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def geomean(values):
    """Geometric mean of the positive values (an op that failed before its
    call has no round trip), or 0 when there are none."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(math.fsum(logs) / len(logs)) if logs else 0.0


def end_to_end(raw):
    """Every end-to-end metric of an untraced run, as {name: value}."""
    ops = ops_of(raw)
    return {
        "setup_s": median(raw["setup_s"]),
        "ops_per_s": ratio(len(ops), raw["wall_s"]),
        "op_ms.geomean": geomean([o["ms"] for o in ops]),
        "stored_bytes_per_ckpt_byte": ratio(sum(raw["root_bytes"].values()),
                                            raw["raw_ckpt_bytes"]),
        "cpu_ms_per_op": ratio(raw["cpu_s"] * 1e3, len(ops)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_op_latency(raw):
    """Rows of (metric, value-or-None, samples) for each op the run issued:
    <op>_ms.p50 and <op>_ms.p99 (None when fewer than ten lie beyond)."""
    rows = []
    for kind in ("record", "replay", "query", "exists"):
        lat = [o["ms"] for o in ops_of(raw, kind)]
        if not lat:
            continue
        rows.append((kind + "_ms.p50", median(lat), len(lat)))
        rows.append((kind + "_ms.p99", p99(lat), len(lat)))
    return rows


PER_LAYER = (
    ("service.wire.overhead_ms.p50", "ms"),
    ("service.wire.bytes_per_op", "B"),
    ("service.admission.wait_ms.p50", "ms"),
    ("service.admission.wait_ms.tail", "ms"),
    ("service.admission.steady_wait_ms.tail", "ms"),
    ("service.admission.burst_peak", "count"),
    ("flor.record.run_ms.p50", "ms"),
    ("checkpoint.materializer.bg_ms_per_ckpt", "ms"),
    ("checkpoint.materializer.ckpts_per_run", "count"),
    ("checkpoint.store.stored_per_raw", "ratio"),
    ("checkpoint.spool.bytes_per_raw", "ratio"),
    ("checkpoint.gc.passes", "count"),
    ("checkpoint.gc.failures", "count"),
    ("checkpoint.store.bucket_faults", "count"),
    ("checkpoint.store.bloom_skip_frac", "ratio"),
    ("flor.query.list_entries_per_run", "ratio"),
    ("flor.exists.fs_calls_per_probe", "count"),
    ("exec.threads.wall_ms.p50", "ms"),
    ("exec.procs.wall_ms.p50", "ms"),
    ("flor.replay_plan.merged_log_bytes", "B"),
    ("workloads.factory_ms.p50", "ms"),
    ("workloads.factory_calls_per_op", "count"),
    ("env.fs.write_bytes_per_raw", "ratio"),
    ("env.fs.write_ms_per_op", "ms"),
    ("env.fs.read_bytes_per_op", "B"),
    ("env.fs.read_ms_per_op", "ms"),
    ("env.fs.list_ms_per_op", "ms"),
    ("env.fs.delete_ops", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.self_ms_per_op.client", "ms"),
    ("trace.self_ms_per_op.service", "ms"),
    ("trace.self_ms_per_op.resolver", "ms"),
    ("trace.self_ms_per_op.factory", "ms"),
    ("trace.self_ms_per_op.fs", "ms"),
    ("trace.self_ms_per_op.fs_background", "ms"),
)


def fs_sum(raw, field, ops=None, threads=None, paths=None):
    """Sums one field (0 calls, 1 bytes, 2 nanos, 3 entries) of the fs
    counters "<op>.<path class>.<thread class>" matching the filters."""
    total = 0
    for key, cell in raw["fs"].items():
        op, path, thread = key.split(".")
        if ops and op not in ops:
            continue
        if threads and thread not in threads:
            continue
        if paths and path not in paths:
            continue
        total += cell[field]
    return total


def server_ms(op):
    """Time the server reports for a call: the admission wait plus the run
    for a record, the engine's wall time for a replay."""
    if op["k"] == "record":
        return op["wait_ms"] + op["run_ms"]
    if op["k"] == "replay":
        return op["wall_ms"]
    return None


def per_layer(raw, untraced_ops_per_s):
    """Every per-layer metric of a traced run, as {name: value}. Layers a
    workload leaves idle read 0."""
    ops = ops_of(raw)
    n = len(ops)
    records = ops_of(raw, "record")
    replays = ops_of(raw, "replay")
    raw_bytes = sum(o["raw"] for o in records)
    ckpts = sum(o["ckpts"] for o in records)
    stats = raw["stats"]
    waits = [o["wait_ms"] for o in records]
    steady_waits = [o["wait_ms"] for o in records if o.get("steady")]
    wire_overhead = [o["ms"] - server_ms(o) for o in records + replays]
    queries = ops_of(raw, "query")
    exists = ops_of(raw, "exists")
    trace = raw["trace"]
    self_s = trace["self_s"]
    write_ops = ("write", "append")

    def tail_or_zero(values):
        t = tail(values)
        return t[1] if t else 0.0

    def engine_wall(engine):
        return median([o["wall_ms"] for o in replays if o["engine"] == engine])

    m = {
        "service.wire.overhead_ms.p50": median(wire_overhead),
        "service.wire.bytes_per_op": ratio(sum(o["wire_bytes"] for o in ops), n),
        "service.admission.wait_ms.p50": median(waits),
        "service.admission.wait_ms.tail": tail_or_zero(waits),
        "service.admission.steady_wait_ms.tail": tail_or_zero(steady_waits),
        "service.admission.burst_peak": stats["burst_peak"],
        "flor.record.run_ms.p50": median([o["run_ms"] for o in records]),
        "checkpoint.materializer.bg_ms_per_ckpt": ratio(
            sum(o["mat_ms"] for o in records), ckpts),
        "checkpoint.materializer.ckpts_per_run": ratio(ckpts, len(records)),
        "checkpoint.store.stored_per_raw": ratio(
            fs_sum(raw, 1, ops=write_ops, paths=("local_ckpt",)), raw_bytes),
        "checkpoint.spool.bytes_per_raw": ratio(stats["spool_bytes"],
                                                raw_bytes),
        "checkpoint.gc.passes": stats["gc_passes"],
        "checkpoint.gc.failures": stats["gc_failures"],
        "checkpoint.store.bucket_faults": stats["bucket_faults"],
        "checkpoint.store.bloom_skip_frac": ratio(stats["bloom_skipped"],
                                                  raw["absent_probes"]),
        "flor.query.list_entries_per_run": ratio(
            sum(o["list_entries"] for o in queries),
            sum(o["runs"] for o in queries)),
        "flor.exists.fs_calls_per_probe": ratio(
            sum(o["fs_calls"] for o in exists), len(exists)),
        "exec.threads.wall_ms.p50": engine_wall("threads"),
        "exec.procs.wall_ms.p50": engine_wall("procs"),
        "flor.replay_plan.merged_log_bytes": ratio(
            sum(o["log_bytes"] for o in replays), len(replays)),
        "workloads.factory_ms.p50": median(raw["factory_ms"]),
        "workloads.factory_calls_per_op": ratio(len(raw["factory_ms"]), n),
        "env.fs.write_bytes_per_raw": ratio(
            fs_sum(raw, 1, ops=write_ops), raw_bytes),
        "env.fs.write_ms_per_op": ratio(
            fs_sum(raw, 2, ops=write_ops) / 1e6, n),
        "env.fs.read_bytes_per_op": ratio(fs_sum(raw, 1, ops=("read",)), n),
        "env.fs.read_ms_per_op": ratio(fs_sum(raw, 2, ops=("read",)) / 1e6, n),
        "env.fs.list_ms_per_op": ratio(fs_sum(raw, 2, ops=("list",)) / 1e6, n),
        "env.fs.delete_ops": fs_sum(raw, 0, ops=("delete",)),
        "trace.overhead_frac": 1.0 - ratio(ratio(n, raw["wall_s"]),
                                           untraced_ops_per_s),
        "trace.coverage_frac": ratio(trace["covered_s"], trace["rtt_s"]),
    }
    for layer in ("client", "service", "resolver", "factory", "fs",
                  "fs_background"):
        m["trace.self_ms_per_op." + layer] = ratio(
            self_s.get(layer, 0.0) * 1e3, n)
    return m


def failed_frac(raw):
    """Failed or wrong-answer ops ÷ ops attempted."""
    return ratio(sum(1 for o in raw["ops"] if not o["ok"]), len(raw["ops"]))
