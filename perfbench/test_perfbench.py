#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        (from the root of a checkout)

TailRuleTest checks the percentile and mean rules without running anything.
DeterminismTest builds flor_perfbench, runs every workload twice with one
seed (traced, short lists) and checks that the counts the benchmark promises
to repeat do repeat exactly:
  * bucket, log and source bytes under the root, raw checkpoint bytes,
    checkpoints per run, bloom skips per absent probe and bucket faults;
  * every fs call count made by server handler and replay worker threads
    on lookup and replay, and the write call counts on ingest;
  * on replay, which records nothing, every count.
Three things depend on timing where runs are recorded:
  * a background GC pass skips checkpoints the shared spool has not
    uploaded yet, and they stay local for good. Local checkpoint bytes and
    stored_bytes_per_ckpt_byte (held to 1%) vary with it. When both runs
    end with the same local bytes, every count above must match, bucket
    faults, listing entries and background fs calls included; otherwise
    only fs calls on manifests, logs and sources are compared;
  * manifests embed measured runtimes as text, so their bytes vary;
  * on ingest, GC demotes a run while its tenant probes and lists it, so
    exists probes and listings vary, and a record session charges its
    tenant the shared spool's whole delta, so spool counters vary.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.p99(list(range(999))))
        self.assertEqual(metrics.p99(list(range(1000))), 989)
        self.assertEqual(metrics.nearest_rank(list(range(1000)), 0.99),
                         (989, 10))

    def test_tail_steps_down_until_ten_lie_beyond(self):
        self.assertEqual(metrics.tail(list(range(1000)))[0], 0.99)
        self.assertEqual(metrics.tail(list(range(999)))[0], 0.95)
        self.assertEqual(metrics.tail(list(range(200)))[0], 0.95)
        self.assertEqual(metrics.tail(list(range(199)))[0], 0.90)
        self.assertEqual(metrics.tail(list(range(100)))[0], 0.90)
        self.assertEqual(metrics.tail(list(range(40)))[0], 0.75)
        self.assertIsNone(metrics.tail(list(range(39))))
        self.assertIsNone(metrics.tail([]))

    def test_p95_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.percentile(list(range(199)), 0.95))
        self.assertEqual(metrics.percentile(list(range(200)), 0.95), 189)

    def test_geomean_skips_ops_without_a_round_trip(self):
        self.assertAlmostEqual(metrics.geomean([0.01, 100.0]), 1.0)
        self.assertAlmostEqual(metrics.geomean([0.0, 4.0, 1.0]), 2.0)
        self.assertEqual(metrics.geomean([0.0]), 0.0)

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(1, 1200, 7):
            values = [float(v) for v in range(n)]
            t = metrics.tail(values)
            if t is not None:
                self.assertGreaterEqual(sum(v > t[1] for v in values), 10)


class DeterminismTest(unittest.TestCase):
    SEED = 5
    SECONDS = 1.5

    @classmethod
    def setUpClass(cls):
        root = os.path.dirname(HERE)
        cls.build_root = os.path.join(root, ".bench_build")
        cls.binary = run.build(cls.build_root)
        cls.work = os.path.join(cls.build_root, "work", "determinism")

    def run_once(self, workload, tag):
        """Runs flor_perfbench once, traced; returns (exit code, raw record)."""
        work = os.path.join(self.work, "%s-%s" % (workload, tag))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(os.path.join(work, "tmp"))
        out = os.path.join(work, "raw.json")
        env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
        code = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(self.SEED),
             "--seconds", str(self.SECONDS), "--trace", "1", "--workdir",
             work, "--out", out],
            env=env, stdout=subprocess.DEVNULL, timeout=170).returncode
        with open(out) as f:
            raw = json.load(f)
        shutil.rmtree(work, ignore_errors=True)
        return code, raw

    def run_twice(self, workload):
        raws = []
        for i in range(2):
            code, raw = self.run_once(workload, str(i))
            self.assertEqual(code, 0, raw["failures"][:5])
            raws.append(raw)
        return raws

    def check(self, workload, exact_fs_ops, exact_threads,
              timing_dependent=()):
        a, b = self.run_twice(workload)
        self.assertEqual(len(a["ops"]), len(b["ops"]))
        self.assertEqual(a["raw_ckpt_bytes"], b["raw_ckpt_bytes"])
        for path_class in ("bucket_ckpt", "logs", "other"):
            self.assertEqual(a["root_bytes"][path_class],
                             b["root_bytes"][path_class], path_class)
        ea, eb = metrics.end_to_end(a), metrics.end_to_end(b)
        self.assertAlmostEqual(
            ea["stored_bytes_per_ckpt_byte"] / eb["stored_bytes_per_ckpt_byte"],
            1.0, delta=1e-2)
        same_local = (a["root_bytes"]["local_ckpt"] ==
                      b["root_bytes"]["local_ckpt"])
        exact_paths = None
        if not same_local:
            # Which checkpoints stayed local decides which probes and
            # restores reach the bucket; compare only what it cannot move.
            timing_dependent += ("bucket_faults",
                                 "checkpoint.store.bucket_faults",
                                 "flor.query.list_entries_per_run")
            exact_threads = exact_threads or ("request", "worker")
            exact_paths = ("manifest", "logs", "other")
        for key in ("gc_passes", "spool_objects", "spool_bytes",
                    "bucket_faults", "bloom_skipped"):
            if key not in timing_dependent:
                self.assertEqual(a["stats"][key], b["stats"][key], key)
        la, lb = metrics.per_layer(a, 1.0), metrics.per_layer(b, 1.0)
        for key in ("checkpoint.materializer.ckpts_per_run",
                    "checkpoint.store.bloom_skip_frac",
                    "checkpoint.store.bucket_faults",
                    "flor.query.list_entries_per_run"):
            if key not in timing_dependent:
                self.assertEqual(la[key], lb[key], key)
        cells = set(a["fs"]) | set(b["fs"])
        for cell in sorted(cells):
            op, path, thread = cell.split(".")
            if ((exact_fs_ops is None or op in exact_fs_ops) and
                    (exact_threads is None or thread in exact_threads) and
                    (exact_paths is None or path in exact_paths)):
                self.assertEqual(a["fs"].get(cell, [0])[0],
                                 b["fs"].get(cell, [0])[0], cell)
        return a

    def test_ingest(self):
        a = self.check("ingest", ("write", "append"), None,
                       ("spool_objects", "spool_bytes",
                        "flor.query.list_entries_per_run"))
        self.assertGreater(a["stats"]["spool_bytes"], 0)

    def test_lookup(self):
        a = self.check("lookup", None, None)
        self.assertGreater(a["stats"]["bloom_skipped"], 0)

    def test_replay(self):
        a = self.check("replay", None, None)
        self.assertGreater(a["stats"]["bucket_faults"], 0)
        self.assertEqual(a["stats"]["spool_bytes"], 0)
        self.assertEqual(a["stats"]["admission_waits"], 0)


if __name__ == "__main__":
    unittest.main()
