"""Unit tests of the benchmark runner's statistics, trace attribution,
correctness checks, compare verdicts and BENCHMARK.json validation.

  python3 -m unittest discover -s benchsuite
"""

import copy
import statistics
import unittest

import benchmark as bm


def span(name, ts, dur, tid=0, cat="phase", **args):
    e = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
         "pid": 1, "tid": tid}
    if args:
        e["args"] = args
    return e


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(bm.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(bm.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(bm.tail_percentile(list(range(10))))
        self.assertEqual(bm.tail_percentile(list(range(20, 0, -1))), (50, 10))
        pct, value = bm.tail_percentile([float(v) for v in range(100)])
        self.assertEqual(pct, 90)
        self.assertEqual(sum(1 for v in range(100) if v > value), 10)

    def test_spread_and_summary(self):
        self.assertAlmostEqual(bm.spread([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (4.5 - 1.5) / 3.0)
        s = bm.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["median"]), (3, 2.0))
        self.assertIsNone(s["tail"])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_across_threads(self):
        events = [
            span("c", 20, 10), span("b", 10, 30), span("d", 50, 10),
            span("a", 0, 100),
            # Overlaps a in time but runs on another thread: not a child.
            span("e", 15, 60, tid=1), span("f", 20, 5, tid=1),
            {"name": "i", "cat": "exec", "ph": "i", "ts": 12, "pid": 1,
             "tid": 0},
        ]
        got = {e["name"]: s for e, s in bm.self_times(events)}
        self.assertEqual(got, {"a": 60, "b": 20, "c": 10, "d": 10, "e": 55,
                               "f": 5})

    def test_equal_extent_child_is_nested_in_later_emitted_parent(self):
        # A span is emitted when it closes, so the child comes first.
        events = [span("child", 5, 10), span("parent", 5, 10)]
        got = {e["name"]: s for e, s in bm.self_times(events)}
        self.assertEqual(got, {"parent": 0, "child": 10})

    def test_layers_are_attributed_to_their_strategy(self):
        events = [
            span("demand_read", 10, 5, cat="storage"),
            span("e_step", 5, 30),
            span("bench.train", 0, 50, cat="bench", strategy=0),
            span("chunk", 60, 20, tid=1, cat="morsel"),
            span("delta_apply", 85, 4, cat="pipeline"),
            span("new_span", 90, 2, cat="newcat"),
            span("bench.train", 55, 45, cat="bench", strategy=2),
        ]
        got = bm.layer_self_seconds(events)
        self.assertAlmostEqual(got["M"]["storage.io_self_s"], 5e-6)
        self.assertAlmostEqual(got["M"]["model.self_s"], 25e-6)
        self.assertAlmostEqual(got["M"]["bench.unattributed_s"], 20e-6)
        self.assertAlmostEqual(got["F"]["model.self_s"], 20e-6)
        self.assertAlmostEqual(got["F"]["pipeline.self_s"], 4e-6)
        self.assertAlmostEqual(got["F"]["bench.unattributed_s"], 41e-6)
        self.assertEqual(dict(got["S"]), {})


def run(strategy, phase="timed", rnd=0, objective=1.0, mults=10, ok=True):
    return {"strategy": strategy, "phase": phase, "round": rnd, "ok": ok,
            "objective": objective, "mults": mults, "adds": 1, "subs": 0,
            "exps": 0}


def result_doc(runs, diffs=(), seed=7, trace=None):
    return {"workload": "gmm-fit", "seed": seed, "runs": runs,
            "mf_param_diff": list(diffs), "trace": trace}


class CheckTest(unittest.TestCase):
    def three_rounds(self):
        return [run(s, rnd=r) for r in range(3) for s in "MSF"]

    def test_clean_runs_pass(self):
        diffs = [{"phase": "timed", "round": r, "diff": 1e-12}
                 for r in range(3)]
        self.assertEqual(bm.check(result_doc(self.three_rounds(), diffs)),
                         (set(), []))

    def test_each_failure_is_counted_once(self):
        runs = self.three_rounds()
        runs[0]["ok"] = False                 # M round 0: non-OK status
        runs[4]["mults"] = 11                 # S round 1: op count drift
        runs += [run("M", "traced")]
        diffs = [{"phase": "timed", "round": 2, "diff": 1e-3}]
        failed, reasons = bm.check(
            result_doc(runs, diffs, trace={"dropped": 3}))
        self.assertEqual(failed, {0, 4, 8, 9})
        self.assertEqual(len(reasons), 4)

    def test_strategies_must_agree(self):
        runs = self.three_rounds()
        for r in runs:
            if r["strategy"] == "F":
                r["objective"] = 1.0 + 1e-5
        failed, _ = bm.check(result_doc(runs))
        self.assertEqual(failed, {2, 5, 8})

    def test_pinned_objective_applies_at_the_default_seed_only(self):
        runs = self.three_rounds()
        self.assertEqual(bm.check(result_doc(runs, seed=7))[0], set())
        failed, _ = bm.check(result_doc(runs, seed=bm.DEFAULT_SEED))
        self.assertEqual(len(failed), 9)


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(bm.verdict(base, [1.2, 1.21], 0.1, "lower")[0],
                         "worse")
        self.assertEqual(bm.verdict(base, [0.8, 0.81], 0.1, "lower")[0],
                         "better")
        self.assertEqual(bm.verdict(base, [1.03, 0.98], 0.1, "lower")[0],
                         "unchanged")
        # Higher is better: a lower value is a regression.
        self.assertEqual(bm.verdict(base, [0.8, 0.81], 0.1, "higher")[0],
                         "worse")

    def test_noisy_base_is_unresolved_unless_dominated(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.9]
        self.assertEqual(bm.verdict(noisy, [1.0, 1.1], 0.1, "lower")[0],
                         "unresolved")
        self.assertEqual(bm.verdict(noisy, [0.5, 0.6], 0.1, "lower")[0],
                         "better")
        self.assertEqual(bm.verdict(noisy, [2.0, 2.1], 0.1, "lower")[0],
                         "worse")

    def test_consistent_small_gain_beyond_the_spread_is_better(self):
        base = [1.0, 1.001, 1.002, 1.001, 1.0]
        self.assertEqual(bm.verdict(base, [0.97, 0.96], 0.1, "lower")[0],
                         "better")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = bm.load_spec()

    def test_committed_spec_is_valid(self):
        self.assertEqual(bm.validate_spec(self.spec), [])
        self.assertEqual(
            sorted(w["name"] for w in self.spec["workloads"]),
            sorted(bm.PINNED_OBJECTIVE))

    def errors_after(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        return bm.validate_spec(spec)

    def test_rejects_out_of_contract_specs(self):
        def bad_name(s):
            s["per_layer"][0]["name"] = "la mults"
        def too_many_workloads(s):
            s["workloads"] = [{"name": "w%d" % i, "why": "x"}
                              for i in range(9)]
        def too_many_e2e(s):
            s["end_to_end"] += [dict(s["end_to_end"][0], name="x%d" % i)
                                for i in range(16)]
        def too_many_layers(s):
            s["per_layer"] += [{"name": "la.mults.x%d" % i, "unit": "count",
                                "better": "lower"} for i in range(128)]
        def loose_bound(s):
            s["end_to_end"][0]["bound"] = 0.3
        def no_setup(s):
            s["end_to_end"] = [m for m in s["end_to_end"]
                               if m["name"] != "setup_s"]
        def extra_key(s):
            s["per_layer"][0]["bound"] = 0.1
        def duplicate(s):
            s["per_layer"].append(dict(s["per_layer"][0]))
        def unmapped_layer(s):
            s["per_layer"].append({"name": "new.layer_s", "unit": "s",
                                   "better": "lower"})
        for mutate in (bad_name, too_many_workloads, too_many_e2e,
                       too_many_layers, loose_bound, no_setup, extra_key,
                       duplicate, unmapped_layer):
            with self.subTest(mutate.__name__):
                self.assertNotEqual(self.errors_after(mutate), [])

    def test_moves_must_name_known_metrics_and_workloads(self):
        saved = bm.LAYER_MOVES["la.mults"]
        try:
            bm.LAYER_MOVES["la.mults"] = (["train_s.X"], ["gmm-fit"], [])
            self.assertNotEqual(bm.validate_spec(self.spec), [])
            bm.LAYER_MOVES["la.mults"] = (["train_s.M"], ["no-such"], [])
            self.assertNotEqual(bm.validate_spec(self.spec), [])
        finally:
            bm.LAYER_MOVES["la.mults"] = saved


if __name__ == "__main__":
    unittest.main()
