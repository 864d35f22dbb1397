"""Self-tests of the HTAP benchmark.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 -m unittest discover -s htapbench/tests -v
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import run  # noqa: E402

WORKLOADS = ("vdm_adhoc", "paging_serve", "journal_htap")
# Span times are written in microseconds with three decimals.
ROUNDING_MS_PER_SPAN = 0.000002


class HtapBenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def bench(self, *args):
        return subprocess.run([self.binary] + list(args), capture_output=True,
                              text=True, timeout=170)

    def dump(self, workload, seed):
        p = self.bench("--dump-requests", "--workload", workload, "--seed",
                       str(seed))
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout

    def test_same_seed_gives_byte_identical_requests(self):
        for workload in WORKLOADS:
            first = self.dump(workload, 7)
            self.assertTrue(first)
            self.assertEqual(first, self.dump(workload, 7), workload)
            self.assertNotEqual(first, self.dump(workload, 8), workload)

    def test_span_self_times_add_up_to_traced_wall_time(self):
        out = os.path.join(run.build_dir(), "selftest_spans.jsonl")
        p = self.bench("--workload", "paging_serve", "--seed", "3",
                       "--seconds", "1.5", "--trace", "1", "--trace-out", out)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["trace.requests"]["value"], 0)
        with open(out) as f:
            spans = [json.loads(line) for line in f]
        os.remove(out)

        # Recompute every self time from the raw intervals: duration minus
        # the union of the children's intervals.
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        self_ms = {}
        for s in spans:
            covered, run_start, run_end = 0.0, None, None
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start_us"]):
                a = min(max(c["start_us"], s["start_us"]), s["end_us"])
                b = min(max(c["end_us"], s["start_us"]), s["end_us"])
                if run_end is not None and a <= run_end:
                    run_end = max(run_end, b)
                    continue
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            if run_end is not None:
                covered += run_end - run_start
            self_ms[s["id"]] = (s["end_us"] - s["start_us"] - covered) / 1e3
            self.assertAlmostEqual(self_ms[s["id"]], s["self_us"] / 1e3,
                                   delta=4 * ROUNDING_MS_PER_SPAN)

        roots = [s for s in spans if s["parent"] == -1]
        self.assertTrue(roots)
        for root in roots:
            subtree, frontier = [], [root]
            while frontier:
                s = frontier.pop()
                subtree.append(s)
                frontier += children.get(s["id"], [])
            wall = (root["end_us"] - root["start_us"]) / 1e3
            total = sum(self_ms[s["id"]] for s in subtree)
            self.assertAlmostEqual(
                total, wall, delta=ROUNDING_MS_PER_SPAN * 4 * len(subtree),
                msg="request %d" % root["request"])
            # Every traced request has a served round trip and an engine
            # replay under its root.
            names = {s["name"] for s in subtree}
            self.assertIn("server.roundtrip", names)
            self.assertIn("engine.query", names)

    def test_planted_wrong_expected_row_fails_the_command(self):
        p = self.bench("--workload", "paging_serve", "--seed", "1",
                       "--seconds", "1", "--trace", "0", "--plant-wrong-row")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
