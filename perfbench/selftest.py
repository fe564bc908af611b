"""The benchmark's own test: wrong answers and raising calls count as failed.

Run from the root of an lcstrs checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from io import StringIO

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lcstrs.cli  # noqa: E402

from reference import load_validator, verify  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S  # noqa: E402
from run import SCHEMA, WORKDIR, Loop, end_to_end, per_layer  # noqa: E402
from sweeps import BLOWUP_SIZES, FACT_SIZES  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Case, cycles  # noqa: E402


def _scratch() -> str:
    os.makedirs(WORKDIR, exist_ok=True)
    return WORKDIR


def _run_payload(case):
    out = StringIO()
    with redirect_stdout(out):
        rc = lcstrs.cli.main(case.argv)
    return rc, out.getvalue()


class ReferenceChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.validator = load_validator(SCHEMA)
        cls.fact = Case("fact 5", "fact",
                        ["run", "systems/fact.lcstrs", "--term", "fact 5 exit",
                         "--format", "json"],
                        result="exit 120", steps=21)

    def test_correct_answer_passes(self):
        rc, text = _run_payload(self.fact)
        outcome = verify(self.fact, rc, text, self.validator)
        self.assertTrue(outcome.ok, outcome.problem)
        self.assertEqual(outcome.work, 21)

    def test_corrupted_payload_fails(self):
        rc, text = _run_payload(self.fact)
        payload = json.loads(text)
        payload["steps"][0]["kind"] = "rewrite"      # not rule#N or calc
        outcome = verify(self.fact, rc, json.dumps(payload), self.validator)
        self.assertFalse(outcome.ok)
        self.assertIn("schema", outcome.problem)
        outcome = verify(self.fact, rc, text[:-10], self.validator)
        self.assertFalse(outcome.ok)

    def test_wrong_normal_form_fails(self):
        rc, text = _run_payload(self.fact)
        wrong = Case(**{**self.fact.__dict__, "result": "exit 121"})
        outcome = verify(wrong, rc, text, self.validator)
        self.assertFalse(outcome.ok)
        self.assertIn("result", outcome.problem)

    def test_terminating_verdict_on_nonterminating_input_is_unsound(self):
        case = Case("iter.lcstrs", "shipped",
                    ["prove", "systems/iter.lcstrs", "--format", "json"],
                    work=1, terminating=False)
        rc, text = _run_payload(case)
        outcome = verify(case, rc, text, self.validator)
        self.assertFalse(outcome.ok)
        self.assertTrue(outcome.unsound)


class FailureAccounting(unittest.TestCase):
    def test_raising_call_is_counted_and_the_run_goes_on(self):
        workdir = tempfile.mkdtemp(dir=_scratch())
        try:
            deep = os.path.join(workdir, "deep.lcstrs")
            with open(deep, "w", encoding="utf-8") as handle:
                handle.write("fun deep : Int -> Int\nrule deep x -> "
                             + "(" * 400 + "x" + " + 1)" * 400 + " [true]\n")
            loop = Loop(lcstrs.cli, load_validator(SCHEMA))
            loop.repeat_pass([
                Case("deep 400", "deep-paren",
                     ["check", deep, "--format", "json"],
                     symbols=[], rules=[]),
                Case("fact 3", "fact",
                     ["run", "systems/fact.lcstrs", "--term", "fact 3 exit",
                      "--format", "json"],
                     result="exit 6", steps=13),
            ])
        finally:
            shutil.rmtree(workdir)
        self.assertEqual(loop.attempted, 2)
        self.assertEqual(loop.failed, 1)
        self.assertEqual(dict(loop.errors), {"RecursionError": 1})
        self.assertEqual(len(loop.times), 2)
        self.assertEqual((loop.eligible, loop.decided), (2, 1))


class RepeatedCalls(unittest.TestCase):
    def test_a_later_call_that_answers_differently_is_checked(self):
        answers = iter(["exit 120", "exit 121", "exit 120"])

        class FlakyCli:
            @staticmethod
            def main(argv):
                print(json.dumps({
                    "command": "run", "file": argv[1], "ok": True,
                    "start": "fact 5 exit", "strategy": "innermost",
                    "fuel": 10000, "result": next(answers),
                    "normal_form": True, "total_steps": 21, "steps": []}))
                return 0

        case = Case("fact 5", "fact",
                    ["run", "systems/fact.lcstrs", "--term", "fact 5 exit",
                     "--format", "json"],
                    result="exit 120", steps=21)
        loop = Loop(FlakyCli, load_validator(SCHEMA))
        for _ in range(3):
            loop.repeat_pass([case])
        self.assertEqual((loop.attempted, loop.failed), (3, 1))
        self.assertEqual(len(loop.times), 1)


class HostSpeed(unittest.TestCase):
    def test_each_call_is_scaled_by_the_kernel_times_around_it(self):
        loop = Loop(lcstrs.cli, None)
        ref = REFERENCE_KERNEL_S
        # pass 1 ran on a host half as fast; in pass 2 the host sped up
        # during the first call; in pass 3 the second call was delayed
        loop.kernel = [[2 * ref, 2 * ref, 2 * ref], [3 * ref, ref, ref],
                       [ref, ref, ref]]
        loop.times = [[0.2, 0.2, 0.1], [0.04, 0.02, 0.5]]
        scaled = loop.input_seconds()
        self.assertAlmostEqual(scaled[0], 0.1)
        self.assertAlmostEqual(scaled[1], 0.02)
        self.assertEqual(loop.input_seconds(scale=False), [0.2, 0.04])
        self.assertAlmostEqual(loop.speed(), 1.0)


class Tracing(unittest.TestCase):
    def test_spans_and_counts_then_originals_restored(self):
        import lcstrs.rewrite

        original = lcstrs.cli.normalize
        tracer = Tracer()
        loop = Loop(lcstrs.cli, load_validator(SCHEMA), tracer)
        loop.repeat_pass([Case("fact 3", "fact",
                               ["run", "systems/fact.lcstrs", "--term",
                                "fact 3 exit", "--format", "json"],
                               result="exit 6", steps=13)])
        self.assertEqual(loop.failed, 0)
        self.assertIs(lcstrs.cli.normalize, original)
        self.assertFalse(hasattr(lcstrs.rewrite.step_at, "__wrapped__"))
        self.assertEqual(tracer.calls["cli.main"], 1)
        self.assertEqual(tracer.calls["rewrite.normalize"], 1)
        self.assertEqual(tracer.counts["rewrite.steps"], 13)
        self.assertEqual(tracer.steps_by_kind["fact"][1], 13)
        self.assertEqual(tracer.calls["solver.entails"], 0)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names[0], "cli.main")
        self.assertIn("rewrite.normalize", names)
        self.assertTrue(all(span[3] >= 0 for span in tracer.spans[1:]))
        main_s = tracer.inclusive["cli.main"]
        self.assertAlmostEqual(sum(tracer.self_time.values()), main_s,
                               delta=main_s * 1e-6)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("rewrite", "search", "entail", "check"):
            runs = []
            for _ in range(2):
                workdir = tempfile.mkdtemp(dir=_scratch())
                try:
                    cycle = next(cycles(workload, 7, workdir, "systems"))
                    runs.append([(c.name, c.argv[2:]) for c in cycle])
                finally:
                    shutil.rmtree(workdir)
            self.assertEqual(runs[0], runs[1], workload)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        loop = Loop(lcstrs.cli, None)
        loop.times, loop.kernel, loop.attempted = [[1.0]], [[1e-3, 1e-3]], 1
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {name: unit for name, (_, unit, _) in end_to_end(loop, 1.0).items()})
        sweeps = {f"rewrite.us_per_step.fact_n{n}": (0, "us/step")
                  for n in FACT_SIZES}
        sweeps.update({f"prover.find_witness.ms.k{k}": (0, "ms")
                       for k in BLOWUP_SIZES})
        sweeps["solver.unknown_ms.nonlinear"] = (0, "ms")
        reported = per_layer(Tracer(), loop, 1.0, sweeps)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (_, unit, _) in reported.items()})


if __name__ == "__main__":
    unittest.main()
