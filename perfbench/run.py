"""lcstrs benchmark: closed-loop CLI workloads and a traced per-layer run.

Run from the root of an lcstrs checkout:

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 20 --trace 0

`--workload` is one of rewrite, search, entail, check, or `all`. One client
calls the real entry point, `lcstrs.cli.main(argv)`, in this process with
`--format json` and captured output, one call after the other (closed loop,
no threads, `--jobs` left at 1). Every answer is checked against a
reference computed without lcstrs (see reference.py); a call that raises,
exits wrongly or answers wrongly is counted as failed and the run goes on.
The script re-executes itself once, in place, with a fixed PYTHONHASHSEED.
Every end-to-end time is scaled to a reference host speed (hostspeed.py).

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it reports the per-layer metrics of a traced run (tracer.py), the tracing
overhead against an untraced replay of the same calls, and the scaling
sweeps (sweeps.py). Each run prints one line per metric with its unit and
sample count, and then, as its last line, one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from hostspeed import REFERENCE_KERNEL_S, kernel_seconds, scaled, timed
from reference import expects_answer, load_validator, verify
from workloads import cycles

WORKLOADS = ("rewrite", "search", "entail", "check")
SCHEMA = os.path.join("src", "lcstrs", "schemas", "cli_output.schema.json")
SYSTEMS = "systems"
WORKDIR = ".perfbench_work"
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_INPUTS = 100        # p90 then has at least ten inputs beyond it
# String hashes order sets and dicts, and through them the order in which
# the prover tries precedences and statuses; Python draws a new hash key for
# every process. The run fixes the key, and the seeded names of each input
# vary the order from one input to the next instead.
HASH_SEED = "0"

# A fresh interpreter that imports the CLI and parses each given file once.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import lcstrs.cli
from lcstrs.core import LcstrsError
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        lcstrs.cli.parse_system(text)
    except LcstrsError:
        pass
"""


class Loop:
    """Closed-loop client: one call at a time, every answer checked.

    Each pass calls the same inputs once, in the same order; passes repeat
    for the length of the run. The reference kernel (hostspeed.py) is timed
    before every call and after the last one of a pass. An input's time is
    the median over passes of its call time, each scaled to reference host
    speed by the kernel times just before and just after the call.
    """

    def __init__(self, cli, validator, tracer=None):
        self.cli = cli
        self.validator = validator
        self.tracer = tracer
        self.times: list[list] = []         # per input, seconds in each pass
        self.kernel: list[list] = []        # per pass, kernel seconds before
                                            # each call and after the last
        self.known: list = []               # first passing answer per input
        self.work = 0.0
        self.decided = 0
        self.eligible = 0                   # inputs with a positive answer
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.errors = Counter()             # exception class -> calls
        self.unsound: list[str] = []
        self.problems: list[str] = []

    def call(self, case, known=None):
        """One checked call: (seconds, Outcome or None if it raised, answer).

        The garbage of earlier calls is collected first, untimed, so that
        each call's time does not depend on what ran before it. `known` is
        the (answer, Outcome) of an earlier call of the same input that
        passed; an identical answer passes without being checked again."""
        out = io.StringIO()
        exc = None
        gc.collect()
        self.kernel[-1].append(kernel_seconds())
        if self.tracer is not None:
            self.tracer.install()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(case.argv)
                else:
                    rc = self.tracer.call_main(self.cli.main, case.argv,
                                               case.kind)
            except Exception as e:  # a raising call fails; the run goes on
                rc, exc = None, e
            seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.uninstall()
        self.attempted += 1
        text = out.getvalue()
        self.output_bytes += len(text)
        answer = (rc, hashlib.blake2b(text.encode()).digest())
        if exc is not None:
            self.errors[type(exc).__name__] += 1
            outcome, problem = None, f"raised {type(exc).__name__}"
        elif known is not None and known[0] == answer:
            outcome, problem = known[1], None
        else:
            outcome = verify(case, rc, text, self.validator)
            problem = outcome.problem
        if outcome is None or not outcome.ok:
            self.failed += 1
            if outcome is not None and outcome.unsound:
                self.unsound.append(case.name)
            if len(self.problems) < 20:
                self.problems.append(f"{case.name}: {problem}")
        return seconds, outcome, answer

    def measure(self, case, index: int) -> None:
        if index < len(self.times):
            seconds, _, _ = self.call(case, self.known[index])
            self.times[index].append(seconds)
            return
        seconds, outcome, answer = self.call(case)
        self.times.append([seconds])
        ok = outcome is not None and outcome.ok
        self.known.append((answer, outcome) if ok else None)
        if ok:
            self.work += outcome.work
        if expects_answer(case):
            self.eligible += 1
            self.decided += ok and outcome.decided

    def repeat_pass(self, cases: list, twin=None) -> None:
        """Call every input once. A `twin` loop calls each input right after
        this one, so that the two are compared under the same host load."""
        loops = [self] if twin is None else [self, twin]
        for loop in loops:
            loop.kernel.append([])
        for index, case in enumerate(cases):
            self.measure(case, index)
            if twin is not None:
                twin.measure(case, index)
        for loop in loops:
            loop.kernel[-1].append(kernel_seconds())

    def speed(self) -> float:
        """Reference kernel time over the median kernel time of the run."""
        kernel = [k for pass_kernel in self.kernel for k in pass_kernel]
        return REFERENCE_KERNEL_S / statistics.median(kernel)

    def input_seconds(self, scale: bool = True) -> list:
        """Per input, the median over passes of its call time, scaled to
        reference speed by the kernel times around the call unless `scale`
        is false."""
        result = []
        for index, times in enumerate(self.times):
            if scale:
                times = [scaled(t, kernel[index], kernel[index + 1])
                         for t, kernel in zip(times, self.kernel)]
            result.append(statistics.median(times))
        return result

    def repeat_for(self, cases: list, seconds: float, between=None) -> int:
        """Passes over `cases`, at least MIN_PASSES, and more while another
        one still ends within `seconds`; returns the number of passes.
        `between` is called after each pass."""
        start, passes = perf_counter(), 0
        while True:
            self.repeat_pass(cases)
            passes += 1
            if between is not None:
                between()
            elapsed = perf_counter() - start
            next_end = elapsed * (passes + 1) / passes
            if passes >= MIN_PASSES and next_end > seconds:
                return passes

    def absorb(self, other: "Loop") -> None:
        """Add another loop's failure accounting to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.update(other.errors)
        self.unsound += other.unsound
        self.problems += other.problems


def take_inputs(source) -> list:
    """Whole cycles until there are MIN_INPUTS inputs. The count does not
    depend on the host's speed, so neither does the mix of inputs."""
    cases = []
    while len(cases) < MIN_INPUTS:
        cases += next(source)
    return cases


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def time_setup(files: list, times: list, count: int) -> None:
    """Append `count` wall times of a fresh interpreter that imports the CLI
    and parses each system file once, each scaled to reference host speed
    by the kernel times just before and just after it."""
    argv = [sys.executable, "-c", SETUP_CODE, "src", *files]
    for _ in range(count):
        seconds, _ = timed(lambda: subprocess.run(
            argv, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        times.append(seconds)


def system_files(cycle) -> list:
    files = []
    for case in cycle:
        path = case.argv[1]
        if path not in files:
            files.append(path)
    return files


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Every timing at reference host speed; `setup_s` is the median of the
    scaled set-up times."""
    seconds = loop.input_seconds()
    n = len(seconds)
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "call_p50_ms": (percentile(seconds, 0.5) * 1e3, "ms", n),
        "call_p90_ms": (percentile(seconds, 0.9) * 1e3, "ms", n),
        "work_per_s": (loop.work / sum(seconds), "1/s", n),
        "decided_share": (loop.decided / max(1, loop.eligible), "ratio",
                          loop.eligible),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }


def per_layer(tracer, loop: Loop, untraced_s: float, sweeps: dict) -> dict:
    n = max(1, len(loop.times))
    calls, incl, counts = tracer.calls, tracer.inclusive, tracer.counts

    def ms(name):
        return (incl[name] * 1e3 / n, "ms/call")

    def per_call(count):
        return (count / n, "1/call")

    def ratio(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    def us_per_step(kind):
        seconds, steps = tracer.steps_by_kind.get(kind, (0.0, 0))
        return (seconds / steps * 1e6 if steps else 0.0, "us/step")

    main_s = incl["cli.main"]
    prove_s = incl["prover.find_witness"] + incl["prover.check_witness"]
    traced_s = sum(loop.input_seconds(scale=False))
    metrics = {
        "syntax.tokenize.ms": ms("syntax.tokenize"),
        "syntax.parse_system.ms": ms("syntax.parse_system"),
        "syntax.parse_system.calls": per_call(calls["syntax.parse_system"]),
        "syntax.print_term.ms": ms("syntax.print_term"),
        "syntax.print_term.calls": per_call(calls["syntax.print_term"]),
        "core.typecheck.ms": ms("core.typecheck"),
        "core.subst_apply.calls": per_call(calls["core.subst_apply"]),
        "core.subst_apply.ms": ms("core.subst_apply"),
        "core.replace_at.calls": per_call(counts["core.replace_at"]),
        "core.subterm_at.calls": per_call(counts["core.subterm_at"]),
        "theory.try_calculate.calls": per_call(calls["theory.try_calculate"]),
        "theory.try_calculate.ms": ms("theory.try_calculate"),
        "theory.try_calculate.hit_ratio": ratio(
            counts["theory.try_calculate.hits"], calls["theory.try_calculate"]),
        "theory.interpret.calls": per_call(calls["theory.interpret"]),
        "theory.interpret.ms": ms("theory.interpret"),
        "rewrite.normalize.ms": ms("rewrite.normalize"),
        "rewrite.steps": per_call(counts["rewrite.steps"]),
        "rewrite.step_at.calls": per_call(calls["rewrite.step_at"]),
        "rewrite.step_at.hit_ratio": ratio(
            counts["rewrite.steps"], calls["rewrite.step_at"]),
        "rewrite.match.calls": per_call(calls["rewrite.match"]),
        "rewrite.match.hit_ratio": ratio(
            counts["rewrite.match.hits"], calls["rewrite.match"]),
        "rewrite.max_term_size": (tracer.max_term_size, "nodes"),
        "rewrite.us_per_step.fact": us_per_step("fact"),
        "rewrite.us_per_step.iter": us_per_step("iter"),
        "rewrite.us_per_step.list": us_per_step("list"),
        "solver.entails.calls": per_call(calls["solver.entails"]),
        "solver.entails.ms": ms("solver.entails"),
        "solver.unknown_ms": (counts["solver.unknown_s"] * 1e3 / n, "ms/call"),
        "solver.yes": per_call(counts["solver.yes"]),
        "solver.no": per_call(counts["solver.no"]),
        "solver.unknown": per_call(counts["solver.unknown"]),
        "solver.cache_hit_ratio": ratio(
            counts["solver.cache_hits"], calls["solver.entails"]),
        "solver.log_len": (tracer.max_log_len, "count"),
        "horpo.orient_rule.calls": per_call(calls["horpo.orient_rule"]),
        "horpo.orient_rule.ms": ms("horpo.orient_rule"),
        "horpo.orient_rule.hit_ratio": ratio(
            counts["horpo.orient_rule.hits"], calls["horpo.orient_rule"]),
        "prover.find_witness.ms": ms("prover.find_witness"),
        "prover.check_witness.ms": ms("prover.check_witness"),
        "cli.self_ms": (tracer.self_time["cli.main"] * 1e3 / n, "ms/call"),
        "cli.output_kb": (loop.output_bytes / 1024 / loop.attempted,
                          "KB/call"),
        "cli.failed_share": ratio(loop.failed, loop.attempted),
        "prove.solver_share": ratio(incl["solver.entails"], prove_s),
        "prove.horpo_share": ratio(incl["horpo.orient_rule"], prove_s),
        "trace.overhead_pct": (
            (traced_s - untraced_s) / untraced_s * 100, "%"),
    }
    for layer, seconds in tracer.layer_self_seconds().items():
        metrics[f"layer.{layer}.self_ms"] = (seconds * 1e3 / n, "ms/call")
        metrics[f"layer.{layer}.self_share"] = ratio(seconds, main_s)
    metrics.update(sweeps)
    return {name: (value, unit, len(loop.times))
            for name, (value, unit) in metrics.items()}


def run_workload(cli, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workdir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        validator = load_validator(SCHEMA)
        source = cycles(workload, seed, workdir, SYSTEMS)
        first = next(source)
        # the warm-up fills lazy caches; it is checked, not timed, and then
        # collects the failure accounting of the whole run
        total = Loop(cli, validator)
        total.repeat_pass(first)
        # keep the harness's own heap out of every later collection, so that
        # a call's collections walk only what lcstrs allocated, as in a
        # fresh process
        gc.collect()
        gc.freeze()
        cases = take_inputs(source)
        if not trace:
            # set-up is timed between the passes, so that its median spans
            # the run's changes in host speed; the first start, which fills
            # the bytecode cache where one is written, is not counted
            files, setup_times = system_files(first), []
            time_setup(files, [], 1)

            def setup_between_passes():
                if len(setup_times) < SETUP_REPEATS - 1:
                    time_setup(files, setup_times, 1)

            loop = Loop(cli, validator)
            passes = loop.repeat_for(cases, seconds, setup_between_passes)
            time_setup(files, setup_times, SETUP_REPEATS - len(setup_times))
            metrics = end_to_end(loop, statistics.median(setup_times))
            raw = loop.input_seconds(scale=False)
            kernel_ms = REFERENCE_KERNEL_S / loop.speed() * 1e3
            notes = [f"kernel median {kernel_ms:.4f} ms (reference "
                     f"{REFERENCE_KERNEL_S * 1e3:g} ms); "
                     f"unscaled call_p50 {percentile(raw, 0.5) * 1e3:.4f} ms, "
                     f"call_p90 {percentile(raw, 0.9) * 1e3:.4f} ms"]
        else:
            from sweeps import run_sweeps
            from tracer import Tracer

            tracer = Tracer()
            loop = Loop(cli, validator, tracer)
            untraced = Loop(cli, validator)
            loop.repeat_pass(cases, twin=untraced)
            passes, notes = 1, []
            sweeps, sweep_problems = run_sweeps(SYSTEMS)
            metrics = per_layer(tracer, loop,
                                sum(untraced.input_seconds(scale=False)),
                                sweeps)
            tracer.write_spans(os.path.join(
                WORKDIR, f"spans-{workload}-{seed}.jsonl"))
            loop.problems += sweep_problems
            total.absorb(untraced)
        total.absorb(loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "correct": total.failed == 0 and not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "errors": dict(total.errors),
        "unsound": total.unsound,
        "problems": total.problems,
        "metrics": metrics,
        "passes": passes,
        "notes": notes,
    }


def report(result: dict, seed: int) -> None:
    print(f"workload {result['workload']} (seed {seed}): "
          f"{result['attempted']} calls in {result['passes']} passes, "
          f"{result['failed']} failed")
    for name, count in sorted(result["errors"].items()):
        print(f"  raised {name}: {count}")
    for note in result["notes"]:
        print(f"  {note}")
    for name in result["unsound"]:
        print(f"  TERMINATING on a nonterminating input: {name}")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:36s} {value:14.4f} {unit:8s} n={samples}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lcstrs", "cli.py")):
        print("perfbench: src/lcstrs not found; run from the root of an "
              "lcstrs checkout", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, os.path.abspath("src"))
    import lcstrs.cli

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        result = run_workload(lcstrs.cli, workload, args.seed, args.seconds,
                              bool(args.trace))
        report(result, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
