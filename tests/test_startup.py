"""What a fresh interpreter loads: `check` and `run` never import the
prover's modules, and `prove` loads them when it runs.

Each test runs its script in a new interpreter, since the suite's own
process has imported every module long before.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"
GOLDEN = REPO / "tests" / "golden"
PROVER_MODULES = ["lcstrs.horpo", "lcstrs.prover", "lcstrs.solver"]


def fresh(script: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that finds lcstrs under src/; its
    last line of stderr is the JSON report it writes."""
    prelude = f"import sys\nsys.path.insert(0, {str(REPO / 'src')!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + script], cwd=cwd,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done


def report(done: subprocess.CompletedProcess):
    return json.loads(done.stderr.decode().splitlines()[-1])


def test_check_and_run_leave_the_prover_unloaded():
    done = fresh("""
import contextlib, io, json
before = set(sys.modules)
from lcstrs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["check", "fact.lcstrs"]),
             main(["run", "fact.lcstrs", "--term", "fact 6 exit"])]
after_run = sorted(set(sys.modules) - before)
codes.append(main(["prove", "fact.lcstrs", "--format", "json"]))
sys.stdout.flush()
print(json.dumps({"codes": codes, "after_run": after_run,
                  "after_prove": sorted(set(sys.modules) - before)}),
      file=sys.stderr)
""", cwd=SYSTEMS)
    got = report(done)
    assert got["codes"] == [0, 0, 0]
    assert [m for m in got["after_run"]
            if m in PROVER_MODULES + ["subprocess", "shlex"]] == []
    assert "lcstrs.rewrite" in got["after_run"]
    assert set(PROVER_MODULES) <= set(got["after_prove"])
    assert done.stdout == (GOLDEN / "prove_fact.json").read_bytes()


def test_a_rebound_find_witness_is_called_by_the_first_prove():
    done = fresh(f"""
import contextlib, io, json
from lcstrs import cli
calls = []
original = cli.find_witness

def recording(system, config):
    calls.append(len(system.rules))
    return original(system, config)

cli.find_witness = recording
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["prove", {str(SYSTEMS / 'fact.lcstrs')!r}])
print(json.dumps([code, calls]), file=sys.stderr)
""")
    assert report(done) == [0, [4]]


def test_the_tracer_puts_back_the_names_of_a_lazy_cli():
    # the suite's other tracer test imports every module first; here only
    # `lcstrs.cli` is loaded when the tracer rebinds its names
    done = fresh(f"""
import importlib.util, json
import lcstrs.cli as cli
before = dict(vars(cli))
spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", {str(REPO / 'perfbench' / 'tracer.py')!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
rebound = sorted(name for name, value in vars(cli).items()
                 if before.get(name) is not value)
tracer.uninstall()
after = vars(cli)
print(json.dumps({{
    "rebound": rebound, "keys": sorted(after.keys() ^ before.keys()),
    "changed": sorted(n for n in before if after[n] is not before[n])}}),
    file=sys.stderr)
""")
    got = report(done)
    assert {"find_witness", "check_witness", "normalize"} <= set(
        got["rebound"])
    assert (got["keys"], got["changed"]) == ([], [])


def test_threads_resolving_one_name_get_one_object():
    # independent proof attempts may run in parallel, so the first reads
    # of a package name may come from two threads at once
    done = fresh("""
import json, threading
import lcstrs
sys.setswitchinterval(1e-6)    # switch threads inside the first import
barrier = threading.Barrier(2, timeout=60)
seen = []

def resolve():
    barrier.wait()
    seen.append(lcstrs.find_witness)

threads = [threading.Thread(target=resolve) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
import lcstrs.prover
print(json.dumps([value is lcstrs.prover.find_witness for value in seen]),
      file=sys.stderr)
""")
    assert report(done) == [True, True]
