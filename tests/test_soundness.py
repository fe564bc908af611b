"""End-to-end soundness: run what `prove` proves.

By the soundness of constrained HORPO, a system that `find_witness`
proves has no infinite rewrite sequence. A term that repeats within one
trace starts one, so a repeat on a proved system is an unsound proof,
with no false alarm possible. A run that uses up its fuel without a
repeat is only a suspect: it is reported, not failed on. The oracle uses
neither `horpo.py` nor the solver.
"""

import random
import warnings

from helpers import gen_recursive_system
from lcstrs.horpo import Horpo, Judgment
from lcstrs.prover import Witness, check_witness, find_witness
from lcstrs.rewrite import normalize
from lcstrs.solver import YES, Solver
from lcstrs.syntax import parse_system, print_term
from lcstrs.theory import int_value

SYSTEMS = 300
FUEL = 300
STRATEGIES = ("innermost", "outermost")


def starts(system):
    """f a b and g a b for every a, b in [-3, 3], and h (f a) b where the
    system declares h."""
    f, g = (system.signature.lookup(name)[0] for name in "fg")
    pairs = [(int_value(a), int_value(b))
             for a in range(-3, 4) for b in range(-3, 4)]
    terms = [head.apply(a, b) for head in (f, g) for a, b in pairs]
    for h in system.signature.lookup("h"):
        terms += [h.apply(f.apply(a), b) for a, b in pairs]
    return terms


def repeats_a_term(system, term, strategy):
    """Whether a term repeats in the trace from `term`, and whether the run
    used up its fuel."""
    result = normalize(term, system, strategy, FUEL)
    trace = [term] + [step.result for step in result.steps]
    return len(set(trace)) < len(trace), result.exhausted


def proved_systems(seed):
    """(text, system, witness) for each system of the seeded slice that
    `find_witness` proves."""
    rng = random.Random(seed)
    for _ in range(SYSTEMS):
        text = gen_recursive_system(rng)
        system = parse_system(text)
        witness = find_witness(system)
        if isinstance(witness, Witness):
            yield text, system, witness


def run_proved(proved, stop_at_repeat=False):
    """Runs each system of `proved`, (text, system, witness) triples, from
    every start, in both strategies. Returns the number run, the repeats
    found and the runs that used up their fuel without one, each as
    (system, start, strategy)."""
    count, repeats, suspects = 0, [], []
    for text, system, _ in proved:
        count += 1
        for term in starts(system):
            for strategy in STRATEGIES:
                repeated, exhausted = repeats_a_term(system, term, strategy)
                run = (text, print_term(term), strategy)
                if repeated:
                    repeats.append(run)
                    if stop_at_repeat:
                        return count, repeats, suspects
                elif exhausted:
                    suspects.append(run)
    return count, repeats, suspects


def checked(witness, system):
    """The witness check with its derivations and a fresh solver."""
    return check_witness(witness, system, Solver())


def test_no_proved_system_repeats_a_term():
    proved = list(proved_systems(seed=1))
    assert all(checked(witness, system).ok for _, system, witness in proved)
    count, repeats, suspects = run_proved(proved)
    assert count > 0
    assert repeats == []
    if suspects:
        warnings.warn(f"{len(suspects)} runs on proved systems used up "
                      f"{FUEL} steps without a repeat; the first: "
                      f"{suspects[0]}")


def test_an_unsound_prover_is_caught(monkeypatch):
    # the mutant takes every decided No of an ordering entailment for Yes
    entail = Horpo._entail_ordering

    def lenient(self, *args, **kwargs):
        verdict = entail(self, *args, **kwargs)
        return YES if verdict is not None and verdict.is_no else verdict

    monkeypatch.setattr(Horpo, "_entail_ordering", lenient)
    _, repeats, _ = run_proved(proved_systems(seed=1), stop_at_repeat=True)
    assert repeats


def accept_a_decided_no(monkeypatch):
    """Makes `Horpo`'s strict comparison take a decided No of a theory
    comparison for a `gt:theory` leaf. `_run` calls the functions that
    `Horpo._RELATIONS` holds, so the table entry is patched: patching the
    attribute `Horpo._gt` would change nothing."""
    gt = Horpo._RELATIONS["gt"]

    def lenient(self, s, t):
        verdict = self._entail_ordering(s, t, strict=True)
        if verdict is not None and verdict.is_no:
            return Judgment("gt:theory", s, t)
        return gt(self, s, t)

    monkeypatch.setitem(Horpo._RELATIONS, "gt", lenient)


def test_a_gt_that_accepts_a_decided_no_is_caught(monkeypatch):
    accept_a_decided_no(monkeypatch)
    _, repeats, _ = run_proved(proved_systems(seed=1), stop_at_repeat=True)
    assert repeats


def test_the_check_rejects_the_unsound_proofs_of_that_gt(monkeypatch):
    # the check runs while the mutant is still in place: it checks the
    # derivations and asks the solver, and does not run the engine. So no
    # proof it accepts repeats a term (on seed 1 the mutant makes 153
    # proofs; the check rejects 125, the 14 that repeat a term among them)
    accept_a_decided_no(monkeypatch)
    accepted, rejected = [], 0
    for text, system, witness in proved_systems(seed=1):
        if checked(witness, system).ok:
            accepted.append((text, system, witness))
        else:
            rejected += 1
    assert accepted and rejected
    _, repeats, _ = run_proved(accepted)
    assert repeats == []
