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
from lcstrs.horpo import Horpo
from lcstrs.prover import Witness, find_witness
from lcstrs.rewrite import normalize
from lcstrs.solver import YES
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


def run_proved(seed, stop_at_repeat=False):
    """Runs every system of the seeded slice that `find_witness` proves
    from every start, in both strategies. Returns the number proved, the
    repeats found and the runs that used up their fuel without one, each
    as (system, start, strategy)."""
    rng = random.Random(seed)
    proved, repeats, suspects = 0, [], []
    for _ in range(SYSTEMS):
        text = gen_recursive_system(rng)
        system = parse_system(text)
        if not isinstance(find_witness(system), Witness):
            continue
        proved += 1
        for term in starts(system):
            for strategy in STRATEGIES:
                repeated, exhausted = repeats_a_term(system, term, strategy)
                run = (text, print_term(term), strategy)
                if repeated:
                    repeats.append(run)
                    if stop_at_repeat:
                        return proved, repeats, suspects
                elif exhausted:
                    suspects.append(run)
    return proved, repeats, suspects


def test_no_proved_system_repeats_a_term():
    proved, repeats, suspects = run_proved(seed=1)
    assert proved > 0
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
    _, repeats, _ = run_proved(seed=1, stop_at_repeat=True)
    assert repeats
