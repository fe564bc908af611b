"""Metamorphic oracle for `prove`, which needs no reference prover.

Whether a system is proved, and whether the search gave up, must not
change under a consistent renaming of symbols (`f` <-> `g`), a permutation
of the declarations and of the rules (reversed, and shuffled), or a
consistent renaming of variables (`x` <-> `y`). Under the variable
renaming the search visits
everything in the same order, so the witness document, or the failure
report, must be the same up to the renaming. A permutation may change
which witness is found first, so only provability is compared there.

The systems are the seeded `helpers.gen_recursive_system` ones, proved
without a timeout, so the outcome does not depend on the machine. Tier-1
checks a slice; a larger one runs from the `tests` directory with

    python -c "import test_metamorphic as t; t.assert_invariant(3000)"
"""

import math
import random
import re

from helpers import gen_recursive_system
from lcstrs.prover import ProverConfig, Witness, find_witness
from lcstrs.syntax import parse_system

UNBOUNDED = ProverConfig(timeout=math.inf)


def swapped(text: str, a: str, b: str) -> str:
    """`text` with the whole words `a` and `b` exchanged."""
    return re.sub(rf"\b(?:{a}|{b})\b",
                  lambda m: b if m.group() == a else a, text)


def permuted(text: str, rng: random.Random = None) -> str:
    """`text` with its declarations shuffled by `rng`, then its rules, or
    each reversed without one."""
    lines = text.splitlines()
    funs = [line for line in lines if line.startswith("fun ")]
    rules = [line for line in lines if line.startswith("rule ")]
    for part in (funs, rules):
        if rng is None:
            part.reverse()
        else:
            rng.shuffle(part)
    return "\n".join(funs + rules) + "\n"


def renamed(document, a: str, b: str):
    """A JSON document with `a` and `b` exchanged in every string."""
    if isinstance(document, str):
        return swapped(document, a, b)
    if isinstance(document, dict):
        return {key: renamed(value, a, b) for key, value in document.items()}
    if isinstance(document, list):
        return [renamed(value, a, b) for value in document]
    return document


def outcome(text: str) -> tuple[bool, bool, dict]:
    """Whether `prove` proves the system, whether it gave up, and the
    witness document or the failure report."""
    system = parse_system(text)
    result = find_witness(system, UNBOUNDED)
    if isinstance(result, Witness):
        return True, False, result.to_dict(system)
    return False, result.gave_up, result.to_dict()


def mismatches(count: int, seed: int = 1) -> list[tuple[int, str, str]]:
    """(index, transform, system text) for every transform of the first
    `count` systems of the seed that changes the outcome."""
    systems = random.Random(seed)
    found = []
    for index in range(count):
        text = gen_recursive_system(systems)
        proved, gave_up, document = outcome(text)
        variants = {
            "symbols": swapped(text, "f", "g"),
            "reversed": permuted(text),
            "shuffled": permuted(text, random.Random(f"{seed}:{index}")),
            "variables": swapped(text, "x", "y"),
        }
        for transform, variant in variants.items():
            v_proved, v_gave_up, v_document = outcome(variant)
            if (v_proved, v_gave_up) != (proved, gave_up) or (
                    transform == "variables"
                    and v_document != renamed(document, "x", "y")):
                found.append((index, transform, text))
    return found


def assert_invariant(count: int, seed: int = 1) -> None:
    found = mismatches(count, seed)
    assert not found, found[:5]


class TestMetamorphic:
    def test_transforms_keep_the_outcome(self):
        assert_invariant(150)

    def test_the_slice_has_both_outcomes(self):
        # the slice holds proofs, some of which need a multiset status,
        # and failures, so each side of the comparison is exercised
        systems = random.Random(1)
        results = [outcome(gen_recursive_system(systems)) for _ in range(150)]
        proved = [document for ok, _, document in results if ok]
        assert 0 < len(proved) < len(results)
        assert any(status != "lex" for document in proved
                   for status in document["status"].values())
