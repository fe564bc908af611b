"""Golden entailment verdicts.

`Solver().entails(phi, psi, variables, b)` must give the same verdict,
counterexample included, on a seeded corpus of queries over `x y z : Int`
and `p q : Bool`, with b in {-2, 0, 3}. The corpus has two parts: random
constraints from `gen_theory_term`, and targeted linear pairs, where phi is
a conjunction of one to three comparisons and psi is one of phi's atoms
shifted, flipped or summed with another. The verdicts were recorded again
when the syntactic stage folded into the linear fast path and a premise
could be used twice: 196 entries went from Unknown to Yes (195 linear goals
summed with themselves, and `(q !>= q) !>= not (8 !>= z)`), and no other
verdict changed. They were recorded again when the premise table gave way
to one refutation, a case split of phi /\\ not psi and Fourier-Motzkin
elimination over the integers: 147 entries went from Unknown to Yes (34
over Bool alone and 52 others in the random part, 61 linear pairs), and no
other verdict changed.

Run this file as a script to record the verdicts again:
`PYTHONPATH=src python tests/test_entails_golden.py`.
"""

import itertools
import json
import random
from functools import reduce
from pathlib import Path

from helpers import BOOL_VARS, INT_VARS, gen_theory_term, with_variables
from lcstrs import theory
from lcstrs.solver import Solver, compile_constraint
from lcstrs.syntax import print_term
from lcstrs.theory import (
    ADD, AND, EQ, GE, GT, LE, LT, MUL, NE, SUB, SUP_INT, SUPEQ_INT, int_value,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "entails_verdicts.json"
BOUNDS = (-2, 0, 3)
COMPARISONS = (LE, LT, GE, GT, EQ, NE)
MIRROR = {LE: GE, LT: GT, GE: LE, GT: LT, EQ: EQ, NE: NE}
RANDOM_QUERIES = 1000
LINEAR_QUERIES = 1200


def _linear(rng: random.Random):
    """A linear Int term: one or two scaled variables plus a constant, or
    a constant alone."""
    if rng.random() < 0.15:
        return int_value(rng.randint(-3, 3))
    term = None
    for v in rng.sample(INT_VARS, rng.randint(1, 2)):
        c = rng.choice((1, 1, 1, -1, 2, 3))
        part = v if c == 1 else MUL.apply(int_value(c), v)
        term = part if term is None else rng.choice((ADD, SUB)).apply(term, part)
    k = rng.randint(-3, 3)
    return term if k == 0 else ADD.apply(term, int_value(k))


def _shifted(term, k: int):
    return term if k == 0 else ADD.apply(term, int_value(k))


def _linear_pair(rng: random.Random):
    atoms = [rng.choice(COMPARISONS).apply(_linear(rng), _linear(rng))
             for _ in range(rng.randint(1, 3))]
    phi = reduce(AND.apply, atoms)
    atom = rng.choice(atoms)
    head, (left, right) = atom.head, atom.args
    kind = rng.randrange(3)
    if kind == 0:  # shifted by -1, 0 or +1, under the same or another operator
        op = head if rng.random() < 0.5 else \
            rng.choice(COMPARISONS + (SUP_INT, SUPEQ_INT))
        psi = op.apply(left, _shifted(right, rng.choice((-1, 0, 1))))
    elif kind == 1:  # flipped: sides swapped, operator mirrored or kept
        op = MIRROR[head] if rng.random() < 0.7 else head
        psi = op.apply(right, left)
    else:  # summed with another atom of phi
        left2, right2 = rng.choice(atoms).args
        psi = head.apply(ADD.apply(left, left2), ADD.apply(right, right2))
    return phi, psi


def corpus() -> list[tuple]:
    """The seeded queries, as (phi, psi, bound) triples."""
    rng = random.Random(2307)
    queries = []
    for i in range(RANDOM_QUERIES):
        phi, psi = (with_variables(rng, gen_theory_term(
            rng, theory.BOOL_T, budget=rng.randint(5, 17))) for _ in range(2))
        queries.append((phi, psi, BOUNDS[i % 3]))
    for i in range(LINEAR_QUERIES):
        queries.append((*_linear_pair(rng), BOUNDS[i % 3]))
    return queries


def verdicts() -> list[list]:
    entries = []
    for phi, psi, bound in corpus():
        verdict = Solver().entails(
            phi, psi, phi.free_vars | psi.free_vars, bound)
        entries.append([print_term(phi), print_term(psi), bound, repr(verdict)])
    return entries


def _dump(entries: list[list]) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_entails_verdicts_are_golden():
    assert _dump(verdicts()) == GOLDEN.read_text()


def test_corpus_covers_every_verdict_and_comparison():
    entries = json.loads(GOLDEN.read_text())
    kinds = {verdict.split("(")[0] for *_, verdict in entries}
    assert kinds == {"Yes", "No", "Unknown"}
    premise_ops, goal_ops = set(), set()
    for (phi, psi, _), (*_, verdict) in zip(corpus(), entries):
        if verdict != "Yes":
            continue
        premise_ops.update(atom.head for atom in _conjuncts(phi))
        goal_ops.add(psi.head)
    assert premise_ops >= set(COMPARISONS)
    assert goal_ops >= set(COMPARISONS)


def _yes_verdicts_holding_on_a_grid(queries, variables, points) -> int:
    """Assert that every point that satisfies the phi of a Yes entry
    satisfies its psi; return the number of Yes entries."""
    checked = 0
    for (phi, psi, bound), (*_, verdict) in queries:
        if verdict != "Yes":
            continue
        holds = compile_constraint(phi, variables, bound)
        goal = compile_constraint(psi, variables, bound)
        for point in points:
            assert not holds(point) or goal(point), (
                print_term(phi), print_term(psi), bound, point)
        checked += 1
    return checked


def test_linear_yes_verdicts_hold_on_a_grid():
    # every point of x, y, z in [-4, 4]
    entries = json.loads(GOLDEN.read_text())
    points = list(itertools.product(range(-4, 5), repeat=len(INT_VARS)))
    queries = list(zip(corpus(), entries))[RANDOM_QUERIES:]
    assert _yes_verdicts_holding_on_a_grid(queries, INT_VARS, points) > 700


def test_random_yes_verdicts_hold_on_a_grid():
    # every point of x, y, z in [-4, 4] and p, q in {false, true}
    entries = json.loads(GOLDEN.read_text())
    points = list(itertools.product(
        *[range(-4, 5)] * len(INT_VARS), *[(False, True)] * len(BOOL_VARS)))
    queries = list(zip(corpus(), entries))[:RANDOM_QUERIES]
    assert _yes_verdicts_holding_on_a_grid(
        queries, INT_VARS + BOOL_VARS, points) > 350


def _conjuncts(term):
    head, args = term.head, term.args
    if head is AND and len(args) == 2:
        return _conjuncts(args[0]) + _conjuncts(args[1])
    return [term]


if __name__ == "__main__":
    GOLDEN.write_text(_dump(verdicts()))
