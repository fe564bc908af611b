"""Seeded input generators for the four benchmark workloads.

Each workload is an endless sequence of *cycles*. A cycle is a fixed list of
input slots (for example "fact N exit with N near 26"); the seed draws what
does not change the amount of work much (constants, names, small offsets of
a size, the order of the calls). Whole cycles keep the mix of inputs, and so
the percentiles, the same from one seed to the next, while the inputs
themselves differ.

Every case carries its expected outcome, computed here without lcstrs:
closed-form arithmetic for normal forms, a termination verdict known by
construction for every `prove` input, and the generated declarations and
rule tokens for every `check` input.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from reference import tokens

AND = " /\\ "

# Every cycle has an odd number of slots. With whole cycles, the median and
# p90 then fall in the middle of one slot's group of calls, not on the edge
# between two slots of different cost, where they would jump.

# Deepest nesting the recursive parser and typechecker handle in a `check`
# call today is 75 parentheses and 493 chained operators; the deep slots
# stay well inside both, so that no call fails.
PAREN_DEPTHS = (20, 45)
CHAIN_DEPTHS = (120, 250, 380)


@dataclass
class Case:
    """One CLI call and what a correct answer looks like."""
    name: str                 # names the input in failure listings
    kind: str                 # input type, for per-type trace figures
    argv: list
    work: float = 0           # proofs or kilobytes; run counts its steps
    # run
    result: Optional[str] = None
    steps: Optional[int] = None
    fuel: Optional[int] = None
    # prove: True / False = known (non)terminating
    terminating: Optional[bool] = None
    # check: None = the file must be rejected with exit 1
    symbols: Optional[list] = None
    rules: Optional[list] = None


# ---------------------------------------------------------------------------
# Shared generated systems

LIST_SYSTEM = """\
(* user sort List with higher-order map and fold *)
fun nil : List
fun cons : Int -> List -> List
fun map : (Int -> Int) -> List -> List
fun fold : (Int -> Int -> Int) -> Int -> List -> Int
fun range : Int -> Int -> List
rule map f nil -> nil [true]
rule map f (cons x xs) -> cons (f x) (map f xs) [true]
rule fold f a nil -> a [true]
rule fold f a (cons x xs) -> fold f (f a x) xs [true]
rule range i n -> nil [i > n]
rule range i n -> cons i (range (i + 1) n) [i <= n]
"""


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _print_list(values: list) -> str:
    text = "nil"
    for v in reversed(values):
        text = f"cons {v} {text}" if text == "nil" else f"cons {v} ({text})"
    return text


# ---------------------------------------------------------------------------
# rewrite: `run` on fact, iter, List map/fold/range and loop


FACT_SLOTS = (8, 17, 26, 35)
ITER_SLOTS = (60, 130, 200, 270)
# (shape, strategy, list length): shape 0 sums a doubled range, 1 maps over
# a range, 2 multiplies a range
LIST_SLOTS = ((0, "innermost", 14), (1, "outermost", 20),
              (2, "innermost", 12), (0, "outermost", 24))


def rewrite_cycle(rng: random.Random, workdir: str, systems: str) -> list:
    fact_sys = os.path.join(systems, "fact.lcstrs")
    iter_sys = os.path.join(systems, "iter.lcstrs")
    loop_sys = os.path.join(systems, "loop.lcstrs")
    list_sys = _write(workdir, "list.lcstrs", LIST_SYSTEM)
    cases = []
    for size in FACT_SLOTS:
        n = size + rng.randint(-1, 1)
        cases.append(Case(
            f"fact {n}", "fact",
            ["run", fact_sys, "--term", f"fact {n} exit", "--format", "json"],
            result=f"exit {math.factorial(n)}", steps=4 * n + 1))
    for size in ITER_SLOTS:
        n = size + rng.randint(-3, 3)
        c, x = rng.randint(1, 9), rng.randint(0, 50)
        if rng.random() < 0.5:
            f, value = f"[+] {c}", x + n * c
        else:
            f, value = f"[-] {c}", x if n % 2 == 0 else c - x
        cases.append(Case(
            f"iter {n} ({f}) {x}", "iter",
            ["run", iter_sys, "--term", f"iter {n} ({f}) {x}",
             "--format", "json"],
            result=str(value), steps=3 * n + 1))
    for shape, strategy, length in LIST_SLOTS:
        # the length stays fixed: the median falls in one of these groups
        a = rng.randint(1, 5)
        b = a + length - 1
        c = rng.randint(1, 9)
        if shape == 0:
            term = f"fold [+] {c} (map ([*] 2) (range {a} {b}))"
            result = str(c + 2 * sum(range(a, b + 1)))
        elif shape == 1:
            term = f"map ([+] {c}) (range {a} {b})"
            result = _print_list([v + c for v in range(a, b + 1)])
        else:
            term = f"fold [*] {c} (range {a} {b})"
            result = str(c * math.prod(range(a, b + 1)))
        cases.append(Case(
            f"{term} ({strategy})", "list",
            ["run", list_sys, "--term", term, "--strategy", strategy,
             "--format", "json"],
            result=result))
    fuel = rng.randint(20, 60)
    c = rng.randint(0, 99)
    cases.append(Case(
        f"f {c} under fuel {fuel}", "loop",
        ["run", loop_sys, "--term", f"f {c}", "--fuel", str(fuel),
         "--format", "json"],
        result=f"f {c}", steps=fuel, fuel=fuel))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# search: `prove` on the status-blowup family, the shipped systems and List

# Cycle mix: with 4/4/4 blowup systems for k = 3..5 next to five small
# systems, the median falls inside the group of k=3 and List, and p90 inside
# k=5, away from the jumps between groups. A k=6 call costs as much as a
# third of a cycle and k=7 as much as a whole one, so both are timed by the
# traced run's sweep instead, where each is called alone.
BLOWUP_MIX = {3: 4, 4: 4, 5: 4}
PROVE_TIMEOUT = "20"


def blowup_system(k: int, variables: tuple = ("x", "y", "z")) -> str:
    """One swap rule that only mul(2) orients, then a chain of k arity-3
    symbols. The swap rule comes first, so the status product tries every
    status of the chain before g leaves lex: the search grows as 3^k."""
    x, y, z = variables
    lines = ["(* status blowup: swap rule plus a chain of "
             f"{k} arity-3 symbols *)",
             "fun g : Int -> Int -> Int"]
    lines += [f"fun h{i} : Int -> Int -> Int -> Int" for i in range(1, k + 1)]
    lines.append(f"rule g {x} {y} -> g {y} ({x} - 1) [{x} > 0]")
    for i in range(1, k):
        lines.append(f"rule h{i} {x} {y} {z} -> h{i + 1} {x} {y} {z} [true]")
    lines.append(f"rule h{k} {x} {y} {z} -> g {x} {y} [true]")
    return "\n".join(lines) + "\n"


def _variable_names(rng: random.Random, count: int) -> tuple:
    names = set()
    while len(names) < count:
        names.add(rng.choice("xyzuvw") + str(rng.randint(0, 99)))
    return tuple(sorted(names))


def search_cycle(rng: random.Random, workdir: str, systems: str) -> list:
    def prove(name, kind, path, terminating):
        return Case(name, kind,
                    ["prove", path, "--format", "json",
                     "--timeout", PROVE_TIMEOUT],
                    work=1, terminating=terminating)

    cases = [
        prove("fact.lcstrs", "shipped", os.path.join(systems, "fact.lcstrs"), True),
        prove("iter.lcstrs", "shipped", os.path.join(systems, "iter.lcstrs"), True),
        prove("loop.lcstrs", "shipped", os.path.join(systems, "loop.lcstrs"), False),
        prove("empty.lcstrs", "shipped", os.path.join(systems, "empty.lcstrs"), True),
    ]
    list_sys = _write(workdir, "list.lcstrs", LIST_SYSTEM)
    # terminates (structural recursion, range bounded by n - i) but the
    # ordering does not orient map today; see DESIGN.md
    cases.append(prove("list.lcstrs", "list", list_sys, True))
    for k, copies in BLOWUP_MIX.items():
        for _ in range(copies):
            variables = _variable_names(rng, 3)
            name = f"blowup-k{k}-{'-'.join(variables)}"
            path = _write(workdir, name + ".lcstrs", blowup_system(k, variables))
            cases.append(prove(name, f"blowup-k{k}", path, True))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# entail: `prove` on one-symbol arithmetic systems with known termination


@dataclass(frozen=True)
class ArithShape:
    """The structure of one entail system: which argument moves and which
    guard atoms constrain the others."""
    arity: int
    terminating: bool
    moving: int                   # index of the argument that changes
    bound: int                    # guard constant of the moving argument
    atoms: tuple                  # (u, v, c): xu * xv > c, or xu <= c if v < 0


def arith_shapes() -> list:
    """The fixed corpus of entail structures: for each arity 2-4 and each
    verdict, three draws with linear guards and one with a product of two
    arguments, plus one more linear draw. It is fixed so that the mix, and
    so the percentiles, do not depend on the workload seed; the seed draws
    names, atom order, step sizes and the order of the calls."""
    rng = random.Random("entail-shapes")
    slots = [(arity, terminating, nonlinear)
             for arity in (2, 3, 4) for terminating in (True, False)
             for nonlinear in (False, False, False, True)]
    slots.append((3, True, False))      # keeps the cycle odd
    shapes = []
    for arity, terminating, nonlinear in slots:
        moving = rng.randrange(arity)
        others = [i for i in range(arity) if i != moving]
        atoms = []
        for _ in range(rng.randint(1, 2)):
            if nonlinear and len(others) >= 2:
                u, v = rng.sample(others, 2)
                atoms.append((u, v, rng.randint(0, 5)))
            else:
                atoms.append((rng.choice(others), -1, rng.randint(0, 9)))
        bound = rng.randint(0, 3) if terminating else rng.randint(-3, 3)
        shapes.append(ArithShape(arity, terminating, moving, bound,
                                 tuple(atoms)))
    return shapes


def arith_system(rng: random.Random, shape: ArithShape) -> str:
    """One rule h x1..xn -> h ... that changes the moving argument xp only.

    Terminating: xp drops by d >= 1 under a guard xp > c with c >= 0, so xp
    bounds the number of steps. Nonterminating: xp grows under xp >= c and
    every other guard atom mentions only unchanged arguments, so a state
    that meets the guard (xp = c + 1, the others chosen to satisfy their
    atoms) rewrites forever. The other atoms load the solver, not the
    verdict.
    """
    name = "h" + "".join(rng.choice("bcdfgjklmnpqrtvwz") for _ in range(3))
    prefix = rng.choice("abcdeg")      # one prefix keeps the variable order
    xs = [f"{prefix}{i}" for i in range(1, shape.arity + 1)]
    p = shape.moving
    rhs = list(xs)
    d = rng.randint(1, 2)
    if shape.terminating:
        atoms = [f"{xs[p]} > {shape.bound}"]
        rhs[p] = f"({xs[p]} - {d})"
    else:
        atoms = [f"{xs[p]} >= {shape.bound}"]
        rhs[p] = f"({xs[p]} + {d})"
    for u, v, c in shape.atoms:
        atoms.append(f"{xs[u]} * {xs[v]} > {c}" if v >= 0 else f"{xs[u]} <= {c}")
    rng.shuffle(atoms)
    sort = " -> ".join(["Int"] * (shape.arity + 1))
    return (f"fun {name} : {sort}\n"
            f"rule {name} {' '.join(xs)} -> {name} {' '.join(rhs)} "
            f"[{AND.join(atoms)}]\n")


def entail_cycle(rng: random.Random, workdir: str, systems: str) -> list:
    cases = []
    for i, shape in enumerate(arith_shapes()):
        text = arith_system(rng, shape)
        name = (f"arith{i:02d}-a{shape.arity}-"
                f"{'t' if shape.terminating else 'n'}-{rng.getrandbits(32):08x}")
        path = _write(workdir, name + ".lcstrs", text)
        cases.append(Case(
            name, f"arith-a{shape.arity}",
            ["prove", path, "--format", "json", "--timeout", PROVE_TIMEOUT],
            work=1, terminating=shape.terminating))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# check: large valid systems, invalid files, deeply nested terms

_CMP = ("<", "<=", ">", ">=", "=", "!=")


def _int_expr(rng: random.Random, env: list, arities: dict, depth: int) -> str:
    """A fully parenthesized Int expression over `env` and declared symbols."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice(env) if rng.random() < 0.7 else str(rng.randint(0, 99))
    if roll < 0.45 and arities:
        name = rng.choice(list(arities))
        args = [_int_expr(rng, env, arities, depth - 1)
                for _ in range(arities[name])]
        return "(" + " ".join([name] + args) + ")"
    op = rng.choice(("+", "-", "*"))
    return (f"({_int_expr(rng, env, arities, depth - 1)} {op} "
            f"{_int_expr(rng, env, arities, depth - 1)})")


def large_system(rng: random.Random, n_symbols: int, n_rules: int):
    arities = {f"f{i}": rng.randint(1, 3) for i in range(1, n_symbols + 1)}
    symbols = [(name, " -> ".join(["Int"] * (a + 1)))
               for name, a in arities.items()]
    lines = ["(* generated: nested arithmetic over many symbols *)"]
    lines += [f"fun {name} : {ty}" for name, ty in symbols]
    rules = []
    names = list(arities)
    for r in range(n_rules):
        head = names[r % len(names)]
        env = [f"x{i}" for i in range(1, arities[head] + 1)]
        lhs = " ".join([head] + env)
        rhs = _int_expr(rng, env, arities, 4)
        atoms = [f"{_int_expr(rng, env, {}, 2)} {rng.choice(_CMP)} "
                 f"{_int_expr(rng, env, {}, 2)}"
                 for _ in range(rng.randint(2, 4))]
        constraint = AND.join(atoms)
        lines.append(f"rule {lhs} -> {rhs} [{constraint}]")
        rules.append((tokens(lhs), tokens(rhs), tokens(constraint)))
    return "\n".join(lines) + "\n", symbols, rules


# each invalid slot breaks one rule of the file format
INVALID_LINES = (
    "rule f1 x -> undeclared x [true]",          # unknown head, untyped
    "rule x + 1 -> x [true]",                    # theory left-hand side
    "rule f1 x -> x",                            # no constraint part
    "fun f2 : Int",                              # symbol declared twice
)


def _invalid_system(rng: random.Random, bad: str) -> str:
    """A valid file of 20 symbols and rules with the bad line after rule 10,
    so that the work before the error is the same from seed to seed."""
    text, symbols, _ = large_system(rng, 20, 20)
    lines = text.splitlines()
    lines.insert(len(symbols) + 1 + 10, bad)
    return "\n".join(lines) + "\n"


def _deep_system(rng: random.Random, chained: bool, depth: int):
    if chained:
        rhs = "x" + "".join(f" {rng.choice(('+', '-', '*'))} {rng.randint(1, 9)}"
                            for _ in range(depth))
    else:
        rhs = "(" * depth + "x" + "".join(
            f" {rng.choice(('+', '*'))} {rng.randint(1, 9)})" for _ in range(depth))
    constraint = f"x > {rng.randint(0, 9)}"
    text = f"fun deep : Int -> Int\nrule deep x -> {rhs} [{constraint}]\n"
    rules = [(tokens("deep x"), tokens(rhs), tokens(constraint))]
    return text, [("deep", "Int -> Int")], rules


def check_cycle(rng: random.Random, workdir: str, systems: str) -> list:
    tag = f"{rng.getrandbits(40):010x}"

    def case(name, kind, text, symbols=None, rules=None):
        name = f"{name}-{tag}"
        path = _write(workdir, name + ".lcstrs", text)
        return Case(name, kind, ["check", path, "--format", "json"],
                    work=len(text.encode()) / 1024, symbols=symbols,
                    rules=rules)

    cases = []
    for i in range(2):
        n = 200 + rng.randint(-3, 3)
        text, symbols, rules = large_system(rng, n, n)
        cases.append(case(f"large-{i}", "large", text, symbols, rules))
    for i, bad in enumerate(INVALID_LINES):
        cases.append(case(f"invalid-{i}", "invalid", _invalid_system(rng, bad)))
    for chained, depths in ((True, CHAIN_DEPTHS), (False, PAREN_DEPTHS)):
        kind = "deep-chain" if chained else "deep-paren"
        for depth in depths:
            depth += rng.randint(-depth // 20, depth // 20)
            text, symbols, rules = _deep_system(rng, chained, depth)
            cases.append(case(f"{kind}-{depth}", kind, text, symbols, rules))
    rng.shuffle(cases)
    return cases


CYCLES = {
    "rewrite": rewrite_cycle,
    "search": search_cycle,
    "entail": entail_cycle,
    "check": check_cycle,
}


def cycles(workload: str, seed: int, workdir: str, systems: str
           ) -> Iterator[list]:
    """The workload's cycles for one seed: the same seed, the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    make = CYCLES[workload]
    while True:
        yield make(rng, workdir, systems)
