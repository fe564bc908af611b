"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from helpers import (
    calc_redexes, derived_witness, dershowitz_manna_gt, gen_ground_term,
    gen_theory_term, multisets_up_to, random_calc_normalize, subterms,
)
from lcstrs import theory
from lcstrs.core import BOOL_T, INT_T, Substitution, Term, arrow
from lcstrs.horpo import LEX, Horpo, HorpoParams
from lcstrs.prover import Witness, check_witness, find_witness
from lcstrs.rewrite import normalize, respects, step_at
from lcstrs.solver import Solver
from lcstrs.syntax import parse_term, print_term
from lcstrs.theory import bool_value, int_value, interpret

RECORDS = {}  # shared between criteria 3/4 and 8


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def witness_params(system) -> HorpoParams:
    sig = system.signature
    init, fact, comp, exit_ = (sig.lookup(n)[0]
                               for n in ("init", "fact", "comp", "exit"))
    return HorpoParams([(init, fact), (fact, comp), (init, exit_)],
                       {fact: LEX}, bound=0)


# ---------------------------------------------------------------------------
# term pools for the sampled suites

FN_BUILDERS = (
    lambda sig, c: sig.lookup("exit")[0],
    lambda sig, c: theory.MUL.apply(int_value(c)),
    lambda sig, c: theory.ADD.apply(int_value(c)),
    lambda sig, c: sig.lookup("comp")[0].apply(sig.lookup("exit")[0],
                                               sig.lookup("exit")[0]),
    lambda sig, c: sig.lookup("comp")[0].apply(sig.lookup("exit")[0],
                                               theory.MUL.apply(int_value(c))),
)


def fn_term(sig, rng) -> Term:
    return rng.choice(FN_BUILDERS)(sig, rng.randint(-3, 9))


def comp_nest(sig, rng, depth: int) -> Term:
    comp, exit_ = sig.lookup("comp")[0], sig.lookup("exit")[0]
    t = exit_
    for _ in range(depth):
        t = comp.apply(exit_, t)
    return t


def gt_success_pairs(system, rng, count):
    """Constructed pairs on which the strict comparison is expected to hold
    under the factorial witness parameters."""
    sig = system.signature
    fact, exit_ = sig.lookup("fact")[0], sig.lookup("exit")[0]
    pairs = []
    while len(pairs) < count:
        family = rng.randrange(4)
        if family == 0:  # values under the bounded ordering
            a = rng.randint(1, 9)
            b = rng.randint(-9, a - 1)
            pairs.append((int_value(a), int_value(b)))
        elif family == 1:  # partial applications of fact
            a = rng.randint(1, 9)
            b = rng.randint(-9, a - 1)
            pairs.append((fact.apply(int_value(a)), fact.apply(int_value(b))))
        elif family == 2:  # full applications of fact
            a = rng.randint(1, 9)
            b = rng.randint(-9, a - 1)
            k = fn_term(sig, rng)
            pairs.append((fact.apply(int_value(a), k),
                          fact.apply(int_value(b), k)))
        else:  # nested compositions above their own pieces
            d = rng.randint(1, 3)
            pairs.append((comp_nest(sig, rng, d), comp_nest(sig, rng, d - 1)))
    return pairs


def respecting_samples(system, rng, rule, count):
    """Ground substitutions respecting the rule, with small integer values."""
    sig = system.signature
    by_name = {v.name: v for v in (rule.lhs.free_vars | rule.rhs.free_vars
                                   | rule.constraint.free_vars)}
    out = []
    for _ in range(count):
        mapping = {}
        for name, var in by_name.items():
            if var.type == INT_T:
                if name == "n" and rule.constraint is not theory.TRUE:
                    head = rule.constraint.head
                    low, high = (-9, 0) if head is theory.LE else (1, 9)
                    mapping[var] = int_value(rng.randint(low, high))
                else:
                    mapping[var] = int_value(rng.randint(-9, 9))
            elif var.type == BOOL_T:
                mapping[var] = bool_value(rng.random() < 0.5)
            else:
                mapping[var] = fn_term(sig, rng)
        sigma = Substitution(mapping)
        assert respects(sigma, rule), (rule, sigma)
        out.append(sigma)
    return out


def inject_calc_redex(term: Term, rng) -> Term | None:
    """Replace one integer value occurrence by a two-value redex that
    calculates back to it in a single step."""
    spots = [pos for pos, sub in subterms(term)
             if sub.is_value and sub.type == INT_T]
    if not spots:
        return None
    pos = rng.choice(spots)
    value = theory.semantic_value(term.subterm_at(pos))
    d = rng.randint(-5, 5)
    op, a, b = rng.choice((
        (theory.ADD, value - d, d),
        (theory.SUB, value + d, d),
        (theory.MUL, value, 1),
    ))
    return term.replace_at(pos, op.apply(int_value(a), int_value(b)))


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_example_round_trip(fact_source):
    with criterion(1, "example file parses, typechecks, rules validate"):
        from lcstrs.core import Rule
        from lcstrs.syntax import parse_system
        start = time.perf_counter()
        system = parse_system(fact_source)
        for rule in system.rules:
            assert Rule(rule.lhs, rule.rhs, rule.constraint) == rule
        elapsed = time.perf_counter() - start
        assert len(system.rules) == 4
        assert len(system.declarations) == 4
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_2_trace_reproduction(fact_system):
    with criterion(2, "rewrite trace matches the documented sequence"):
        start_term = parse_term("fact 1 exit", fact_system)
        result = normalize(start_term, fact_system, strategy="innermost",
                           fuel=10)
        rendered = [print_term(s.result) for s in result.steps]
        assert rendered[:3] == [
            "fact (1 - 1) (comp exit ([*] 1))",
            "fact 0 (comp exit ([*] 1))",
            "comp exit ([*] 1) 1",
        ]
        assert [s.kind for s in result.steps[:3]] == ["rule#4", "calc",
                                                      "rule#3"]
        assert not result.exhausted
        assert result.total_steps <= 10
        assert print_term(result.term) == "exit 1"
        assert result.term == parse_term("exit 1", fact_system)


def test_criterion_3_witness_check(fact_system):
    with criterion(3, "documented witness parameters orient all four rules"):
        params = witness_params(fact_system)
        solver = Solver()  # no external solver
        start = time.perf_counter()
        result = check_witness(derived_witness(params, fact_system, solver),
                               fact_system, solver=solver)
        elapsed = time.perf_counter() - start
        assert result.ok, result.diagnostics
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        RECORDS["criterion3_solver"] = solver


def test_criterion_4_witness_search(fact_system):
    with criterion(4, "search finds a verified witness with the documented "
                      "precedence and status"):
        start = time.perf_counter()
        witness = find_witness(fact_system)
        elapsed = time.perf_counter() - start
        assert isinstance(witness, Witness)
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
        sig = fact_system.signature
        init, fact, comp, exit_ = (sig.lookup(n)[0]
                                   for n in ("init", "fact", "comp", "exit"))
        assert witness.params.prec_gt(init, fact)
        assert witness.params.prec_gt(fact, comp)
        assert witness.params.prec_gt(init, exit_)
        assert witness.params.status_of(fact) == LEX
        verification_solver = Solver()
        assert check_witness(witness, fact_system,
                             solver=verification_solver).ok
        RECORDS["criterion4_solver"] = verification_solver


def test_criterion_5_multiset_oracle():
    with criterion(5, "multiset extension agrees with the brute-force "
                      "ordering on all small multisets"):
        start = time.perf_counter()
        engine = Horpo(HorpoParams(bound=0))
        universe = (0, 1, 2, 3)
        multisets = multisets_up_to(4, universe)
        cases = 0
        for ms, ns in itertools.product(multisets, repeat=2):
            got = engine.mul_ext(tuple(int_value(v) for v in ms),
                                 tuple(int_value(v) for v in ns))
            expected = dershowitz_manna_gt(ms, ns, lambda a, b: a > b)
            assert (got is not None) == expected, (ms, ns)
            cases += 1
        elapsed = time.perf_counter() - start
        assert cases == len(multisets) ** 2 and cases > 4000
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_6_calculation_confluence():
    with criterion(6, "calculation is confluent and strictly size-"
                      "decreasing on 10,000 random theory terms"):
        rng = random.Random(101)
        decreases = []

        def watch(before, after):
            decreases.append(after.size < before.size)

        for _ in range(10000):
            t = gen_theory_term(rng, budget=12)
            assert t.size <= 12
            a = random_calc_normalize(t, random.Random(rng.getrandbits(32)),
                                      watch_size=watch)
            b = random_calc_normalize(t, random.Random(rng.getrandbits(32)),
                                      watch_size=watch)
            assert a == b, print_term(t)
        assert all(decreases)
        assert not calc_redexes(a)


def test_criterion_7_ordering_coherence(fact_system):
    params = witness_params(fact_system)
    sig = fact_system.signature
    fact = sig.lookup("fact")[0]
    exit_ = sig.lookup("exit")[0]

    with criterion(7, "ordering coherence suites, >= 1000 samples each, "
                      "0 violations"):
        rng = random.Random(103)
        engine = Horpo(params)

        # orientation coherence: instantiated oriented rules stay oriented
        checked = 0
        for rule in fact_system.rules:
            assert Horpo(params).orient_rule(rule) is not None
            for sigma in respecting_samples(fact_system, rng, rule, 260):
                lhs, rhs = sigma.apply(rule.lhs), sigma.apply(rule.rhs)
                assert engine.gt(lhs, rhs) is not None, \
                    (print_term(lhs), print_term(rhs))
                checked += 1
        assert checked >= 1000

        # rule-monotonicity: appending an argument preserves the comparison
        checked = 0
        while checked < 1000:
            if rng.random() < 0.5:
                a = rng.randint(1, 9)
                b = rng.randint(-9, a - 1)
                s0, s0p = fact.apply(int_value(a)), fact.apply(int_value(b))
                t1 = fn_term(sig, rng)
            else:
                d = rng.randint(1, 3)
                s0, s0p = comp_nest(sig, rng, d), comp_nest(sig, rng, d - 1)
                t1 = int_value(rng.randint(-5, 5))
            if s0.is_theory_term or engine.gt(s0, s0p) is None:
                continue
            assert engine.gt(s0.apply(t1), s0p.apply(t1)) is not None, \
                (print_term(s0), print_term(s0p), print_term(t1))
            checked += 1

        # dually in the argument position
        checked = 0
        while checked < 1000:
            a = rng.randint(1, 9)
            b = rng.randint(-9, a - 1)
            k = fn_term(sig, rng)
            t1 = fact.apply(int_value(a), k)
            t1p = fact.apply(int_value(b), k)
            t0 = rng.choice((exit_, theory.MUL.apply(int_value(rng.randint(-3, 3))),
                             comp_nest(sig, rng, 1)))
            if t1.is_theory_term or engine.gt(t1, t1p) is None:
                continue
            assert engine.gt(t0.apply(t1), t0.apply(t1p)) is not None
            checked += 1

        # calculation compatibility: expanding a value into a redex that
        # calculates back to it preserves strict comparisons
        checked = 0
        while checked < 1000:
            pairs = gt_success_pairs(fact_system, rng, 1)
            s_prime, t = pairs[0]
            if engine.gt(s_prime, t) is None:
                continue
            s = inject_calc_redex(s_prime, rng)
            if s is None:
                continue
            steps = [res for _, res in calc_redexes(s)]
            assert s_prime in steps  # one calculation step leads back
            assert engine.gt(s, t) is not None, \
                (print_term(s), print_term(t))
            checked += 1

        # irreflexivity
        checked = 0
        rng_terms = random.Random(107)
        while checked < 1000:
            kind = rng_terms.randrange(3)
            if kind == 0:
                t = gen_ground_term(rng_terms, sig,
                                    rng_terms.choice((INT_T, BOOL_T,
                                                      arrow(INT_T, INT_T))),
                                    depth=3)
            elif kind == 1:
                t = gen_theory_term(rng_terms, budget=9)
            else:
                t, _ = gt_success_pairs(fact_system, rng_terms, 1)[0]
            assert engine.gt(t, t) is None, print_term(t)
            checked += 1

        # no two-element cycles
        checked = 0
        for s, t in gt_success_pairs(fact_system, random.Random(109), 1100):
            if engine.gt(s, t) is None:
                continue
            assert engine.gt(t, s) is None, (print_term(s),
                                                   print_term(t))
            checked += 1
        assert checked >= 1000


def test_criterion_8_entailment_soundness(fact_system):
    with criterion(8, "no Yes verdict from criteria 3-4 is falsified by "
                      "1000 random substitutions"):
        if "criterion3_solver" not in RECORDS:  # isolated run
            solver = Solver()
            check_witness(derived_witness(witness_params(fact_system),
                                          fact_system, solver),
                          fact_system, solver=solver)
            RECORDS["criterion3_solver"] = solver
        if "criterion4_solver" not in RECORDS:
            witness = find_witness(fact_system)
            solver = Solver()
            check_witness(witness, fact_system, solver=solver)
            RECORDS["criterion4_solver"] = solver
        solvers = [RECORDS[k] for k in ("criterion3_solver",
                                        "criterion4_solver")]
        rng = random.Random(113)
        seen = set()
        yes_queries = 0
        for solver in solvers:
            assert solver.log
            for record in solver.log:
                if not record.verdict.is_yes:
                    continue
                key = (print_term(record.phi), print_term(record.psi),
                       tuple(sorted(v.name for v in record.variables)))
                if key in seen:
                    continue
                seen.add(key)
                yes_queries += 1
                variables = sorted(record.variables, key=lambda v: v.name)
                for _ in range(1000):
                    sigma = Substitution({
                        v: (bool_value(rng.random() < 0.5)
                            if v.type == BOOL_T
                            else int_value(rng.randint(-50, 50)))
                        for v in variables})
                    phi = sigma.apply(record.phi)
                    psi = sigma.apply(record.psi)
                    if interpret(phi, record.bound) is True:
                        assert interpret(psi, record.bound) is True, key
        assert yes_queries > 0


def test_criterion_9_end_to_end_smoke(fact_system):
    with criterion(9, "100 random start terms over the proved system reach "
                      "normal forms"):
        rng = random.Random(127)
        sig = fact_system.signature
        for _ in range(100):
            target = rng.choice((INT_T, INT_T, BOOL_T, arrow(INT_T, INT_T)))
            t = gen_ground_term(rng, sig, target, depth=5,
                                int_lo=-5, int_hi=5)
            result = normalize(t, fact_system, fuel=10000)
            assert not result.exhausted, print_term(t)
            for pos, _ in subterms(result.term):
                assert not step_at(result.term, pos, fact_system)
