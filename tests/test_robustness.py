"""Cross-cutting robustness checks beyond the per-module suites."""

import json
import math
import random
import sys

import pytest

from helpers import (
    blowup_system, derived_witness, gen_ground_term, gen_theory_term,
    repeated_system, reversal_system, subterms,
)
from lcstrs.core import (
    App, INT_T, BOOL_T, LcstrsError, Substitution, Variable, arrow,
)
from lcstrs.prover import (
    FailureReport, Witness, check_witness, find_witness, params_from_dict,
)
from lcstrs.rewrite import InputSource, calc_normal_form, match, normalize, step_at
from lcstrs.solver import Solver
from lcstrs.syntax import parse_system, parse_term, print_term
from lcstrs.theory import ADD, TRUE, int_value


class TestParserFuzz:
    def test_round_trip_with_random_variable_salt(self, fact_system):
        # splice typed variables into random ground terms, then round-trip
        rng = random.Random(131)
        variables = {
            "n": Variable("n", INT_T), "m": Variable("m", INT_T),
            "b": Variable("b", BOOL_T), "k": Variable("k", arrow(INT_T, INT_T)),
        }
        for _ in range(600):
            t = gen_ground_term(rng, fact_system.signature,
                                rng.choice((INT_T, BOOL_T)), depth=4)
            spots = [pos for pos, sub in subterms(t)
                     if sub.type in (INT_T, BOOL_T, arrow(INT_T, INT_T))]
            if spots:
                pos = rng.choice(spots)
                options = [v for v in variables.values()
                           if v.type == t.subterm_at(pos).type]
                if options:
                    t = t.replace_at(pos, rng.choice(options))
            reparsed = parse_term(print_term(t), fact_system, dict(variables))
            assert reparsed == t, print_term(t)

    def test_whitespace_and_nesting_torture(self, fact_system):
        ctx = {"n": Variable("n", INT_T)}
        cases = [
            ("((((1))))", "1"),
            ("[<=] (n + 1)", "[<=] (n + 1)"),
            ("not (not (n > 0))", "not (not (n > 0))"),
            ("fact ((n))   exit", "fact n exit"),
            ("(([*]) n)", "[*] n"),
        ]
        for text, expect in cases:
            t = parse_term(text, fact_system, ctx)
            assert print_term(t) == expect

    def test_comparison_chains_do_not_parse(self, fact_system):
        with pytest.raises(LcstrsError):
            parse_term("1 < 2 < 3", fact_system)


class TestRewriteAgreement:
    def test_pure_theory_normalization_matches_calc_normal_form(self):
        rng = random.Random(137)
        empty = parse_system("fun unused : Int\n")
        for _ in range(200):
            t = gen_theory_term(rng, budget=12)
            result = normalize(t, empty, fuel=100)
            assert not result.exhausted
            assert all(s.rule_index is None for s in result.steps)
            assert result.term == calc_normal_form(t)

    def test_match_apply_round_trip(self, fact_system):
        rng = random.Random(139)
        for rule in fact_system.rules:
            for _ in range(50):
                values = {
                    v: (int_value(rng.randint(-9, 9)) if v.type == INT_T
                        else gen_ground_term(rng, fact_system.signature,
                                             v.type, 3))
                    for v in rule.lhs.free_vars}
                from lcstrs.core import Substitution
                sigma = Substitution(values)
                instance = sigma.apply(rule.lhs)
                recovered = match(rule.lhs, instance)
                assert recovered is not None
                assert recovered.apply(rule.lhs) == instance

    def test_constraint_only_variables_need_inputs(self):
        system = parse_system("fun f : Int -> Int\nrule f x -> 0 [y > 0]\n")
        t = parse_term("f 3", system)
        assert step_at(t, (), system) == []  # default input 0 fails y > 0
        steps = step_at(t, (), system, inputs=InputSource([5]))
        assert len(steps) == 1 and print_term(steps[0].result) == "0"

    def test_input_consumption_order_is_by_variable_name(self):
        system = parse_system(
            "fun f : Int -> Int\nrule f x -> a + b [a > b]\n")
        t = parse_term("f 0", system)
        steps = step_at(t, (), system, inputs=InputSource([4, 1]))
        assert len(steps) == 1  # a = 4, b = 1 satisfies a > b
        assert print_term(steps[0].result) == "4 + 1"
        assert step_at(t, (), system, inputs=InputSource([1, 4])) == []


class TestNormalizerScale:
    @staticmethod
    def probes_per_step(monkeypatch, fact_system, n: int) -> float:
        """Calls to `match` and `try_calculate` per step of `fact n exit`."""
        import lcstrs.rewrite as rewrite
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(rewrite, "match", counted(rewrite.match))
            patch.setattr(rewrite, "try_calculate",
                          counted(rewrite.try_calculate))
            result = normalize(parse_term(f"fact {n} exit", fact_system),
                               fact_system)
        assert result.total_steps == 4 * n + 1
        return calls[0] / result.total_steps

    def test_work_per_step_is_flat_in_term_size(self, monkeypatch,
                                                fact_system):
        small = self.probes_per_step(monkeypatch, fact_system, 20)
        large = self.probes_per_step(monkeypatch, fact_system, 80)
        assert large <= 1.5 * small

    def test_deep_continuation_normalizes(self, fact_system):
        # the continuation nests 3000 deep before it unwinds
        result = normalize(parse_term("fact 1500 exit", fact_system),
                           fact_system)
        assert not result.exhausted
        assert result.total_steps == 6001
        exit_symbol, = fact_system.signature.lookup("exit")
        assert result.term == exit_symbol.apply(
            int_value(math.factorial(1500)))


def closure_apply(subst: Substitution, term):
    """`Substitution.apply` as a recursive closure, the walk the module
    function `core._instance` replaced: the depth to match."""
    mapping, typed = dict(subst.items()), App._typed

    def instance(t):
        if not t.free_vars:
            return t
        if type(t) is Variable:
            return mapping.get(t, t)
        head, args = t.head, tuple(map(instance, t.args))
        if type(head) is Variable:
            head = mapping.get(head, head)
            if type(head) is App:
                return typed(head.head, head.args + args, t.type)
        return typed(head, args, t.type)

    return instance(term)


def deepest(apply, nested: list) -> int:
    """The largest index of `nested` that `apply` instantiates without a
    RecursionError, by bisection."""
    lo, hi = 0, len(nested) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            apply(nested[mid])
        except RecursionError:
            hi = mid - 1
        else:
            lo = mid
    return lo


class TestInstanceDepth:
    def test_apply_nests_as_deep_as_the_closure(self):
        # `x + 1 + ... + 1` with n operators, under the default limit
        x = Variable("x", INT_T)
        subst = Substitution({x: int_value(3)})
        nested = [x]
        for _ in range(2 * sys.getrecursionlimit()):
            nested.append(ADD.apply(nested[-1], int_value(1)))
        # each called through one frame of its own
        reached = deepest(lambda t: closure_apply(subst, t), nested)
        assert 0 < reached < len(nested) - 1
        assert deepest(lambda t: subst.apply(t), nested) >= reached
        assert subst.apply(nested[50]) == closure_apply(subst, nested[50])


class TestStatusSearchScale:
    @staticmethod
    def search_counts(monkeypatch, k: int) -> dict:
        """Precedence searches and rule orientations of `find_witness` on
        the k-symbol status-blowup system. A third search fails the test
        at once; the unpruned product makes 3^k + 1 of them."""
        import lcstrs.prover as prover
        from lcstrs.horpo import Horpo
        counts = {"searches": 0, "orientations": 0}
        search, orient = prover._search_precedence, Horpo.orient_rule

        def counted_search(*args):
            counts["searches"] += 1
            assert counts["searches"] <= 2, f"k={k}: a third search"
            return search(*args)

        def counted_orient(self, rule):
            counts["orientations"] += 1
            return orient(self, rule)

        with monkeypatch.context() as patch:
            patch.setattr(prover, "_search_precedence", counted_search)
            patch.setattr(Horpo, "orient_rule", counted_orient)
            result = find_witness(parse_system(blowup_system(k)))
        assert isinstance(result, Witness)
        return counts

    def test_blowup_search_is_polynomial(self, monkeypatch):
        counts = {k: self.search_counts(monkeypatch, k) for k in (4, 8, 12)}
        for k in (8, 12):
            assert (counts[k]["orientations"]
                    <= (k / 4) ** 2 * counts[4]["orientations"])


class TestMultisetSearchScale:
    @staticmethod
    def oracle_calls(monkeypatch, text: str, cap: int) -> int:
        """Calls of the `gt_ok` and `geq_ok` oracles of every
        `multiset_extension_search` of `find_witness` on `text`, which must
        exhaust its search space. Past `cap` calls the test fails at once:
        a scan of all m^n maps runs into it within the first search."""
        import lcstrs.horpo as horpo
        calls = [0]
        search = horpo.multiset_extension_search

        def counted(ok):
            def asked(i, j):
                calls[0] += 1
                assert calls[0] <= cap, f"more than {cap} oracle calls"
                return ok(i, j)
            return asked

        with monkeypatch.context() as patch:
            patch.setattr(horpo, "multiset_extension_search",
                          lambda m, n, gt_ok, geq_ok: search(
                              m, n, counted(gt_ok), counted(geq_ok)))
            result = find_witness(parse_system(text))
        assert isinstance(result, FailureReport) and not result.gave_up
        return calls[0]

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_reversal_is_polynomial(self, monkeypatch, n):
        # each target of `f x1 .. xn -> f xn .. x1` has one source `geq`
        # to it and none `gt`, so each mul(k) search asks each of its k
        # targets about k sources at most twice: 2k^2 <= n^3 over k <= n
        assert self.oracle_calls(monkeypatch, reversal_system(n), n ** 3)

    def test_repeated_arguments_stay_within_the_states(self, monkeypatch):
        # `f x .. x`: every source is `geq` every target and none is `gt`.
        # A mul(k) search meets each of the 2^k sets of closed sources
        # once and asks at most 2k questions there: under n * 2^(n+2) in
        # all for n = 10, where the scan's maps number 10^10
        n = 10
        assert self.oracle_calls(monkeypatch, repeated_system(n),
                                 n * 2 ** (n + 2))


class TestWitnessDocument:
    def test_json_reconstructs_checkable_parameters(self, fact_system):
        witness = find_witness(fact_system)
        data = json.loads(json.dumps(witness.to_dict(fact_system)))
        rebuilt = params_from_dict(data, fact_system.signature)
        assert check_witness(Witness(rebuilt, witness.derivations),
                             fact_system).ok
        assert check_witness(derived_witness(rebuilt, fact_system),
                             fact_system).ok
        assert rebuilt.edges == witness.params.edges
        assert rebuilt.bound == witness.params.bound

    def test_tampered_document_fails_check(self, fact_system):
        witness = find_witness(fact_system)
        data = json.loads(json.dumps(witness.to_dict(fact_system)))
        data["precedence"] = [p for p in data["precedence"]
                              if p != ["init", "exit"]]
        rebuilt = params_from_dict(data, fact_system.signature)
        # what `prove` checks: the printed parameters, with the derivations
        # the search built
        result = check_witness(Witness(rebuilt, witness.derivations),
                               fact_system)
        assert result.diagnostics == (
            "rule 1 not oriented: init -> fact n exit [true] (node "
            "rpo:precedence fails on rpo: init vs exit)",)

    def test_unknown_symbol_rejected(self, fact_system):
        witness = find_witness(fact_system)
        data = json.loads(json.dumps(witness.to_dict(fact_system)))
        data["precedence"].append(["ghost", "fact"])
        with pytest.raises(ValueError):
            params_from_dict(data, fact_system.signature)

    @pytest.mark.parametrize("status", [
        "mul(x)", "mul()", "mul(1)", "mul(0)", "mul(-2)", "mul(2",
        "mul(\u0663)", "lexx", "", 3, None,
    ])
    def test_malformed_status_rejected(self, fact_system, status):
        witness = find_witness(fact_system)
        data = json.loads(json.dumps(witness.to_dict(fact_system)))
        data["status"]["fact"] = status
        with pytest.raises(ValueError) as raised:
            params_from_dict(data, fact_system.signature)
        assert str(raised.value) == f"bad status {status!r} in witness"

    @pytest.mark.parametrize("key, value", [
        ("bound", 1.9), ("bound", True), ("bound", "2"), ("bound", None),
        ("status", None), ("precedence", None),
        ("precedence", [["fact"]]), ("precedence", [["fact", 1]]),
        ("precedence", [["init", "fact", "exit"]]), ("precedence", ["if"]),
        ("status", {"init": "mul(3)"}), ("status", {"fact": "mul(9)"}),
        ("status", {"fact": "mul(02)"}),
        ("precedence", [["init", "init"]]),
        ("precedence", [["init", "fact"], ["fact", "init"]]),
    ], ids=["bound-float", "bound-bool", "bound-string", "no-bound",
            "no-status", "no-precedence", "pair-of-one", "pair-with-int",
            "pair-of-three", "pair-as-string", "mul-on-constant",
            "mul-wider-than-symbol", "mul-not-as-printed", "self-loop",
            "two-cycle"])
    def test_malformed_document_rejected(self, fact_system, key, value):
        data = json.loads(json.dumps(
            find_witness(fact_system).to_dict(fact_system)))
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ValueError, match=" in witness$"):
            params_from_dict(data, fact_system.signature)


class TestSolverEdges:
    def test_contradictory_antecedent_entails_anything(self, fact_system):
        ctx = {}
        phi = parse_term("n > 0 /\\ n < 0", fact_system, ctx)
        psi = parse_term("n = 7", fact_system, ctx)
        verdict = Solver().entails(phi, psi)
        # the linear fast path cannot see this contradiction (it needs two
        # premises against each other), but the verdict must never be No
        assert not verdict.is_no

    def test_false_antecedent_is_vacuous(self, fact_system):
        ctx = {}
        phi = parse_term("false", fact_system, ctx)
        psi = parse_term("n = 7", fact_system, ctx)
        assert Solver().entails(phi, psi, variables=psi.free_vars).is_yes

    def test_equality_premises_are_used(self, fact_system):
        ctx = {}
        phi = parse_term("n = 3", fact_system, ctx)
        psi = parse_term("n >= 3 /\\ n <= 3", fact_system, ctx)
        assert Solver().entails(phi, psi).is_yes

    def test_disequality_goals(self, fact_system):
        ctx = {}
        phi = parse_term("n > 2", fact_system, ctx)
        assert Solver().entails(
            phi, parse_term("n != 0", fact_system, ctx)).is_yes
        assert Solver().entails(
            phi, parse_term("n != 5", fact_system, ctx)).is_no
