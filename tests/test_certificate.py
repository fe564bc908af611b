"""The witness check reads derivations as certificates.

`check_witness` checks each node of a rule's derivation against the side
condition of the case it names and searches nothing. A witness that uses
all 16 cases is tampered with one node, or one parameter, at a time: every
tampered witness must be rejected with a `rule N not oriented` diagnostic
for the rule it belongs to, and the witness as built accepted. A side
condition that no derivation of the search breaks is broken by one
witness, tampered or built by hand, rejected at the node that breaks it.
Every witness that `find_witness` returns must pass the check, also with
the engine unable to start, and under perturbed parameters a derivation
the check accepts must be one that the engine finds too.
"""

import dataclasses
import random
import re
from pathlib import Path

import pytest

from helpers import derived_witness, gen_system
from lcstrs import horpo
from lcstrs.horpo import LEX, Horpo, HorpoParams, Judgment, Mul
from lcstrs.prover import (
    ProverConfig, Witness, _status_options, check_witness, find_witness,
)
from lcstrs.rewrite import normalize
from lcstrs.solver import Solver
from lcstrs.syntax import parse_system, parse_term, print_rule
from test_prover import DIFFERENTIAL_CASES
from test_soundness import accept_a_decided_no

# Under `params_of(system)` each rule is oriented, and the derivations use
# every one of the 16 cases
EVERY_CASE = """\
fun f : Int -> Int -> Int -> Int
fun app : (Int -> Int) -> Int -> Int -> Int
fun g : Int -> Int
fun p : Int -> Int -> Int
fun c : Int -> Int
fun q : Int -> Int -> Int -> Int
rule f x y z -> f x y (z - 1) [z > 0]
rule app F (F (g x)) y -> app F (F (g (x - 1))) y [x > 0]
rule app F (F (g x)) y -> app F (F (g z)) (y - 1) [x >= z /\\ z > 0 /\\ y > 0]
rule p x y -> p y (x - 1) [x > 0]
rule c x -> g (x + 0) [true]
rule c x -> p y x [y > 0]
rule q x y z -> q x x (z - 1) [x = y /\\ z > 0]
rule c x -> g x [true]
rule c x -> g (x - 1) [x > 0]
"""

CASES = ("geq:theory", "geq:strict", "geq:calc-join", "geq:app",
         "gt:theory", "gt:descent", "gt:args-fun", "gt:args-var",
         "rpo:subterm", "rpo:parts", "rpo:precedence", "rpo:lex", "rpo:mul",
         "rpo:base", "lex:strict-prefix", "mul:cover")


@pytest.fixture(scope="module")
def system():
    return parse_system(EVERY_CASE)


def symbol(system, name):
    return system.signature.lookup(name)[0]


def params_of(system, drop=(), status=None):
    """The parameters that orient EVERY_CASE, less the edges named in
    `drop`, with the statuses in `status` changed."""
    c, g, p = (symbol(system, n) for n in "cgp")
    edges = {("c", "g"): (c, g), ("c", "p"): (c, p)}
    named = {"f": Mul(2), "p": Mul(2), "q": Mul(3), **(status or {})}
    statuses = {symbol(system, n): st for n, st in named.items()}
    return HorpoParams([e for n, e in edges.items() if n not in drop],
                       statuses, 0)


@pytest.fixture(scope="module")
def witness(system):
    return derived_witness(params_of(system), system)


def nodes(root):
    """(path, node) for each node of a derivation tree in preorder; a path
    is the child indices from the root."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack += [(path + (i,), child)
                  for i, child in reversed(list(enumerate(node.children)))]


def first(witness, case):
    """(rule index, path, node) of the first node of `case`."""
    for index, root in enumerate(witness.derivations):
        for path, node in nodes(root):
            if node.case == case:
                return index, path, node
    raise LookupError(case)


def tampered(witness, index, path, **changes):
    """`witness` with the node at `path` of rule `index` replaced by
    `dataclasses.replace(node, **changes)`, and its ancestors rebuilt."""
    def rebuild(node, path):
        if not path:
            return dataclasses.replace(node, **changes)
        children = list(node.children)
        children[path[0]] = rebuild(children[path[0]], path[1:])
        return dataclasses.replace(node, children=tuple(children))

    derivations = list(witness.derivations)
    derivations[index] = rebuild(derivations[index], path)
    return Witness(witness.params, tuple(derivations))


def assert_rejected(witness, system, index):
    result = check_witness(witness, system, Solver())
    assert not result.ok
    assert any(d.startswith(f"rule {index + 1} not oriented: ")
               for d in result.diagnostics), result.diagnostics


def rejected_rules(result):
    matches = (re.match(r"rule (\d+) not oriented", d)
               for d in result.diagnostics)
    return {int(m.group(1)) - 1 for m in matches if m}


class TestTampering:
    def test_the_witness_as_built_is_accepted(self, system, witness):
        assert check_witness(witness, system).ok
        used = {node.case for root in witness.derivations
                for _, node in nodes(root)}
        assert used == set(CASES)

    @pytest.mark.parametrize("case", CASES)
    def test_an_unknown_case_name_is_rejected(self, system, witness, case):
        index, path, _ = first(witness, case)
        assert_rejected(tampered(witness, index, path, case=case + "-ish"),
                        system, index)

    @pytest.mark.parametrize("case", CASES)
    def test_a_wrong_child_is_rejected(self, system, witness, case):
        # a node with children gets another comparison for its first;
        # a leaf gets a child
        index, path, node = first(witness, case)
        other = next(n for root in witness.derivations for _, n in nodes(root)
                     if not node.children or (n.relation, n.lhs, n.rhs) != (
                         node.children[0].relation, node.children[0].lhs,
                         node.children[0].rhs))
        assert_rejected(tampered(witness, index, path,
                                 children=(other,) + node.children[1:]),
                        system, index)

    @pytest.mark.parametrize("case", ["rpo:subterm", "gt:args-fun",
                                      "gt:args-var", "lex:strict-prefix"])
    @pytest.mark.parametrize("beyond", [True, False])
    def test_an_index_out_of_range_is_rejected(self, system, witness, case,
                                               beyond):
        index, path, node = first(witness, case)
        width = len(node.lhs if isinstance(node.lhs, tuple)
                    else node.lhs.args)
        assert_rejected(tampered(witness, index, path,
                                 data=width if beyond else -1),
                        system, index)

    def test_a_cover_index_out_of_range_is_rejected(self, system, witness):
        index, path, node = first(witness, "mul:cover")
        pi, strict = node.data
        assert_rejected(tampered(witness, index, path,
                                 data=((len(node.lhs),) + pi[1:], strict)),
                        system, index)

    def test_a_non_strict_source_with_two_targets_is_rejected(self, system,
                                                              witness):
        # q x y z -> q x x (z - 1) under mul(3): x covers x and y covers x;
        # letting x cover both leaves every child a valid comparison
        index = 6
        path, node = next((path, node) for path, node
                          in nodes(witness.derivations[index])
                          if node.case == "mul:cover")
        assert node.data == ((0, 1, 2), frozenset({2}))
        first_child, _, last_child = node.children
        assert_rejected(tampered(witness, index, path,
                                 data=((0, 0, 2), frozenset({2})),
                                 children=(first_child, first_child,
                                           last_child)),
                        system, index)

    def test_a_strict_source_outside_the_map_is_rejected(self, system,
                                                         witness):
        # p x y -> p y (x - 1) under mul(2): y covers y, and x covers
        # x - 1 strictly; a strict source that covers nothing would let
        # both covers be weak
        index = 3
        path, node = next((path, node) for path, node
                          in nodes(witness.derivations[index])
                          if node.case == "mul:cover")
        assert node.data == ((1, 0), frozenset({0}))
        weak, strict = node.children
        rule = system.rules[index]
        engine = Horpo(witness.params, Solver(), rule.constraint,
                       rule.logical_vars)
        weaker = engine.geq(strict.lhs, strict.rhs)
        assert weaker is not None
        assert_rejected(tampered(witness, index, path,
                                 data=((1, 0), frozenset({2})),
                                 children=(weak, weaker)),
                        system, index)

    def test_a_child_of_another_left_side_is_rejected(self, system, witness):
        # the cover of q x y z -> q x x (z - 1) gets y >= x, a valid
        # comparison, where its map asks x >= x
        index = 6
        path, node = next((path, node) for path, node
                          in nodes(witness.derivations[index])
                          if node.case == "mul:cover")
        _, second, third = node.children
        assert_rejected(tampered(witness, index, path,
                                 children=(second, second, third)),
                        system, index)

    def test_a_variable_outside_the_constraint_is_not_minimal(self, system,
                                                              witness):
        # c x -> g x [true]: rpo:base would take x, which a respecting
        # substitution need not send to a value, for minimal
        index = 7
        path, node = next((path, node) for path, node
                          in nodes(witness.derivations[index])
                          if node.relation == "rpo"
                          and node.rhs == system.rules[index].lhs.args[-1])
        assert node.case == "rpo:subterm"
        assert_rejected(tampered(witness, index, path, case="rpo:base",
                                 children=(), data=None),
                        system, index)

    def test_terms_that_calculate_apart_are_not_joined(self, system,
                                                       witness):
        index, path, _ = first(witness, "geq:strict")
        assert_rejected(tampered(witness, index, path, case="geq:calc-join",
                                 children=()),
                        system, index)

    def test_arguments_under_different_heads_are_not_compared(self, system,
                                                              witness):
        # c x -> g (x - 1) [x > 0]: x > x - 1 holds, but c and g differ
        index = 8
        rule = system.rules[index]
        below = Horpo(witness.params, Solver(), rule.constraint,
                      rule.logical_vars).gt(rule.lhs.args[-1],
                                               rule.rhs.args[-1])
        assert below is not None
        assert_rejected(tampered(witness, index, (), case="gt:args-fun",
                                 children=(below,), data=0),
                        system, index)

    def test_a_precedence_node_without_its_edge_is_rejected(self, system,
                                                            witness):
        # rules 5, 8 and 9, c x -> g ..., descend by c > g
        params = params_of(system, drop={("c", "g")})
        result = check_witness(Witness(params, witness.derivations), system)
        assert rejected_rules(result) == {4, 7, 8}
        assert "node rpo:precedence fails" in result.diagnostics[0]

    @pytest.mark.parametrize("name, status, rules", [
        ("p", LEX, {3}),            # rpo:mul under lex
        ("q", Mul(2), {6}),         # a mul(3) cover under mul(2)
        ("app", Mul(2), {1, 2}),    # rpo:lex under mul
    ])
    def test_a_status_that_does_not_match_is_rejected(self, system, witness,
                                                      name, status, rules):
        params = params_of(system, status={name: status})
        result = check_witness(Witness(params, witness.derivations), system)
        assert rejected_rules(result) == rules

    def test_a_root_that_does_not_match_its_rule_is_rejected(self, system,
                                                             witness):
        # rules 5 and 8, c x -> g (x + 0) and c x -> g x, share their
        # constraint and variables, so only their roots tell them apart
        derivations = list(witness.derivations)
        derivations[4], derivations[7] = derivations[7], derivations[4]
        result = check_witness(Witness(witness.params, tuple(derivations)),
                               system)
        assert rejected_rules(result) == {4, 7}
        assert all(d.endswith("(its derivation is not a strict comparison "
                              "of its sides)") for d in result.diagnostics)
        root = witness.derivations[0]
        assert_rejected(tampered(witness, 0, (), rhs=root.lhs), system, 0)
        assert_rejected(tampered(witness, 0, (), case="geq:strict"),
                        system, 0)

    def test_a_missing_derivation_is_rejected(self, system, witness):
        short = Witness(witness.params, witness.derivations[:-1])
        result = check_witness(short, system)
        assert result.diagnostics == (
            f"witness has {len(system.rules) - 1} derivations for "
            f"{len(system.rules)} rules",)

    def test_a_theory_leaf_whose_entailment_is_no_is_rejected(
            self, monkeypatch):
        # an engine that takes a decided No for a strict theory comparison
        # derives d x -> d (x + 1) [x > 0], its leaf printed as a Yes
        system = parse_system("fun d : Int -> Int\n"
                              "rule d x -> d (x + 1) [x > 0]\n")
        params = HorpoParams()
        accept_a_decided_no(monkeypatch)
        forged = derived_witness(params, system)
        monkeypatch.undo()
        assert derived_witness(params, system).derivations == (None,)
        index, _, leaf = first(forged, "gt:theory")
        constraint = system.rules[index].constraint
        assert leaf.to_dict(constraint)["entailment"] == "Yes"
        assert_rejected(forged, system, index)


def path_to(root, case):
    """The path of the first node of `case` in `root`."""
    return next(path for path, node in nodes(root) if node.case == case)


def assert_fails_at(witness, system, index, failure):
    result = check_witness(witness, system, Solver())
    assert result.diagnostics == (
        f"rule {index + 1} not oriented: {print_rule(system.rules[index])} "
        f"(node {failure})",)


def forged(rule):
    """The system of the one rule `rule` over `k` and `c`, and a builder of
    nodes."""
    system = parse_system(f"fun k : Int -> Int\nfun c : Int -> Int\n"
                          f"rule {rule}\n")

    def node(case, lhs, rhs, children=(), data=None):
        return Judgment(case, lhs, rhs, children, data)
    return system, node


class TestEveryRejection:
    """Side conditions that no derivation of the search breaks, each
    broken by one witness that the check rejects at that node. Without the
    condition, the check would accept it, reject another node, or raise."""

    def test_a_theory_comparison_of_other_terms(self, system, witness):
        # the sides of c x -> g (x - 1) [x > 0] are not theory terms; in
        # c x -> g x [true], x is no logical variable, so a respecting
        # substitution need not send it to a value
        assert_fails_at(tampered(witness, 8, (), case="gt:theory",
                                 children=()),
                        system, 8, "gt:theory fails on gt: c x vs g (x - 1)")
        index = 7
        path = path_to(witness.derivations[index], "geq:calc-join")
        assert_fails_at(tampered(witness, index, path, case="geq:theory"),
                        system, index, "geq:theory fails on geq: x vs x")

    def test_an_application_case_on_a_variable(self, system, witness):
        index = 7
        path = path_to(witness.derivations[index], "geq:calc-join")
        assert_fails_at(tampered(witness, index, path, case="geq:app"),
                        system, index, "geq:app fails on geq: x vs x")

    def test_the_parts_of_a_variable(self, system, witness):
        # c x -> p y x [y > 0]: y is minimal, not an application
        index, path, _ = first(witness, "rpo:base")
        assert_fails_at(tampered(witness, index, path, case="rpo:parts"),
                        system, index, "rpo:parts fails on rpo: c x vs y")

    def test_a_status_comparison_under_another_head(self, system, witness):
        # c x -> g (x - 1) [x > 0]: comparing the arguments of c x and
        # g (x - 1) lexicographically would need no precedence c > g
        index = 8
        root = witness.derivations[index]
        parts = root.children[0]
        _, below = parts.children       # c x above x - 1
        x, smaller = below.lhs.args[-1], below.rhs
        lex = Judgment("lex:strict-prefix", (x,), (smaller,),
                       (Judgment("gt:theory", x, smaller),), 0)
        assert_fails_at(
            tampered(witness, index, (0,), case="rpo:lex",
                     children=(lex, below)),
            system, index, "rpo:lex fails on rpo: c x vs g (x - 1)")

    def test_a_status_comparison_with_no_arguments(self):
        # c x -> c (x - 1) [x > 0], with c x above the bare symbol c by
        # comparing their arguments: an empty list is below no other
        system, node = forged("c x -> c (x - 1) [x > 0]")
        s, t = system.rules[0].lhs, system.rules[0].rhs
        below = node("rpo:subterm", s, t.args[-1],
                     (node("geq:theory", s.args[-1], t.args[-1]),), 0)
        lex = node("rpo:lex", s, t.head,
                   (node("lex:strict-prefix", s.args, (), (), 0),))
        root = node("gt:descent", s, t,
                    (node("rpo:parts", s, t, (lex, below)),))
        assert_fails_at(Witness(HorpoParams(), (root,)), system, 0,
                        "rpo:lex fails on rpo: c x vs c")

    def test_argument_positions_of_a_theory_term(self):
        # x - (y + 1) > x - y would follow from y + 1 > y, argument by
        # argument, but a theory term is compared by its value
        system, node = forged("k (x - (y + 1)) -> k (x - y) [y > 0]")
        s, t = system.rules[0].lhs, system.rules[0].rhs
        (x, y1), (_, y) = s.args[-1].args, t.args[-1].args
        inner = node("gt:args-fun", s.args[-1], t.args[-1],
                     (node("geq:calc-join", x, x),
                      node("gt:theory", y1, y)), 1)
        root = node("gt:args-fun", s, t, (inner,), 0)
        assert_fails_at(Witness(HorpoParams(), (root,)), system, 0,
                        "gt:args-fun fails on gt: x - (y + 1) vs x - y")

    def test_a_descent_from_a_theory_term(self):
        # x + y > y is false at x = -1: a theory term has no head symbol
        # to descend from
        system, node = forged("k (x + y) -> k y [y > 0]")
        s, t = system.rules[0].lhs, system.rules[0].rhs
        descent = node("gt:descent", s.args[-1], t.args[-1],
                       (node("rpo:base", s.args[-1], t.args[-1]),))
        root = node("gt:args-fun", s, t, (descent,), 0)
        assert_fails_at(Witness(HorpoParams(), (root,)), system, 0,
                        "rpo:base fails on rpo: x + y vs y")

    def test_a_cover_that_is_not_a_map_and_a_set(self, system, witness):
        # p x y -> p y (x - 1) [x > 0]
        index, path, cover = first(witness, "mul:cover")
        assert_fails_at(
            tampered(witness, index, path, data=cover.data + (None,)),
            system, index, "mul:cover fails on mul: (x, y) vs (y, x - 1)")


def test_a_multiset_comparison_narrower_than_the_status_is_rejected():
    # f x y z -> f x y 0 loops at f 1 2 0. Under mul(3), comparing the
    # two arguments of the partial application f x y as a multiset of
    # three would let x and y cover themselves and z cover nothing
    system = parse_system("fun f : Int -> Int -> Int -> Int\n"
                          "rule f x y z -> f x y 0 [true]\n")
    assert normalize(parse_term("f 1 2 3", system), system,
                     fuel=20).exhausted
    rule, = system.rules
    f = symbol(system, "f")
    s, t = rule.lhs, rule.rhs
    x, y, z = s.args
    partial = t.curried()[0]

    def node(case, lhs, rhs, children=(), data=None):
        return Judgment(case, lhs, rhs, children, data)

    joins = [node("geq:calc-join", v, v) for v in (x, y)]
    cover = node("mul:cover", (x, y, z), (x, y),
                 tuple(joins), ((0, 1), frozenset()))
    subterms = [node("rpo:subterm", s, v, (join,), i)
                 for i, (v, join) in enumerate(zip((x, y), joins))]
    narrow = node("rpo:mul", s, partial, (cover, *subterms))
    parts = node("rpo:parts", s, t, (narrow, node("rpo:base", s, t.args[-1])))
    root = node("gt:descent", s, t, (parts,))
    result = check_witness(
        Witness(HorpoParams((), {f: Mul(3)}, 0), (root,)), system)
    assert result.diagnostics == (
        "rule 1 not oriented: f x y z -> f x y 0 [true] (node rpo:mul "
        "fails on rpo: f x y z vs f x y)",)


def test_the_check_runs_no_engine(monkeypatch):
    # every shipped witness is checked, and a witness without derivations
    # rejected, with the engine unable to start
    systems = {path.stem: parse_system(path.read_text()) for path in
               (Path(__file__).resolve().parent.parent / "systems").glob(
                   "*.lcstrs")}
    found = {name: find_witness(system) for name, system in systems.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the witness check ran the engine")

    monkeypatch.setattr(horpo.Horpo, "__init__", refuse)
    monkeypatch.setattr(horpo.Horpo, "orient_rule", refuse)
    witnesses = {name: witness for name, witness in found.items()
                 if isinstance(witness, Witness)}
    assert sorted(witnesses) == ["empty", "fact", "iter"]
    for name, witness in witnesses.items():
        assert check_witness(witness, systems[name]).ok
    result = check_witness(Witness(witnesses["fact"].params, ()),
                           systems["fact"])
    assert result.diagnostics == ("witness has 0 derivations for 4 rules",)


class TestDifferential:
    """Every witness the search returns passes the check (the
    `DIFFERENTIAL_CASES` ones are checked in tests/test_prover.py)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("bounds", [None, (0, 1)])
    def test_generated_systems(self, seed, bounds):
        rng = random.Random(seed)
        proved = 0
        for _ in range(300):
            system = gen_system(rng)
            found = find_witness(system, ProverConfig(bounds=bounds))
            if isinstance(found, Witness):
                proved += 1
                assert check_witness(found, system, Solver()).ok
        assert proved > 0


def perturbations(system, params):
    """`params` with one edge dropped, or one defined symbol's status
    changed to another the search could give it."""
    for edge in sorted(params.edges, key=lambda e: (e[0].name, e[1].name)):
        yield HorpoParams(params.edges - {edge}, params.status, params.bound)
    for f in system.defined_symbols():
        for status in _status_options(f):
            if status != params.status_of(f):
                yield HorpoParams(params.edges, {**params.status, f: status},
                                  params.bound)


def test_what_the_check_accepts_the_engine_orients(system, witness):
    # the checker is no stronger than the engine: under perturbed
    # parameters, every rule whose derivation it still accepts is one a
    # fresh engine orients under those parameters
    found = [(system, witness)]
    for text, config in DIFFERENTIAL_CASES.values():
        other = parse_system(text)
        result = find_witness(other, config)
        if isinstance(result, Witness) and other.rules:
            found.append((other, result))
    accepted = rejected = 0
    for system_, witness_ in found:
        for params in perturbations(system_, witness_.params):
            result = check_witness(Witness(params, witness_.derivations),
                                   system_, Solver())
            refused = rejected_rules(result)
            rejected += len(refused)
            for index, rule in enumerate(system_.rules):
                if index not in refused:
                    accepted += 1
                    engine = Horpo(params, Solver())
                    assert engine.orient_rule(rule) is not None
    assert accepted > 0 and rejected > 0
