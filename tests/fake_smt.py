#!/usr/bin/env python3
"""A scripted stand-in for an external SMT solver, for interface tests.

Reads an SMT-LIB 2 script on stdin. Modes (first argument):

  eval     evaluate the asserts by brute force over small integers and
           report sat with a model, or unsat if the sweep finds nothing
           (only honest for queries whose models live in [-30, 30])
  unsat    always answer unsat
  zero     answer sat with the model that sends every constant to 0 or
           false, whether or not it satisfies the asserts
  unknown  always answer unknown
  garbage  emit something that is not an SMT answer
  hang     sleep, to exercise the caller's timeout
"""

import itertools
import sys
import time


def tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_all(tokens):
    forms = []
    it = iter(tokens)

    def read(first):
        if first != "(":
            return first
        out = []
        for tok in it:
            if tok == ")":
                return out
            out.append(read(tok))
        raise ValueError("unbalanced")

    for tok in it:
        forms.append(read(tok))
    return forms


def evaluate(form, env):
    if isinstance(form, str):
        if form == "true":
            return True
        if form == "false":
            return False
        if form in env:
            return env[form]
        return int(form)
    op, *args = form
    vals = [evaluate(a, env) for a in args]
    if op == "-" and len(vals) == 1:
        return -vals[0]
    ops = {
        "+": lambda: sum(vals),
        "-": lambda: vals[0] - vals[1],
        "*": lambda: vals[0] * vals[1],
        ">": lambda: vals[0] > vals[1],
        ">=": lambda: vals[0] >= vals[1],
        "<": lambda: vals[0] < vals[1],
        "<=": lambda: vals[0] <= vals[1],
        "=": lambda: vals[0] == vals[1],
        "distinct": lambda: vals[0] != vals[1],
        "and": lambda: all(vals),
        "or": lambda: any(vals),
        "not": lambda: not vals[0],
    }
    return ops[op]()


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "eval"
    text = sys.stdin.read()
    if mode == "unsat":
        print("unsat")
        return
    if mode == "unknown":
        print("unknown")
        return
    if mode == "garbage":
        print("flurble")
        return
    if mode == "hang":
        time.sleep(30)
        return

    forms = parse_all(tokenize(text))
    consts = []  # (name, sort)
    asserts = []
    for form in forms:
        if isinstance(form, list) and form and form[0] == "declare-const":
            consts.append((form[1].strip("|"), form[2]))
        elif isinstance(form, list) and form and form[0] == "assert":
            asserts.append(form[1])

    if mode == "zero":
        print_model(consts, [False if sort == "Bool" else 0
                             for _, sort in consts])
        return
    pools = [(False, True) if sort == "Bool" else tuple(range(-30, 31))
             for _, sort in consts]
    for combo in itertools.product(*pools):
        env = {name: val for (name, _), val in zip(consts, combo)}
        env.update({f"|{name}|": val for (name, _), val in zip(consts, combo)})
        try:
            if all(evaluate(a, env) for a in asserts):
                print_model(consts, combo)
                return
        except Exception:
            print("unknown")
            return
    print("unsat")


def print_model(consts, values):
    print("sat")
    print("(")
    for (name, sort), val in zip(consts, values):
        if sort == "Bool":
            rendered = "true" if val else "false"
        else:
            rendered = str(val) if val >= 0 else f"(- {-val})"
        print(f"  (define-fun {name} () {sort} {rendered})")
    print(")")


if __name__ == "__main__":
    main()
