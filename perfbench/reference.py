"""Checks one CLI answer against the independent reference of its case.

A call passes when its exit code is the expected one, its JSON payload
validates against `cli_output.schema.json`, and the payload agrees with the
reference the generator computed without lcstrs. A `TERMINATING` verdict on
an input known not to terminate fails and is flagged as unsound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional


@dataclass
class Outcome:
    ok: bool
    problem: Optional[str] = None
    decided: bool = False       # gave the input's positive answer
    work: float = 0
    unsound: bool = False


def expects_answer(case) -> bool:
    """Whether the input has a positive answer to give: a normal form, a
    termination proof, or a validated file. The others (fuel-bounded loops,
    nonterminating systems, invalid files) stay out of decided_share."""
    command = case.argv[0]
    if command == "run":
        return case.fuel is None
    if command == "prove":
        return bool(case.terminating)
    return case.symbols is not None


def load_validator(schema_path: str):
    import jsonschema

    with open(schema_path, encoding="utf-8") as handle:
        schema = json.load(handle)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def verify(case, rc, stdout: str, validator) -> Outcome:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return Outcome(False, "output is not one JSON document")
    error = next(iter(validator.iter_errors(payload)), None)
    if error is not None:
        return Outcome(False, f"schema: {error.message[:120]}")
    command = case.argv[0]
    if payload.get("command") != command:
        return Outcome(False, f"payload answers {payload.get('command')!r}")
    if command == "run":
        return _verify_run(case, rc, payload)
    if command == "prove":
        return _verify_prove(case, rc, payload)
    return _verify_check(case, rc, payload)


def _verify_run(case, rc, payload) -> Outcome:
    exhausting = case.fuel is not None
    expected_rc = 2 if exhausting else 0
    if rc != expected_rc:
        return Outcome(False, f"exit {rc}, expected {expected_rc}")
    if payload.get("normal_form") is not (not exhausting):
        return Outcome(False, f"normal_form is {payload.get('normal_form')}")
    if payload["result"] != case.result:
        return Outcome(False, f"result {payload['result'][:60]!r}, "
                              f"expected {case.result[:60]!r}")
    if case.steps is not None and payload["total_steps"] != case.steps:
        return Outcome(False, f"{payload['total_steps']} steps, "
                              f"expected {case.steps}")
    return Outcome(True, decided=not exhausting, work=payload["total_steps"])


def _verify_prove(case, rc, payload) -> Outcome:
    proved = payload["ok"]
    if rc != (0 if proved else 2) or proved != ("witness" in payload):
        return Outcome(False, f"exit {rc} with ok={proved}")
    if proved and not case.terminating:
        return Outcome(False, "TERMINATING on an input known not to terminate",
                       unsound=True)
    return Outcome(True, decided=proved, work=case.work)


def _verify_check(case, rc, payload) -> Outcome:
    if case.symbols is None:
        if rc != 1 or payload["ok"]:
            return Outcome(False, f"invalid file accepted (exit {rc})")
        return Outcome(True, work=case.work)
    if rc != 0 or not payload["ok"]:
        return Outcome(False, f"valid file rejected (exit {rc}): "
                              f"{payload.get('error', '')[:80]}")
    symbols = [(s["name"], s["type"]) for s in payload["symbols"]]
    if symbols != case.symbols:
        return Outcome(False, "declarations differ from the file")
    if len(payload["rules"]) != len(case.rules):
        return Outcome(False, f"{len(payload['rules'])} rules, "
                              f"expected {len(case.rules)}")
    for got, (lhs, rhs, constraint) in zip(payload["rules"], case.rules):
        if (tokens(got["lhs"]), tokens(got["rhs"]),
                tokens(got["constraint"])) != (lhs, rhs, constraint):
            return Outcome(False, f"rule {got['index']} differs from the file")
    return Outcome(True, decided=True, work=case.work)


def tokens(text: str) -> list:
    """Token sequence with grouping parentheses dropped: equal for a fully
    parenthesized term and its minimally parenthesized print."""
    return text.replace("(", " ").replace(")", " ").split()
