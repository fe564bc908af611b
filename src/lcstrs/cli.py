"""Command-line front end: check, run, and prove.

Each command builds one payload, the document `--format json` prints; the
text format is a view of that payload, `_text`, which reads every line from
it. So text-mode `prove` prints the witness document it re-checked.

Exit codes: 0 success (file valid / normal form reached / witness found),
1 input error (parse, typing, rule validity, too deep nesting) or a stdout
closed before the output was written, 2 inconclusive (fuel exhausted / no
witness found) or a usage error reported by argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

from .core import LcstrsError
from .horpo import _transitive_closure
from .prover import (
    ProverConfig, Witness, check_witness, find_witness, params_from_dict,
)
from .rewrite import InputSource, normalize
from .solver import Solver
from .syntax import parse_system, parse_term, print_term
from .theory import TheoryError, parse_int

SMT_ENV_VAR = "LCSTRS_SMT_CMD"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and
    every default in it is a constant."""
    parser = argparse.ArgumentParser(
        prog="lcstrs",
        description="Constrained higher-order rewriting: execution and "
                    "termination proving.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system file to load")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="parse and validate a system file")
    common(p_check)

    p_run = sub.add_parser("run", help="normalize a term")
    common(p_run)
    p_run.add_argument("--term", required=True, help="term to normalize")
    p_run.add_argument("--strategy", choices=("innermost", "outermost"),
                       default="innermost")
    p_run.add_argument("--fuel", default="10000")
    p_run.add_argument("--inputs", default="",
                       help="comma-separated values for input variables, "
                            "e.g. 3,true,-1")
    p_prove = sub.add_parser("prove", help="search for a termination witness")
    common(p_prove)
    p_prove.add_argument("--bounds", default=None,
                         help="comma-separated bounds to try for the integer "
                              "ordering (default: the file's `option bound`, "
                              "else 0)")
    p_prove.add_argument("--smt-cmd", default=None,
                         help="external SMT solver command line "
                              f"(default ${SMT_ENV_VAR})")
    p_prove.add_argument("--timeout", default="60",
                         help="wall-clock budget in seconds")
    return parser


def _integer(piece: str, option: str) -> int:
    try:
        return parse_int(piece)
    except ValueError:
        raise LcstrsError(
            f"{option}: {piece.strip()!r} is not an integer") from None
    except TheoryError as e:
        raise LcstrsError(f"{option}: {e}") from None


def _seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if math.isnan(seconds):
        raise LcstrsError(
            f"--timeout expects a number of seconds, got {text.strip()}")
    return seconds


def _parse_inputs(text: str) -> list:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if piece in ("true", "false"):
            values.append(piece == "true")
        else:
            values.append(_integer(piece, "--inputs"))
    return values


def _emit(fmt: str, payload: dict) -> None:
    """Print the payload as JSON, or its text view."""
    print(_json(payload) if fmt == "json" else _text(payload))


_encode = json.encoder.encode_basestring_ascii    # the C string encoder


def _json(obj) -> str:
    """What `json.dumps` writes for `obj` with an indent of 2, byte for
    byte, for a document with `str` keys. With an indent, the json module
    encodes in pure Python; this writer sends every string through the C
    encoder instead."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    pieces: list[str] = []
    _put(obj, "\n", pieces)
    return "".join(pieces)


def _put(obj, newline: str, pieces: list) -> None:
    """Append the dict, list or tuple `obj`, written at the indent that
    `newline` ends in. It recurses once per container level, as the json
    module's encoder does."""
    keyed = isinstance(obj, dict)
    if not obj:
        pieces.append("{}" if keyed else "[]")
        return
    inner = newline + "  "
    separator = "," + inner
    append = pieces.append
    append(("{" if keyed else "[") + inner)
    for key, value in (obj.items() if keyed else enumerate(obj)):
        if keyed:
            append(_encode(key) + ": ")
        cls = value.__class__
        if cls is str:
            append(_encode(value))
        elif cls is dict or cls is list:
            _put(value, inner, pieces)
        elif cls is int:
            append(repr(value))
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif value is None:
            append("null")
        elif isinstance(value, (dict, list, tuple)):
            _put(value, inner, pieces)
        else:    # a float, or a subclass of str or int: no payload has one
            append(json.dumps(value))
        append(separator)
    pieces[-1] = newline + ("}" if keyed else "]")  # the last separator


_RELATION_SIGNS = {"geq": ">=", "gt": ">", "rpo": ">>", "lex": ">lex",
                   "mul": ">mul"}


def _text(payload: dict) -> str:
    """The text view of a `check`, `run` or `prove` payload: every line is
    read from the payload, so the text says what the JSON says."""
    command = payload["command"]
    if command == "check":
        lines = [f"fun {s['name']} : {s['type']}" for s in payload["symbols"]]
        lines += [f"rule {_rule(r)}" for r in payload["rules"]]
        lines.append(f"ok: {len(payload['symbols'])} symbols, "
                     f"{len(payload['rules'])} rules")
    elif command == "run":
        lines = [f"start: {payload['start']}"]
        lines += [f"step {i}: {s['kind']} at {s['position']} -> {s['term']}"
                  for i, s in enumerate(payload["steps"], 1)]
        total = payload["total_steps"]
        lines.append(f"normal form after {total} steps: {payload['result']}"
                     if payload["normal_form"]
                     else f"fuel exhausted after {total} steps")
    elif "witness" in payload:
        lines = ["TERMINATING", *_witness_lines(payload["witness"])]
    elif "diagnostics" in payload["report"]:
        report = payload["report"]
        lines = [f"{report['message']}:", *report["diagnostics"]]
    else:
        report = payload["report"]
        lines = ["UNKNOWN",
                 f"no termination witness found: {report['message']}"]
        for failure in report["rules"]:
            lines.append(f"  rule {failure['index']}: {failure['rule']}")
            if failure["deepest_failure"]:
                lines.append("    deepest failing comparison: "
                             f"{failure['deepest_failure']}")
            lines += [f"    undecided entailment: {u}"
                      for u in failure["unknown_entailments"]]
    return "\n".join(lines)


def _rule(rule: dict) -> str:
    return f"{rule['lhs']} -> {rule['rhs']} [{rule['constraint']}]"


def _witness_lines(witness: dict) -> list[str]:
    """The witness document: its parameters, with the precedence cut down
    to the edges that transitivity does not imply, then each rule and its
    derivation tree, one node a line, children indented below."""
    edges = frozenset(map(tuple, witness["precedence"]))
    above = _transitive_closure(edges)
    direct = [f"{f} > {g}" for f, g in sorted(edges)
              if not any(g in above.get(h, ()) for h in above[f] if h != g)]
    status = ", ".join(f"{f}: {st}" for f, st in witness["status"].items())
    lines = ["termination witness", f"  bound: {witness['bound']}",
             f"  precedence: {', '.join(direct) or '(empty)'}",
             f"  status: {status or '(all lexicographic)'}"]
    for rule in witness["rules"]:
        lines.append(f"  rule {rule['index']}: {_rule(rule)}")
        stack = [(rule["derivation"], 4)]
        while stack:
            node, indent = stack.pop()
            line = (f"{' ' * indent}{node['case']}: {node['lhs']} "
                    f"{_RELATION_SIGNS[node['relation']]} {node['rhs']} "
                    f"[{node['constraint']}]")
            if "detail" in node:
                line += f" ({node['detail']})"
            lines.append(line)
            stack += [(child, indent + 2)
                      for child in reversed(node.get("children", ()))]
    return lines


def _fail(message: str, fmt: str, command: str, file: str) -> int:
    if fmt == "json":
        print(_json({"command": command, "file": file, "ok": False,
                     "error": message}))
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_check(args) -> int:
    system = parse_system(_read(args.file))
    _emit(args.format, {
        "command": "check", "file": args.file, "ok": True,
        "symbols": [{"name": s.name, "type": str(s.type)}
                    for s in system.declarations],
        "rules": [{"index": i + 1,
                   "lhs": print_term(r.lhs),
                   "rhs": print_term(r.rhs),
                   "constraint": print_term(r.constraint)}
                  for i, r in enumerate(system.rules)],
    })
    return 0


def cmd_run(args) -> int:
    system = parse_system(_read(args.file))
    term = parse_term(args.term, system)
    inputs = InputSource(_parse_inputs(args.inputs))
    fuel = _integer(args.fuel, "--fuel")
    result = normalize(term, system, strategy=args.strategy, fuel=fuel,
                       inputs=inputs)

    memo: dict = {}  # one for the call: steps share most subterms
    _emit(args.format, {
        "command": "run", "file": args.file, "ok": not result.exhausted,
        "start": print_term(term, memo), "strategy": args.strategy,
        "fuel": fuel, "result": print_term(result.term, memo),
        "normal_form": not result.exhausted,
        "total_steps": result.total_steps,
        "steps": [{"position": list(s.position), "kind": s.kind,
                   "term": print_term(s.result, memo)}
                  for s in result.steps],
    })
    return 2 if result.exhausted else 0


def cmd_prove(args) -> int:
    system = parse_system(_read(args.file))
    pieces = (args.bounds or "").split(",")
    bounds = tuple(_integer(b, "--bounds") for b in pieces
                   if b.strip() != "") or None    # None: the file's bound
    timeout = _seconds(args.timeout)
    smt_command = (os.environ.get(SMT_ENV_VAR) if args.smt_cmd is None
                   else args.smt_cmd)
    config = ProverConfig(bounds=bounds, timeout=timeout,
                          smt_command=smt_command)
    result = find_witness(system, config)
    if isinstance(result, Witness):
        # the check reads the parameters back from the document that is
        # printed and checks each of its derivations node by node, with a
        # fresh solver for the entailment leaves: it shares no cache with
        # the search, only its external solver
        document = result.to_dict(system)
        try:
            params = params_from_dict(document, system.signature)
        except ValueError as error:
            diagnostics: tuple[str, ...] = (str(error),)
        else:
            diagnostics = check_witness(
                Witness(params, result.derivations), system,
                Solver(smt_command=smt_command)
            ).diagnostics
        if diagnostics:
            _emit(args.format, {
                "command": "prove", "file": args.file, "ok": False,
                "report": {"message": "witness failed verification",
                           "diagnostics": list(diagnostics)}})
            return 2
        _emit(args.format, {"command": "prove", "file": args.file,
                            "ok": True, "witness": document})
        return 0
    _emit(args.format, {"command": "prove", "file": args.file, "ok": False,
                        "report": result.to_dict()})
    return 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise LcstrsError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise LcstrsError(f"cannot read {path}: not UTF-8 text, {e.reason} "
                          f"at byte {e.start}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {"check": cmd_check, "run": cmd_run, "prove": cmd_prove}
    try:
        try:
            return handlers[args.command](args)
        except LcstrsError as e:
            return _fail(str(e), args.format, args.command, args.file)
        except RecursionError:
            # some library walks still recurse once per nesting level
            return _fail("input nests too deeply", args.format, args.command,
                         args.file)
    except BrokenPipeError:
        _stdout_to_devnull()
        return 1


def _stdout_to_devnull() -> None:
    """Point a closed stdout at os.devnull, so that the flush at exit
    writes nowhere either (the recipe of the `signal` module's docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
