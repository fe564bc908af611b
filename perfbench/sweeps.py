"""Scaling sweeps of the traced run, timed untraced through the library API.

They pin the three ROADMAP baseline curves as per-layer figures: the cost of
one rewrite step against term size on `fact N exit`, proof-search time
against the number of chained symbols k in the status-blowup family, and
the time of one undecided nonlinear entailment. Each time is scaled to
reference host speed (hostspeed.py), as the end-to-end timings are.
"""

from __future__ import annotations

import math
import os
import statistics

from hostspeed import timed
from workloads import blowup_system

FACT_SIZES = (10, 20, 40, 80)
BLOWUP_SIZES = (4, 5, 6, 7)
REPEATS = 3


def _timed(fn):
    """(median over REPEATS calls of the seconds at reference host speed,
    result of the first call)"""
    times, results = [], []
    for _ in range(REPEATS):
        seconds, result = timed(fn)
        times.append(seconds)
        results.append(result)
    return statistics.median(times), results[0]


def run_sweeps(systems: str) -> tuple[dict, list]:
    """Returns (metrics, problems); a problem is an answer that is wrong."""
    from lcstrs.prover import ProverConfig, Witness, find_witness
    from lcstrs.rewrite import normalize
    from lcstrs.solver import Solver
    from lcstrs.syntax import parse_system, parse_term, print_term
    from lcstrs.core import BOOL_T
    from lcstrs.theory import base_signature

    metrics, problems = {}, []
    with open(os.path.join(systems, "fact.lcstrs"), encoding="utf-8") as handle:
        fact = parse_system(handle.read())
    for n in FACT_SIZES:
        term = parse_term(f"fact {n} exit", fact)
        seconds, result = _timed(lambda: normalize(term, fact))
        if print_term(result.term) != f"exit {math.factorial(n)}":
            problems.append(f"sweep fact {n}: wrong normal form")
        metrics[f"rewrite.us_per_step.fact_n{n}"] = (
            seconds / result.total_steps * 1e6, "us/step")

    for k in BLOWUP_SIZES:
        system = parse_system(blowup_system(k))
        config = ProverConfig(timeout=120)
        seconds, result = _timed(lambda: find_witness(system, config))
        if not isinstance(result, Witness):
            problems.append(f"sweep blowup k={k}: no witness")
        metrics[f"prover.find_witness.ms.k{k}"] = (seconds * 1e3, "ms")

    # valid (a*b + d > a*b > c), but outside the linear fast path
    signature, context = base_signature(), {}
    phi = parse_term("a * b > c /\\ d > 0", signature, context, BOOL_T)
    psi = parse_term("a * b + d > c", signature, context, BOOL_T)
    seconds, verdict = _timed(lambda: Solver().entails(phi, psi))
    if verdict.is_no:
        problems.append("sweep nonlinear entailment: refuted a valid query")
    metrics["solver.unknown_ms.nonlinear"] = (seconds * 1e3, "ms")
    return metrics, problems
