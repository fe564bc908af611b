"""Per-layer tracing of lcstrs from outside the package.

`Tracer.install` rebinds, at runtime, the public names that lcstrs's own
callers look up (module globals such as `lcstrs.cli.normalize`, and methods
such as `Solver.entails`), so every call through them records a span and the
counts that belong to it. Nothing under `src/lcstrs` changes; `uninstall`
puts the original objects back.

Self time (a span's duration minus the time of the traced spans it
encloses) and call counts are aggregated as the spans close, because the
leaf layers (interpretation, substitution, matching) are entered millions of
times. Spans of the coarse boundaries (one `main` call, parsing, `normalize`,
`find_witness`, `check_witness`, `orient_rule`, `entails`) are also kept in
memory in full, with parent and call id, and written out by `write_spans`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# span name -> layer (the lcstrs module whose work the span measures)
LAYERS = {
    "cli.main": "cli",
    "syntax.parse_system": "syntax",
    "syntax.parse_term": "syntax",
    "syntax.print_term": "syntax",
    "syntax.tokenize": "syntax",
    "core.typecheck": "core",
    "core.subst_apply": "core",
    "theory.try_calculate": "theory",
    "theory.interpret": "theory",
    "rewrite.normalize": "rewrite",
    "rewrite.step_at": "rewrite",
    "rewrite.match": "rewrite",
    "solver.entails": "solver",
    "horpo.orient_rule": "horpo",
    "prover.find_witness": "prover",
    "prover.check_witness": "prover",
}
LAYER_NAMES = ("syntax", "core", "theory", "rewrite", "solver", "horpo",
               "prover", "cli")
RECORDED = {"cli.main", "syntax.parse_system", "syntax.parse_term",
            "rewrite.normalize", "prover.find_witness", "prover.check_witness",
            "horpo.orient_rule", "solver.entails"}


class Tracer:
    def __init__(self):
        self.calls = Counter()          # span name -> calls
        self.inclusive = Counter()      # span name -> seconds
        self.self_time = Counter()      # span name -> seconds
        self.counts = Counter()         # event counters (hits, verdicts, ...)
        self.steps_by_kind = defaultdict(lambda: [0.0, 0])  # seconds, steps
        self.max_term_size = 0
        self.max_log_len = 0
        self.kind = ""                  # input type of the current main call
        self.call_id = -1
        self.spans: list = []           # [name, start, end, parent, call id]
        self._open: list = []           # child-time accumulators
        self._open_recorded: list = []  # indices into self.spans
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, after=None, reentrant=True):
        """`fn` with a span around it; `after(result, args, seconds)` adds
        counts. With reentrant=False, calls made while a span of the same
        function is open (recursion) run untraced."""
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        open_, open_recorded, spans = self._open, self._open_recorded, self.spans
        recorded = name in RECORDED
        depth = [0]

        def traced(*args, **kwargs):
            if not reentrant and depth[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            open_.append(frame)
            if recorded:
                index = len(spans)
                parent = open_recorded[-1] if open_recorded else -1
                spans.append([name, 0.0, 0.0, parent, self.call_id])
                open_recorded.append(index)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[0] -= 1
                open_.pop()
                seconds = end - start
                if open_:
                    open_[-1][0] += seconds
                calls[name] += 1
                inclusive[name] += seconds
                self_time[name] += seconds - frame[0]
                if recorded:
                    open_recorded.pop()
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(result, args, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name, fn):
        """`fn` counting its outermost calls only, without a span."""
        counts = self.counts
        depth = [0]

        def counted(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        counted.__wrapped__ = fn
        return counted

    def call_main(self, main, argv, kind):
        self.call_id += 1
        self.kind = kind
        return self.wrap("cli.main", main)(argv)

    # -- rebinding -------------------------------------------------------

    def _rebind(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import lcstrs.cli as cli
        import lcstrs.core as core
        import lcstrs.horpo as horpo
        import lcstrs.rewrite as rewrite
        import lcstrs.solver as solver
        import lcstrs.syntax as syntax

        counts = self.counts

        def hit(counter):
            def after(result, args, seconds):
                if result is not None:
                    counts[counter] += 1
            return after

        def after_normalize(result, args, seconds):
            steps = result.total_steps
            counts["rewrite.steps"] += steps
            size = max((s.result.size for s in result.steps),
                       default=result.term.size)
            self.max_term_size = max(self.max_term_size, args[0].size, size)
            entry = self.steps_by_kind[self.kind]
            entry[0] += seconds
            entry[1] += steps

        def entails(original):
            traced = self.wrap("solver.entails", original)

            def entails_counted(solver_self, *args, **kwargs):
                before = solver_self.queries
                start = perf_counter()
                verdict = traced(solver_self, *args, **kwargs)
                if solver_self.queries == before:
                    counts["solver.cache_hits"] += 1
                if verdict.is_yes:
                    counts["solver.yes"] += 1
                elif verdict.is_no:
                    counts["solver.no"] += 1
                else:
                    counts["solver.unknown"] += 1
                    counts["solver.unknown_s"] += perf_counter() - start
                self.max_log_len = max(self.max_log_len, len(solver_self.log))
                return verdict

            return entails_counted

        rebind = self._rebind
        wrap = self.wrap
        rebind(cli, "parse_system", wrap("syntax.parse_system", cli.parse_system))
        rebind(cli, "parse_term", wrap("syntax.parse_term", cli.parse_term))
        rebind(cli, "print_term", wrap("syntax.print_term", cli.print_term))
        rebind(cli, "normalize", wrap("rewrite.normalize", cli.normalize,
                                      after=after_normalize))
        rebind(cli, "find_witness", wrap("prover.find_witness", cli.find_witness))
        rebind(cli, "check_witness", wrap("prover.check_witness",
                                          cli.check_witness))
        rebind(syntax, "tokenize", wrap("syntax.tokenize", syntax.tokenize))
        rebind(syntax, "typecheck", wrap("core.typecheck", syntax.typecheck))
        rebind(rewrite, "step_at", wrap("rewrite.step_at", rewrite.step_at))
        rebind(rewrite, "match", wrap("rewrite.match", rewrite.match,
                                      after=hit("rewrite.match.hits")))
        rebind(rewrite, "try_calculate", wrap(
            "theory.try_calculate", rewrite.try_calculate,
            after=hit("theory.try_calculate.hits")))
        rebind(rewrite, "interpret", wrap("theory.interpret", rewrite.interpret))
        rebind(solver, "interpret", wrap("theory.interpret", solver.interpret))
        rebind(solver.Solver, "entails", entails(solver.Solver.entails))
        rebind(horpo.Horpo, "orient_rule", wrap(
            "horpo.orient_rule", horpo.Horpo.orient_rule,
            after=hit("horpo.orient_rule.hits")))
        rebind(core.Substitution, "apply", wrap(
            "core.subst_apply", core.Substitution.apply, reentrant=False))
        rebind(core.Term, "replace_at", self.count_calls(
            "core.replace_at", core.Term.replace_at))
        rebind(core.Term, "subterm_at", self.count_calls(
            "core.subterm_at", core.Term.subterm_at))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_self_seconds(self) -> dict:
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, seconds in self.self_time.items():
            out[LAYERS[name]] += seconds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, call in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "call": call}) + "\n")
