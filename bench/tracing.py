"""Per-layer spans and counters for the traced run.

`Tracer.install()` wraps public padicprob functions and methods from
outside the program. A function is replaced in every padicprob module
namespace that binds it (`vp`, for one, is imported into `limits`,
`frequency` and `cli`); a method is replaced on its class. Each span
records calls, self time (its duration minus the part covered by
nested spans) and, at its outermost level, inclusive time. Counts are
derived from call arguments and return values. `uninstall()` restores
every original.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from padicprob import cli, cylinder, frequency, gvalued, limits, padic, series


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


EVALUATOR = "cylinder.evaluator"
COUNTS = (
    "limits.binom_terms", "limits.ball_passes", "limits.rows", "limits.max_value_bits",
    "cli.stdout_bytes", "cylinder.words_evaluated",
    "frequency.symbols_scanned", "frequency.longest_prefix",
)


class Tracer:
    def __init__(self):
        self._patches = []
        self._names = set()
        self._stack = []  # time covered by nested spans, one entry per open span
        self._depth = defaultdict(int)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self_s, inclusive s
        self.counts = defaultdict(int)
        self._op_longest_prefix = 0

    def reset(self):
        """Zero every span and count; the wrappers hold these objects."""
        for table in (self._stack, self._depth, self.stats, self.counts):
            table.clear()
        self._op_longest_prefix = 0

    # -- spans -----------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        self._names.add(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if not depth[name]:
                    stat[2] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                t1 = clock()
                after(args, kwargs, result)
                if stack:  # nor does the parent's self time include this counting
                    stack[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = self._span(name, original, after)
        mods = [m for key, m in sys.modules.items() if key == "padicprob" or key.startswith("padicprob.")]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self._span(name, original.__func__, after))
        else:
            wrapper = self._span(name, original, after)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    # -- counters ------------------------------------------------------------------

    def _walk(self, terms):
        self.counts["limits.binom_terms"] += terms
        self.counts["limits.ball_passes"] += 1

    def _value_bits(self, values):
        best = max((_bits(v) for v in values), default=0)
        if best > self.counts["limits.max_value_bits"]:
            self.counts["limits.max_value_bits"] = best

    def _rows(self, traces):
        for t in traces:
            self.counts["limits.rows"] += len(t.rows)
            self._value_bits(r.value for r in t.rows)

    def _prefix(self, args, kwargs, _result):
        n = _arg(args, kwargs, 1, "n")
        self.counts["frequency.symbols_scanned"] += n
        self._op_longest_prefix = max(self._op_longest_prefix, n)

    def end_op(self, stdout_bytes=0):
        """Close one op: its longest prefix is the floor for its scanning."""
        self.counts["frequency.longest_prefix"] += self._op_longest_prefix
        self._op_longest_prefix = 0
        self.counts["cli.stdout_bytes"] += stdout_bytes

    def _words(self, args, kwargs, _result):
        self.counts["cylinder.words_evaluated"] += args[0].q ** _arg(args, kwargs, 2, "depth")

    def _wrap_evaluator(self, _args, _kwargs, cmap):
        cmap.evaluator = self._span(EVALUATOR, cmap.evaluator)

    # -- install -------------------------------------------------------------------

    def install(self):
        f, m = self._function, self._method
        f(cli, "main", "cli.main")
        f(padic, "vp", "padic.vp")
        for attr in ("from_rational", "from_rational_abs", "__neg__", "__add__", "__sub__",
                     "__mul__", "mul_rational", "div_rational", "__pow__"):
            m(padic.PadicApprox, attr, "padic.approx")
        f(padic, "series_eval", "padic.series_eval")

        f(limits, "ball_probability", "limits.ball_probability",
          lambda a, k, r: (self._walk(_arg(a, k, 1, "n") + 1), self._value_bits([r])))
        f(limits, "empirical_mahler_row", "limits.empirical_mahler_row",
          lambda a, k, r: (self._walk(_arg(a, k, 1, "n") + 1), self._value_bits(r)))
        m(limits.SumDistribution, "weights", "limits.sum_distribution",
          lambda a, k, r: self._walk(a[0].n + 1))
        f(limits, "checkpoint_pattern_distribution", "limits.checkpoint_pattern_distribution",
          self._pattern_walks)
        f(limits, "binomial_ball_trace", "limits.binomial_ball_trace", lambda a, k, r: self._rows([r]))
        f(limits, "prime_edge_trace", "limits.prime_edge_trace", lambda a, k, r: self._rows([r]))
        f(limits, "divisibility_balance_traces", "limits.divisibility_balance_traces",
          lambda a, k, r: self._rows(r))
        # one pass of the distribution emits one row of the Mahler table, all m at once
        f(limits, "mahler_lln_traces", "limits.mahler_lln_traces",
          lambda a, k, r: self._rows(list(r.values())[:1]))
        f(limits, "sphere_randomness_test", "limits.sphere_randomness_test",
          lambda a, k, r: self._test_rows(r))
        f(limits, "hit_union_probability", "limits.hit_union_probability",
          lambda a, k, r: self._value_bits([r]))
        f(limits, "clt_series", "limits.clt_series")
        f(limits, "clt_mahler_bound_check", "limits.clt_mahler_bound_check")
        f(limits, "charfun_to_mahler", "limits.charfun_to_mahler")

        m(series.FormalSeries, "__mul__", "series.mul")
        m(series.FormalSeries, "compose", "series.compose")
        m(series.FormalSeries, "padic_power", "series.padic_power")

        f(cylinder, "integrate_continuous", "cylinder.integrate_continuous", self._words)
        f(cylinder, "digit_weight_map", "cylinder.digit_weight_map", self._wrap_evaluator)
        self._names.add(EVALUATOR)  # its spans are made per map, when the map is built
        m(cylinder.CylinderMeasure, "cylinder_mass", "cylinder.cylinder_mass")
        m(cylinder.UniformMeasure, "cylinder_mass", "cylinder.cylinder_mass")
        for attr in ("__init__", "__or__", "__and__", "complement", "__sub__", "contains"):
            m(cylinder.Clopen, attr, "cylinder.clopen")
        f(cylinder, "integrate_step", "cylinder.integrate_step")

        m(gvalued.GDistribution, "probability", "gvalued.probability")
        f(gvalued, "additivity_check", "gvalued.additivity_check")
        f(gvalued, "unit_axiom_check", "gvalued.unit_axiom_check")
        f(gvalued, "convolve", "gvalued.convolve")

        m(frequency.Collective, "prefix", "frequency.prefix", self._prefix)
        m(frequency.Collective, "count", "frequency.prefix")
        m(frequency.Collective, "from_file", "frequency.from_file")
        f(frequency, "s_probability", "frequency.s_probability")
        f(frequency, "conditional_s_probability", "frequency.conditional_s_probability")

    def _test_rows(self, result):
        self.counts["limits.rows"] += len(result.rows)
        self._value_bits(r.event_prob for r in result.rows)

    def _pattern_walks(self, args, kwargs, result):
        pos = 0
        for n in _arg(args, kwargs, 3, "terms"):
            self.counts["limits.binom_terms"] += n - pos + 1
            pos = n
        self._value_bits(result.values())

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every span's calls, self_s and inclusive s, and the counts."""
        out = {}
        for name in self._names:
            calls, self_s, incl = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.s"] = incl
        c = self.counts
        out.update((name, c.get(name, 0)) for name in COUNTS)
        out["limits.passes_per_row"] = c["limits.ball_passes"] / c["limits.rows"] if c["limits.rows"] else 0.0
        longest = c["frequency.longest_prefix"]
        out["frequency.scan_ratio"] = c["frequency.symbols_scanned"] / longest if longest else 0.0
        return out
