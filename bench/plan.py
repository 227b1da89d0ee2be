"""The three workloads: fixed op lists, seeded inputs, expected results.

`build(workload, seed, work)` writes the workload's input files under
`work` and returns its op list. Each op is a CLI call (`argv` for
`padicprob.cli.main`) or a library call (a function of `libops`) and
carries the exit code and SHA-256 its output must have:

* deterministic ops are checked against `expected.json`, recorded from
  the program by `record.py`;
* seed-dependent ops, and the two ops whose exact output exceeds
  Python's 4300-digit integer-to-text limit, are checked against values
  that `oracle` recomputes from the generated inputs.

The op sizes are chosen so that one pass of each list takes a few
seconds; a run repeats the list to fill its measuring time.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def _recorded() -> dict:
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class _Ops:
    """Collects one workload's ops in their fixed order."""

    def __init__(self):
        self.ops = []
        self.recorded = _recorded()

    def _add(self, op, expect):
        if expect is None:
            op["recorded"] = True
            expect = self.recorded.get(op["name"])
        op["expect"] = expect
        self.ops.append(op)

    def cli(self, name, argv, stdout=None, rc=0):
        """A CLI op; without `stdout` its result comes from expected.json."""
        expect = None if stdout is None else {"rc": rc, "sha256": oracle.text_digest(stdout)}
        self._add({"name": name, "kind": "cli", "argv": [str(a) for a in argv]}, expect)

    def lib(self, name, inputs=None, canonical=None):
        """A libops call; without `canonical` its result comes from expected.json."""
        expect = None if canonical is None else {"rc": 0, "sha256": oracle.digest(canonical)}
        self._add({"name": name, "kind": "lib", "inputs": inputs}, expect)


def _write_symbols(path: str, symbols: str, width: int = 80) -> None:
    """Symbol file with a line break every `width` symbols (the program
    ignores whitespace)."""
    with open(path, "w") as fh:
        for i in range(0, len(symbols), width):
            fh.write(symbols[i : i + width] + "\n")


def _random_bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _generator_bits(seed: int, n: int) -> str:
    """The first n symbols of the program's `--random-bits SEED` source."""
    rng = random.Random(seed)
    return "".join("01"[rng.getrandbits(1)] for _ in range(n))


def _forcing_bits(rng, p, depth, center, terms) -> str:
    """A 0/1 string whose partial sum at each checkpoint lands in a
    nonzero residue below p of S - center mod p**depth; the bits inside
    each gap are shuffled by the seed, which keeps every checkpoint sum."""
    mod = p**depth
    targets = [(center + a) % mod for a in range(1, p)]
    out, s, pos = [], 0, 0
    for n in terms:
        gap = n - pos
        delta = min(d for d in ((t - s) % mod for t in targets) if d <= gap)
        chunk = ["1"] * delta + ["0"] * (gap - delta)
        rng.shuffle(chunk)
        out.extend(chunk)
        s, pos = s + delta, n
    return "".join(out)


# -- limit-traces ---------------------------------------------------------------


def limit_traces(seed: int, work: str) -> list:
    rng = random.Random(f"limit-traces:{seed}")
    ops = _Ops()
    for p, m, r, depth, kmax in (
        (3, 2, 1, 1, 8), (3, 4, 1, 2, 8), (5, 2, 1, 1, 5),
        (5, 3, 2, 1, 5), (7, 2, 1, 1, 4), (7, 6, 3, 1, 4),
    ):
        ops.cli(f"thm31-p{p}-m{m}", ["thm31", "--prime", p, "--m", m, "--r", r, "--l", depth, "--kmax", kmax])
    for p, kmax in ((3, 8), (5, 5), (7, 4)):
        ops.cli(f"eq5-p{p}", ["eq5", "--prime", p, "--kmax", kmax])
    ops.cli("thm32-p3", ["thm32", "--prime", 3, "--r", 1, "--l", 1, "--kmax", 8])
    ops.cli("thm32-p5", ["thm32", "--prime", 5, "--r", 2, "--l", 1, "--kmax", 5])

    sphere = ["--prime", 3, "--l", 1, "--r", 0, "--scheme", "1+p^k", "--eps-exp", 2]
    bits = _random_bits(rng, 3**8 + 1 + rng.randrange(1000))
    path = os.path.join(work, "sphere-bits.txt")
    _write_symbols(path, bits)
    rc, out = oracle.sphere_test(bits, 3, 1, 0, 2, 8, "sphere")
    ops.cli("test-sphere-file", ["test", "--input", path, *sphere, "--kmax", 8], out, rc)
    ops.cli("test-adversarial", ["test", "--adversarial", *sphere, "--kmax", 8])
    forcing = _forcing_bits(rng, 3, 2, 1, [1 + 3**k for k in range(1, 9)])
    path = os.path.join(work, "residue-forcing.txt")
    _write_symbols(path, forcing)
    rc, out = oracle.sphere_test(forcing, 3, 2, 1, 2, 8, "residue")
    ops.cli(
        "test-residue-file",
        ["test", "--input", path, "--mode", "residue", "--prime", 3, "--l", 2, "--r", 1,
         "--scheme", "1+p^k", "--eps-exp", 2, "--kmax", 8],
        out, rc,
    )

    ops.cli("lln-p3", ["lln", "--prime", 3, "--scheme", "2+p^k", "--kmax", 9])
    ops.cli("lln-p2", ["lln", "--prime", 2, "--q", "1/3", "--scheme", "trunc(-1)", "--kmax", 13])
    ops.lib("ball_trace_k10")
    ops.lib("hit_union")

    # Both print integers beyond the 4300-digit text limit and exit 2 on
    # the seed commit; the oracle holds their correct output.
    ops.cli("thm31-k9", ["thm31", "--prime", 3, "--m", 2, "--r", 1, "--l", 1, "--kmax", 9],
            oracle.ball_trace_csv(3, 2, 1, 1, 9))
    bits_seed = rng.randrange(2**31)
    rc, out = oracle.sphere_test(_generator_bits(bits_seed, 3**9 + 1), 3, 1, 0, 2, 9, "sphere")
    ops.cli("test-random-k9", ["test", "--random-bits", bits_seed, *sphere, "--kmax", 9], out, rc)
    return ops.ops


# -- rational-algebra -----------------------------------------------------------

CLOPEN_Q, CLOPEN_DEPTH, CLOPEN_TABLE_DEPTH, CLOPEN_PRIME = 3, 7, 2, 5


def _rat(rng, lo, hi, den) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _clopen_inputs(rng):
    q, depth = CLOPEN_Q, CLOPEN_DEPTH
    sets = [
        ["".join(str(rng.randrange(q)) for _ in range(rng.randint(3, depth)))
         for _ in range(80)]
        for _ in range(30)
    ]
    prefixes = [f"{i // 9}{i // 3 % 3}{i % 3}" for i in range(27)]
    rng.shuffle(prefixes)
    pieces = [(prefixes[i::7], str(_rat(rng, -9, 9, 8))) for i in range(7)]
    table = {f"{i // 3}{i % 3}": str(_rat(rng, -9, 9, 8)) for i in range(9)}
    return {"sets": sets, "pieces": pieces, "table": table}


def _clopen_expected(inputs):
    q, depth = CLOPEN_Q, CLOPEN_DEPTH
    full = oracle.expand([()], q, depth)

    def words(ws):
        return [tuple(int(c) for c in w) for w in ws]

    sets = [oracle.expand(words(ws), q, depth) for ws in inputs["sets"]]
    out = []
    for a, b in zip(sets, sets[1:]):
        for s in (a | b, a & b, full - a, a - b):
            out.append(oracle.normal_form(s, q, depth))
    table = {tuple(int(c) for c in w): Fraction(v) for w, v in inputs["table"].items()}
    scale = Fraction(1, q ** (depth - CLOPEN_TABLE_DEPTH))
    integral = sum(
        Fraction(v) * sum(table[w[:CLOPEN_TABLE_DEPTH]] * scale
                          for w in oracle.expand(words(ws), q, depth))
        for ws, v in inputs["pieces"]
    )
    return [out, integral]


def _axioms_inputs(rng):
    return {"weights": [str(_rat(rng, -20, 20, 12)) for _ in range(9)]}


def _axioms_expected(inputs):
    w = [Fraction(x) for x in inputs["weights"]]
    sup = max(abs(sum(s, Fraction(0))) for s in oracle.subsets(w))
    total = abs(sum(w, Fraction(0)))
    return [True, oracle.disjoint_pairs(len(w)), sup == total, sup, total]


def _convolve_inputs(rng):
    return {"steps": [[str(_rat(rng, 1, 9, 9)) for _ in range(3)] for _ in range(60)]}


def _convolve_expected(inputs):
    acc = {Fraction(0): Fraction(1)}
    for ws in inputs["steps"]:
        acc = oracle.poly_mul(acc, {Fraction(i): Fraction(x) for i, x in enumerate(ws)})
    return [[s, acc[s]] for s in sorted(acc)]


PRODUCT_PRIME, PRODUCT_OUTCOMES = 3, 7


def _product_inputs(rng):
    n = PRODUCT_OUTCOMES
    weights = [[str(_rat(rng, 1, 30, 10)), str(_rat(rng, 1, 30, 10))] for _ in range(n)]
    events = [
        [rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), rng.randint(0, n))]
        for _ in range(8)
    ]
    return {"weights": weights, "events": events}


def _product_expected(inputs):
    p = PRODUCT_PRIME
    w = [(Fraction(a), Fraction(b)) for a, b in inputs["weights"]]

    def measure(idx):
        return tuple(sum((w[i][c] for i in idx), Fraction(0)) for c in (0, 1))

    def rho(x):
        return max(abs(x[0]), oracle.padic_abs(x[1], p))

    n = PRODUCT_OUTCOMES
    sup = max(rho(measure(s)) for s in oracle.subsets(range(n)))
    expected = rho(measure(range(n)))
    conditionals = []
    for a, b in inputs["events"]:
        pa, pab = measure(set(a)), measure(set(a) & set(b))
        conditionals.append([pab[0] / pa[0], pab[1] / pa[1]])
    return [True, oracle.disjoint_pairs(n), sup == expected, sup, expected, conditionals]


def rational_algebra(seed: int, work: str) -> list:
    rng = random.Random(f"rational-algebra:{seed}")
    ops = _Ops()
    ops.cli("mahler-p3-c70", ["mahler", "--prime", 3, "--clt-check", "--count", 70])
    ops.cli("mahler-p5-c40", ["mahler", "--prime", 5, "--clt-check", "--count", 40, "--a", "1/2"])
    ops.cli("clt-a1/2", ["clt", "--a", "1/2", "--order", 30, "--prime", 3])
    ops.cli("integrate-q2-p3", ["integrate", "--q", 2, "--prime", 3, "--depth", 12])
    ops.cli("integrate-q3-p2", ["integrate", "--q", 3, "--prime", 2, "--depth", 7])
    inputs = _clopen_inputs(rng)
    ops.lib("clopen_algebra", inputs, _clopen_expected(inputs))
    ops.lib("padic_approx")
    ops.lib("series_eval")
    for name, make, expect in (
        ("gvalued_axioms", _axioms_inputs, _axioms_expected),
        ("gvalued_convolve", _convolve_inputs, _convolve_expected),
        ("gvalued_product", _product_inputs, _product_expected),
    ):
        inputs = make(rng)
        ops.lib(name, inputs, expect(inputs))
    return ops.ops


# -- symbol-streams ---------------------------------------------------------------


def _freq_expected(symbols, labels, terms, p, given=None, topology="padic") -> str:
    if given is None:
        values = [Fraction(c, n) for c, n in zip(oracle.prefix_counts(symbols, labels, terms), terms)]
    else:
        joint = "".join(ch for ch in labels if ch in given)
        values = [
            Fraction(c_ab, c_a)
            for c_ab, c_a in zip(oracle.prefix_counts(symbols, joint, terms),
                                 oracle.prefix_counts(symbols, given, terms))
        ]
    return oracle.freq_csv(values, terms, p, topology)


def symbol_streams(seed: int, work: str) -> list:
    rng = random.Random(f"symbol-streams:{seed}")
    ops = _Ops()

    bits = _random_bits(rng, 2**21)
    bits_path = os.path.join(work, "bits-2e21.txt")
    _write_symbols(bits_path, bits)
    terms = [2**k for k in range(1, 22)]
    ops.cli("freq-bits-pk",
            ["freq", "--input", bits_path, "--labels", "1", "--prime", 2, "--scheme", "p^k", "--kmax", 21],
            _freq_expected(bits, "1", terms, 2))

    # the first symbol lies in the conditioning event, so it occurs at every checkpoint
    abc = rng.choice("ab") + "".join(rng.choices("abc", k=6 * 10**5 - 1))
    abc_path = os.path.join(work, "abc-6e5.txt")
    _write_symbols(abc_path, abc)
    terms = [3**k for k in range(1, 13)]
    abc_args = ["--input", abc_path, "--alphabet", "abc", "--prime", 3, "--scheme", "p^k", "--kmax", 12]
    ops.cli("freq-abc-given", ["freq", *abc_args, "--labels", "a", "--given", "ab"],
            _freq_expected(abc, "a", terms, 3, given="ab"))
    ops.cli("freq-abc-real", ["freq", *abc_args, "--labels", "ab", "--topology", "real"],
            _freq_expected(abc, "ab", terms, 3, topology="real"))

    # evenly spread checkpoints with seeded jitter, so every seed scans about as much
    terms = [30000 * j + rng.randrange(-5000, 5000) for j in range(1, 30)] + [9 * 10**5]
    scheme = "list:" + ",".join(map(str, terms))
    ops.cli("freq-list-30",
            ["freq", "--input", bits_path, "--labels", "1", "--prime", 2, "--scheme", scheme, "--kmax", 30],
            _freq_expected(bits, "1", terms, 2))

    bits_seed = rng.randrange(2**31)
    terms = [2**k for k in range(1, 21)]
    ops.cli("freq-random-k20",
            ["freq", "--random-bits", bits_seed, "--labels", "1", "--prime", 2, "--scheme", "p^k", "--kmax", 20],
            _freq_expected(_generator_bits(bits_seed, 2**20), "1", terms, 2))

    word = "1" + "".join(rng.choice("01") for _ in range(rng.randint(4, 8)))
    terms = [3**k - 1 for k in range(1, 13)]
    periodic = word * (terms[-1] // len(word) + 1)
    ops.cli("freq-periodic",
            ["freq", "--periodic", word, "--labels", "1", "--prime", 3, "--scheme", "trunc(-1)", "--kmax", 12],
            _freq_expected(periodic, "1", terms, 3))
    return ops.ops


WORKLOADS = {
    "limit-traces": limit_traces,
    "rational-algebra": rational_algebra,
    "symbol-streams": symbol_streams,
}


def build(workload: str, seed: int, work: str) -> list:
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[workload](seed, work)
