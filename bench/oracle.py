"""Independent exact recomputation of the benchmark's seed-dependent results.

Nothing here imports padicprob: every expected output is rebuilt from
the generated inputs with plain integers and Fractions, so a wrong
answer from the program cannot also hide in its own check.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


def canon(obj) -> str:
    """Stable text form of a result. Integers are written in hex, which
    Python converts without the decimal digit limit, so huge exact values
    can be digested inside the process that runs the program."""
    if isinstance(obj, bool) or obj is None:
        return repr(obj)
    if isinstance(obj, int):
        return format(obj, "x")
    if isinstance(obj, float):
        return "inf" if obj == math.inf else "-inf" if obj == -math.inf else repr(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator:x}/{obj.denominator:x}"
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canon(x) for x in obj) + "]"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(canon(obj).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- valuations and exponents --------------------------------------------


def vp(x, p: int):
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def decimal_exponent(x: Fraction) -> int:
    """Largest e with |x| <= 10**-e, for x != 0."""
    x = abs(Fraction(x))
    e = 0
    while x <= Fraction(1, 10 ** (e + 1)):
        e += 1
    while x > Fraction(10) ** -e:
        e -= 1
    return e


def fmt_exp(e) -> str:
    return "inf" if e == math.inf else str(e)


# -- binomial sums --------------------------------------------------------


def binom_class_sums(n: int, mod: int) -> list[int]:
    """sum of C(n, j) over j in each residue class mod `mod`."""
    out = [0] * mod
    c = 1
    for j in range(n + 1):
        out[j % mod] += c
        c = c * (n - j) // (j + 1)
    return out


def ball_trace_csv(p: int, m: int, r: int, depth: int, kmax: int) -> str:
    """`thm31` stdout along N_k = m + p**k."""
    target = Fraction(math.comb(m, r), 2**m)
    lines = ["k,N_k,value_num,value_den,vp_to_limit"]
    for k in range(1, kmax + 1):
        n = m + p**k
        value = Fraction(binom_class_sums(n, p**depth)[r % p**depth], 2**n)
        lines.append(
            f"{k},{n},{value.numerator},{value.denominator},{fmt_exp(vp(value - target, p))}"
        )
    return "\n".join(lines) + "\n"


def sphere_test(bits: str, p: int, depth: int, center: int, eps: int, kmax: int, mode: str):
    """(exit code, stdout) of `test` along N_k = 1 + p**k on a 0/1 string."""
    small, big = p**depth, p ** (depth + 1)
    if mode == "sphere":
        mod, classes = big, {(center + u * small) % big for u in range(1, p)}
    else:
        mod, classes = small, {(center + a) % small for a in range(1, p)}
    rows = []
    for k in range(1, kmax + 1):
        n = 1 + p**k
        s = bits.count("1", 0, n)
        sums = binom_class_sums(n, mod)
        prob = Fraction(sum(sums[c] for c in classes), 2**n)
        rows.append((k, n, s, s % mod in classes, prob, vp(prob, p)))
    if not any(all(r[5] > eps for r in rows[i:]) for i in range(len(rows))):
        return 5, ""
    lines = ["k,N_k,S,hit,prob_num,prob_den,vp_prob"]
    lines += [
        f"{k},{n},{s},{int(hit)},{prob.numerator},{prob.denominator},{fmt_exp(v)}"
        for k, n, s, hit, prob, v in rows
    ]
    return 0, "\n".join(lines) + "\n"


# -- relative frequencies ---------------------------------------------------


def prefix_counts(symbols: str, labels: str, terms) -> list[int]:
    """Occurrences of `labels` in each prefix, in one left-to-right pass."""
    out, pos, acc = [], 0, 0
    for n in sorted(set(terms)):
        acc += sum(symbols.count(ch, pos, n) for ch in labels)
        out.append((n, acc))
        pos = n
    table = dict(out)
    return [table[n] for n in terms]


def freq_csv(values, terms, p: int, topology: str = "padic") -> str:
    """`freq` stdout for the traced quotients `values` at `terms`."""
    lines = ["k,N_k,nu_num,nu_den,vp_gap"]
    prev = None
    for k, (n, nu) in enumerate(zip(terms, values), start=1):
        if prev is None:
            gap = ""
        elif nu == prev:
            gap = "inf"
        else:
            gap = str(vp(nu - prev, p) if topology == "padic" else decimal_exponent(nu - prev))
        lines.append(f"{k},{n},{nu.numerator},{nu.denominator},{gap}")
        prev = nu
    return "\n".join(lines) + "\n"


# -- clopen sets over q-ary words --------------------------------------------


def expand(words, q: int, depth: int) -> frozenset:
    """All depth-`depth` words under the given prefixes."""
    out = set()
    for w in words:
        free = depth - len(w)
        for i in range(q**free):
            tail = []
            for _ in range(free):
                i, d = divmod(i, q)
                tail.append(d)
            out.add(tuple(w) + tuple(tail))
    return frozenset(out)


def normal_form(full: frozenset, q: int, depth: int) -> list:
    """The sorted antichain of prefixes whose cylinders union to `full`,
    complete sibling families merged into their parent."""
    out = []

    def walk(prefix, members):
        if not members:
            return
        if len(members) == q ** (depth - len(prefix)):
            out.append(list(prefix))
            return
        for d in range(q):
            walk(prefix + (d,), [w for w in members if w[len(prefix)] == d])

    walk((), sorted(full))
    return out


# -- group-valued weights ----------------------------------------------------


def padic_abs(x: Fraction, p: int) -> Fraction:
    v = vp(x, p)
    return Fraction(0) if v == math.inf else Fraction(p) ** -v


def subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [x for i, x in enumerate(items) if mask >> i & 1]


def disjoint_pairs(n: int) -> int:
    """Unordered pairs {A, B} of disjoint subsets of an n-set, with A = B
    allowed only for the empty set: (3**n + 1) / 2."""
    return (3**n + 1) // 2


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for x, u in a.items():
        for y, w in b.items():
            out[x + y] = out[x + y] + u * w if x + y in out else u * w
    return out
