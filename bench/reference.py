"""Oracles computed from the mathematics with plain tuples and ints.

Nothing here calls ``goldmanab``: these are the definitions the package
implements, written out directly, so a deliberate bug fix in the package
can never look like a benchmark failure.
"""

from __future__ import annotations

import itertools
from collections import defaultdict


def pairing(genus: int, x, y) -> int:
    """The symplectic form sum_t (x_{2t-1} y_{2t} - x_{2t} y_{2t-1})."""
    return sum(x[2 * t] * y[2 * t + 1] - x[2 * t + 1] * y[2 * t] for t in range(genus))


def exponents(runs, n: int) -> tuple[int, ...]:
    """Total exponent of each generator, the abelianization of a word."""
    out = [0] * n
    for gen, exp in runs:
        out[gen - 1] += exp
    return tuple(out)


def linear_sum(pairs) -> dict:
    """Collect (key, coefficient) pairs into a finitely supported map."""
    acc = defaultdict(int)
    for key, coef in pairs:
        acc[key] += coef
    return {k: c for k, c in acc.items() if c}


def free_reduce(runs) -> list[tuple[int, int]]:
    stack: list[tuple[int, int]] = []
    for gen, exp in runs:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    return stack


def _least_rotation(seq) -> int:
    """Booth's algorithm: start index of the lexicographically least rotation."""
    doubled = seq + seq
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        s = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and s != doubled[k + i + 1]:
            if s < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if s != doubled[k + i + 1]:
            if s < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def conjugacy_key(runs) -> tuple:
    """A complete free-group conjugacy invariant: least rotation of the cyclic core."""
    core = free_reduce(runs)
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        (gen, first), (_, last) = core[0], core[-1]
        core = core[1:-1]
        if first + last:
            core = [(gen, first + last)] + core
    k = _least_rotation(core) if core else 0
    return tuple(core[k:] + core[:k])


def total_c(runs, c: int) -> int:
    return sum(abs(exp) for gen, exp in runs if gen == c)


def separation_bound(budget: int) -> int:
    """Least level whose half-modulus 2^(level-1) exceeds the c-exponent budget."""
    level = 0
    while (1 << level) <= 2 * budget:
        level += 1
    return level


def divides(d: int, x: int) -> bool:
    return x == 0 if d == 0 else x % d == 0


def box(n: int, radius: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-radius, radius + 1), repeat=n))


def table_is_ideal(genus: int, n: int, radius: int, values: dict) -> bool:
    """Bracket closure of a table rule inside its box, straight from the definition.

    The submodule is spanned by rule(v)*v; its bracket with w is
    <v, w> rule(v) * vw, which lies in the submodule exactly when rule(vw)
    divides that coefficient.
    """
    points = box(n, radius)
    for v in points:
        for w in points:
            vw = tuple(a + b for a, b in zip(v, w))
            if max(map(abs, vw)) > radius:
                continue
            if not divides(values[vw], pairing(genus, v, w) * values[v]):
                return False
    return True
