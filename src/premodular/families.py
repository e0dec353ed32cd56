"""Builtin premodular families: quantum SU(2), pointed cyclic forms, and friends.

Each family returns verified :class:`PremodularData` with exact rational
twists.  ``builtin()`` parses compositional expressions such as
``"prod(su2:4,conj(su2:4))"`` so the CLI and tests can name any member of the
closure of the base families under products and conjugation.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .fusion import FusionData
from .modular import PremodularData, Twist, premodular_from_twists

__all__ = [
    "trivial",
    "su2",
    "pointed_cyclic",
    "semion",
    "fibonacci",
    "ising",
    "product",
    "conjugate",
    "builtin",
    "builtin_suite",
]


def trivial() -> PremodularData:
    f = FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", 1)])
    return premodular_from_twists(f, [Twist.one()])


def su2(k: int) -> PremodularData:
    """Quantum SU(2) at level ``k``: labels 0..k with truncated spin fusion.

    Dimensions are ``sin((a+1)π/(k+2))/sin(π/(k+2))`` and the twist of label
    ``a`` is ``exp(πi a(a+2)/(2(k+2)))``; all labels are self-dual.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    n = k + 1
    names = [str(a) for a in range(n)]
    entries = []
    for a in range(n):
        for b in range(n):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                entries.append((a, b, c, 1))
    f = FusionData.from_entries(names, 0, list(range(n)), entries)
    dims = np.array([np.sin((a + 1) * np.pi / (k + 2)) / np.sin(np.pi / (k + 2)) for a in range(n)])
    theta = [Twist.from_turns(Fraction(a * (a + 2), 4 * (k + 2))) for a in range(n)]
    return premodular_from_twists(f, theta, dims=dims)


def pointed_cyclic(n: int, q: int) -> PremodularData:
    """Pointed data on Z_n with quadratic twists ``theta_a = exp(πi q a²/n)``.

    ``q`` must make the form well defined on Z_n, which means ``q*n`` even;
    the data is modular exactly when ``gcd(q, n) = 1``.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if (q * n) % 2 != 0:
        raise ValueError(f"inadmissible quadratic exponent {q} for Z_{n} (q*n must be even)")
    names = [str(a) for a in range(n)]
    entries = [(a, b, (a + b) % n, 1) for a in range(n) for b in range(n)]
    f = FusionData.from_entries(names, 0, [(-a) % n for a in range(n)], entries)
    theta = [Twist.from_turns(Fraction(q * a * a, 2 * n)) for a in range(n)]
    return premodular_from_twists(f, theta, dims=np.ones(n))


def semion() -> PremodularData:
    return pointed_cyclic(2, 1)


def _with_unit_rows(names: list[str], unit: str, entries: list[tuple]) -> list[tuple]:
    """Complete a sparse entry list with the unit-row and unit-column entries."""
    table = {(a, b, c): m for a, b, c, m in entries}
    for x in names:
        table.setdefault((unit, x, x), 1)
        table.setdefault((x, unit, x), 1)
    return [(a, b, c, m) for (a, b, c), m in table.items()]


def fibonacci() -> PremodularData:
    """Two labels with tau ⊗ tau = 1 ⊕ tau and theta_tau = exp(4πi/5)."""
    names = ["1", "tau"]
    f = FusionData.from_entries(
        names,
        "1",
        {"1": "1", "tau": "tau"},
        _with_unit_rows(names, "1", [("tau", "tau", "1", 1), ("tau", "tau", "tau", 1)]),
    )
    phi = (1 + np.sqrt(5)) / 2
    theta = [Twist.one(), Twist.from_turns(Fraction(2, 5))]
    return premodular_from_twists(f, theta, dims=np.array([1.0, phi]))


def ising() -> PremodularData:
    """Three labels 1, eps, sigma with sigma ⊗ sigma = 1 ⊕ eps and d(sigma) = √2."""
    names = ["1", "eps", "sigma"]
    f = FusionData.from_entries(
        names,
        "1",
        {"1": "1", "eps": "eps", "sigma": "sigma"},
        _with_unit_rows(
            names,
            "1",
            [
                ("eps", "eps", "1", 1),
                ("eps", "sigma", "sigma", 1),
                ("sigma", "eps", "sigma", 1),
                ("sigma", "sigma", "1", 1),
                ("sigma", "sigma", "eps", 1),
            ],
        ),
    )
    theta = [Twist.one(), Twist.from_turns(Fraction(1, 2)), Twist.from_turns(Fraction(1, 16))]
    return premodular_from_twists(f, theta, dims=np.array([1.0, 1.0, np.sqrt(2.0)]))


def product(a: PremodularData, b: PremodularData) -> PremodularData:
    """Deligne product: paired labels, multiplied dims and twists, S' Kronecker."""
    return a._on_pairs(b, *np.divmod(np.arange(a.rank * b.rank), b.rank))


def conjugate(p: PremodularData) -> PremodularData:
    """Complex-conjugate data (inverse twists, conjugated S')."""
    return p.conjugate()


_WORD = re.compile(r"[^(),]*")  # text up to the next "(", ")" or ","


def builtin(expr: str) -> PremodularData:
    """Parse a family expression.

    Grammar: ``su2:k``, ``pointed:n:q``, ``fibonacci``, ``ising``, ``semion``,
    ``trivial``, ``conj(EXPR)``, ``prod(EXPR,EXPR)``.
    """
    data, end = _parse(expr, 0)
    if end < len(expr):
        raise ValueError(f"unexpected {expr[end:]!r} at position {end}")
    return data


def _parse(expr: str, start: int) -> tuple[PremodularData, int]:
    """The expression that begins at ``expr[start]``, and the index of the
    delimiter after it (or the end of the text).

    Each argument is parsed from where the previous one ended, so the text is
    walked once and a nesting level costs one call.
    """
    end = _WORD.match(expr, start).end()
    word = expr[start:end].strip()
    if not expr.startswith("(", end):
        return _family(word), end
    if word not in ("conj", "prod"):
        raise ValueError(f"unknown constructor {word!r}")
    args = []
    while True:
        data, end = _parse(expr, end + 1)  # past "(" or ","
        args.append(data)
        if expr.startswith(")", end):
            break
        if not expr.startswith(",", end):
            raise ValueError(f"{word}( is not closed")
    close, end = end + 1, _WORD.match(expr, end + 1).end()
    if expr[close:end].strip() or expr.startswith("(", end):
        raise ValueError(f"unexpected {expr[close:end + 1]!r} after {word}(...)")
    if word == "conj":
        if len(args) != 1:
            raise ValueError(f"conj takes one argument, got {len(args)}")
        return conjugate(args[0]), end
    if len(args) != 2:
        raise ValueError(f"prod takes two factors, got {len(args)}")
    return product(*args), end


def _family(expr: str) -> PremodularData:
    """A base family named as in ``builtin``'s grammar."""
    parts = expr.split(":")
    name = parts[0]
    if name == "su2":
        if len(parts) != 2:
            raise ValueError("su2 requires a level, e.g. su2:4")
        return su2(int(parts[1]))
    if name == "pointed":
        if len(parts) != 3:
            raise ValueError("pointed requires order and exponent, e.g. pointed:3:2")
        return pointed_cyclic(int(parts[1]), int(parts[2]))
    simple = {"fibonacci": fibonacci, "ising": ising, "semion": semion, "trivial": trivial}
    if name in simple and len(parts) == 1:
        return simple[name]()
    raise ValueError(f"unknown builtin family {expr!r}")


def builtin_suite() -> list[tuple[str, PremodularData]]:
    """The standard verification set: SU(2) levels 1..8, all admissible pointed
    cyclic forms for n = 2..5, Fibonacci, Ising, plus representative products
    and conjugates."""
    out: list[tuple[str, PremodularData]] = []
    for k in range(1, 9):
        out.append((f"su2:{k}", su2(k)))
    for n in range(2, 6):
        step = 1 if n % 2 == 0 else 2
        for q in range(0, 2 * n, step):
            out.append((f"pointed:{n}:{q}", pointed_cyclic(n, q)))
    out.append(("fibonacci", fibonacci()))
    out.append(("ising", ising()))
    out.append(("prod(fibonacci,fibonacci)", builtin("prod(fibonacci,fibonacci)")))
    out.append(("prod(fibonacci,ising)", builtin("prod(fibonacci,ising)")))
    out.append(("conj(su2:3)", builtin("conj(su2:3)")))
    return out
