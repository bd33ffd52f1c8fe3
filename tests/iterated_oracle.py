"""Recursive oracle for the nested n-fold bracket.

Evaluates [x_1..x_n] = [[x_1..x_{n-1}], a^(n-2)(x_n)] directly on elements,
independently of the tensor that :func:`homnambu.iterated.iterated_bracket`
builds, so the tests can compare the two entry by entry.
"""

from __future__ import annotations

from homnambu.core import Element, HomSuperAlgebra, eval_bracket, map_power


def iterated_eval(alg: HomSuperAlgebra, elems: list[Element], n: int) -> Element:
    """Direct recursive evaluation, independent of the tensor construction."""
    if alg.arity != 2 or not alg.multiplicative_flag:
        raise ValueError("iterated brackets start from a binary multiplicative algebra")
    if len(elems) != n:
        raise ValueError(f"expected {n} arguments")
    alpha = alg.twist
    value = eval_bracket(alg, [elems[0], elems[1]])
    for j in range(3, n + 1):
        value = eval_bracket(alg, [value, map_power(alpha, j - 2).apply(elems[j - 1])])
    return value
