"""A fixed piece of pure-Python work that times the machine, not satkit.

The run divides its times by how slowly this work runs next to them (see
``harness.Speed``).  It imports nothing from satkit or from the
benchmark's other files, so no change to the program or to the
benchmark's oracles can move it.  Keep it frozen: ``REF_S`` is its
median time on the machine the benchmark was tuned on (a shared 2-vCPU
virtual machine, Python 3.11), and every normalised figure depends on
both.  Its shape follows satkit's work: small immutable trees walked
recursively, dictionaries keyed by them, and a union-find closure.
"""

from __future__ import annotations

import gc
from time import perf_counter

REF_S = 0.0090


class Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _lcg(state: int):
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        yield state >> 33


def _tree(draws, depth: int) -> Node:
    r = next(draws)
    if depth == 0 or r % 5 == 0:
        return Node("leaf", value=r % 50)
    return Node("+*-="[r % 4], _tree(draws, depth - 1), _tree(draws, depth - 1))


def _evaluate(node: Node, memo: dict) -> int:
    if node.op == "leaf":
        return node.value
    key = id(node)
    if key in memo:
        return memo[key]
    a, b = _evaluate(node.left, memo), _evaluate(node.right, memo)
    if node.op == "+":
        v = (a + b) % 1009
    elif node.op == "*":
        v = (a * b) % 1009
    elif node.op == "-":
        v = (a - b) % 1009
    else:
        v = int(a == b)
    memo[key] = v
    return v


def _shape(node: Node) -> tuple:
    if node.op == "leaf":
        return ("leaf", node.value)
    return (node.op, _shape(node.left), _shape(node.right))


def _closure(pairs: list[tuple[int, int]], size: int) -> int:
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return len({find(x) for x in range(size)})


def _inputs():
    draws = _lcg(20240601)
    trees = [_tree(draws, 7) for _ in range(120)]
    pairs = [(next(draws) % 2000, next(draws) % 2000) for _ in range(1500)]
    return trees, pairs


TREES, PAIRS = _inputs()
# the work's answer, so that a sample that computes something else fails
EXPECTED = 23771683


def work() -> int:
    total, shapes = 0, {}
    for t in TREES:
        total += _evaluate(t, {})
        shapes[_shape(t)] = shapes.get(_shape(t), 0) + 1
    return total * 1000 + len(shapes) + _closure(PAIRS, 2000)


def sample() -> float:
    """Seconds one pass of the work takes, with the collector off so that
    the size of satkit's heap cannot slow it."""
    gc.disable()
    try:
        start = perf_counter()
        answer = work()
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    if answer != EXPECTED:
        raise RuntimeError(f"calibration work gave {answer}, not {EXPECTED}")
    return elapsed
