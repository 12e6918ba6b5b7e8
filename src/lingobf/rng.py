"""Portable deterministic randomness.

Every randomized operation in this package draws from the splitmix64
sequence generator below rather than ``random`` or numpy.  The stdlib only
guarantees stream stability for ``Random.random()`` itself, and numpy's
``Generator`` method streams may change between releases; datasets here
must be bit-identical across platforms and library versions, so the
generator is owned outright.  It is ~20 lines and well studied.

Stream splitting: :func:`derive_seed` folds a root seed plus a sequence of
labels (strings or integers) into a new 64-bit seed, so each collection of
a ruleset, each dataset problem, and each bootstrap set gets its own
independent stream addressed by name, never by draw order.  The fold is
incremental: :func:`absorb` continues it, so a caller that derives many
sibling seeds folds their shared prefix once.

Bounded draws: :meth:`SplitMix64.below_each` is the one rejection loop.
``below``, ``shuffle`` and ``cycle`` each make their draws through one
call of it, and the bootstrap calls it with rejection limits that
:func:`rejection_limits` computes once for bounds drawn again and again
(one per problem, in every bootstrap set).
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _mix(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(root: int, *tokens: int | str) -> int:
    """Fold ``root`` and a label path into a child seed.

    Tokens are absorbed as length-prefixed UTF-8 (strings) or 8-byte words
    (integers), each followed by a finalizer pass, so distinct paths give
    unrelated streams.
    """
    return absorb(_mix(root ^ _GOLDEN), *tokens)


def absorb(seed: int, *tokens: int | str) -> int:
    """Continue :func:`derive_seed`'s fold from ``seed``.

    ``derive_seed(root, *a, *b) == absorb(derive_seed(root, *a), *b)``.
    """
    h = seed
    for token in tokens:
        if isinstance(token, str):
            data = token.encode("utf-8")
            h = _mix(h ^ len(data))
            for i in range(0, len(data), 8):
                h = _mix(h ^ int.from_bytes(data[i : i + 8], "little"))
        else:
            h = _mix(h ^ (token & _MASK) ^ _GOLDEN)
    return h


def rejection_limits(bounds: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """``(n, limit)`` for each bound, as :meth:`SplitMix64.below_each` takes them.

    ``limit`` is the largest multiple of ``n`` not above 2**64, the one
    ``below(n)`` rejects draws from.
    """
    limits = []
    for n in bounds:
        if n <= 0:
            raise ValueError("bound must be positive")
        limits.append((n, _MASK + 1 - ((_MASK + 1) % n)))
    return tuple(limits)


class SplitMix64:
    """splitmix64 stream with unbiased integer draws and shuffles."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        return self.below_each(rejection_limits((n,)))[0]

    def below_each(self, limits: Sequence[tuple[int, int]]) -> list[int]:
        """One uniform integer in [0, n) per ``(n, limit)`` of :func:`rejection_limits`.

        The draws are made in order, with ``next_u64`` and ``_mix`` inlined:
        a bound of 1 draws nothing, and a draw at or above its limit is
        drawn again, so that ``u % n`` is unbiased.
        """
        state = self._state
        out = []
        for n, limit in limits:
            if n == 1:
                out.append(0)
                continue
            while True:
                state = (state + _GOLDEN) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
                if z < limit:
                    break
            out.append(z % n)
        self._state = state
        return out

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle (uniform over all permutations)."""
        if len(items) < 2:
            return
        indices = range(len(items) - 1, 0, -1)
        for i, j in zip(indices, self.below_each(rejection_limits(i + 1 for i in indices))):
            items[i], items[j] = items[j], items[i]

    def cycle(self, items: Sequence[T]) -> dict[T, T]:
        """Uniform full cycle on ``items``, as an item -> image mapping.

        Sattolo's variant of Fisher-Yates: restricting the swap index to
        ``j < i`` yields exactly the cyclic permutations, each with
        probability 1/(n-1)!.  Requires at least two items, since a
        1-element collection admits no fixed-point-free arrangement.
        """
        if len(items) < 2:
            raise ValueError("a full cycle needs at least 2 items")
        out = list(items)
        indices = range(len(out) - 1, 0, -1)
        for i, j in zip(indices, self.below_each(rejection_limits(indices))):
            out[i], out[j] = out[j], out[i]
        return {src: img for src, img in zip(items, out)}


def stream(root: int, *tokens: int | str) -> SplitMix64:
    """Named child stream of ``root``; shorthand for SplitMix64(derive_seed(...))."""
    return SplitMix64(derive_seed(root, *tokens))

