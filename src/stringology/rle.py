"""Run-length codec for binary words that start with a 1-run."""

from __future__ import annotations

from .words import SizeLimitError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

Run = tuple[int, int]  # (bit, exponent >= 1)

# the CLI line at the cap takes about 0.9 s and 415 MB, within 2 s and 512 MB
_DECODE_MAX = 5 * 10 ** 6


def rle_validate(runs: Sequence[Run]) -> None:
    if runs and runs[0][0] != 1:
        raise ValueError("first run must be a 1-run")
    check_runs(runs)


def check_runs(runs: Sequence[Run]) -> None:
    """A non-empty list of alternating runs, whichever bit it starts with."""
    if not runs:
        raise ValueError("empty run list")
    prev = None
    for bit, exp in runs:
        if bit not in (0, 1):
            raise ValueError(f"bad bit {bit}")
        if exp < 1:
            raise ValueError(f"bad exponent {exp}")
        if prev is not None and bit == prev:
            raise ValueError("adjacent runs must alternate")
        prev = bit


def rle_encode(x: Sequence[int]) -> list[Run]:
    if not x:
        raise ValueError("cannot encode the empty word")
    if any(s not in (0, 1) for s in x):
        raise ValueError("input must be binary")
    if x[0] != 1:
        raise ValueError("input must start with 1")
    runs: list[Run] = []
    for s in x:
        if runs and runs[-1][0] == s:
            runs[-1] = (s, runs[-1][1] + 1)
        else:
            runs.append((s, 1))
    return runs


def rle_decode(runs: Sequence[Run]) -> list[int]:
    rle_validate(runs)
    if rle_length(runs) > _DECODE_MAX:
        raise SizeLimitError(f"rle_decode bounded at length {_DECODE_MAX}")
    out: list[int] = []
    for bit, exp in runs:
        out.extend([bit] * exp)
    return out


def rle_length(runs: Sequence[Run]) -> int:
    return sum(exp for _, exp in runs)
