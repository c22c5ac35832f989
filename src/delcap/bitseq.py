"""Packed binary sequences and their runs.

A sequence holds up to 63 bits in a single Python int: the sequence read as
a binary numeral, symbol 0 being the most significant of `length` bits.
The textual form is the usual left-to-right string of '0'/'1', so "0101"
packs to 5.  All orderings in this package (table row order, orbit minima,
tie-breaking between maximizers) compare these numerals, so "0101" < "1010".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

MAX_LEN = 63


class CapExceededError(ValueError):
    """A hard size cap was exceeded (sequence length, search width, matrix size)."""


def numeral_text(value: int, length: int) -> str:
    """Numeral `value` as the text of its `length` symbols, "" for length 0."""
    if value < 0 or value >> length:
        raise ValueError(f"numeral {value} does not fit in {length} bits")
    return format(value, f"0{length}b") if length else ""


@dataclass(frozen=True)
class BinarySequence:
    """Fixed-length bit sequence packed into one machine word.

    bits is the sequence's numeral and must fit in length bits; length 0 is
    the empty sequence (a fully deleted channel output).
    """

    bits: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= MAX_LEN:
            raise CapExceededError(
                f"sequence length {self.length} outside [0, {MAX_LEN}]"
            )
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"numeral {self.bits} does not fit in {self.length} bits")

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        junk = text.strip("01")
        if junk:
            raise ValueError(f"invalid symbol {junk[0]!r} in sequence string")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def from_numeral(cls, value: int, length: int) -> "BinarySequence":
        """Sequence whose textual form is `value` written in binary, `length` wide."""
        return cls(value, length)

    def bit(self, i: int) -> int:
        return (self.bits >> (self.length - 1 - i)) & 1

    def to_string(self) -> str:
        return numeral_text(self.bits, self.length)

    def __str__(self) -> str:
        return self.to_string()

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return (self.bit(i) for i in range(self.length))


def runs(y: BinarySequence) -> list[tuple[int, int]]:
    """Maximal runs of y in positional order as (bit value, run length) pairs."""
    return [(v, len(list(run))) for v, run in itertools.groupby(y)]


def all_sequences(length: int) -> Iterator[BinarySequence]:
    """All sequences of the given length in ascending numeral order."""
    for v in range(1 << length):
        yield BinarySequence.from_numeral(v, length)
