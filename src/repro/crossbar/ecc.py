"""Hamming SECDED error correction over the crossbar memory.

The paper motivates nanowire crossbars with the need for "innovative
defect tolerance methods at all design levels" (Sec. 1).  The decoder
layer removes wires that fail *addressing*; residual bit errors (e.g. a
crosspoint drifting between test and use) are the memory layer's
problem.  This module provides the standard solution a crossbar memory
would ship with: extended Hamming (SECDED) codes — single-error
correction, double-error detection — over the defect-aware
:class:`~repro.crossbar.memory.CrossbarMemory`.

The code is parametric in the number of parity bits ``r``: data width
``2**r - r - 1``, block width ``2**r`` (including the overall parity
bit), e.g. r = 6 gives the classic (64, 57) + parity layout; r = 3
gives the textbook (8, 4) code used in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.crossbar.memory import CrossbarMemory


class EccError(RuntimeError):
    """Raised on uncorrectable (double) errors or bad parameters."""


@dataclass(frozen=True)
class SecdedCode:
    """Extended Hamming code with ``parity_bits`` check bits.

    Attributes
    ----------
    parity_bits:
        Number of Hamming parity bits r (>= 2); the block additionally
        carries one overall-parity bit.
    """

    parity_bits: int = 6

    def __post_init__(self) -> None:
        if self.parity_bits < 2:
            raise EccError(f"need at least 2 parity bits, got {self.parity_bits}")

    @property
    def data_bits(self) -> int:
        """Payload bits per block: 2**r - r - 1."""
        return 2**self.parity_bits - self.parity_bits - 1

    @property
    def block_bits(self) -> int:
        """Total stored bits per block: 2**r (Hamming + overall parity)."""
        return 2**self.parity_bits

    # -- position layout ------------------------------------------------------
    # Classic Hamming layout on positions 1..2**r-1: powers of two hold
    # parity, the rest hold data; position 0 holds the overall parity.

    def _data_positions(self) -> np.ndarray:
        positions = np.arange(1, self.block_bits)
        return positions[(positions & (positions - 1)) != 0]

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` payload bits into a ``block_bits`` block."""
        data = np.asarray(data, dtype=bool)
        if data.shape != (self.data_bits,):
            raise EccError(f"payload must have {self.data_bits} bits, got {data.shape}")
        block = np.zeros(self.block_bits, dtype=bool)
        block[self._data_positions()] = data
        for p in range(self.parity_bits):
            mask = (np.arange(self.block_bits) >> p) & 1 == 1
            block[1 << p] = block[mask].sum() % 2 == 1
        block[0] = block[1:].sum() % 2 == 1
        return block

    def decode(self, block: np.ndarray) -> tuple[np.ndarray, int]:
        """Decode a block; returns (payload, corrected_position_or_minus_one).

        Raises
        ------
        EccError
            On a detected double error (non-zero syndrome with even
            overall parity).
        """
        block = np.asarray(block, dtype=bool).copy()
        if block.shape != (self.block_bits,):
            raise EccError(f"block must have {self.block_bits} bits, got {block.shape}")
        syndrome = 0
        for p in range(self.parity_bits):
            mask = (np.arange(self.block_bits) >> p) & 1 == 1
            if block[mask].sum() % 2 == 1:
                syndrome |= 1 << p
        overall = block.sum() % 2 == 1
        corrected = -1
        if syndrome != 0 and overall:
            block[syndrome] = ~block[syndrome]
            corrected = syndrome
        elif syndrome != 0 and not overall:
            raise EccError(f"uncorrectable double error (syndrome {syndrome})")
        elif syndrome == 0 and overall:
            block[0] = ~block[0]
            corrected = 0
        return block[self._data_positions()], corrected


# -- vectorised block codecs (workload hot path) -------------------------------
# Blocks are packed little-endian into ``uint64`` words: block bit j is
# bit ``j % 64`` of word ``j // 64``.  Syndrome bit q < 6 selects
# in-word bit positions, so it is the parity of the popcount of the
# XOR-folded words under one mask; bit q >= 6 selects whole words (those
# whose index has bit q - 6 set), so it is the parity of their popcounts.


@lru_cache(maxsize=None)
def _in_word_masks(parity_bits: int) -> tuple[np.uint64, ...]:
    """``uint64`` masks of the in-word bit positions of syndrome bits q < 6."""
    return tuple(
        np.uint64(sum(1 << j for j in range(64) if (j >> q) & 1))
        for q in range(min(parity_bits, 6))
    )


def block_words(code: SecdedCode) -> int:
    """``uint64`` words per packed block: ``ceil(block_bits / 64)``."""
    return -(-code.block_bits // 64)


def pack_blocks(code: SecdedCode, blocks: np.ndarray) -> np.ndarray:
    """Pack ``(k, block_bits)`` bool blocks into ``(k, words)`` ``uint64``."""
    packed = np.packbits(blocks, axis=1, bitorder="little")
    nbytes = 8 * block_words(code)
    if packed.shape[1] != nbytes:
        padded = np.zeros((packed.shape[0], nbytes), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        packed = padded
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_blocks(code: SecdedCode, words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_blocks`: ``(k, block_bits)`` bool blocks."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, count=code.block_bits, bitorder="little")
    return bits.view(bool)


def block_syndromes(
    code: SecdedCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(syndrome, overall)`` of ``(k, words)`` packed blocks.

    ``syndrome`` is the ``(k,)`` int64 Hamming syndrome (the XOR of the
    positions of the set bits) and ``overall`` the ``(k,)`` bool parity
    of the whole block — the two quantities :meth:`SecdedCode.decode`
    branches on.
    """
    folded = np.bitwise_xor.reduce(words, axis=1)
    syndrome = np.zeros(words.shape[0], dtype=np.int64)
    for q, mask in enumerate(_in_word_masks(code.parity_bits)):
        syndrome |= (np.bitwise_count(folded & mask) & 1).astype(np.int64) << q
    if code.parity_bits > 6:
        word_parity = np.bitwise_count(words) & 1
        index = np.arange(words.shape[1])
        for q in range(6, code.parity_bits):
            sel = (index >> (q - 6)) & 1 == 1
            bit = np.bitwise_xor.reduce(word_parity[:, sel], axis=1)
            syndrome |= bit.astype(np.int64) << q
    overall = (np.bitwise_count(folded) & 1).astype(bool)
    return syndrome, overall


def decode_first_bits(
    code: SecdedCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode only payload bit 0 of ``(k, words)`` packed blocks.

    Returns ``(bits, corrected, uncorrectable)``, three ``(k,)`` bool
    arrays: the corrected first payload bit (stored position 3, ``False``
    on an uncorrectable block), whether a single error was repaired
    (``corrected >= 0`` of :func:`decode_blocks`), and the detected
    double errors.
    """
    syndrome, overall = block_syndromes(code, words)
    uncorrectable = (syndrome != 0) & ~overall
    bits = ((words[:, 0] >> np.uint64(3)) & np.uint64(1)).astype(bool)
    bits ^= overall & (syndrome == 3)
    bits[uncorrectable] = False
    return bits, overall, uncorrectable


def encode_blocks(code: SecdedCode, payloads: np.ndarray) -> np.ndarray:
    """Encode ``(k, data_bits)`` payloads into ``(k, block_bits)`` blocks.

    Row-for-row identical to :meth:`SecdedCode.encode`.  Parity
    positions are powers of two, each covered only by its own syndrome
    bit, so the parities are the syndrome of the data-only block.
    """
    payloads = np.atleast_2d(np.asarray(payloads, dtype=bool))
    if payloads.shape[1] != code.data_bits:
        raise EccError(
            f"payloads must have {code.data_bits} bits, got {payloads.shape[1]}"
        )
    blocks = np.zeros((payloads.shape[0], code.block_bits), dtype=bool)
    blocks[:, code._data_positions()] = payloads
    syndrome, overall = block_syndromes(code, pack_blocks(code, blocks))
    q = np.arange(code.parity_bits)
    blocks[:, 1 << q] = (syndrome[:, None] >> q) & 1 == 1
    blocks[:, 0] = overall ^ (np.bitwise_count(syndrome) & 1 == 1)
    return blocks


def decode_blocks(
    code: SecdedCode, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ``(k, block_bits)`` blocks in one vectorised pass.

    Returns ``(payloads, corrected, uncorrectable)``: the ``(k,
    data_bits)`` payloads, the per-block corrected position (-1 when
    clean, matching :meth:`SecdedCode.decode`), and a ``(k,)`` bool mask
    of detected double errors.  Unlike the scalar decode it does not
    raise on double errors — payload rows flagged uncorrectable carry
    the (unreliable) uncorrected data positions.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=bool)).copy()
    if blocks.shape[1] != code.block_bits:
        raise EccError(
            f"blocks must have {code.block_bits} bits, got {blocks.shape[1]}"
        )
    syndrome, overall = block_syndromes(code, pack_blocks(code, blocks))
    # odd overall parity: a single error at ``syndrome`` (position 0,
    # the overall-parity bit itself, when the syndrome is zero)
    rows = np.flatnonzero(overall)
    blocks[rows, syndrome[rows]] ^= True
    corrected = np.where(overall, syndrome, -1)
    uncorrectable = (syndrome != 0) & ~overall
    return blocks[:, code._data_positions()], corrected, uncorrectable


class EccMemory:
    """SECDED-protected view over a crossbar memory.

    Payload addresses are in units of code blocks; each block occupies
    ``code.block_bits`` crosspoints of the underlying memory.
    """

    def __init__(self, memory: CrossbarMemory, code: SecdedCode | None = None) -> None:
        self._memory = memory
        self._code = code or SecdedCode()
        self._corrections = 0

    @property
    def code(self) -> SecdedCode:
        """The SECDED code in use."""
        return self._code

    @property
    def block_count(self) -> int:
        """Number of code blocks that fit in the usable capacity."""
        return self._memory.capacity_bits // self._code.block_bits

    @property
    def capacity_bits(self) -> int:
        """Protected payload capacity."""
        return self.block_count * self._code.data_bits

    @property
    def corrections(self) -> int:
        """Single-bit errors corrected since construction."""
        return self._corrections

    def write_block(self, index: int, data: np.ndarray) -> None:
        """Encode and store one payload block."""
        if not 0 <= index < self.block_count:
            raise EccError(f"block {index} outside capacity {self.block_count}")
        encoded = self._code.encode(np.asarray(data, dtype=bool))
        self._memory.write_block(index * self._code.block_bits, encoded)

    def read_block(self, index: int) -> np.ndarray:
        """Read, correct and decode one payload block."""
        if not 0 <= index < self.block_count:
            raise EccError(f"block {index} outside capacity {self.block_count}")
        raw = self._memory.read_block(
            index * self._code.block_bits, self._code.block_bits
        )
        data, corrected = self._code.decode(raw)
        if corrected >= 0:
            self._corrections += 1
        return data

    def inject_bit_error(self, index: int, position: int) -> None:
        """Flip one stored bit of a block (fault-injection hook for tests)."""
        if not 0 <= position < self._code.block_bits:
            raise EccError(f"bit position {position} outside block")
        address = index * self._code.block_bits + position
        self._memory.write(address, not self._memory.read(address))
