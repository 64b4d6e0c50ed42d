"""Unit tests for the LANai SRAM model."""

import hashlib
import os

import pytest

from repro.errors import BusError
from repro.hw import Sram

LANAI9_SRAM = 2 * 1024 * 1024


def test_word_roundtrip_big_endian():
    sram = Sram(1024)
    sram.write_word(0, 0x01020304)
    assert sram.read_bytes(0, 4) == b"\x01\x02\x03\x04"
    assert sram.read_word(0) == 0x01020304


def test_word_truncates_to_32_bits():
    sram = Sram(1024)
    sram.write_word(4, 0x1_FFFF_FFFF)
    assert sram.read_word(4) == 0xFFFFFFFF


def test_bytes_roundtrip():
    sram = Sram(1024)
    sram.write_bytes(100, b"hello")
    assert sram.read_bytes(100, 5) == b"hello"


def test_words_roundtrip():
    sram = Sram(1024)
    sram.write_words(0, [1, 2, 3])
    assert sram.read_words(0, 3) == [1, 2, 3]


def test_out_of_bounds_read_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.read_word(64)
    with pytest.raises(BusError):
        sram.read_bytes(60, 8)


def test_negative_address_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.read_word(-4)


def test_out_of_bounds_write_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.write_bytes(62, b"abcd")


def test_clear_zeroes_everything():
    sram = Sram(128)
    sram.write_bytes(0, b"\xff" * 128)
    sram.clear()
    assert sram.read_bytes(0, 128) == b"\x00" * 128


def test_flip_bit_is_involutive():
    sram = Sram(64)
    sram.write_word(0, 0xAAAAAAAA)
    sram.flip_bit(5)
    assert sram.read_word(0) != 0xAAAAAAAA
    sram.flip_bit(5)
    assert sram.read_word(0) == 0xAAAAAAAA


def test_flip_bit_msb_first_convention():
    sram = Sram(64)
    sram.flip_bit(0)  # bit 0 == MSB of byte 0 == MSB of word 0
    assert sram.read_word(0) == 0x80000000


def test_flip_bit_out_of_range():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.flip_bit(64 * 8)


def test_snapshot_defaults_to_whole_memory():
    sram = Sram(64)
    sram.write_bytes(10, b"xyz")
    snap = sram.snapshot()
    assert len(snap) == 64
    assert snap[10:13] == b"xyz"


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Sram(0)
    with pytest.raises(ValueError):
        Sram(1023)  # not a word multiple


def test_fresh_sram_reads_zero_everywhere():
    sram = Sram(LANAI9_SRAM)
    assert sram.read_bytes(0, LANAI9_SRAM) == bytes(LANAI9_SRAM)
    sram.write_bytes(LANAI9_SRAM // 2, b"\xff" * 4096)
    sram.clear()
    assert sram.read_bytes(0, LANAI9_SRAM) == bytes(LANAI9_SRAM)


def test_fresh_digest_is_that_of_zeros():
    digest = Sram(LANAI9_SRAM).ckpt_state()["mem_sha256"]
    assert digest == hashlib.sha256(bytes(LANAI9_SRAM)).hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_writes_do_not_cross_a_fork():
    # A pool worker forked while a cluster exists must never share SRAM
    # writes with its parent, in either direction.
    sram = Sram(4096)
    sram.write_bytes(0, b"\x01")
    to_child_r, to_child_w = os.pipe()
    to_parent_r, to_parent_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            sram.write_bytes(8, b"\x22")
            os.write(to_parent_w, b"w")
            os.read(to_child_r, 1)          # the parent has written
            os.write(to_parent_w, sram.read_bytes(0, 32))
        finally:
            os._exit(0)
    os.close(to_child_r)
    os.close(to_parent_w)
    assert os.read(to_parent_r, 1) == b"w"
    sram.write_bytes(16, b"\x33")
    os.write(to_child_w, b"g")
    child_view = os.read(to_parent_r, 32)
    os.waitpid(pid, 0)
    os.close(to_child_w)
    os.close(to_parent_r)
    assert child_view[0] == 0x01 and child_view[8] == 0x22
    assert child_view[16] == 0x00           # the parent's write stayed home
    assert sram.read_bytes(8, 1) == b"\x00"  # so did the child's
    assert sram.read_bytes(16, 1) == b"\x33"
