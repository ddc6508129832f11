"""Unit and property tests for the SECDED Hamming code."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import DecodeStatus, SecdedCode


class TestGeometry:
    @pytest.mark.parametrize(
        "data_bits,expected_codeword",
        [
            (4, 8),     # Hamming(7,4) + overall parity = (8,4)
            (8, 13),    # (12,8) + parity
            (64, 72),   # classic (72,64) DRAM SECDED
            (128, 137), # the paper's 128-bit flit payload
        ],
    )
    def test_codeword_width(self, data_bits, expected_codeword):
        assert SecdedCode(data_bits).codeword_bits == expected_codeword

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            SecdedCode(0)


class TestEncodeDecode:
    def test_clean_roundtrip(self):
        code = SecdedCode(16)
        for data in (0, 1, 0xFFFF, 0xA5A5, 0x1234):
            result = code.decode(code.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == data
            assert result.ok

    @pytest.mark.parametrize(
        "data,codeword",
        [
            (0x0, 0x0),
            (0xFFFFFFFF, 0x3F7FFFFFF4),
            (0xDEADBEEF, 0x77D5B76E77),
            (0x400, 0x400000408B),  # 1.0 in the Q-table storage's Q10 format
        ],
    )
    def test_pinned_39_32_codewords(self, data, codeword):
        # The Q-table SEU digests depend on this exact bit layout.
        assert SecdedCode(32).encode(data) == codeword
        assert SecdedCode(32).decode(codeword).data == data

    def test_encode_rejects_oversized(self):
        with pytest.raises(ValueError):
            SecdedCode(8).encode(256)

    def test_decode_rejects_oversized(self):
        code = SecdedCode(8)
        with pytest.raises(ValueError):
            code.decode(1 << code.codeword_bits)

    def test_all_single_bit_errors_corrected(self):
        code = SecdedCode(16)
        data = 0xC3A5
        cw = code.encode(data)
        for bit in range(code.codeword_bits):
            result = code.decode(cw ^ (1 << bit))
            assert result.status is DecodeStatus.CORRECTED, f"bit {bit}"
            assert result.data == data, f"bit {bit}"

    def test_all_double_bit_errors_detected_small_code(self):
        code = SecdedCode(8)
        data = 0x5A
        cw = code.encode(data)
        for a in range(code.codeword_bits):
            for b in range(a + 1, code.codeword_bits):
                result = code.decode(cw ^ (1 << a) ^ (1 << b))
                assert result.status is DecodeStatus.DETECTED, f"bits {a},{b}"
                assert not result.ok

    def test_overall_parity_bit_error_is_correctable(self):
        code = SecdedCode(32)
        data = 0xDEADBEEF
        cw = code.encode(data)
        flipped = cw ^ (1 << (code.codeword_bits - 1))
        result = code.decode(flipped)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data


class TestByteTables:
    """encode looks up per-byte tables; the bit loop is the reference."""

    def test_encode_matches_bit_loop_at_every_width(self):
        rng = random.Random(7)
        for width in range(1, 129):
            code = SecdedCode(width)
            samples = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(16)]
            for data in samples:
                assert code.encode(data) == code._encode_bits(data), (width, data)

    @settings(max_examples=200)
    @given(
        width=st.integers(min_value=1, max_value=128),
        a=st.integers(min_value=0),
        b=st.integers(min_value=0),
    )
    def test_encode_is_linear(self, width, a, b):
        code = SecdedCode(width)
        a &= (1 << width) - 1
        b &= (1 << width) - 1
        assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)

    def test_tables_stay_out_of_the_pickle(self):
        code = SecdedCode(32)
        before = pickle.dumps(code)
        code.encode(0xDEADBEEF)
        assert pickle.dumps(code) == before


@settings(max_examples=200)
@given(data=st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_property_clean_roundtrip_128(data):
    code = SecdedCode(128)
    result = code.decode(code.encode(data))
    assert result.status is DecodeStatus.CLEAN and result.data == data


@settings(max_examples=200)
@given(
    data=st.integers(min_value=0, max_value=(1 << 64) - 1),
    bit=st.integers(min_value=0, max_value=71),
)
def test_property_single_error_corrected_72_64(data, bit):
    code = SecdedCode(64)
    result = code.decode(code.encode(data) ^ (1 << bit))
    assert result.status is DecodeStatus.CORRECTED
    assert result.data == data


@settings(max_examples=200)
@given(
    data=st.integers(min_value=0, max_value=(1 << 64) - 1),
    bits=st.sets(st.integers(min_value=0, max_value=71), min_size=2, max_size=2),
)
def test_property_double_error_detected_72_64(data, bits):
    code = SecdedCode(64)
    mask = 0
    for b in bits:
        mask |= 1 << b
    result = code.decode(code.encode(data) ^ mask)
    assert result.status is DecodeStatus.DETECTED
