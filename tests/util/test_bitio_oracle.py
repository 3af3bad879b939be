"""Differential tests: word-at-a-time ``bitio`` and the fused decode kernels
against the bit-by-bit implementations kept in ``oracle_bitio`` /
``oracle_codecs``.

Everything is seeded, so a failure reproduces.  Values, positions, bytes
and the point of failure must agree; the one deliberate difference is
that a failing read leaves the new reader's position where it was, while
the oracle's ``read_unary`` runs to the end of the stream first.
"""

from __future__ import annotations

import random

import oracle_bitio
import oracle_codecs
import pytest

from repro.errors import BitStreamError, CodecError
from repro.snode import encode, reference
from repro.util import bitio
from repro.snode.storage import SUPERNODE_NAME, _read_framed_table, read_layout
from repro.util.bitio import BitReader, BitWriter
from repro.util.huffman import HuffmanCodec
from repro.util.varint import decode_gamma
from repro.webdata.generator import GeneratorConfig, generate_web

READ_OPS = ("read_bit", "read_bits", "read_unary", "peek_bits", "skip", "seek")


def random_buffer(rng: random.Random) -> bytes:
    """0-4 KiB: dense noise, mostly-zero bytes (long unary runs) or a zero tail."""
    size = rng.choice((0, 1, 2, 7, 8, 9, 31, 32, 33, 64)) if rng.random() < 0.3 else rng.randrange(4097)
    style = rng.random()
    if style < 0.4:
        data = rng.randbytes(size)
    elif style < 0.8:
        data = bytes(rng.choice((0, 0, 0, 0, 0, 1, 128, 255)) for _ in range(size))
    else:
        data = rng.randbytes(size // 2) + bytes(size - size // 2)
    return data


def outcome(function, *args):
    """``("ok", value)`` or ``("error", exception type)``."""
    try:
        return "ok", function(*args)
    except CodecError as error:  # BitStreamError is one
        return "error", type(error)


def read_arguments(op: str, rng: random.Random, nbits: int) -> tuple:
    if op in ("read_bits", "peek_bits"):
        return (rng.choice((0, 1, 3, 8, 13, 31, 32, 33, 64, rng.randrange(65))),)
    if op == "skip":
        return (rng.choice((0, 1, 5, 64, rng.randrange(-70, 300))),)
    if op == "seek":
        return (rng.randrange(-2, nbits + 3),)
    return ()


@pytest.mark.parametrize("seed", range(40))
def test_reader_matches_oracle(seed):
    rng = random.Random(seed)
    data = random_buffer(rng)
    nbits = len(data) * 8
    start = rng.choice((0, 0, rng.randrange(-1, nbits + 2)))
    built = outcome(BitReader, data, start)
    expected = outcome(oracle_bitio.BitReader, data, start)
    assert built[0] == expected[0], (seed, start)
    if built[0] == "error":
        return
    reader, oracle = built[1], expected[1]
    for step in range(600):
        op = rng.choice(READ_OPS)
        arguments = read_arguments(op, rng, nbits)
        before = oracle.position
        got = outcome(getattr(reader, op), *arguments)
        want = outcome(getattr(oracle, op), *arguments)
        assert got == want, (seed, step, op, arguments, before)
        if want[0] == "error":
            # The fix: a failed read moves nothing (the oracle's
            # read_unary has run to the end of the stream by now).
            assert reader.position == before, (seed, step, op, arguments)
            oracle.seek(before)
        assert reader.position == oracle.position, (seed, step, op, arguments)
        assert reader.remaining == oracle.remaining


@pytest.mark.parametrize("make", [BitReader, oracle_bitio.BitReader])
def test_failed_unary_on_zero_tail(make):
    """The bug this PR fixes, pinned against both implementations."""
    reader = make(b"\xf0" + bytes(100))
    assert reader.read_bits(4) == 0xF
    with pytest.raises(BitStreamError, match="read past end of bit stream"):
        reader.read_unary()
    moved = reader.position != 4
    assert moved == (make is oracle_bitio.BitReader)


def test_failed_gamma_leaves_position():
    # 12 zero bits then a one: the prefix promises 12 more bits than exist.
    reader = BitReader(b"\x00\x08")
    reader.read_bits(3)
    with pytest.raises(BitStreamError, match="read past end of bit stream"):
        decode_gamma(reader)
    assert reader.position == 3


def random_writer_ops(rng: random.Random) -> list[tuple]:
    ops = []
    for _ in range(rng.randrange(80)):
        kind = rng.random()
        if kind < 0.25:
            ops.append(("write_bit", rng.choice((0, 1, 2, True, False))))
        elif kind < 0.6:
            width = rng.choice((0, 1, 7, 8, 9, 24, 63, 64, 65, rng.randrange(130)))
            value = rng.getrandbits(width) if width else 0
            if rng.random() < 0.05:
                value, width = rng.choice(((1 << width, width), (-1, width), (0, -1)))
            ops.append(("write_bits", value, width))
        else:
            ops.append(("write_unary", rng.choice((-1, 0, 1, 7, 8, 300, rng.randrange(40)))))
    return ops


def replay_writer(module, ops: list[tuple]):
    """Run ``ops`` on a fresh writer of ``module``; also the log of lengths/errors."""
    writer = module.BitWriter()
    log = []
    for op, *arguments in ops:
        log.append(outcome(getattr(writer, op), *arguments)[0])
        log.append(len(writer))
    return writer, log


@pytest.mark.parametrize("seed", range(60))
def test_writer_matches_oracle(seed):
    ops = random_writer_ops(random.Random(1000 + seed))
    writer, log = replay_writer(bitio, ops)
    oracle, oracle_log = replay_writer(oracle_bitio, ops)
    assert log == oracle_log
    assert writer.to_bytes() == oracle.to_bytes()
    assert len(writer) == len(oracle)


def test_writer_long_stream_spills_identically():
    rng = random.Random(7)
    writer, oracle = BitWriter(), oracle_bitio.BitWriter()
    for _ in range(20_000):
        width = rng.randrange(1, 25)
        value = rng.getrandbits(width)
        writer.write_bits(value, width)
        oracle.write_bits(value, width)
    assert writer.to_bytes() == oracle.to_bytes()


# -- fused kernels against the method-per-bit kernels --------------------------


@pytest.fixture(scope="module")
def build_600(tmp_path_factory, test_refinement_config):
    from repro.snode.build import BuildOptions, build_snode

    repository = generate_web(GeneratorConfig(num_pages=600, seed=41))
    root = tmp_path_factory.mktemp("snode_600")
    build = build_snode(repository, root, BuildOptions(refinement=test_refinement_config))
    build.store.close()
    return root


def payloads(root):
    """Every (kind, key, payload bytes) of the build at ``root``."""
    layout = read_layout(root)
    files = [(root / name).read_bytes() for name in layout.index_files]

    def region(location):
        return files[location.file_index][location.offset : location.offset + location.length]

    for supernode, location in enumerate(layout.intranode):
        yield "intranode", supernode, region(location)
    for key, (location, _negative) in layout.superedge.items():
        yield "superedge", key, region(location)


def test_payload_decoders_match_oracle(build_600):
    layout = read_layout(build_600)
    sizes = [b - a for a, b in zip(layout.boundaries, layout.boundaries[1:])]
    kinds = set()
    rows_seen = 0
    for kind, key, payload in payloads(build_600):
        kinds.add(kind)
        if kind == "intranode":
            rows = encode.decode_intranode(payload)
            assert rows == oracle_codecs.decode_intranode(payload), key
            prefix = oracle_bitio.BitReader(payload)
        else:
            decoded = encode.decode_superedge_payload(payload)
            assert decoded == oracle_codecs.decode_superedge_payload(payload), key
            rows = decoded[2]
            source, target = key
            sparse = encode.positive_rows_from_payload(payload, sizes[source], sizes[target])
            dense = oracle_codecs.positive_rows_from_payload(payload, sizes[source], sizes[target])
            assert [sparse.row(local) for local in range(sizes[source])] == dense, key
            assert set(sparse.linked) == {local for local, row in enumerate(dense) if row}
            prefix = oracle_bitio.BitReader(payload)
            prefix.read_bit()
            oracle_codecs._decode_locals(prefix)
        # decode_rows on its own, entered mid-stream, and where it stops.
        dictionary = oracle_codecs._decode_locals(prefix)
        reader = BitReader(payload, start_bit=prefix.position)
        assert reference.decode_rows(reader, dictionary=dictionary) == rows, key
        assert oracle_codecs.decode_rows(prefix, dictionary=dictionary) == rows
        assert reader.position == prefix.position, key
        rows_seen += len(rows)
    assert kinds == {"intranode", "superedge"} and rows_seen > 600


def test_truncated_payloads_fail_alike(build_600):
    """Cutting a payload short is a typed error in both, never a hang."""
    rng = random.Random(5)
    checked = 0
    for kind, _key, payload in payloads(build_600):
        if len(payload) < 2 or rng.random() < 0.7:
            continue
        cut = payload[: rng.randrange(1, len(payload))]
        new, old = (
            (encode.decode_intranode, oracle_codecs.decode_intranode)
            if kind == "intranode"
            else (encode.decode_superedge_payload, oracle_codecs.decode_superedge_payload)
        )
        got, want = outcome(new, cut), outcome(old, cut)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1] == want[1]
        checked += 1
    assert checked > 50


def test_supernode_graph_matches_per_symbol_decode(build_600):
    data = _read_framed_table(
        build_600, SUPERNODE_NAME, read_layout(build_600).manifest
    )
    reader = oracle_bitio.BitReader(data)
    count = oracle_codecs.decode_gamma(reader)
    lengths = {}
    for symbol in range(oracle_codecs.decode_gamma(reader) + 1):
        length = oracle_codecs.decode_gamma(reader)
        if length:
            lengths[symbol] = length
    codec = HuffmanCodec(lengths)  # decode_symbol touches reader methods only
    expected = []
    for _ in range(count):
        degree = oracle_codecs.decode_gamma(reader)
        expected.append([codec.decode_symbol(reader) for _ in range(degree)])
    assert encode.decode_supernode_graph(data) == expected
    assert count > 1


def test_huffman_batch_decode_matches_symbol_decode():
    rng = random.Random(3)
    frequencies = {symbol: max(1, 4096 // (symbol + 1)) for symbol in range(64)}
    codec = HuffmanCodec.from_frequencies(frequencies)
    symbols = rng.choices(list(frequencies), weights=list(frequencies.values()), k=5000)
    writer = BitWriter()
    codec.encode_sequence(writer, symbols)
    data = writer.to_bytes()
    oracle = oracle_bitio.BitReader(data)
    assert [codec.decode_symbol(oracle) for _ in symbols] == symbols
    reader = BitReader(data)
    assert codec.decode_sequence(reader, 1234) == symbols[:1234]
    assert codec.decode_sequence(reader, len(symbols) - 1234) == symbols[1234:]
    assert reader.position == oracle.position
    # One symbol more than the stream holds: only padding is left.
    with pytest.raises(BitStreamError):
        codec.decode_sequence(BitReader(data), len(symbols) + 8)
