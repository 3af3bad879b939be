"""Physical encoders for S-Node components (paper section 3.3).

* The **supernode graph** is Huffman-coded: supernodes appearing often in
  superedge lists (high in-degree) get short codes.
* **Intranode graphs** are reference-encoded row collections over local
  indices; a decoded one is an :class:`IntranodeRows`, which a directory
  of row offsets (:class:`RowDirectory`) lets decode one row at a time.
* **Superedge graphs** store the sorted list of linked source locals
  (gap-coded) followed by a reference-encoded row collection for exactly
  those sources; a leading flag records the positive/negative polarity.
  A decoded one is a :class:`SuperedgeRows`, which the same directory,
  learned for its body, lets decode one row at a time.

Every payload is byte-aligned so the storage layer can concatenate them
into index files and hand out (offset, length) pointers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple

from repro.errors import CodecError
from repro.snode.model import SNodeModel, SuperedgeGraph
from repro.snode.reference import (
    DEFAULT_FULL_AFFINITY_LIMIT,
    DEFAULT_WINDOW,
    build_dictionary,
    decode_row,
    decode_rows,
    encode_ascending,
    encode_rows,
    plan_references,
)
from repro.util.bitio import BitReader, BitWriter, refill
from repro.util.huffman import HuffmanCodec
from repro.util.rle import decode_bitvector
from repro.util.varint import decode_gamma, encode_gamma


# ---------------------------------------------------------------------------
# supernode graph
# ---------------------------------------------------------------------------


def supernode_frequencies(adjacency: Sequence[Sequence[int]]) -> dict[int, int]:
    """In-degree frequency table over all superedge lists.

    This is the *freeze* half of the two-phase encode: collecting symbol
    frequencies across every supernode's adjacency is the only global
    pass the physical encoding needs — once the Huffman table is frozen
    from it, every remaining payload encodes independently.
    """
    frequencies = {i: 0 for i in range(len(adjacency))}
    for row in adjacency:
        for target in row:
            frequencies[target] += 1
    return frequencies


def freeze_supernode_codec(
    frequencies: dict[int, int],
) -> HuffmanCodec | None:
    """Freeze the supernode-graph Huffman code table from frequencies."""
    if not frequencies:
        return None
    return HuffmanCodec.from_frequencies(frequencies)


def encode_supernode_graph(
    adjacency: Sequence[Sequence[int]], codec: HuffmanCodec | None = None
) -> bytes:
    """Huffman-encode the supernode adjacency lists.

    In-degree frequencies drive code assignment (paper: "supernodes with
    high in-degree get smaller codes").  Layout: gamma(n), serialized code
    lengths, then per supernode gamma(out-degree) + target codes.  A
    pre-frozen ``codec`` (from :func:`freeze_supernode_codec`) may be
    supplied; by construction it yields the same bytes as the inline
    frequency pass.
    """
    n = len(adjacency)
    writer = BitWriter()
    encode_gamma(writer, n)
    if n:
        if codec is None:
            codec = HuffmanCodec.from_frequencies(supernode_frequencies(adjacency))
        codec.serialize_lengths(writer)
        for row in adjacency:
            encode_gamma(writer, len(row))
            codec.encode_sequence(writer, row)
    return writer.to_bytes()


def decode_supernode_graph(data: bytes) -> list[list[int]]:
    """Inverse of :func:`encode_supernode_graph`."""
    reader = BitReader(data)
    n = decode_gamma(reader)
    if n == 0:
        return []
    codec = HuffmanCodec.deserialize_lengths(reader)
    adjacency: list[list[int]] = []
    for _ in range(n):
        degree = decode_gamma(reader)
        adjacency.append(codec.decode_sequence(reader, degree))
    return adjacency


# ---------------------------------------------------------------------------
# intranode graphs
# ---------------------------------------------------------------------------


def encode_intranode(
    rows: Sequence[Sequence[int]],
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    use_dictionary: bool = True,
) -> bytes:
    """Reference-encode one intranode graph (all locals, empties included).

    A per-graph dictionary of recurring local targets (directory hubs, the
    site's home page, ...) precedes the rows, exactly as in superedge
    graphs.
    """
    writer = BitWriter()
    dictionary = build_dictionary([list(r) for r in rows]) if use_dictionary else []
    plan = plan_references(rows, window, full_affinity_limit, dictionary)
    if not plan.used_dictionary:
        dictionary = []
    _encode_locals(writer, dictionary)
    encode_rows(
        writer,
        rows,
        plan=plan,
        window=window,
        full_affinity_limit=full_affinity_limit,
        dictionary=dictionary,
    )
    return writer.to_bytes()


class RowDirectory(NamedTuple):
    """Where a payload's rows are — an intranode graph's, or the rows a
    superedge graph's body stores: what decoding it whole learns."""

    #: The collection's dictionary of recurring targets.
    dictionary: list[int]
    #: Bit offset of the row collection (its row count).
    body: int
    #: Bit offset of each row's record.
    starts: array


class IntranodeRows:
    """The rows of one intranode graph, each decoded when first asked for.

    An entry holds plain values only, never a live reader: the payload,
    its :class:`RowDirectory` and the rows decoded so far — a ``local ->
    row`` dict, or every row as a list once something needed them all
    (:meth:`every`, iteration, ``==``), swapped in with one store.
    ``entry[local]`` decodes that row and its reference chain
    (:func:`~repro.snode.reference.decode_row`).  ``len``, iteration and
    ``==`` are those of the list of rows.
    """

    __slots__ = ("payload", "directory", "_rows")

    def __init__(
        self,
        payload: bytes,
        directory: RowDirectory,
        rows: dict[int, list[int]] | list[list[int]],
    ) -> None:
        self.payload = payload
        self.directory = directory
        self._rows = rows

    def __len__(self) -> int:
        return len(self.directory.starts)

    def __getitem__(self, local: int) -> list[int]:
        rows = self._rows
        if type(rows) is list:
            return rows[local]
        row = rows.get(local)
        if row is None:
            directory = self.directory
            row = decode_row(
                self.payload, directory.starts, local, directory.dictionary, rows
            )
        return row

    def every(self) -> list[list[int]]:
        """Every row; one fused :func:`decode_rows` pass unless already held."""
        rows = self._rows
        if type(rows) is not list:
            rows = self._rows = scan_intranode(self.payload, self.directory)[0]
        return rows

    def __iter__(self):
        return iter(self.every())

    def __eq__(self, other) -> bool:
        if isinstance(other, IntranodeRows):
            other = other.every()
        return self.every() == other


def decode_intranode(data: bytes, directory: RowDirectory | None = None) -> IntranodeRows:
    """Inverse of :func:`encode_intranode`.

    Without a ``directory`` every row is decoded in one pass, which also
    learns the payload's directory (``.directory`` of the result).  Given
    that directory again, nothing is decoded until a row is asked for.
    """
    if directory is not None:
        return IntranodeRows(data, directory, {})
    rows, directory = scan_intranode(data)
    return IntranodeRows(data, directory, rows)


def scan_intranode(
    data: bytes, directory: RowDirectory | None = None
) -> tuple[list[list[int]], RowDirectory]:
    """Every row of an intranode payload, decoded in one pass, and its
    directory: ``directory`` if given, else learned by the pass."""
    return _collection(data, 0, directory)


def _collection(
    data: bytes, bit: int, directory: RowDirectory | None
) -> tuple[list[list[int]], RowDirectory]:
    """Every row of the collection whose dictionary starts at bit ``bit``
    of ``data``, decoded in one pass, and its directory: ``directory`` if
    given — then the pass starts at its body, the dictionary unread —
    else learned by the pass."""
    if directory is not None:
        return decode_rows(BitReader(data, directory.body), directory.dictionary), directory
    reader = BitReader(data, bit)
    dictionary = _decode_locals(reader)
    body = reader.position
    starts = array("I")
    rows = decode_rows(reader, dictionary=dictionary, starts=starts)
    return rows, RowDirectory(dictionary, body, starts)


# ---------------------------------------------------------------------------
# superedge graphs
# ---------------------------------------------------------------------------


def encode_superedge(
    graph: SuperedgeGraph,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    use_dictionary: bool = True,
) -> bytes:
    """Encode one superedge graph (either polarity).

    Layout: polarity bit; gamma(#linked sources); gap-coded linked source
    locals; reference-encoded rows for exactly those sources.
    """
    writer = BitWriter()
    writer.write_bit(1 if graph.negative else 0)
    if graph.negative:
        linked = list(graph.linked_sources)
        rows = [list(graph.rows[local]) for local in linked]
    else:
        linked = [local for local, row in enumerate(graph.rows) if row]
        rows = [list(graph.rows[local]) for local in linked]
    _encode_locals(writer, linked)
    dictionary = build_dictionary(rows) if use_dictionary else []
    plan = plan_references(rows, window, full_affinity_limit, dictionary)
    if not plan.used_dictionary:
        dictionary = []
    _encode_locals(writer, dictionary)
    encode_rows(
        writer,
        rows,
        plan=plan,
        window=window,
        full_affinity_limit=full_affinity_limit,
        dictionary=dictionary,
    )
    return writer.to_bytes()


def _encode_locals(writer: BitWriter, locals_list: list[int]) -> None:
    """Sorted local-index list: gamma gaps or RLE bit vector, cheaper wins."""
    encode_ascending(writer, locals_list)


def _decode_locals(reader: BitReader) -> list[int]:
    """Inverse of :func:`_encode_locals`.

    The gap-coded form is decoded on the reader's window held in local
    variables (see ``util.bitio``); a gamma code's field is ``gap + 1``.
    """
    if reader.read_bit():
        bits = decode_bitvector(reader)
        return [i for i, bit in enumerate(bits) if bit]
    count = decode_gamma(reader)
    locals_list: list[int] = []
    if not count:
        return locals_list
    data = reader._data
    byte, window, avail = reader._byte, reader._window, reader._avail
    previous = -1
    for _ in range(count):
        rest = 2 * window.bit_length() - avail - 1
        while rest < 0:
            byte, window, avail = refill(data, byte, window, avail)
            rest = 2 * window.bit_length() - avail - 1
        avail = rest
        gap = window >> avail
        window -= gap << avail
        previous += gap
        locals_list.append(previous)
    reader._byte, reader._window, reader._avail = byte, window, avail
    return locals_list


def _superedge_header(data: bytes) -> tuple[BitReader, bool, list[int]]:
    """(a reader standing at the body, negative?, linked source locals)."""
    reader = BitReader(data)
    negative = bool(reader.read_bit())
    return reader, negative, _decode_locals(reader)


def _stored_rows(
    data: bytes, header: SuperedgeHeader, directory: RowDirectory | None = None
) -> tuple[list[list[int]], RowDirectory]:
    """The rows a superedge payload stores, decoded in one pass, and its
    body's directory: ``directory`` if given, else learned by the pass."""
    rows, directory = _collection(data, header.body_bit, directory)
    if len(rows) != len(header.sources):
        raise CodecError("superedge row count mismatch")
    return rows, directory


def decode_superedge_payload(data: bytes) -> tuple[bool, list[int], list[list[int]]]:
    """Decode a superedge payload to (negative?, linked locals, their rows),
    with one reader and no directory learned: the offline check's decode."""
    reader, negative, linked = _superedge_header(data)
    rows = decode_rows(reader, dictionary=_decode_locals(reader))
    if len(rows) != len(linked):
        raise CodecError("superedge row count mismatch")
    return negative, linked, rows


class SuperedgeHeader(NamedTuple):
    """What a superedge payload's header says: what parsing it learns."""

    #: Whether the body stores each linked source's *absent* targets.
    negative: bool
    #: Ascending source locals that hold a row; immutable, because every
    #: entry built from this header shares it.
    sources: tuple[int, ...]
    #: Bit offset of the body (its dictionary, then the rows).
    body_bit: int


def _complement(row: list[int], target_size: int) -> list[int]:
    """The targets a negative graph's stored ``row`` leaves out: its
    positive row."""
    absent = set(row)
    return [t for t in range(target_size) if t not in absent]


def _positive_rows(
    header: SuperedgeHeader, rows: list[list[int]], target_size: int
) -> dict[int, list[int]]:
    """Source local -> positive row, from the rows the body stores."""
    if header.negative:
        rows = [_complement(row, target_size) for row in rows]
    return dict(zip(header.sources, rows))


class SuperedgeRows:
    """Positive rows of one superedge graph, held sparsely and on demand.

    A superedge graph links a handful of its source supernode's pages and
    its payload opens with their list, so its :class:`SuperedgeHeader`
    is all a fresh entry knows: :meth:`row` answers an unlinked local from
    it alone.  Without the body's :class:`RowDirectory` the first access
    to a linked row decodes every row, learning the directory
    (:attr:`directory`); given it, :meth:`row` decodes that source's
    stored row and its reference chain only
    (:func:`~repro.snode.reference.decode_row`), and :attr:`linked` every
    row from the body on, the dictionary unread.
    """

    __slots__ = ("source_size", "header", "sources", "directory", "_rows")

    def __init__(
        self,
        source_size: int,
        header: SuperedgeHeader,
        rows: dict[int, list[int]] | tuple,
        directory: RowDirectory | None = None,
    ) -> None:
        #: Pages in the source supernode (rows a dense form would have).
        self.source_size = source_size
        self.header = header
        #: Ascending source locals that hold a row (``header.sources``).
        self.sources = header.sources
        #: Where the body's rows are: given, or learned by the first whole
        #: decode (None until then).
        self.directory = directory
        #: The materialised ``local -> row`` dict, or until something
        #: needs every row ``(payload, target size, stored)``, ``stored``
        #: the body's rows read one at a time so far, by their index in
        #: :attr:`sources` — stored rows only, a negative graph's absent
        #: targets.  Plain values, never a live reader: :attr:`linked`
        #: swaps one form for the other in a single store.
        self._rows = rows

    @property
    def linked(self) -> dict[int, list[int]]:
        """Source local -> ascending target locals, linked sources only.

        A body that fails to decode raises on every call: the entry
        keeps its undecoded form.
        """
        rows = self._rows
        if type(rows) is tuple:
            data, target_size, _stored = rows
            stored, self.directory = _stored_rows(data, self.header, self.directory)
            rows = self._rows = _positive_rows(self.header, stored, target_size)
        return rows

    def row(self, local: int) -> list[int]:
        """Target locals of source ``local``; a new empty list if unlinked.

        Threads may race to read rows of one entry: each dict store is
        one, and they compute equal rows.
        """
        rows = self._rows
        if type(rows) is not tuple:
            return rows.get(local) or []
        sources = self.sources
        index = bisect_left(sources, local)
        if index == len(sources) or sources[index] != local:
            return []
        directory = self.directory
        if directory is None:
            return self.linked[local]
        data, target_size, stored = rows
        row = stored.get(index)
        if row is None:
            row = decode_row(data, directory.starts, index, directory.dictionary, stored)
        return _complement(row, target_size) if self.header.negative else row


def positive_rows_from_payload(
    data: bytes,
    source_size: int,
    target_size: int,
    header: SuperedgeHeader | None = None,
    directory: RowDirectory | None = None,
) -> SuperedgeRows:
    """The rows of a superedge payload, none of them decoded yet.

    Without a ``header`` the payload's header — polarity and linked
    sources — is parsed and kept on the result (``.header``); the first
    linked row read then decodes every row and learns the body's
    ``directory`` (``.directory``).  Given both again, nothing is parsed
    and each row is decoded when asked for.
    """
    if header is None:
        header = _parsed_header(data)
    return SuperedgeRows(source_size, header, (data, target_size, {}), directory)


def scan_superedge(
    data: bytes,
    target_size: int,
    header: SuperedgeHeader | None = None,
    directory: RowDirectory | None = None,
) -> tuple[dict[int, list[int]], SuperedgeHeader, RowDirectory]:
    """Every positive row of a superedge payload (``source local -> row``,
    linked sources only), decoded in one pass, its header and its body's
    directory: each given, or parsed and learned by the pass."""
    if header is None:
        header = _parsed_header(data)
    stored, directory = _stored_rows(data, header, directory)
    return _positive_rows(header, stored, target_size), header, directory


def _parsed_header(data: bytes) -> SuperedgeHeader:
    reader, negative, sources = _superedge_header(data)
    return SuperedgeHeader(negative, tuple(sources), reader.position)


# ---------------------------------------------------------------------------
# whole-model size accounting (drives Table 1 / Figure 10)
# ---------------------------------------------------------------------------

#: The paper's Figure 10 counts a 4-byte pointer per supernode-graph vertex
#: and per superedge on top of the Huffman payload.
POINTER_BYTES = 4


def supernode_graph_size_bytes(model: SNodeModel) -> int:
    """Huffman payload + 4-byte pointers per vertex and edge (Figure 10)."""
    payload = len(encode_supernode_graph(model.super_adjacency))
    pointers = POINTER_BYTES * (model.num_supernodes + model.num_superedges)
    return payload + pointers
