"""Byte-level checkpoint edits for validation tests: change content, then
re-sign it so only the loader's content checks can object. Also a reader of
the tensor table, in file order."""

import hashlib
import struct

import numpy as np

from chiraldet.model import _tensor_head


def resign(path, edit):
    """Apply `edit` to a checkpoint's checksummed bytes and re-sign them."""
    blob = edit(path.read_bytes()[:-32])
    path.write_bytes(blob + hashlib.sha256(blob).digest())


def set_header(old: bytes, new: bytes):
    """Edit that replaces one header line, e.g. b"d_p=4" by b"d_p=3"."""
    return lambda blob: blob.replace(b"\n" + old + b"\n", b"\n" + new + b"\n", 1)


def insert_header(after: bytes, line: bytes):
    """Edit that inserts a header line after the line `after`, e.g. a
    second b"seed=5" after b"step=0"."""
    return set_header(after, after + b"\n" + line)


def _size_field(blob, name: bytes) -> int:
    """Offset in blob of the named tensor's element count, which its
    floats follow."""
    at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    (ndim,) = struct.unpack_from("<I", blob, at)
    return at + 4 + 8 * ndim


def set_first_value(name: bytes, value: float):
    """Edit that overwrites the first float of the named tensor."""

    def edit(blob):
        data = _size_field(blob, name) + 8
        return blob[:data] + struct.pack("<d", value) + blob[data + 8 :]

    return edit


def set_size(name: bytes, size: int):
    """Edit that overwrites the element count of the named tensor, an
    unsigned 64-bit field."""

    def edit(blob):
        at = _size_field(blob, name)
        return blob[:at] + struct.pack("<Q", size) + blob[at + 8 :]

    return edit


set_first_beta = set_first_value(b"encoder.kernel.beta", 0.25)


def rename_tensor(name: bytes):
    """Edit that renames the named tensor by changing its last byte, so the
    loader finds it missing while the payload keeps its length."""
    renamed = name[:-1] + (b"_" if name[-1:] != b"_" else b"-")
    return lambda blob: blob.replace(struct.pack("<I", len(name)) + name,
                                     struct.pack("<I", len(name)) + renamed, 1)


def append_tensor(name: bytes, values):
    """Edit that appends a tensor after the last one, packed as the writer
    packs one, and raises the header's tensors and payload_bytes counts to
    match."""
    arr = np.asarray(values, dtype="<f8")
    packed = _tensor_head(name.decode(), arr) + arr.tobytes()

    def edit(blob):
        header = blob[: blob.index(b"\n\n")].splitlines()
        fields = dict(line.split(b"=", 1) for line in header[1:])
        for key, grow in ((b"tensors", 1), (b"payload_bytes", len(packed))):
            blob = set_header(key + b"=" + fields[key],
                              key + b"=" + str(int(fields[key]) + grow).encode())(blob)
        return blob + packed

    return edit


def read_tensors(raw: bytes):
    """(name, array) of every tensor of a checkpoint file, in file order."""
    buf = raw[raw.index(b"\n\n") + 2 : -32]
    out, at = [], 0
    while at < len(buf):
        (name_len,) = struct.unpack_from("<I", buf, at)
        name = buf[at + 4 : at + 4 + name_len].decode()
        at += 4 + name_len
        (ndim,) = struct.unpack_from("<I", buf, at)
        shape = struct.unpack_from(f"<{ndim}q", buf, at + 4)
        at += 4 + 8 * ndim + 8
        size = int(np.prod(shape))
        out.append((name, np.frombuffer(buf, "<f8", size, at).reshape(shape)))
        at += 8 * size
    return out
