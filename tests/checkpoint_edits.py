"""Byte-level checkpoint edits for validation tests: change content, then
re-sign it so only the loader's content checks can object."""

import hashlib
import struct


def resign(path, edit):
    """Apply `edit` to a checkpoint's checksummed bytes and re-sign them."""
    blob = edit(path.read_bytes()[:-32])
    path.write_bytes(blob + hashlib.sha256(blob).digest())


def set_header(old: bytes, new: bytes):
    """Edit that replaces one header line, e.g. b"d_p=4" by b"d_p=3"."""
    return lambda blob: blob.replace(b"\n" + old + b"\n", b"\n" + new + b"\n", 1)


def set_first_value(name: bytes, value: float):
    """Edit that overwrites the first float of the named tensor."""

    def edit(blob):
        at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
        (ndim,) = struct.unpack_from("<I", blob, at)
        data = at + 4 + 8 * ndim + 8
        return blob[:data] + struct.pack("<d", value) + blob[data + 8 :]

    return edit


set_first_beta = set_first_value(b"encoder.kernel.beta", 0.25)
