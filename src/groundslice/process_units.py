"""Worker processes of the `process` backend, and the frame buffer they read.

`SliceExecutor` imports this module only when it starts workers, so a run
on one unit or on `serial` units loads none of `subprocess`, `socket` or
`mmap`. The executor's frame buffer is a memfd (an unlinked temporary file
where memfd is missing), made before its workers start. A worker is a
`python -c` subprocess, started with the caller's interpreter flags and
the buffer's fd, running `_BOOT` on one end of a socket pair. Each message
on the pair is a pickle behind its 8-byte little-endian length, read with
exact-length `recv` loops. The caller grows the buffer in place and fills
it; each worker maps it read-only, and again once it has grown past that
mapping. Nothing is named, so nothing outlives the processes and no
resource tracker runs.
"""

from __future__ import annotations

import mmap
import os
import pickle
import socket
import subprocess
import sys
import tempfile

import numpy as np

from .parallel_exec import _run_unit
from .range_image import RangeImage

# A worker's whole program, standard library only: it takes sys.path from
# the caller, then replies (ok, value) to each (fn, arg) until EOF. The
# package is imported when the first real task is unpickled.
_BOOT = """
import pickle, signal, socket, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C and closes us
sock = socket.socket(fileno=int(sys.argv[1]))

def recv_exact(n):
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise EOFError
        got += k
    return data

def send(obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(len(data).to_bytes(8, "little") + data)

sys.path[:] = pickle.loads(recv_exact(int.from_bytes(recv_exact(8), "little")))
while True:
    try:
        data = recv_exact(int.from_bytes(recv_exact(8), "little"))
    except (EOFError, OSError):
        break
    try:
        fn, arg = pickle.loads(data)
        reply = True, fn(arg)
    except Exception as exc:
        reply = False, exc
    try:
        send(reply)
    except OSError:
        break
    except Exception as exc:  # the reply did not pickle
        send((False, RuntimeError(f"unpicklable reply: {exc}")))
"""


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise EOFError("end of stream inside a message")
        got += k
    return data


class Worker:
    """A worker process on one end of a socket pair, holding the frame buffer's fd."""

    def __init__(self, frame_fd: int):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            # stdin is not inherited: the caller may be reading its own; the
            # frame buffer's fd keeps its number in the worker
            self.process = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", _BOOT,
                 str(theirs.fileno())],
                pass_fds=[theirs.fileno(), frame_fd], stdin=subprocess.DEVNULL)
            self.sock = socket.socket(fileno=ours.detach())

    def send(self, obj) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.sock.sendall(len(data).to_bytes(8, "little") + data)

    def recv(self):
        """The next reply; EOFError when the worker has gone."""
        size = int.from_bytes(_recv_exact(self.sock, 8), "little")
        return pickle.loads(_recv_exact(self.sock, size))

    def send_unit(self, tasks: list) -> None:
        self.send((run_unit, tasks))


def run_unit(tasks) -> list[tuple[int, np.ndarray]]:
    """A worker's unit, sent instead of `_run_unit`.

    A worker then loads this module while unpickling its first task, not
    partway through its first frame.
    """
    return _run_unit(tasks)


def frame_arrays(buf, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(xyz, point_index) of a rows x cols frame laid out in `buf`, xyz first."""
    xyz = np.ndarray((rows, cols, 3), dtype=np.float64, buffer=buf)
    point_index = np.ndarray((rows, cols), dtype=np.int64, buffer=buf, offset=xyz.nbytes)
    return xyz, point_index


def frame_size(rows: int, cols: int) -> int:
    """Bytes of a rows x cols frame in the buffer: float64 xyz, then int64 point_index."""
    return rows * cols * 32


class FrameBuffer:
    """A nameless file that grows to fit each frame: a memfd, else an unlinked temp file."""

    def __init__(self):
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("groundslice-frame")
        else:
            with tempfile.TemporaryFile() as fh:
                self.fd = os.dup(fh.fileno())
        self.mapping = None  # read-write, of the file's whole size

    def arrays(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """`frame_arrays` of a rows x cols frame, after growing the file if it does not fit."""
        size = frame_size(rows, cols)
        if self.mapping is None or len(self.mapping) < size:
            os.ftruncate(self.fd, size)
            self.mapping = mmap.mmap(self.fd, size)
        return frame_arrays(self.mapping, rows, cols)

    def close(self) -> None:
        if self.mapping is not None:
            self.mapping.close()
        os.close(self.fd)


_mapping = None  # this worker's read-only mapping of the executor's frame buffer


def band_view(band) -> RangeImage:
    """The view `slice_columns` gives of a `FrameBand`, in this worker's frame buffer.

    The buffer is mapped again once it has grown past the mapping. The old
    mapping goes with its last view, which a failed slice's traceback may
    still hold.
    """
    global _mapping
    if _mapping is None or len(_mapping) < frame_size(band.rows, band.cols):
        _mapping = mmap.mmap(band.fd, 0, access=mmap.ACCESS_READ)
    xyz, point_index = frame_arrays(_mapping, band.rows, band.cols)
    return RangeImage(xyz=xyz[:, band.lo:band.hi], point_index=point_index[:, band.lo:band.hi],
                      n_points=band.n_points)
