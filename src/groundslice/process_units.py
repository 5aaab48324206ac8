"""Worker processes of the `process` backend, and the frame buffer they read.

`SliceExecutor` imports this module only when it starts workers, so a run
on one unit or on `serial` units loads none of `subprocess`, `socket` or
`mmap`. A worker is a `python -c` subprocess, started with the caller's
interpreter flags, running `_BOOT` on one end of a socket pair. Each
message on the pair is a pickle behind its 8-byte little-endian length,
read with exact-length `recv` loops and no buffered reader: a frame
buffer's fd travels as one byte with SCM_RIGHTS right after the task that
needs it, and a reader that read ahead would drop it. The frame buffer is a
memfd (an unlinked temporary file where memfd is missing) that the caller
fills and each worker maps read-only. Nothing is named, so nothing outlives
the processes and no resource tracker runs.
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
    """A worker process on one end of a socket pair; the caller holds the other."""

    def __init__(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            # stdin is not inherited: the caller may be reading its own
            self.process = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", _BOOT,
                 str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL)
            self.sock = socket.socket(fileno=ours.detach())
        self.buffer = None  # generation of the frame buffer whose fd it was handed

    def send(self, obj) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.sock.sendall(len(data).to_bytes(8, "little") + data)

    def recv(self):
        """The next reply; EOFError when the worker has gone."""
        size = int.from_bytes(_recv_exact(self.sock, 8), "little")
        return pickle.loads(_recv_exact(self.sock, size))

    def send_unit(self, tasks: list, frame_buffer: FrameBuffer | None) -> None:
        """Send one unit's tasks; the frame buffer's fd follows the first task after it is new."""
        if frame_buffer is not None and self.buffer != frame_buffer.generation:
            self.send((_run_unit_on_new_buffer, (frame_buffer.generation, tasks)))
            socket.send_fds(self.sock, [b"\0"], [frame_buffer.fd])
            self.buffer = frame_buffer.generation
        else:
            self.send((_run_unit, tasks))


def frame_arrays(buf, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(xyz, point_index) of a rows x cols frame laid out in `buf`, xyz first."""
    xyz = np.ndarray((rows, cols, 3), dtype=np.float64, buffer=buf)
    point_index = np.ndarray((rows, cols), dtype=np.int64, buffer=buf, offset=xyz.nbytes)
    return xyz, point_index


class FrameBuffer:
    """A nameless file of `size` bytes, mapped read-write: a memfd, else an unlinked temp file."""

    def __init__(self, size: int, generation: int):
        if hasattr(os, "memfd_create"):
            fd = os.memfd_create("groundslice-frame")
        else:
            with tempfile.TemporaryFile() as fh:
                fd = os.dup(fh.fileno())
        try:
            os.ftruncate(fd, size)
            self.mapping = mmap.mmap(fd, size)
        except BaseException:
            os.close(fd)
            raise
        self.fd, self.size, self.generation = fd, size, generation

    def close(self) -> None:
        self.mapping.close()
        os.close(self.fd)


# (buffer generation, read-only mapping) of the one frame buffer this worker maps
_mapped_frame = None


def band_view(band) -> RangeImage:
    """The view `slice_columns` gives of a `FrameBand`, in this worker's frame buffer."""
    if _mapped_frame is None or _mapped_frame[0] != band.buffer:
        raise RuntimeError(f"frame buffer {band.buffer} is not mapped in this process")
    xyz, point_index = frame_arrays(_mapped_frame[1], band.rows, band.cols)
    return RangeImage(rows=band.rows, cols=band.hi - band.lo,
                      xyz=xyz[:, band.lo:band.hi],
                      point_index=point_index[:, band.lo:band.hi],
                      azimuth_span=band.azimuth_span, vertical_span=band.vertical_span,
                      n_points=band.n_points)


def _run_unit_on_new_buffer(arg) -> list[tuple[int, np.ndarray]]:
    """A worker's unit, after mapping the executor's new frame buffer.

    `arg` is (buffer generation, tasks). The buffer's fd follows the task on
    the worker's socket (`sock` of `_BOOT`). The old mapping goes with its
    last view, which a failed slice's traceback may still hold.
    """
    global _mapped_frame
    import __main__

    generation, tasks = arg
    _, fds, _, _ = socket.recv_fds(__main__.sock, 1, 1)
    if len(fds) != 1:
        raise RuntimeError(f"expected the frame buffer's fd, got {len(fds)} fds")
    try:
        _mapped_frame = (generation, mmap.mmap(fds[0], 0, access=mmap.ACCESS_READ))
    finally:
        os.close(fds[0])
    return _run_unit(tasks)
