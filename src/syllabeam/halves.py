"""The two-process file reader: `halves(path, part)` is the list `part` makes
of a whole file, made of its two halves on two processes where it can. The
CLI's corpus reads, `nsp.write_dataset` and `lm.CharNgramModel.score_nsp_file`
read through it."""

from __future__ import annotations

import marshal
import os
import signal
import tempfile
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Optional


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forks() -> bool:
    """Whether work may be split with a forked child: `os.fork` exists and
    two CPUs are free."""
    return hasattr(os, "fork") and _cpus() > 1


@contextmanager
def _forked(child: Callable[[], object], work: str) -> Iterator[None]:
    """Run `child()` in a forked child process while the body runs in this one.

    The child leaves by `os._exit`, flushing none of this process's buffers,
    with the exit code the CLI gives a failure of its kind: 0 once `child()`
    returns, 2 on a ValueError and 1 on anything else. It is always reaped,
    and killed first if the body fails. Once the body is done, a child that
    failed raises ValueError (code 2) or ChildProcessError, each naming
    `work` and the code. Like the collector pause, this assumes one thread:
    a fork beside other threads may copy a lock another thread holds."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        except ValueError:
            code = 2
        finally:
            os._exit(code)
    try:
        yield
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        message = f"the process {work} exited with code {code}"
        raise ValueError(message) if code == 2 else ChildProcessError(message)


def _split(path) -> Optional[int]:
    """The byte just past the first line break at or after the middle byte of
    the regular file at `path`, where a byte follows it."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
    return split if split < size else None


def halves(path, part: Callable[[int, Optional[int]], list]) -> list:
    """`part(0, None)`: the list `part` makes of the whole file at `path`,
    `part(start, stop)` reading only the file's bytes from `start` up to
    `stop` (the end for None).

    Where the work may be split (`_forks`) and a line break at or past the
    middle byte has bytes after it (`_split`), a `_forked` child makes
    `part(0, split)` while this process makes `part(split, None)`, each part
    of the file read once. Only the child reads a part that stops early, so
    only the child holds its part's bytes (`corpus.open_input`). The child
    dumps its list with `marshal` to an unlinked temporary file, and this
    process appends its own list to the child's. On a ValueError of either
    part, a bad line, the whole file is read again in this process alone, so
    the error raised is the one-process read's, its line and message the
    same."""
    split = _split(path) if _forks() else None
    if split is not None:
        try:
            with tempfile.TemporaryFile() as spill:
                with _forked(partial(_dump, part, split, spill.fileno()), f"reading {path} up to byte {split}"):
                    tail = part(split, None)
                spill.seek(0)
                made = marshal.loads(spill.read())
            made.extend(tail)
            return made
        except ValueError:
            pass  # a bad line: the read below fails on it as it would alone
    return part(0, None)


def _dump(part: Callable[[int, Optional[int]], list], stop: int, fd: int) -> None:
    """Write `part(0, stop)`, marshalled, to the file open at `fd`."""
    with open(fd, "wb", closefd=False) as out:
        out.write(marshal.dumps(part(0, stop)))
